(** A fixed-size OCaml 5 domain pool for the embarrassingly-parallel
    shape of the evaluation harness and the serve daemon: every Figure 8
    / Table 2 row, every sweep point and every request of a batch is an
    independent computation (its own kernel build, its own
    [Memory.clone], its own trace sink), so elements can be fanned out
    across domains with no shared mutable state.

    Work distribution is dynamic: an atomic cursor hands out one input
    index at a time, so a slow row (433.milc's 8000-trip loops) does not
    serialise the fast rows behind a static block split. Each input owns
    a preallocated result slot, which makes the output order-preserving
    by construction.

    One entry point, {!map}, captures every element's outcome as a
    [result]: one poisoned row degrades to an error row instead of
    sinking the whole report. {!map_ordered} is the fail-fast adapter
    for callers whose elements must all succeed. *)

(** Number of workers used when [?domains] is not given: all but one of
    the recommended domain count, leaving a core for the spawning
    domain (and never fewer than one worker). *)
let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

(** Why an element produced no value. *)
type failure =
  | Raised of { exn : exn; backtrace : Printexc.raw_backtrace }
  | Timed_out of { wall_seconds : float; limit : float }
      (** the element was canceled cooperatively at a {!Budget} poll
          ([limit] is the budget's), or it ran past [?timeout_s] and its
          worker was detached ([limit] is [?timeout_s]) *)

let failure_message = function
  | Raised { exn; _ } -> Printexc.to_string exn
  | Timed_out { wall_seconds; limit } ->
      Printf.sprintf "timed out: %.2fs (limit %.2fs)" wall_seconds limit

(** Raised by a task (or injected by the chaos harness) to simulate a
    worker domain dying mid-element: the element is answered
    [Error (Raised _)], the worker exits, and a replacement is spawned
    while unclaimed work remains. Ordinary exceptions only fail the
    element. *)
exception Kill_worker of string

let () =
  Printexc.register_printer (function
    | Kill_worker msg -> Some (Printf.sprintf "worker killed: %s" msg)
    | _ -> None)

(** Pool-level incidents, surfaced through [?on_event] (always on the
    calling domain) so callers can quarantine the offending input
    without threading state through the pool. *)
type event =
  | Detached of { index : int; wall_seconds : float; limit : float }
      (** element [index] ran past [?timeout_s]: it was answered
          [Timed_out] and its worker abandoned *)
  | Died of { index : int; exn : exn }
      (** the worker running element [index] raised {!Kill_worker}; the
          element was answered [Raised] *)

type worker = {
  finished : bool Atomic.t;  (** set as the body's last action *)
  died : (int * exn) option Atomic.t;  (** index and {!Kill_worker} *)
  mutable detached : bool;  (** only ever touched by the caller *)
}

(* Per-element slot protocol. A worker claims a slot by storing a fresh
   [Running] token, then publishes its result with a compare-and-set
   against that exact token (physical equality). The caller steals an
   overdue slot the same way: CAS [Running] -> [Done (Error (Timed_out
   _))]. Whoever wins the CAS owns the slot; a worker that loses stops
   taking work, so each element is answered exactly once. *)
type 'b cell =
  | Free
  | Running of { start : float; owner : worker }
  | Done of ('b, failure) result

(** [map ?domains ?timeout_s ?on_event f xs] applies [f] to every
    element on [domains] worker domains (default {!default_domains},
    capped at the core count) and answers each element, in input order:

    - [Ok y] when [f x] returned [y];
    - [Error (Timed_out _)] when [f x] raised {!Budget.Canceled} — a
      clean early return, the worker stays alive;
    - [Error (Raised _)] when [f x] raised {!Kill_worker} — the worker
      exits and the death is reported as {!Died} — or any other
      exception;
    - [Error (Timed_out _)] when [f x] is still running [?timeout_s]
      seconds after it started. Domains cannot be preempted, so the
      worker is {e detached}: the element is answered at the deadline,
      the worker keeps burning its core until [f x] returns (the late
      result is discarded) and is then leaked rather than joined, and a
      replacement domain takes over the remaining work. Detach is the
      backstop for code that never polls a budget; callers bound how
      often one input can trigger it (quarantine).

    Without [?timeout_s] the calling domain only blocks in
    [Domain.join] — it never sleeps or polls — and with one worker (or
    one element) [f] runs on the calling domain itself. With a deadline
    armed the caller supervises, polling the slots every 2 ms. *)
let map ?domains ?timeout_s ?on_event (f : 'a -> 'b) (xs : 'a list) :
    ('b, failure) result list =
  let requested =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  (* never spawn more workers than the machine has cores: domains beyond
     the core count add no parallelism but multiply OCaml's minor-GC
     stop-the-world synchronisation cost — on a single-core container,
     [--domains 4] used to run ~3x slower than [--domains 1] on
     identical work. The report still records the requested count. *)
  let requested = min requested (max 1 (Domain.recommended_domain_count ())) in
  let event e = match on_event with Some g -> g e | None -> () in
  let raised e =
    Error (Raised { exn = e; backtrace = Printexc.get_raw_backtrace () })
  in
  (* one element's outcome, plus the exception that kills its worker *)
  let run_one i x =
    (* monotonic clock: a wall-clock step (NTP) must not distort a row
       duration *)
    let t0 = Fv_obs.Clock.now () in
    let outcome =
      match Fv_obs.Span.with_row i (fun () -> f x) with
      | y -> (Ok y, None)
      | exception Budget.Canceled { elapsed_ms; limit_ms } ->
          let limit_ms = Option.value limit_ms ~default:elapsed_ms in
          let wall_seconds = elapsed_ms /. 1000.0 in
          (Error (Timed_out { wall_seconds; limit = limit_ms /. 1000.0 }), None)
      | exception (Kill_worker _ as e) -> (raised e, Some e)
      | exception e -> (raised e, None)
    in
    Fv_obs.Metrics.incr Fv_obs.Metrics.global "pool_tasks";
    Fv_obs.Metrics.observe
      ~labels:[ ("domain", string_of_int (Domain.self () :> int)) ]
      Fv_obs.Metrics.global "pool_task_seconds"
      (Fv_obs.Clock.elapsed ~since:t0);
    outcome
  in
  let n = List.length xs in
  if timeout_s = None && (requested = 1 || n <= 1) then
    List.mapi
      (fun i x ->
        let r, died = run_one i x in
        Option.iter (fun exn -> event (Died { index = i; exn })) died;
        r)
      xs
  else
    let items = Array.of_list xs in
    let slots = Array.init n (fun _ -> Atomic.make Free) in
    let cursor = Atomic.make 0 in
    let filled = Atomic.make 0 in
    let body w () =
      let rec go () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          let tok = Running { start = Fv_obs.Clock.now (); owner = w } in
          Atomic.set slots.(i) tok;
          let r, died = run_one i items.(i) in
          (* a lost CAS means the caller detached us: stop here *)
          if Atomic.compare_and_set slots.(i) tok (Done r) then begin
            Atomic.incr filled;
            match died with
            | Some e -> Atomic.set w.died (Some (i, e))
            | None -> go ()
          end
        end
      in
      go ();
      Atomic.set w.finished true
    in
    let workers = ref [] in
    let spawn () =
      let w =
        {
          finished = Atomic.make false;
          died = Atomic.make None;
          detached = false;
        }
      in
      workers := (w, Domain.spawn (body w)) :: !workers
    in
    let respawn () =
      (* only while unclaimed work remains: every claimed slot already
         has an owner (a live worker, or the caller's Timed_out) *)
      if Atomic.get cursor < n then begin
        spawn ();
        Fv_obs.Metrics.incr Fv_obs.Metrics.global "pool_worker_restarts"
      end
    in
    let reap ((w, d) as wd) =
      Domain.join d;
      workers := List.filter (fun x -> x != wd) !workers;
      match Atomic.get w.died with
      | None -> ()
      | Some (index, exn) ->
          (* the domain has terminated, so its metrics shard can be
             retired without losing a racing increment (see
             [Fv_obs.Metrics.retire]) *)
          Fv_obs.Metrics.retire Fv_obs.Metrics.global
            ~domain:(Domain.get_id d :> int);
          event (Died { index; exn });
          respawn ()
    in
    for _ = 1 to min requested n do
      spawn ()
    done;
    (match timeout_s with
    | None ->
        (* a worker exits only once the cursor is exhausted or it died,
           and a death with work left respawns — so joining until no
           worker remains answers every slot *)
        while !workers <> [] do
          reap (List.hd !workers)
        done
    | Some limit ->
        while Atomic.get filled < n do
          List.iter
            (fun ((w, _) as wd) -> if Atomic.get w.finished then reap wd)
            !workers;
          let now = Fv_obs.Clock.now () in
          Array.iteri
            (fun index cell ->
              match Atomic.get cell with
              | Running { start; owner } as tok when now -. start > limit ->
                  let wall_seconds = now -. start in
                  if
                    Atomic.compare_and_set cell tok
                      (Done (Error (Timed_out { wall_seconds; limit })))
                  then begin
                    Atomic.incr filled;
                    owner.detached <- true;
                    event (Detached { index; wall_seconds; limit });
                    respawn ()
                  end
              | _ -> ())
            slots;
          if Atomic.get filled < n then Unix.sleepf 0.002
        done;
        (* every slot is answered: the remaining non-detached workers
           are exiting, so joining them is prompt; a detached worker
           still inside its element is leaked *)
        List.iter
          (fun ((w, _) as wd) ->
            if (not w.detached) || Atomic.get w.finished then reap wd)
          !workers);
    Array.to_list
      (Array.map
         (fun c -> match Atomic.get c with Done r -> r | _ -> assert false)
         slots)

(** [map_ordered ?domains f xs] is [List.map f xs] on the pool: if any
    application raises, every element still runs, then the exception of
    the {e earliest} failing input is re-raised with its backtrace. *)
let map_ordered ?domains (f : 'a -> 'b) (xs : 'a list) : 'b list =
  List.map
    (function
      | Ok y -> y
      | Error (Raised { exn; backtrace }) ->
          Printexc.raise_with_backtrace exn backtrace
      | Error f -> failwith (failure_message f))
    (map ?domains f xs)
