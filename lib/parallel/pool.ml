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

    One scheduler, {!run}, captures every element's outcome as a
    [result]: one poisoned row degrades to an error row instead of
    sinking the whole report. It serves two worker lifetimes:

    - a long-lived pool ({!create}), whose workers park between runs so
      back-to-back runs reuse the same domains, until {!release} ends
      them — the serve daemon owns one and releases it whenever its
      input goes idle;
    - a one-shot {!map}, whose workers exit as soon as the cursor runs
      dry, as every harness caller wants: a parked domain takes part in
      every stop-the-world minor collection of the process.

    {!map_ordered} is the fail-fast adapter for callers whose elements
    must all succeed. *)

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

(* How a worker left its run. *)
type fate =
  | Busy  (** still inside the run *)
  | Dry  (** found the run's cursor exhausted *)
  | Dead of int * exn  (** answered this element, then died *)
  | Lost  (** its element was answered by the caller's detach *)

type worker = {
  mutable order : order;  (** guarded by the pool's lock *)
  mutable fate : fate;  (** guarded by the pool's lock *)
  finished : bool Atomic.t;  (** set as the domain's last action *)
}

and order = Idle | Run of (worker -> fate) | Exit

type t = {
  size : int;  (** workers per run *)
  parks : bool;  (** a dry worker parks (long-lived) or exits (one-shot) *)
  lock : Mutex.t;
  wake : Condition.t;  (** parked workers wait here for an order *)
  reported : Condition.t;  (** the caller waits here for a fate *)
  mutable parked : (worker * unit Domain.t) list;  (** caller-owned *)
  mutable abandoned : (worker * unit Domain.t) list;
      (** caller-owned: detached workers, joined once they have finished *)
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

let make ~parks ?domains () =
  let requested =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  {
    (* never spawn more workers than the machine has cores: domains
       beyond the core count add no parallelism but multiply OCaml's
       minor-GC stop-the-world synchronisation cost — on a single-core
       container, [--domains 4] used to run ~3x slower than
       [--domains 1] on identical work. The report still records the
       requested count. *)
    size = min requested (max 1 (Domain.recommended_domain_count ()));
    parks;
    lock = Mutex.create ();
    wake = Condition.create ();
    reported = Condition.create ();
    parked = [];
    abandoned = [];
  }

(** [create ?domains ()] is a long-lived pool of [domains] workers
    (default {!default_domains}, capped at the core count). It spawns
    nothing: {!run} spawns workers as it needs them and parks them when
    it is done, {!release} ends the parked ones. One caller domain at a
    time may use a pool. *)
let create ?domains () = make ~parks:true ?domains ()

let spawned = Atomic.make 0

(** Worker domains spawned by every pool of the process so far. *)
let domains_spawned () = Atomic.get spawned

(* The worker's domain: run each order, report its fate, park while the
   pool keeps dry workers. A detached worker reports nothing — the
   caller has already abandoned it — and exits. *)
let rec work t w =
  let order =
    Mutex.protect t.lock (fun () ->
        while w.order == Idle do
          Condition.wait t.wake t.lock
        done;
        let o = w.order in
        w.order <- Idle;
        o)
  in
  match order with
  | Idle | Exit -> ()
  | Run job -> (
      match job w with
      | Lost -> ()
      | fate -> (
          Mutex.protect t.lock (fun () ->
              w.fate <- fate;
              Condition.broadcast t.reported);
          match fate with Dry when t.parks -> work t w | _ -> ()))

let spawn t job =
  let w = { order = Run job; fate = Busy; finished = Atomic.make false } in
  Atomic.incr spawned;
  ( w,
    Domain.spawn (fun () ->
        work t w;
        Atomic.set w.finished true) )

let join (_, d) =
  Domain.join d;
  (* the domain has terminated, so its metrics shard can be retired
     without losing a racing increment (see [Fv_obs.Metrics.retire]) *)
  Fv_obs.Metrics.retire Fv_obs.Metrics.global ~domain:(Domain.get_id d :> int)

let reap_abandoned t =
  let done_, live =
    List.partition (fun (w, _) -> Atomic.get w.finished) t.abandoned
  in
  t.abandoned <- live;
  List.iter join done_

(** [release t] ends every parked worker: each is woken with an exit
    order, joined, and its metrics shard retired. The next {!run}
    spawns afresh. With nothing parked it does nothing. *)
let release (t : t) : unit =
  match t.parked with
  | [] -> ()
  | ws ->
      t.parked <- [];
      Mutex.protect t.lock (fun () ->
          List.iter (fun (w, _) -> w.order <- Exit) ws;
          Condition.broadcast t.wake);
      List.iter join ws;
      reap_abandoned t

(** [run t ?timeout_s ?on_event f xs] applies [f] to every element on
    [t]'s workers and answers each element, in input order:

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
      result is discarded) and then exits, never to rejoin the pool,
      and a replacement domain takes over the remaining work. Detach is
      the backstop for code that never polls a budget; callers bound
      how often one input can trigger it (quarantine).

    The run reuses parked workers and spawns only the shortfall; a
    worker that dies is replaced while unclaimed work remains. Without
    [?timeout_s] the calling domain only blocks until a worker reports
    — it never sleeps or polls — and with one worker (or one element)
    [f] runs on the calling domain itself. With a deadline armed the
    caller supervises, polling the slots every 2 ms. *)
let run (t : t) ?timeout_s ?on_event (f : 'a -> 'b) (xs : 'a list) :
    ('b, failure) result list =
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
    Fv_obs.Metrics.observe Fv_obs.Metrics.global "pool_task_seconds"
      (Fv_obs.Clock.elapsed ~since:t0);
    outcome
  in
  let n = List.length xs in
  if timeout_s = None && (t.size = 1 || n <= 1) then
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
    let job w =
      let rec go () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i >= n then Dry
        else
          let tok = Running { start = Fv_obs.Clock.now (); owner = w } in
          Atomic.set slots.(i) tok;
          let r, died = run_one i items.(i) in
          (* a lost CAS means the caller detached us: stop here *)
          if Atomic.compare_and_set slots.(i) tok (Done r) then begin
            Atomic.incr filled;
            match died with Some e -> Dead (i, e) | None -> go ()
          end
          else Lost
      in
      go ()
    in
    (* the workers in this run that have not reported *)
    let running = ref [] in
    let hire () =
      let wd =
        match t.parked with
        | ((w, _) as wd) :: rest ->
            t.parked <- rest;
            Mutex.protect t.lock (fun () ->
                w.fate <- Busy;
                w.order <- Run job;
                Condition.broadcast t.wake);
            wd
        | [] -> spawn t job
      in
      running := wd :: !running
    in
    let replace () =
      (* only while unclaimed work remains: every claimed slot already
         has an owner (a live worker, or the caller's Timed_out) *)
      if Atomic.get cursor < n then begin
        hire ();
        Fv_obs.Metrics.incr Fv_obs.Metrics.global "pool_worker_restarts"
      end
    in
    let busy (w, _) = match w.fate with Busy -> true | _ -> false in
    (* take the workers that have reported, waiting for one if [block] *)
    let settle ~block =
      let out =
        Mutex.protect t.lock (fun () ->
            let rec await () =
              match List.filter (fun wd -> not (busy wd)) !running with
              | [] when block ->
                  Condition.wait t.reported t.lock;
                  await ()
              | out -> out
            in
            await ())
      in
      List.iter
        (fun ((w, _) as wd) ->
          running := List.filter (fun x -> x != wd) !running;
          match w.fate with
          | Dead (index, exn) ->
              join wd;
              event (Died { index; exn });
              replace ()
          | _ -> if t.parks then t.parked <- wd :: t.parked else join wd)
        out
    in
    for _ = 1 to min t.size n do
      hire ()
    done;
    Option.iter
      (fun limit ->
        while Atomic.get filled < n do
          settle ~block:false;
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
                    let mine, rest =
                      List.partition (fun (w, _) -> w == owner) !running
                    in
                    running := rest;
                    t.abandoned <- mine @ t.abandoned;
                    event (Detached { index; wall_seconds; limit });
                    replace ()
                  end
              | _ -> ())
            slots;
          if Atomic.get filled < n then Unix.sleepf 0.002
        done)
      timeout_s;
    (* a worker leaves the run only once the cursor is exhausted, it
       died or it was detached, and a death with work left hires a
       replacement — so waiting until every worker has reported answers
       every slot; once all are answered the waits are prompt *)
    while !running != [] do
      settle ~block:true
    done;
    reap_abandoned t;
    Array.to_list
      (Array.map
         (fun c -> match Atomic.get c with Done r -> r | _ -> assert false)
         slots)

(** [map ?domains ?timeout_s ?on_event f xs] is {!run} on a one-shot
    pool of [domains] workers (default {!default_domains}, capped at the
    core count) whose workers exit as soon as the cursor runs dry, so
    nothing outlives the call but a detached worker still inside its
    element. *)
let map ?domains ?timeout_s ?on_event (f : 'a -> 'b) (xs : 'a list) :
    ('b, failure) result list =
  run (make ~parks:false ?domains ()) ?timeout_s ?on_event f xs

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
