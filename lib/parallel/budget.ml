(** Cooperative cancellation budgets — the mechanism that makes
    deadlines real instead of post-hoc.

    A budget is a monotonic-clock deadline ({!Fv_obs.Clock}, so an NTP
    step can neither fire a phantom cancellation nor extend a real one)
    plus a cancel flag any domain may set. Long computations thread an
    optional budget down their hot path and {!check} it at natural
    yield points — once per vector strip, per RTM tile, per PDG SCC,
    every few thousand pipeline events — and a blown budget raises the
    structured {!Canceled} there, unwinding the computation {e from the
    inside}. That is the whole point: OCaml domains cannot be
    preempted, so the only alternative to cooperation is the pool's
    detach — answer the caller, abandon the domain, and let it
    burn a core until the computation finishes on its own. A checked
    budget costs a handful of nanoseconds per poll; a detach costs a
    core times the computation's remaining runtime, plus a replacement
    domain spawn.

    Contract for hot-path callers: with no budget attached ([None]),
    the polling must be a no-op — same instruction counts, same stats,
    byte-identical results (guarded by the budget-off bit-identity
    suite). With a budget attached that never expires, results are
    identical too: {!check} either raises or does nothing.

    Exception-safety contract for everything between a {!check} site
    and the caller that handles {!Canceled}: catch-all handlers (the
    vectorizer's totality backstop, the classifier's internal-error
    rescue) must re-raise {!Canceled} rather than converting it into a
    value — a swallowed cancellation resurrects the post-hoc world. *)

type t = {
  deadline : float;
      (** absolute {!Fv_obs.Clock.now} time after which the budget is
          blown; [infinity] = no deadline, cancel-flag only *)
  started : float;  (** when the budget was armed, for error messages *)
  canceled : bool Atomic.t;
}

(** Raised by {!check} on a blown or canceled budget. [elapsed_ms] is
    wall time since the budget was armed; [limit_ms] is the deadline it
    was armed with ([None] for an explicit {!cancel} with no
    deadline). *)
exception Canceled of { elapsed_ms : float; limit_ms : float option }

let () =
  Printexc.register_printer (function
    | Canceled { elapsed_ms; limit_ms } ->
        Some
          (match limit_ms with
          | Some l ->
              Printf.sprintf "budget canceled: %.3f ms elapsed (limit %.3f ms)"
                elapsed_ms l
          | None ->
              Printf.sprintf "budget canceled: %.3f ms elapsed" elapsed_ms)
    | _ -> None)

(** A budget expiring [deadline_s] seconds from now ([None]:
    cancel-flag only — it never expires on its own). *)
let create ?deadline_s () : t =
  let now = Fv_obs.Clock.now () in
  {
    deadline =
      (match deadline_s with Some s -> now +. s | None -> infinity);
    started = now;
    canceled = Atomic.make false;
  }

(** The serve layer's spelling: a budget for a [(deadline-ms N)]
    request field. A non-positive deadline is already blown. *)
let of_deadline_ms (ms : int) : t =
  create ~deadline_s:(float_of_int ms /. 1000.0) ()

(** Cancel explicitly (idempotent; any domain). The computation notices
    at its next {!check}. *)
let cancel (t : t) : unit = Atomic.set t.canceled true

let canceled (t : t) : bool = Atomic.get t.canceled

(** Blown — canceled explicitly, or past the deadline. One atomic read
    plus one clock read. [>=] so a non-positive deadline is blown at
    birth, before the clock has visibly advanced. *)
let expired (t : t) : bool =
  Atomic.get t.canceled
  || (t.deadline < infinity && Fv_obs.Clock.now () >= t.deadline)

(** Seconds left before the deadline ([infinity] if none); never
    negative, and 0.0 once canceled. *)
let remaining_s (t : t) : float =
  if Atomic.get t.canceled then 0.0
  else if t.deadline = infinity then infinity
  else Float.max 0.0 (t.deadline -. Fv_obs.Clock.now ())

let limit_ms (t : t) : float option =
  if t.deadline = infinity then None
  else Some (1000.0 *. (t.deadline -. t.started))

(** Raise {!Canceled} if the budget is blown; otherwise do nothing.
    This is the poll hot paths call at their yield points. *)
let check (t : t) : unit =
  if expired t then
    raise
      (Canceled
         {
           elapsed_ms = 1000.0 *. Fv_obs.Clock.elapsed ~since:t.started;
           limit_ms = limit_ms t;
         })

(** [check] through an [option] — the common shape at threading seams,
    where the budget is an optional argument. *)
let check_opt : t option -> unit = function
  | None -> ()
  | Some t -> check t
