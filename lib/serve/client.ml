(** Resilient client: deadline-aware retries, exponential backoff with
    deterministic jitter, and optional hedged requests.

    The server side of this PR makes deadlines real; this is the
    client side that makes them {e useful}. A client that fires one
    request and gives up turns every transient [overloaded] shed into a
    user-visible failure; a client that retries in a tight loop turns
    one overload into a retry storm. [call] does neither: it retries
    only retryable outcomes (a lost response, an [overloaded] shed, an
    internal [error]), waits an exponentially growing, jittered backoff
    between attempts, charges everything — attempts, backoffs, hedges —
    against one request deadline, and stops the moment the remaining
    budget cannot cover the next backoff. Terminal verdicts ([ok],
    [rejected], [rejected-cost], [invalid], [deadline-exceeded],
    [oversized]) are returned immediately: retrying a deterministic
    answer only adds load.

    Transports are plain functions [string -> string option] (request
    line in, response line out, [None] = lost) so the same client runs
    over an in-process {!Service.handle}, a pipe to {!Server.serve_fd},
    or a fake in a unit test. {e Hedging}: when a [hedge] transport is
    given and the primary's attempt came back retryable (or slower than
    [hedge_after_s]), the hedge is asked once before the backoff — the
    classic tail-latency trade of duplicate work for a second
    independent path.

    Jitter is a deterministic splitmix64 stream from [seed]: load
    benches and tests replay byte-identical schedules. *)

type policy = {
  retries : int;  (** additional attempts after the first *)
  base_backoff_s : float;  (** first backoff; doubles per attempt *)
  max_backoff_s : float;
  jitter : float;  (** ± fraction of the backoff randomized away *)
  hedge_after_s : float option;
      (** primary latency beyond which a hedge fires ([None]: hedge
          only on retryable outcomes) *)
}

let default_policy =
  {
    retries = 3;
    base_backoff_s = 0.005;
    max_backoff_s = 0.25;
    jitter = 0.5;
    hedge_after_s = None;
  }

type outcome = {
  response : string option;  (** [None]: every attempt lost or blown *)
  status : string option;  (** the response's [(status S)] field *)
  attempts : int;  (** primary-transport attempts made *)
  hedges : int;  (** hedge-transport attempts made *)
  gave_up : [ `Deadline | `Retries ] option;
}

(* splitmix64: deterministic jitter stream *)
let mix (st : int64 ref) : float =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

(** The atom of the first [(name atom)] field of a response line, read
    without a parse: responses render every field canonically, one
    space after the name. The scan compares in place, so the returned
    atom is the only allocation. *)
let response_field (line : string) (name : string) : string option =
  let ll = String.length line and n = String.length name in
  (* start of the atom after the first "(name " opener, or -1 *)
  let start = ref (-1) and i = ref 0 in
  while !start < 0 && !i + n + 2 <= ll do
    if line.[!i] = '(' && line.[!i + n + 1] = ' ' then begin
      let k = ref 0 in
      while !k < n && line.[!i + 1 + !k] = name.[!k] do
        incr k
      done;
      if !k = n then start := !i + n + 2
    end;
    incr i
  done;
  if !start < 0 then None
  else begin
    let stop = ref !start in
    while !stop < ll && line.[!stop] <> ')' do
      incr stop
    done;
    if !stop = ll then None else Some (String.sub line !start (!stop - !start))
  end

let status_of_response (line : string) : string option =
  response_field line "status"

(* a retryable outcome might succeed on another attempt; a terminal one
   is the answer *)
let retryable = function
  | None -> true (* lost *)
  | Some "overloaded" | Some "error" -> true
  | Some _ -> false

(** One logical request with retries, backoff and hedging, all charged
    against [deadline_ms] (unbounded when omitted). *)
let call ?(policy = default_policy) ?deadline_ms ?(seed = 0) ?hedge
    (transport : string -> string option) (line : string) : outcome =
  let rng = ref (Int64.of_int (0x9E37 + seed)) in
  let t0 = Fv_obs.Clock.now () in
  let remaining_s () =
    match deadline_ms with
    | None -> infinity
    | Some ms -> (float_of_int ms /. 1000.0) -. Fv_obs.Clock.elapsed ~since:t0
  in
  let attempts = ref 0 and hedges = ref 0 in
  let finish ?gave_up response =
    {
      response;
      status = Option.bind response status_of_response;
      attempts = !attempts;
      hedges = !hedges;
      gave_up;
    }
  in
  let rec go attempt (last : string option) =
    if remaining_s () <= 0.0 then finish ~gave_up:`Deadline last
    else if attempt > policy.retries then finish ~gave_up:`Retries last
    else begin
      incr attempts;
      let a0 = Fv_obs.Clock.now () in
      let resp = transport line in
      let a_elapsed = Fv_obs.Clock.elapsed ~since:a0 in
      let st = Option.bind resp status_of_response in
      let slow =
        match policy.hedge_after_s with
        | Some h -> a_elapsed > h
        | None -> false
      in
      if (not (retryable st)) && not slow then finish resp
      else
        (* hedge once before backing off: a second independent path is
           cheaper than another round-trip of waiting *)
        let hedged =
          match hedge with
          | Some h when remaining_s () > 0.0 -> (
              incr hedges;
              let hresp = h line in
              match Option.bind hresp status_of_response with
              | hst when not (retryable hst) -> Some hresp
              | _ -> None)
          | _ -> None
        in
        match hedged with
        | Some r -> finish r
        | None ->
            if not (retryable st) then finish resp
            else begin
              let backoff =
                Float.min policy.max_backoff_s
                  (policy.base_backoff_s *. (2.0 ** float_of_int attempt))
              in
              let backoff =
                backoff *. (1.0 +. (policy.jitter *. (mix rng -. 0.5)))
              in
              if remaining_s () <= backoff then
                finish ~gave_up:`Deadline (match resp with None -> last | r -> r)
              else begin
                Unix.sleepf backoff;
                go (attempt + 1) (match resp with None -> last | r -> r)
              end
            end
    end
  in
  go 0 None
