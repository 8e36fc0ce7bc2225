(** Timing statistics for the end-to-end benchmark.

    Every time the benchmark takes itself comes from
    [clock_gettime(CLOCK_MONOTONIC)] through [bechamel.monotonic_clock]:
    integer nanoseconds, so a 1 µs stage is resolved to the nanosecond
    rather than to the ~238 ns tick of the program's own
    {!Fv_obs.Clock}, which this module never reads.

    A timing is reported as its median and its {e tail}, with the sample
    count. Each workload pins its tail level (p99 for the closed loops,
    p95 for the open loop, the slowest pass for [eval]): the highest
    percentile that a run of the benchmark's length still has at least
    ten samples beyond. Every run reports that level and no other, so two
    runs always report the same statistic; {!Report.check_tail} fails a
    full-length run that has fewer than ten samples beyond it. *)

let now_ns () : int64 = Monotonic_clock.now ()

(** Nanoseconds since [t0] (a value of {!now_ns}), as a float. *)
let since_ns (t0 : int64) : float = Int64.to_float (Int64.sub (now_ns ()) t0)

let since_s (t0 : int64) : float = since_ns t0 *. 1e-9

(** [time f] runs [f] and returns its result with the ns it took. *)
let time (f : unit -> 'a) : 'a * float =
  let t0 = now_ns () in
  let y = f () in
  (y, since_ns t0)

(* ---------------- growable sample buffer ---------------- *)

(** Samples accumulate here during a measured loop without allocating
    a cons cell per sample. *)
type samples = { mutable a : float array; mutable len : int }

let samples () = { a = Array.make 1024 0.0; len = 0 }

let add (s : samples) (x : float) : unit =
  if s.len = Array.length s.a then begin
    let b = Array.make (2 * s.len) 0.0 in
    Array.blit s.a 0 b 0 s.len;
    s.a <- b
  end;
  s.a.(s.len) <- x;
  s.len <- s.len + 1

let to_array (s : samples) : float array = Array.sub s.a 0 s.len

(** [hits / (hits + misses)], 0 when nothing was looked up. *)
let hit_frac (hits : float) (misses : float) : float =
  if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0

(* ---------------- order statistics ---------------- *)

let sorted (xs : float array) : float array =
  let c = Array.copy xs in
  Array.sort Float.compare c;
  c

(** Median of [xs] (mean of the middle pair for even counts); [nan]
    when empty. *)
let median (xs : float array) : float =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(** The element of [xs] at fraction [f] of the way through its sorted
    order, rounded to the nearest element: [at_frac xs 0.1] is near the
    low end. *)
let at_frac (xs : float array) (f : float) : float =
  let s = sorted xs in
  s.(int_of_float (Float.round (f *. float_of_int (Array.length s - 1))))

let mean (xs : float array) : float =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(** Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
    (the default "exclusive" method), so a spread [compare] prints is
    the one a Python check of the same runs computes. *)
let quartiles (xs : float array) : float * float * float =
  let s = sorted xs in
  let ld = Array.length s in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let q i =
      (* the same integer arithmetic as CPython, clamping included *)
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

type summary = {
  n : int;
  p50 : float;
  pct : float;  (** the pinned tail level; 100.0 is the maximum *)
  tail : float;  (** nearest-rank percentile [pct] *)
  beyond : int;  (** samples strictly beyond [tail]'s rank *)
}

(** Median and tail of [xs] at the pinned level [pct]. [pct = 100.0]
    pins the maximum: the choice for a workload whose run holds too few
    operations for any percentile. *)
let summarize ~(pct : float) (xs : float array) : summary =
  let s = sorted xs in
  let n = Array.length s in
  let rank = max 1 (int_of_float (Float.ceil (pct /. 100.0 *. float_of_int n))) in
  if n = 0 then { n; p50 = nan; pct; tail = nan; beyond = 0 }
  else { n; p50 = median xs; pct; tail = s.(rank - 1); beyond = n - rank }

let pp_pct (p : float) : string =
  if p >= 100.0 then "max" else Printf.sprintf "p%g" p

(* ---------------- open-loop schedule ---------------- *)

(** Due times (seconds from the start of the leg) of an open-loop
    arrival process at [rate] requests per second over [seconds]:
    evenly spaced, each moved by a seeded uniform jitter of up to half
    an interval either way. The schedule is fixed before the leg
    starts, so a stalled server cannot slow the arrivals down. *)
let open_schedule ~(seed : int) ~(rate : float) ~(seconds : float) :
    float array =
  let st = Random.State.make [| seed; 0x5eed |] in
  let n = max 1 (int_of_float (rate *. seconds)) in
  let gap = 1.0 /. rate in
  Array.init n (fun i ->
      let jitter = (Random.State.float st 1.0 -. 0.5) *. gap in
      Float.max 0.0 ((float_of_int i *. gap) +. jitter))
