(** Workload [compile-cold]: every request misses every cache.

    Closed loop, one in-process client: [Service.handle] over 20 000
    distinct loop requests ({!Fv_serve.Loadgen.distinct_cases}), each
    pass with fresh caches, passes repeated for the run's duration.
    Every request takes the whole cold path: parse, decode, canonical
    key, classify, vectorize, render, cache insert, and at the default
    capacity of 1024 an eviction. There is no simulation and no pool, so
    a front-end or sexp optimisation shows here, and [eval] is the
    workload on which such a change should show nothing.

    An operation is one request. The first pass is set-up and fixes
    each request's reference answer. Checks: every answer [ok] or
    [rejected] (the front end may refuse a loop), every later pass
    byte-identical to the first, and on every 100th case the oracle
    (scalar interpreter against vector execution) agrees with the
    answer. *)

module Svc = Fv_serve.Service
module Gen = Fv_fuzz.Gen

let requests ~quick = if quick then 2000 else 20_000

(* One pass over [lines] with fresh caches; only [Service.handle] is
   timed. [f i answer ns] sees each answer. *)
let pass (lines : string array) (f : int -> string -> float -> unit) : unit =
  let cfg = Svc.cfg () in
  Array.iteri
    (fun i line ->
      let t0 = Stats.now_ns () in
      let resp = Svc.handle cfg line in
      f i resp (Stats.since_ns t0))
    lines

(* the first pass fixes each request's answer *)
type reference = { hash : int64 array; status : string array }

(* [f], after checking each answer against the reference *)
let checked (rep : Report.t) (r : reference) (f : int -> float -> unit) =
 fun i resp ns ->
  let ok = Wire.answered ~allow_rejected:true resp in
  let same = Fv_obs.Hash.fnv1a64 resp = r.hash.(i) in
  Report.check rep same "request %d: the answer differs from the first pass" i;
  Report.count rep ~n:1 ~bad:(if ok && same then 0 else 1);
  f i ns

(* the differential oracle on every 100th case must agree with the
   answer: a plan where it passes, a rejection where the loop is not
   vectorizable *)
let check_oracle (rep : Report.t) (sampled : (int * Gen.case) list) (r : reference) =
  List.iter
    (fun (i, (c : Gen.case)) ->
      let verdict =
        Fv_core.Oracle.check ~vl:c.Gen.vl ~style:Fv_vectorizer.Gen.Flexvec
          c.Gen.loop (Gen.memory_of c) c.Gen.env
      in
      let agrees =
        match (r.status.(i), verdict) with
        | "ok", Ok _ -> true
        | "rejected", Error (Fv_core.Oracle.Not_vectorizable _) -> true
        | _ -> false
      in
      Report.check rep agrees "case %d (seed %d): oracle disagrees with %s" i
        c.Gen.seed r.status.(i))
    sampled

(* Set-up: generating the requests, and the first pass, which fixes
   each request's reference answer. It runs once: the in-process program
   would then run on the heap a repeated generation grew. Only the
   request lines and the oracle's sample outlive it: the cases' memory
   images would otherwise stay live, and every major collection during
   the measurement would mark them. Returns the set-up's time, ns. *)
let setup (rep : Report.t) ~seed ~quick =
  let t0 = Stats.now_ns () in
  (* [distinct_cases] draws generator seeds [seed], [seed + 1], ...:
     spread apart, consecutive seeds draw disjoint sets of cases *)
  let cases =
    Fv_serve.Loadgen.distinct_cases ~n:(requests ~quick) ~seed:(seed * 1_000_003)
  in
  let sampled =
    List.filteri (fun i _ -> i mod 100 = 0) cases
    |> List.mapi (fun k c -> (100 * k, c))
  in
  let lines =
    Array.of_list (List.map (fun c -> Fv_serve.Loadgen.loop_request_line c) cases)
  in
  let n = Array.length lines in
  let r = { hash = Array.make n 0L; status = Array.make n "" } in
  pass lines (fun i resp _ ->
      r.hash.(i) <- Fv_obs.Hash.fnv1a64 resp;
      r.status.(i) <- Wire.status resp;
      Report.count rep ~n:1
        ~bad:(if Wire.answered ~allow_rejected:true resp then 0 else 1));
  (sampled, lines, r, Stats.since_ns t0)

(* Each pass (about a second) is summarized on its own, and for each
   statistic the run reports the pass a tenth of the way from the fast
   end. Contention on a shared host slows whole passes at a time, by up
   to 70% for seconds on end; every pass does the same work from fresh
   caches, so a change to the code moves every pass alike, and the
   fastest passes measure the code rather than the host. On a 2-vCPU
   virtual machine this cut the ten-seed spreads from 7-17% (whole-run
   statistics) to 5-6%. *)
let run_untraced (rep : Report.t) ~seed ~seconds ~quick =
  let sampled, lines, reference, setup_ns = setup rep ~seed ~quick in
  let passes = ref [] in
  let t_run = Stats.now_ns () in
  while !passes = [] || Stats.since_s t_run < seconds do
    let lat = Array.make (Array.length lines) 0.0 in
    pass lines (checked rep reference (fun i ns -> lat.(i) <- ns));
    let per_s = float_of_int (Array.length lat) /. (Array.fold_left ( +. ) 0.0 lat *. 1e-9) in
    passes := (Stats.summarize ~pct:99.0 lat, per_s) :: !passes
  done;
  check_oracle rep sampled reference;
  let at f frac = Stats.at_frac (Array.of_list (List.map f !passes)) frac in
  Report.note rep "%d passes" (List.length !passes);
  Report.check_tail rep ~quick (fst (List.hd !passes));
  Report.set rep "setup_s" (setup_ns *. 1e-9);
  Report.set rep "latency_p50_ms" (at (fun (s, _) -> s.Stats.p50) 0.1 *. 1e-6);
  Report.set rep "latency_tail_ms" (at (fun (s, _) -> s.Stats.tail) 0.1 *. 1e-6);
  Report.set rep "throughput_per_s" (at snd 0.9);
  Report.set rep "peak_rss_mb" (Report.vmhwm_mb "self")

let run_traced (rep : Report.t) ~seed ~seconds ~quick =
  let sampled, lines, reference, _ = setup rep ~seed ~quick in
  let i = ref 0 in
  let next () =
    let l = lines.(!i mod Array.length lines) in
    incr i;
    l
  in
  let run =
    Decompose.interleaved ~stage:Decompose.compile ~next ~warm:0 ~max:max_int
      ~seconds
  in
  check_oracle rep sampled reference;
  Decompose.report rep run;
  (* every request went through the caches three times *)
  let c name = List.assoc name run.Decompose.counts in
  Report.set rep "plan_cache.hit_frac"
    (Stats.hit_frac (c "plan_cache_hits") (c "plan_cache_misses"));
  Report.set rep "response_cache.hit_frac"
    (Stats.hit_frac (c "response_cache_hits") (c "response_cache_misses"));
  Report.set rep "plan_cache.evictions_per_kreq"
    (c "plan_cache_evictions"
    /. float_of_int (3 * run.Decompose.acc.Decompose.ops)
    *. 1000.0);
  Report.set rep "rejected_frac"
    (float_of_int
       (Array.fold_left (fun n s -> if s = "rejected" then n + 1 else n) 0
          reference.status)
    /. float_of_int (Array.length lines))

let run (rep : Report.t) ~seed ~seconds ~quick =
  if rep.Report.trace then run_traced rep ~seed ~seconds ~quick
  else run_untraced rep ~seed ~seconds ~quick
