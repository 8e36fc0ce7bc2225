(** Figure 8 reproduction: overall application speedup of FlexVec over
    the AVX-512 baseline for the 11 SPEC benchmarks and 7 applications.

    Per benchmark: profile the kernel (the Pin step), run the §5
    cost-model heuristics, simulate both the scalar baseline and the
    FlexVec code on the Table 1 machine, compute the hot-region speedup
    and scale it by the Table 2 coverage into the overall speedup
    ("hot region speedups are then scaled down based on their
    contribution to total program execution"). *)

module R = Fv_workloads.Registry
module K = Fv_workloads.Kernels

type row = {
  spec : R.spec;
  profile : Fv_profiler.Profile.t;
  decision : Fv_vectorizer.Costmodel.decision;
  baseline : Experiment.hot_run;
  flexvec : Experiment.hot_run;
  hot : float;  (** hot-region speedup *)
  overall : float;  (** Amdahl-scaled application speedup *)
  mix_measured : string;  (** FlexVec instructions actually emitted *)
}

let geomean = function
  | [] -> 1.0
  | xs ->
      exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(** The Pin step: profile up to four invocations of [built]'s loop. The
    cold region's dynamic size is chosen so that the measured coverage
    equals Table 2's (the paper measures coverage with rdtsc over the
    real applications, which we do not have). *)
let profile (spec : R.spec) (built : K.built) : Fv_profiler.Profile.t =
  let probe =
    Fv_profiler.Profile.profile ~invocations:(min spec.invocations 4)
      built.K.loop built.K.mem built.K.env
  in
  let other_uops =
    int_of_float
      (float_of_int probe.hot_uops *. (1.0 -. spec.coverage) /. spec.coverage)
  in
  Fv_profiler.Profile.with_other_uops probe ~other_uops

(** The §5 cost-model heuristics applied to a profile. *)
let decide (p : Fv_profiler.Profile.t) : Fv_vectorizer.Costmodel.decision =
  Fv_vectorizer.Costmodel.decide ~avg_trip:p.avg_trip
    ~effective_vl:p.effective_vl ~mem_ratio:p.mem_ratio ~coverage:p.coverage
    ()

let run_row ?(vl = 16) ?(seed = 42) (spec : R.spec) : row =
  let profile = profile spec (spec.build seed) in
  let decision = decide profile in
  let baseline =
    Experiment.run_workload ~vl ~invocations:spec.invocations ~seed
      Experiment.Scalar spec.build
  in
  let flexvec =
    if decision.vectorize then
      Experiment.run_workload ~vl ~invocations:spec.invocations ~seed
        Experiment.Flexvec spec.build
    else baseline
  in
  let hot = Experiment.hot_speedup ~baseline flexvec in
  let overall = Experiment.overall_speedup ~coverage:spec.coverage ~hot in
  let mix_measured =
    match flexvec.mix with
    | Some m -> Fv_vir.Count.to_table2_string m
    | None -> "(scalar)"
  in
  { spec; profile; decision; baseline; flexvec; hot; overall; mix_measured }

type result = {
  rows : row list;
  errors : (string * string) list;
      (** benchmarks whose row raised, as [(name, message)]; their rows
          are excluded from the geomeans *)
  spec_geomean : float;
  app_geomean : float;
}

(** Run every benchmark row, fanned out across [?domains] worker
    domains (each row builds its own kernel, memory and trace sink, so
    rows share no mutable state). Output order matches [benchmarks]
    regardless of completion order. A row that raises becomes an entry
    in [errors] while every other row still completes and the geomeans
    are taken over the survivors — one poisoned benchmark degrades the
    report instead of sinking it. *)
let run ?vl ?seed ?domains ?(benchmarks = R.all) () : result =
  let outcomes =
    Fv_parallel.Pool.map ?domains (run_row ?vl ?seed) benchmarks
  in
  let rows, errors =
    List.fold_right2
      (fun (spec : R.spec) outcome (rows, errors) ->
        match outcome with
        | Ok r -> (r :: rows, errors)
        | Error f ->
            (rows, (spec.R.name, Fv_parallel.Pool.failure_message f) :: errors))
      benchmarks outcomes ([], [])
  in
  let of_group g =
    List.filter_map
      (fun r -> if r.spec.R.group = g then Some r.overall else None)
      rows
  in
  {
    rows;
    errors;
    spec_geomean = geomean (of_group R.Spec);
    app_geomean = geomean (of_group R.App);
  }
