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

let run_row ?(vl = 16) ?(seed = 42) ?faults ?budget (spec : R.spec) : row =
  let built = spec.build seed in
  (* profiling: the cold region's dynamic size is chosen so that the
     measured coverage equals Table 2's (the paper measures coverage
     with rdtsc over the real applications, which we do not have) *)
  let probe =
    Fv_profiler.Profile.profile ~invocations:(min spec.invocations 4)
      built.K.loop built.K.mem built.K.env
  in
  let other_uops =
    int_of_float
      (float_of_int probe.hot_uops *. (1.0 -. spec.coverage) /. spec.coverage)
  in
  let profile = Fv_profiler.Profile.with_other_uops probe ~other_uops in
  (* the profiler is not budget-threaded: poll at the seam *)
  Fv_parallel.Budget.check_opt budget;
  let decision =
    Fv_vectorizer.Costmodel.decide ~avg_trip:profile.avg_trip
      ~effective_vl:profile.effective_vl ~mem_ratio:profile.mem_ratio
      ~coverage:profile.coverage ()
  in
  let baseline =
    Experiment.run_workload ?budget ~vl ~invocations:spec.invocations
      ~seed Experiment.Scalar spec.build
  in
  let flexvec =
    if decision.vectorize then
      Experiment.run_workload ?budget ~vl ?faults ~invocations:spec.invocations
        ~seed Experiment.Flexvec spec.build
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
      (** benchmarks whose row failed (raised or timed out), as
          [(name, message)]; their rows are excluded from the geomeans *)
  spec_geomean : float;
  app_geomean : float;
}

(** Run every benchmark row, fanned out across [?domains] worker
    domains (each row builds its own kernel, memory and trace sink, so
    rows share no mutable state). Output order matches [benchmarks]
    regardless of completion order. A row that raises or exceeds
    [?timeout_s] wall-clock seconds becomes an entry in [errors] while
    every other row still completes and the geomeans are taken over the
    survivors — one poisoned benchmark degrades the report instead of
    sinking it.

    [?timeout_s] arms a cooperative {!Fv_parallel.Budget} per row, so an
    overdue row cancels itself at its next poll and frees its worker.
    The pool's detach deadline is only the backstop for a row stuck
    where nothing polls; it is set to twice the budget so that a row
    which does poll always cancels before it can be detached. *)
let run ?vl ?seed ?domains ?faults ?timeout_s ?(benchmarks = R.all) () :
    result =
  let row spec =
    (* armed when the row starts, not when the run does *)
    let budget =
      Option.map (fun s -> Fv_parallel.Budget.create ~deadline_s:s ()) timeout_s
    in
    run_row ?vl ?seed ?faults ?budget spec
  in
  let outcomes =
    Fv_parallel.Pool.map ?domains
      ?timeout_s:(Option.map (fun s -> 2.0 *. s) timeout_s)
      row benchmarks
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
