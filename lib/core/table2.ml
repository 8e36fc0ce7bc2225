(** Table 2 reproduction: coverage, average trip count, and FlexVec
    instruction mix per benchmark — paper-reported values side by side
    with what our profiler measures and our vectorizer actually emits. *)

module R = Fv_workloads.Registry
module K = Fv_workloads.Kernels

type row = {
  spec : R.spec;
  measured_trip : float;
  measured_evl : float;
  measured_coverage : float;
  measured_mix : string;
  mix_matches : bool;  (** measured mix equals the paper's column *)
}

let run_row ?(seed = 42) (spec : R.spec) : row =
  let built = spec.build seed in
  let p = Figure8.profile spec built in
  let measured_mix =
    match Fv_vectorizer.Gen.vectorize built.K.loop with
    | Ok vloop -> Fv_vir.Count.to_table2_string (Fv_vir.Count.of_vloop vloop)
    | Error e -> "rejected: " ^ Fv_ir.Validate.describe e
  in
  {
    spec;
    measured_trip = p.Fv_profiler.Profile.avg_trip;
    measured_evl = p.Fv_profiler.Profile.effective_vl;
    measured_coverage = p.Fv_profiler.Profile.coverage;
    measured_mix;
    mix_matches = String.equal measured_mix spec.paper_mix;
  }

let run ?seed ?domains ?(benchmarks = R.all) () : row list =
  Fv_parallel.Pool.map_ordered ?domains (run_row ?seed) benchmarks
