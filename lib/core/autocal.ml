(** Calibration driver for the {!Fv_auto} cost model.

    Runs every registry kernel's workload under every model arm, records
    the measured [Pipeline.stats] cycle counts next to the feature
    vector the selector would see, and hands the samples to
    {!Fv_auto.Calibrate.fit}. Everything is seeded and the simulator is
    deterministic, so two calibration runs produce bit-identical
    coefficient tables — the checked-in {!Fv_auto.Coeffs} is reproduced,
    not approximated, by [flexvec_cli calibrate]. *)

module R = Fv_workloads.Registry
module K = Fv_workloads.Kernels
module M = Fv_auto.Model

(** One kernel × arm measurement, kept around for the calibration
    report (predicted-vs-actual per arm). *)
type measurement = {
  m_spec : R.spec;
  m_arm : M.choice;
  m_sample : Fv_auto.Calibrate.sample;
}

(* the feature vector the selector would build for this workload: the
   same warmup-slice profile + verdict join Experiment.auto_pick uses *)
let features_of ?(vl = 16) (spec : R.spec) ~(seed : int) : Fv_auto.Features.t =
  let built = spec.R.build seed in
  let profile =
    Fv_profiler.Profile.profile ~invocations:spec.R.invocations built.K.loop
      built.K.mem built.K.env
  in
  let verdict = Fv_pdg.Classify.analyze built.K.loop in
  Fv_auto.Features.make ~vl ~profile ~verdict

(** Measure every (kernel, arm) pair. [domains] parallelizes across
    kernels exactly like the bench sections; rows that fail (they never
    should — strategies degrade rather than raise) are dropped. *)
let measure ?(vl = 16) ?(seed = 42) ?(mode : Fv_ooo.Pipeline.mode = `Event)
    ?(domains = 1) () : measurement list =
  let per_spec (spec : R.spec) : measurement list =
    let f = features_of ~vl spec ~seed in
    List.map
      (fun arm ->
        let run =
          Experiment.run_workload ~vl ~mode ~invocations:spec.R.invocations
            ~seed
            (Experiment.strategy_of_choice arm)
            spec.R.build
        in
        {
          m_spec = spec;
          m_arm = arm;
          m_sample =
            {
              Fv_auto.Calibrate.s_arm = arm;
              s_features = f;
              s_cycles = float_of_int run.Experiment.cycles;
              s_vectorized =
                (match arm with
                | M.Scalar -> true
                | _ -> run.Experiment.compile = Experiment.Vectorized);
            };
        })
      M.arms
  in
  let results = Fv_parallel.Pool.map ~domains per_spec R.all in
  List.concat_map (function Ok ms -> ms | Error _ -> []) results

(** Fit the model to the measurements. *)
let fit (ms : measurement list) : M.coeffs =
  Fv_auto.Calibrate.fit (List.map (fun m -> m.m_sample) ms)

(** Per-arm mean relative error of [c] on the measurements — the
    calibration report. *)
let report (c : M.coeffs) (ms : measurement list) :
    (M.choice * float option) list =
  let samples = List.map (fun m -> m.m_sample) ms in
  List.map (fun a -> (a, Fv_auto.Calibrate.rel_error c samples a)) M.arms
