(** Regret benchmarking for the {!Fv_auto} strategy selector.

    For every registry kernel, run the workload under every model arm
    (the oracle data), then under [Auto], and score the decision by
    {e regret}: chosen cycles over oracle-best cycles. Regret 1.0 means
    Auto matched the best arm exactly; the [auto] bench section bars
    Auto's geomean speedup within 10% of the oracle's. Tunable
    trip-count / vector-length / fault-rate sweeps probe the decision
    off the calibration grid. *)

module R = Fv_workloads.Registry
module K = Fv_workloads.Kernels
module M = Fv_auto.Model

(** One model arm's predicted-vs-actual on a kernel. *)
type arm_row = {
  ar_arm : M.choice;
  ar_predicted : float;  (** model's cycle prediction *)
  ar_actual : float;  (** measured pipeline cycles *)
  ar_vectorized : bool;  (** compiled at the requested strategy *)
}

(** One kernel's scorecard. *)
type row = {
  b_spec : R.spec;
  b_chosen : Experiment.strategy;
  b_predicted : float;  (** predicted cycles of the chosen arm *)
  b_features : Fv_auto.Features.t;
  b_arms : arm_row list;
  b_auto_cycles : float;  (** measured cycles of the Auto run *)
  b_scalar_cycles : float;
  b_oracle_arm : M.choice;
  b_oracle_cycles : float;
  b_regret : float;  (** auto cycles / oracle-best cycles *)
  b_auto_speedup : float;  (** scalar / auto cycles *)
  b_oracle_speedup : float;  (** scalar / oracle cycles *)
}

let regret ~(auto_cycles : float) ~(oracle_cycles : float) : float =
  auto_cycles /. Float.max 1.0 oracle_cycles

(* score one kernel: all arms (the oracle) + the Auto run *)
let kernel_row ?(vl = 16) ?(seed = 42) (spec : R.spec) : row =
  let arm_run arm =
    Experiment.run_workload ~vl ~invocations:spec.R.invocations ~seed
      (Experiment.strategy_of_choice arm)
      spec.R.build
  in
  let f = Autocal.features_of ~vl spec ~seed in
  let arms =
    List.map
      (fun arm ->
        let r = arm_run arm in
        {
          ar_arm = arm;
          ar_predicted = M.predict Fv_auto.Coeffs.table f arm;
          ar_actual = float_of_int r.Experiment.cycles;
          ar_vectorized =
            (match arm with
            | M.Scalar -> true
            | _ -> r.Experiment.compile = Experiment.Vectorized);
        })
      M.arms
  in
  let auto =
    Experiment.run_workload ~vl ~invocations:spec.R.invocations ~seed
      Experiment.Auto spec.R.build
  in
  let pick =
    match auto.Experiment.auto with
    | Some p -> p
    | None -> assert false (* an Auto run always records its decision *)
  in
  let scalar =
    List.find (fun a -> a.ar_arm = M.Scalar) arms |> fun a -> a.ar_actual
  in
  let oracle =
    List.fold_left
      (fun (best : arm_row) a -> if a.ar_actual < best.ar_actual then a else best)
      (List.hd arms) (List.tl arms)
  in
  let auto_cycles = float_of_int auto.Experiment.cycles in
  let reg = regret ~auto_cycles ~oracle_cycles:oracle.ar_actual in
  Fv_obs.Metrics.observe Fv_obs.Metrics.global "auto_regret" reg;
  {
    b_spec = spec;
    b_chosen = pick.Experiment.a_chosen;
    b_predicted = Experiment.predicted_cycles pick;
    b_features = pick.Experiment.a_features;
    b_arms = arms;
    b_auto_cycles = auto_cycles;
    b_scalar_cycles = scalar;
    b_oracle_arm = oracle.ar_arm;
    b_oracle_cycles = oracle.ar_actual;
    b_regret = reg;
    b_auto_speedup = scalar /. Float.max 1.0 auto_cycles;
    b_oracle_speedup = scalar /. Float.max 1.0 oracle.ar_actual;
  }

(** Score every registry kernel; [domains] (default
    {!Fv_parallel.Pool.default_domains}) parallelizes across kernels.
    A row that raises (none should) re-raises here, the earliest first. *)
let kernel_rows ?(vl = 16) ?(seed = 42) ?domains () : row list =
  Fv_parallel.Pool.map_ordered ?domains (kernel_row ~vl ~seed) R.all

(** Geomean of Auto's and the oracle's per-kernel speedups, and their
    ratio, which the [auto] bench section bars. *)
let geomeans (rows : row list) : float * float * float =
  let g f = Figure8.geomean (List.map f rows) in
  let auto = g (fun r -> r.b_auto_speedup)
  and oracle = g (fun r -> r.b_oracle_speedup) in
  (auto, oracle, auto /. oracle)

(* ------------------------------------------------------------------ *)
(* off-grid sweeps                                                     *)
(* ------------------------------------------------------------------ *)

(** One off-calibration-grid decision probe. *)
type sweep_row = {
  s_sweep : string;  (** "trip" | "vl" | "fault" *)
  s_label : string;  (** e.g. "trip=2048" *)
  s_chosen : Experiment.strategy;
  s_regret : float;
}

(* score one tunable configuration: every arm and Auto each get a
   freshly built (same-seed) kernel, since runs mutate memory *)
let sweep_row ~(sweep : string) ~(label : string) ?(vl = 16) ?faults
    (build : int -> K.built) : sweep_row =
  let run strategy =
    let b = build 7 in
    Experiment.run_hot ~vl ?faults strategy b.K.loop b.K.mem b.K.env
  in
  let arm_cycles =
    List.map
      (fun arm ->
        float_of_int (run (Experiment.strategy_of_choice arm)).Experiment.cycles)
      M.arms
  in
  let auto = run Experiment.Auto in
  let pick =
    match auto.Experiment.auto with Some p -> p | None -> assert false
  in
  let oracle_cycles = List.fold_left Float.min (List.hd arm_cycles) arm_cycles in
  let reg =
    regret ~auto_cycles:(float_of_int auto.Experiment.cycles) ~oracle_cycles
  in
  Fv_obs.Metrics.observe Fv_obs.Metrics.global "auto_regret" reg;
  { s_sweep = sweep; s_label = label; s_chosen = pick.Experiment.a_chosen;
    s_regret = reg }

(** Probe the decision off the calibration grid: trip counts the
    registry kernels do not hit, narrower vector lengths, and injected
    fault rates (faults perturb the measured arms but not the profile,
    so the decision must be stable across them). *)
let sweep_rows ?(trips = [ 32; 128; 512; 2048; 8192 ]) ?(vls = [ 4; 8; 16 ])
    ?(fault_rates = [ 0.0; 0.008; 0.03 ]) ?domains () : sweep_row list =
  let cond ~trip = Sweeps.tunable_cond_update ~trip ~update_rate:0.05 ~near_rate:0.0 in
  let jobs =
    List.map
      (fun trip () ->
        sweep_row ~sweep:"trip" ~label:(Printf.sprintf "trip=%d" trip) (cond ~trip))
      trips
    @ List.map
        (fun vl () ->
          sweep_row ~sweep:"vl" ~label:(Printf.sprintf "vl=%d" vl) ~vl
            (cond ~trip:2048))
        vls
    @ List.map
        (fun rate () ->
          let faults =
            if rate = 0.0 then None
            else Some (Fv_faults.Plan.make ~rate ~seed:1 ())
          in
          sweep_row ~sweep:"fault"
            ~label:(Printf.sprintf "fault=%g" rate)
            ?faults (cond ~trip:2048))
        fault_rates
  in
  Fv_parallel.Pool.map_ordered ?domains (fun job -> job ()) jobs
