(** End-to-end experiment pipeline for one hot loop:

    profile (Pin-equivalent) → cost-model decision → vectorize →
    correctness oracle → simulate scalar and vector traces on the
    Table 1 OOO machine → hot-region speedup → Amdahl-scale by coverage
    into an overall application speedup, exactly as §5 describes
    ("hot region speedups are then scaled down based on their
    contribution to total program execution").

    One runner does the per-workload part of that method for both
    entry points, {!run_workload} (a seeded kernel builder, many
    invocations) and {!run_hot} (one loop, one invocation): compile
    once, gate the code against the scalar reference with the executor
    it will be traced through, walk the degradation ladder on a
    rejection, trace every invocation, and replay the whole trace once
    through {!Fv_ooo.Simcache} on the event-driven scheduler. *)

open Fv_isa
module Memory = Fv_mem.Memory
module Interp = Fv_ir.Interp
module Pipeline = Fv_ooo.Pipeline
module Simcache = Fv_ooo.Simcache

type strategy =
  | Scalar  (** baseline: the AVX-512 compiler leaves the loop scalar *)
  | Flexvec
  | Wholesale  (** PACT'13-style all-or-nothing speculation *)
  | Traditional  (** classical vectorizer: succeeds only without relaxed SCCs *)
  | Rtm of int
      (** FlexVec with hardware-transactional speculation instead of
          first-faulting loads, strip-mined into tiles of the given
          size (§3.3.2 / §4.1) *)
  | Auto
      (** profile-guided selection: profile a warmup slice, predict each
          concrete strategy's cycles with the calibrated {!Fv_auto}
          model, and commit to the winner before tracing *)
[@@deriving show { with_path = false }, eq]

let style_of = function
  | Flexvec | Rtm _ -> Some Fv_vectorizer.Gen.Flexvec
  | Wholesale -> Some Fv_vectorizer.Gen.Wholesale
  | Scalar | Traditional | Auto -> None

let strategy_of_choice : Fv_auto.Model.choice -> strategy = function
  | Fv_auto.Model.Scalar -> Scalar
  | Fv_auto.Model.Traditional -> Traditional
  | Fv_auto.Model.Flexvec -> Flexvec
  | Fv_auto.Model.Wholesale -> Wholesale
  | Fv_auto.Model.Rtm t -> Rtm t

let choice_of_strategy : strategy -> Fv_auto.Model.choice option = function
  | Scalar -> Some Fv_auto.Model.Scalar
  | Traditional -> Some Fv_auto.Model.Traditional
  | Flexvec -> Some Fv_auto.Model.Flexvec
  | Wholesale -> Some Fv_auto.Model.Wholesale
  | Rtm t -> Some (Fv_auto.Model.Rtm t)
  | Auto -> None

(** The concrete strategies [Auto] selects between, in the model's
    preference order — the oracle set regret is measured against. *)
let auto_arms : strategy list =
  List.map strategy_of_choice Fv_auto.Model.arms

(** How the front end disposed of the hot loop. A vectorizing strategy
    whose compile is rejected does not abort the run: it degrades down
    the ladder (FlexVec → traditional vectorization → scalar), recording
    the rejection diagnostic at the rung it fell from. *)
type compile_status =
  | Not_compiled  (** the strategy never asked for vector code ([Scalar]) *)
  | Vectorized  (** the requested style compiled and passed its oracle *)
  | Degraded_traditional of Fv_ir.Validate.diagnostic
      (** FlexVec-style compile rejected; traditional vectorization
          accepted the loop and passed the oracle, so the run uses it *)
  | Degraded_scalar of Fv_ir.Validate.diagnostic
      (** no vector compile survived; the run executed the measured
          scalar path *)

let show_compile_status = function
  | Not_compiled -> "not-compiled"
  | Vectorized -> "vectorized"
  | Degraded_traditional _ -> "degraded-traditional"
  | Degraded_scalar _ -> "degraded-scalar"

(** The rejection diagnostic recorded when the run degraded, if any. *)
let rejection_of = function
  | Not_compiled | Vectorized -> None
  | Degraded_traditional d | Degraded_scalar d -> Some d

(** Optional observability carrier for a run: stream-position
    annotations from the emulators, the pipeline stage-cycle log, and
    (after the run) the uop trace itself — everything
    {!Fv_ooo.Timeline.events} needs to build a simulated-time Perfetto
    timeline. Allocated only when a caller asks for a trace; the default
    [None] path records nothing. *)
type run_obs = {
  o_annots : Fv_obs.Annot.t;
  o_timing : Pipeline.timing;
  mutable o_trace : Fv_trace.Sink.t option;
}

let obs () : run_obs =
  {
    o_annots = Fv_obs.Annot.create ();
    o_timing = Pipeline.timing ();
    o_trace = None;
  }

(** The record of an [Auto] run's decision — which concrete strategy
    the model committed to, and the evidence (feature vector, predicted
    cycles per arm) it committed on. *)
type auto_pick = {
  a_chosen : strategy;  (** the predicted winner the run delegated to *)
  a_features : Fv_auto.Features.t;
  a_predicted : (strategy * float) list;
      (** predicted hot-region cycles per candidate arm *)
}

(** Predicted cycles of the chosen arm. *)
let predicted_cycles (p : auto_pick) : float =
  match List.assoc_opt p.a_chosen p.a_predicted with
  | Some v -> v
  | None -> nan

type hot_run = {
  strategy : strategy;
  cycles : int;
  uops : int;
  pipe : Pipeline.stats;
  exec : Fv_simd.Exec.stats option;
      (** vector-execution stats summed over the invocations, if the run
          executed vector code *)
  mix : Fv_vir.Count.mix option;
  fell_back_to_scalar : bool;
      (** a vectorizing strategy could not vectorize (or failed its
          oracle) and degraded to scalar execution; always [false] for
          the [Scalar] baseline, which never had anywhere to fall from *)
  oracle_error : string option;
      (** correctness-oracle failure, if any: the run degraded to the
          scalar path instead of aborting, so one bad workload cannot
          take down a whole parallel Figure 8 sweep *)
  rtm : Fv_simd.Rtm_run.rtm_stats option;
      (** accumulated transactional statistics, for [Rtm _] runs *)
  injected_faults : int;
      (** injected faults delivered to this run's traced executions
          (0 unless a fault plan was supplied) *)
  compile : compile_status;
      (** front-end disposition, including the rejection diagnostic when
          the run degraded below the requested strategy *)
  auto : auto_pick option;
      (** for [Auto] runs, the decision record; [None] otherwise *)
}

(* attach the caller's injection plan (if any) to a traced run's memory;
   only recovery-capable strategies opt in — the scalar baseline is the
   semantic reference, and Traditional models a plain AVX-512 compiler
   with no recovery machinery to absorb a fault *)
let plan_for (faults : Fv_faults.Plan.t option) (s : strategy) :
    Fv_faults.Plan.t option =
  match s with
  | Flexvec | Wholesale | Rtm _ -> faults
  | Scalar | Traditional -> None
  (* Auto never reaches a traced run: it commits to a concrete strategy
     first, and the delegated run applies this filter to the winner *)
  | Auto -> None

(* roll a finished run into the global metrics registry; counters only,
   so aggregation across any domain split is deterministic *)
let note_run_metrics (r : hot_run) : hot_run =
  let m = Fv_obs.Metrics.global in
  Fv_obs.Metrics.incr m "runs"
    ~labels:
      [
        ("strategy", show_strategy r.strategy);
        ("compile", show_compile_status r.compile);
      ];
  if r.fell_back_to_scalar then Fv_obs.Metrics.incr m "fallback_runs";
  if r.injected_faults > 0 then
    Fv_obs.Metrics.incr m ~by:r.injected_faults "injected_faults";
  (match r.exec with
  | Some e ->
      let open Fv_simd.Exec in
      if e.fallbacks > 0 then
        Fv_obs.Metrics.incr m ~by:e.fallbacks "ff_fallbacks";
      if e.vpl_extra > 0 then
        Fv_obs.Metrics.incr m ~by:e.vpl_extra "vpl_extra_partitions"
  | None -> ());
  (match r.rtm with
  | Some t ->
      let open Fv_simd.Rtm_run in
      if t.aborts > 0 then Fv_obs.Metrics.incr m ~by:t.aborts "rtm_aborts";
      if t.retries > 0 then Fv_obs.Metrics.incr m ~by:t.retries "rtm_retries"
  | None -> ());
  r

(** The decision itself: predictions from the checked-in calibrated
    table over an already-built feature vector. Pure apart from the
    [auto_decisions{strategy}] metric roll, so the same features decide
    identically at any domain count. Exposed for callers with no memory
    image to profile (the serve daemon's bare-loop compiles use
    {!Fv_auto.Features.of_static}). *)
let pick_of_features (f : Fv_auto.Features.t) : auto_pick =
  let chosen, predicted = Fv_auto.Model.choose Fv_auto.Coeffs.table f in
  let chosen = strategy_of_choice chosen in
  Fv_obs.Metrics.incr Fv_obs.Metrics.global "auto_decisions"
    ~labels:[ ("strategy", show_strategy chosen) ];
  {
    a_chosen = chosen;
    a_features = f;
    a_predicted = List.map (fun (c, v) -> (strategy_of_choice c, v)) predicted;
  }

(* features from the warmup profile + the classifier's verdict *)
let pick_of ~vl ~(profile : Fv_profiler.Profile.t)
    ~(verdict : Fv_pdg.Classify.verdict) : auto_pick =
  let m = Fv_obs.Metrics.global in
  (* surface the profiler's branch statistics alongside the decision *)
  if profile.Fv_profiler.Profile.branches > 0 then begin
    let taken =
      int_of_float
        (Float.round
           (profile.Fv_profiler.Profile.branch_taken_ratio
           *. float_of_int profile.Fv_profiler.Profile.branches))
    in
    Fv_obs.Metrics.incr m
      ~by:profile.Fv_profiler.Profile.branches
      "profile_branches";
    Fv_obs.Metrics.incr m ~by:taken "profile_branches_taken"
  end;
  pick_of_features (Fv_auto.Features.make ~vl ~profile ~verdict)

(** Decide a strategy for [l] on [mem]/[env]: profile a warmup slice
    (the profiler interprets one invocation and scales — that slice is
    the warmup), classify, and commit to the model's predicted winner.
    Exposed so callers that already hold a profile/verdict pair (the
    bench) and callers that do not (the serve daemon, the CLI) share one
    decision path. *)
let auto_pick ?budget ?(vl = 16) ?(invocations = 1) (l : Fv_ir.Ast.loop)
    (mem : Memory.t) (env : (string * Value.t) list) : auto_pick =
  Fv_parallel.Budget.check_opt budget;
  let profile =
    Fv_obs.Span.with_ ~cat:"auto" "profile" (fun () ->
        Fv_profiler.Profile.profile ~invocations l mem env)
  in
  let verdict = Fv_pdg.Classify.analyze ?budget l in
  Fv_parallel.Budget.check_opt budget;
  pick_of ~vl ~profile ~verdict

(** Hot-region speedup of [s] over the scalar baseline. Total: both
    operands are clamped to at least one cycle, so a degenerate
    zero-cycle run (empty trace) yields a finite, positive ratio — two
    empty runs compare as 1.0x — instead of silently reporting 0.0x.
    If either replay hit the simulation watchdog its cycle count is a
    lower bound, not a measurement, so the ratio is meaningless —
    degrade to a neutral 1.0 rather than report a fabricated speedup
    (the [truncated] flags in the JSON report say which side died). *)
let hot_speedup ~(baseline : hot_run) (s : hot_run) : float =
  if baseline.pipe.Pipeline.truncated || s.pipe.Pipeline.truncated then 1.0
  else float_of_int (max 1 baseline.cycles) /. float_of_int (max 1 s.cycles)

(** Amdahl scaling: overall application speedup when the hot region
    covers fraction [coverage] of baseline execution. *)
let overall_speedup ~coverage ~hot =
  1.0 /. (1.0 -. coverage +. (coverage /. hot))

(* ------------------------------------------------------------------ *)
(* The hot-loop runner                                                 *)
(* ------------------------------------------------------------------ *)

module K = Fv_workloads.Kernels

(* What every invocation of a leg executes, once compiled and gated. *)
type leg =
  | Interp_leg  (** the scalar interpreter *)
  | Exec_leg of Fv_vir.Inst.vloop  (** vector code, first-faulting *)
  | Rtm_leg of int * Fv_vir.Inst.vloop
      (** FlexVec code in transactional tiles of the given size *)

(* One invocation of [leg] on [m]/[e]: its vector-execution and
   transactional statistics, where the leg has them. *)
let execute ?budget ?annot ?emit ~rtm_retries l leg m e =
  match leg with
  | Interp_leg ->
      ignore (Interp.run ~hk:(Interp.hooks ?emit ()) m e l);
      (None, None)
  | Exec_leg v -> (Some (Fv_simd.Exec.run ?budget ?annot ?emit v m e), None)
  | Rtm_leg (tile, v) ->
      let r =
        Fv_simd.Rtm_run.run ?budget ?annot ?emit ~retries:rtm_retries ~tile v
          m e
      in
      (Some r.Fv_simd.Rtm_run.exec, Some r)

(* The correctness gate: the scalar reference and [leg]'s own executor
   (the one its invocations are traced through) run on clones of [b]'s
   memory and environment, untraced and injection-free (injected-fault
   equivalence is {!Oracle.check_under_faults}' job), and must agree on
   final memory and live-outs. *)
let gate ~rtm_retries (b : K.built) leg : (unit, string) result =
  let l = b.K.loop in
  let ms = Memory.clone b.K.mem and es = Interp.env_of_list b.K.env in
  ignore (Interp.run ms es l);
  let mv = Memory.clone b.K.mem and ev = Interp.env_of_list b.K.env in
  match execute ~rtm_retries l leg mv ev with
  | exception Fv_simd.Exec.Vector_exec_error e -> Error e
  | exception Memory.Fault f ->
      Error (Fmt.str "memory fault: %a" Memory.pp_fault f)
  | _ ->
      Result.bind (Oracle.compare_memories ms mv) (fun () ->
          Oracle.compare_env l es ev)

(* Compile [strategy] once, on the first build [b], and gate what it
   produced. A rejected FlexVec-style compile walks the ladder: a
   traditional vloop that passes the gate, else the measured scalar
   path, recording the rejection at the rung it fell from. Code that
   fails its gate degrades the whole run to scalar and records why, so
   one bad workload cannot take down a parallel Figure 8 sweep.
   [Traditional] models a plain AVX-512 compiler and is not gated. *)
let compile_leg ?budget ~vl ~rtm_retries strategy (b : K.built) :
    leg * compile_status * string option =
  let l = b.K.loop in
  let gate = gate ~rtm_retries b in
  let traditional () = Fv_vectorizer.Traditional.vectorize ?budget ~vl l in
  match (strategy, style_of strategy) with
  | Traditional, _ -> (
      match traditional () with
      | Ok v -> (Exec_leg v, Vectorized, None)
      | Error d -> (Interp_leg, Degraded_scalar d, None))
  | _, None -> (Interp_leg, Not_compiled, None)
  | _, Some style -> (
      match Fv_vectorizer.Gen.vectorize ?budget ~vl ~style l with
      | Error d -> (
          match traditional () with
          | Ok v when gate (Exec_leg v) = Ok () ->
              (Exec_leg v, Degraded_traditional d, None)
          | Ok _ | Error _ -> (Interp_leg, Degraded_scalar d, None))
      | Ok v -> (
          Fv_parallel.Budget.check_opt budget;
          let leg =
            match strategy with Rtm tile -> Rtm_leg (tile, v) | _ -> Exec_leg v
          in
          match gate leg with
          | Ok () -> (leg, Vectorized, None)
          | Error e ->
              let msg =
                Fmt.str "%s under %s: oracle failed: %s" l.Fv_ir.Ast.name
                  (show_strategy strategy) e
              in
              ( Interp_leg,
                Degraded_scalar (Fv_ir.Validate.internal_error msg),
                Some msg )))

(* The one runner behind {!run_workload} and {!run_hot}. [capacity] is
   the sink's starting size, which stays per entry point (DESIGN.md,
   "Two initial capacities"). *)
let rec run ~capacity ?budget ~vl ?faults ~rtm_retries ?obs ~invocations
    ~seed strategy (build : int -> K.built) : hot_run =
  match strategy with
  | Auto ->
      (* the warmup slice: profile the first build (scaled to the full
         invocation count, as the profiler's one-interpretation scaling
         makes that free), commit to the predicted winner, and run it;
         the result keeps [Auto] as its strategy and carries the
         decision record (the delegated run already rolled its metrics
         under the concrete strategy) *)
      let first = build seed in
      let pick =
        auto_pick ?budget ~vl ~invocations first.K.loop first.K.mem
          first.K.env
      in
      let r =
        run ~capacity ?budget ~vl ?faults ~rtm_retries ?obs ~invocations ~seed
          pick.a_chosen build
      in
      { r with strategy = Auto; auto = Some pick }
  | _ ->
      let build k =
        Fv_obs.Span.with_ ~cat:"harness" "build" (fun () -> build k)
      in
      let first = build seed in
      let l = first.K.loop in
      let leg, compile, oracle_error =
        compile_leg ?budget ~vl ~rtm_retries strategy first
      in
      let plan = plan_for faults strategy in
      (* a degraded run executes the ladder's code, not the recovery
         machinery the plan was meant for *)
      let attached = match compile with Vectorized -> plan | _ -> None in
      let sink = Fv_trace.Sink.create ?capacity () in
      (* annotations are pinned to the trace position current at the
         moment the emulator reports the event *)
      let annot =
        Option.map
          (fun o kind ->
            Fv_obs.Annot.mark o.o_annots ~pos:(Fv_trace.Sink.length sink) kind)
          obs
      in
      let exec = ref None and rtm = ref None and injected = ref 0 in
      let add sum acc x =
        acc := Some (match !acc with None -> x | Some a -> sum a x)
      in
      let run_one (b : K.built) =
        Fv_parallel.Budget.check_opt budget;
        (* each invocation attaches the plan to its own clone, so the
           injection trace is deterministic per invocation regardless of
           how earlier invocations consumed access ordinals *)
        let m = Memory.clone b.K.mem and e = Interp.env_of_list b.K.env in
        Memory.set_fault_plan m attached;
        let x, t = execute ?budget ?annot ~emit:sink ~rtm_retries l leg m e in
        Option.iter (add Fv_simd.Exec.sum exec) x;
        Option.iter (add Fv_simd.Rtm_run.combine rtm) t;
        injected := !injected + m.Memory.injected_faults
      in
      let run_one b =
        Fv_obs.Span.with_ ~cat:"harness" "trace" (fun () -> run_one b)
      in
      (* between invocations real applications execute cold code; model
         it as a short serial dependency chain so the OOO cannot overlap
         distinct invocations of the hot loop (otherwise tiny-trip-count
         loops look artificially parallel) *)
      let invocation_gap () =
        let gap = Fv_trace.Sink.internal sink Fv_trace.Sink.r_gap in
        for _ = 1 to 100 do
          Fv_trace.Sink.src sink gap;
          Fv_trace.Sink.uop sink Fv_isa.Latency.Int_alu ~dst:gap
        done
      in
      run_one first;
      for k = 1 to invocations - 1 do
        invocation_gap ();
        run_one (build (seed + k))
      done;
      let record = Option.map (fun o -> o.o_timing) obs in
      (* memoized replay: the key includes the fault-plan fingerprint, so
         a plan change can never serve a stale entry (see
         {!Fv_ooo.Simcache}) *)
      let pipe =
        Fv_obs.Span.with_ ~cat:"harness" "simulate" (fun () ->
            Simcache.stats ?budget ?record
              ~fault_key:(Fv_faults.Plan.fingerprint plan)
              sink)
      in
      Option.iter (fun o -> o.o_trace <- Some sink) obs;
      note_run_metrics
        {
          strategy;
          cycles = pipe.Pipeline.cycles;
          uops = pipe.Pipeline.uops;
          pipe;
          exec = !exec;
          mix =
            (match leg with
            | Interp_leg -> None
            | Exec_leg v | Rtm_leg (_, v) -> Some (Fv_vir.Count.of_vloop v));
          fell_back_to_scalar =
            (match compile with Degraded_scalar _ -> true | _ -> false);
          oracle_error;
          rtm = !rtm;
          injected_faults = !injected;
          compile;
          auto = None;
        }

(** Trace [invocations] runs of a seeded kernel builder under one
    strategy and replay the concatenated trace on the OOO model, as the
    paper's hot loops are entered many times per application run. The
    code is compiled and gated once, from the first build; each
    invocation gets freshly seeded data, and [exec] and [rtm] sum over
    the invocations. *)
let run_workload ?budget ?(vl = 16) ?faults ?(rtm_retries = 2) ?obs
    ~(invocations : int) ~(seed : int) (strategy : strategy)
    (build : int -> K.built) : hot_run =
  run ~capacity:(Some 65536) ?budget ~vl ?faults ~rtm_retries ?obs
    ~invocations ~seed strategy build

(** Trace one invocation of the hot loop on [mem]/[env] under one
    strategy and replay it on the OOO model: {!run_workload} over a
    builder that always returns this loop, memory and environment. *)
let run_hot ?budget ?(vl = 16) ?faults ?(rtm_retries = 2) ?obs
    (strategy : strategy) (l : Fv_ir.Ast.loop) (mem : Memory.t)
    (env : (string * Value.t) list) : hot_run =
  run ~capacity:None ?budget ~vl ?faults ~rtm_retries ?obs ~invocations:1
    ~seed:0 strategy (fun _ -> { K.loop = l; mem; env })
