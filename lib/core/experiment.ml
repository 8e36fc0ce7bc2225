(** End-to-end experiment pipeline for one hot loop:

    profile (Pin-equivalent) → cost-model decision → vectorize →
    correctness oracle → simulate scalar and vector traces on the
    Table 1 OOO machine → hot-region speedup → Amdahl-scale by coverage
    into an overall application speedup, exactly as §5 describes
    ("hot region speedups are then scaled down based on their
    contribution to total program execution"). *)

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
  exec : Fv_simd.Exec.stats option;  (** vector-execution stats, if vectorized *)
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
let note_run_metrics (r : 'a) ~compile ~strategy ~fell_back ~injected ~exec
    ~rtm =
  let m = Fv_obs.Metrics.global in
  Fv_obs.Metrics.incr m "runs"
    ~labels:
      [
        ("strategy", show_strategy strategy);
        ("compile", show_compile_status compile);
      ];
  if fell_back then Fv_obs.Metrics.incr m "fallback_runs";
  if injected > 0 then Fv_obs.Metrics.incr m ~by:injected "injected_faults";
  (match exec with
  | Some e ->
      let open Fv_simd.Exec in
      if e.fallbacks > 0 then
        Fv_obs.Metrics.incr m ~by:e.fallbacks "ff_fallbacks";
      if e.vpl_extra > 0 then
        Fv_obs.Metrics.incr m ~by:e.vpl_extra "vpl_extra_partitions"
  | None -> ());
  (match rtm with
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

(** Trace one strategy's execution of the hot loop and replay it on the
    OOO model. Always verifies against the scalar oracle first. [mode]
    selects the pipeline scheduler (event-driven by default; the two
    produce identical statistics). *)
let rec run_hot ?budget ?(vl = 16) ?(mode : Pipeline.mode = `Event)
    ?(faults : Fv_faults.Plan.t option) ?(rtm_retries = 2)
    ?(obs : run_obs option) (strategy : strategy) (l : Fv_ir.Ast.loop)
    (mem : Memory.t) (env : (string * Value.t) list) : hot_run =
  match strategy with
  | Auto ->
      (* profile the warmup slice, commit to the predicted winner, and
         run it; the result keeps [Auto] as its strategy and carries the
         decision record (the delegated run already rolled its metrics
         under the concrete strategy) *)
      let pick = auto_pick ?budget ~vl l mem env in
      let r =
        run_hot ?budget ~vl ~mode ?faults ~rtm_retries ?obs pick.a_chosen l
          mem env
      in
      { r with strategy = Auto; auto = Some pick }
  | _ ->
  let sink = Fv_trace.Sink.create () in
  (* annotations are pinned to the trace position current at the moment
     the emulator reports the event *)
  let annot =
    Option.map
      (fun o kind ->
        Fv_obs.Annot.mark o.o_annots ~pos:(Fv_trace.Sink.length sink) kind)
      obs
  in
  let plan = plan_for faults strategy in
  let injected = ref 0 and rtm_stats = ref None in
  (* traced-run memory: plan attached when the strategy opted in *)
  let traced_mem () =
    let m = Memory.clone mem in
    Memory.set_fault_plan m plan;
    m
  in
  let note_injected (m : Memory.t) =
    injected := !injected + m.Memory.injected_faults
  in
  let compile = ref Not_compiled in
  let scalar_trace ?(fallback = true) ?error () =
    (* the scalar interpreter is not budget-threaded; poll before
       entering it so a blown budget cancels at the seam *)
    Fv_parallel.Budget.check_opt budget;
    let m = Memory.clone mem and e = Interp.env_of_list env in
    let hk = Interp.hooks ~emit:sink () in
    ignore (Interp.run ~hk m e l);
    (None, None, fallback, error)
  in
  (* oracle gate for a traditionally vectorized fallback: same
     scalar-equivalence requirement as {!Oracle.check}, but against the
     vloop in hand rather than a fresh FlexVec compile *)
  let traditional_passes vloop =
    let ms = Memory.clone mem and es = Interp.env_of_list env in
    ignore (Interp.run ms es l);
    let mv = Memory.clone mem and ev = Interp.env_of_list env in
    match Fv_simd.Exec.run vloop mv ev with
    | exception _ -> false
    | _ ->
        Oracle.compare_memories ms mv = Ok ()
        && Oracle.compare_env l es ev = Ok ()
  in
  (* the degradation ladder: a rejected FlexVec-style compile retries
     with the traditional vectorizer before surrendering to scalar *)
  let degrade (d : Fv_ir.Validate.diagnostic) =
    match Fv_vectorizer.Traditional.vectorize ?budget ~vl l with
    | Ok vloop when traditional_passes vloop ->
        compile := Degraded_traditional d;
        let m = Memory.clone mem and e = Interp.env_of_list env in
        let stats = Fv_simd.Exec.run ?budget ?annot ~emit:sink vloop m e in
        (Some stats, Some (Fv_vir.Count.of_vloop vloop), false, None)
    | Ok _ | Error _ ->
        compile := Degraded_scalar d;
        scalar_trace ()
  in
  let exec, mix, fell_back, oracle_error =
    match strategy with
    | Scalar -> scalar_trace ~fallback:false ()
    | Traditional -> (
        match Fv_vectorizer.Traditional.vectorize ?budget ~vl l with
        | Error d ->
            compile := Degraded_scalar d;
            scalar_trace ()
        | Ok vloop ->
            compile := Vectorized;
            let m = Memory.clone mem and e = Interp.env_of_list env in
            let stats = Fv_simd.Exec.run ?budget ?annot ~emit:sink vloop m e in
            (Some stats, Some (Fv_vir.Count.of_vloop vloop), false, None))
    | Flexvec | Wholesale -> (
        let style = Option.get (style_of strategy) in
        match Fv_vectorizer.Gen.vectorize ?budget ~vl ~style l with
        | Error d -> degrade d
        | Ok vloop -> (
            Fv_parallel.Budget.check_opt budget;
            (* correctness gate: the vector program must match the
               oracle (injection-free — injected-fault equivalence is
               {!Oracle.check_under_faults}' job); on a mismatch the run
               degrades to the measured scalar path and records the
               failure *)
            match Oracle.check ~vl ~style l (Memory.clone mem) env with
            | Error f ->
                let msg =
                  Fmt.str "experiment on %s: oracle failed: %a"
                    l.Fv_ir.Ast.name Oracle.pp_failure f
                in
                compile :=
                  Degraded_scalar (Fv_ir.Validate.internal_error msg);
                scalar_trace ~error:msg ()
            | Ok _ ->
                compile := Vectorized;
                let m = traced_mem () and e = Interp.env_of_list env in
                let stats = Fv_simd.Exec.run ?budget ?annot ~emit:sink vloop m e in
                note_injected m;
                (Some stats, Some (Fv_vir.Count.of_vloop vloop), false, None)))
    | Rtm tile -> (
        match Fv_vectorizer.Gen.vectorize ?budget ~vl l with
        | Error d -> degrade d
        | Ok vloop -> (
            Fv_parallel.Budget.check_opt budget;
            (* RTM oracle: run scalar and transactional versions and
               compare final state *)
            let ms = Memory.clone mem and es = Interp.env_of_list env in
            ignore (Interp.run ms es l);
            let mr = Memory.clone mem and er = Interp.env_of_list env in
            ignore (Fv_simd.Rtm_run.run ~tile vloop mr er);
            match
              (Oracle.compare_memories ms mr, Oracle.compare_env l es er)
            with
            | Error e, _ | _, Error e ->
                let msg =
                  Fmt.str "experiment on %s (RTM): oracle failed: %s"
                    l.Fv_ir.Ast.name e
                in
                compile :=
                  Degraded_scalar (Fv_ir.Validate.internal_error msg);
                scalar_trace ~error:msg ()
            | Ok (), Ok () ->
                compile := Vectorized;
                let m = traced_mem () and e = Interp.env_of_list env in
                let rtm =
                  Fv_simd.Rtm_run.run ?budget ?annot ~emit:sink ~retries:rtm_retries
                    ~tile vloop m e
                in
                note_injected m;
                rtm_stats := Some rtm;
                (Some rtm.Fv_simd.Rtm_run.exec,
                 Some (Fv_vir.Count.of_vloop vloop), false, None)))
    | Auto -> assert false (* dispatched above *)
  in
  let record = Option.map (fun o -> o.o_timing) obs in
  (* memoized replay: the key includes the fault-plan fingerprint, so a
     plan change can never serve a stale entry (see {!Fv_ooo.Simcache}) *)
  let pipe =
    Fv_obs.Span.with_ ~cat:"harness" "simulate" (fun () ->
        Simcache.stats ?budget ?record ~mode
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
      exec;
      mix;
      fell_back_to_scalar = fell_back;
      oracle_error;
      rtm = !rtm_stats;
      injected_faults = !injected;
      compile = !compile;
      auto = None;
    }
    ~compile:!compile ~strategy ~fell_back ~injected:!injected ~exec
    ~rtm:!rtm_stats

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
(* Multi-invocation workloads                                          *)
(* ------------------------------------------------------------------ *)

(** Trace [invocations] runs of a seeded kernel builder under one
    strategy and replay the concatenated trace on the OOO model, as the
    paper's hot loops are entered many times per application run. The
    vectorized code is generated once (from the first build); each
    invocation gets freshly seeded data. *)
let rec run_workload ?budget ?(vl = 16) ?(mode : Pipeline.mode = `Event)
    ?(faults : Fv_faults.Plan.t option) ?(rtm_retries = 2)
    ?(obs : run_obs option) ~(invocations : int) ~(seed : int)
    (strategy : strategy) (build : int -> Fv_workloads.Kernels.built) :
    hot_run =
  match strategy with
  | Auto ->
      (* the warmup slice: profile the first build (scaled to the full
         invocation count, as the profiler's one-interpretation scaling
         makes that free), commit, delegate *)
      let first = build seed in
      let pick =
        auto_pick ?budget ~vl ~invocations first.Fv_workloads.Kernels.loop
          first.Fv_workloads.Kernels.mem first.Fv_workloads.Kernels.env
      in
      let r =
        run_workload ?budget ~vl ~mode ?faults ~rtm_retries ?obs ~invocations
          ~seed pick.a_chosen build
      in
      { r with strategy = Auto; auto = Some pick }
  | _ ->
  let plan = plan_for faults strategy in
  let injected = ref 0 and rtm_stats = ref None in
  let build k = Fv_obs.Span.with_ ~cat:"harness" "build" (fun () -> build k) in
  let first = build seed in
  let l = first.Fv_workloads.Kernels.loop in
  let sink = Fv_trace.Sink.create ~capacity:65536 () in
  let annot =
    Option.map
      (fun o kind ->
        Fv_obs.Annot.mark o.o_annots ~pos:(Fv_trace.Sink.length sink) kind)
      obs
  in
  (* vectorization is a pure function of the loop: compile once per
     workload, not once per invocation *)
  let vloop_for =
    let cache = ref [] in
    fun style ->
      match List.assq_opt style !cache with
      | Some r -> r
      | None ->
          let r = Fv_vectorizer.Gen.vectorize ?budget ~vl ~style l in
          cache := (style, r) :: !cache;
          r
  in
  let traditional_vloop =
    lazy (Fv_vectorizer.Traditional.vectorize ?budget ~vl l)
  in
  (* traditionally vectorized fallback for the degradation ladder,
     oracle-gated once against the first build's scalar semantics *)
  let traditional_checked =
    lazy
      (match Lazy.force traditional_vloop with
      | Error _ -> None
      | Ok vloop -> (
          let mem = first.Fv_workloads.Kernels.mem
          and env = first.Fv_workloads.Kernels.env in
          let ms = Memory.clone mem and es = Interp.env_of_list env in
          ignore (Interp.run ms es l);
          let mv = Memory.clone mem and ev = Interp.env_of_list env in
          match Fv_simd.Exec.run vloop mv ev with
          | exception _ -> None
          | _ ->
              if
                Oracle.compare_memories ms mv = Ok ()
                && Oracle.compare_env l es ev = Ok ()
              then Some vloop
              else None))
  in
  let mix = ref None and exec = ref None and fell_back = ref false in
  let compile = ref Not_compiled in
  (* correctness gate once per workload; a failure degrades the whole
     run to the scalar path (recorded below) instead of aborting, so
     one bad workload cannot kill a parallel Figure 8 run *)
  let oracle_error =
    match style_of strategy with
    | None -> None
    | Some style -> (
        match
          Oracle.check ~vl ~style l
            (Memory.clone first.Fv_workloads.Kernels.mem)
            first.Fv_workloads.Kernels.env
        with
        | Ok _ | Error (Oracle.Not_vectorizable _) -> None
        | Error f ->
            Some
              (Fmt.str "workload %s: oracle failed: %a" l.Fv_ir.Ast.name
                 Oracle.pp_failure f))
  in
  (match oracle_error with
  | Some msg -> compile := Degraded_scalar (Fv_ir.Validate.internal_error msg)
  | None -> ());
  let run_one (b : Fv_workloads.Kernels.built) =
    Fv_parallel.Budget.check_opt budget;
    let mem = b.Fv_workloads.Kernels.mem
    and env = b.Fv_workloads.Kernels.env in
    let scalar ?(fallback = true) () =
      let m = Memory.clone mem and e = Interp.env_of_list env in
      let hk = Interp.hooks ~emit:sink () in
      ignore (Interp.run ~hk m e l);
      (* only a vectorizing strategy that degrades is a fallback: the
         scalar baseline reporting itself as one was a reporting bug *)
      if fallback then fell_back := true
    in
    (* each invocation attaches the plan to its own clone, so the
       injection trace is deterministic per invocation regardless of
       how earlier invocations consumed access ordinals *)
    let injected_mem () =
      let m = Memory.clone mem in
      Memory.set_fault_plan m plan;
      m
    in
    let note_injected (m : Memory.t) =
      injected := !injected + m.Memory.injected_faults
    in
    (* degradation ladder: rejected FlexVec-style compile → gated
       traditional vloop if one exists → measured scalar path *)
    let degrade (d : Fv_ir.Validate.diagnostic) =
      match Lazy.force traditional_checked with
      | Some vloop ->
          compile := Degraded_traditional d;
          let m = Memory.clone mem and e = Interp.env_of_list env in
          exec := Some (Fv_simd.Exec.run ?budget ?annot ~emit:sink vloop m e);
          if !mix = None then mix := Some (Fv_vir.Count.of_vloop vloop)
      | None ->
          compile := Degraded_scalar d;
          scalar ()
    in
    match strategy with
    | _ when oracle_error <> None -> scalar ()
    | Scalar -> scalar ~fallback:false ()
    | Traditional -> (
        match Lazy.force traditional_vloop with
        | Error d ->
            compile := Degraded_scalar d;
            scalar ()
        | Ok vloop ->
            compile := Vectorized;
            let m = Memory.clone mem and e = Interp.env_of_list env in
            exec := Some (Fv_simd.Exec.run ?budget ?annot ~emit:sink vloop m e);
            if !mix = None then mix := Some (Fv_vir.Count.of_vloop vloop))
    | Flexvec | Wholesale -> (
        match vloop_for (Option.get (style_of strategy)) with
        | Error d -> degrade d
        | Ok vloop ->
            compile := Vectorized;
            let m = injected_mem () and e = Interp.env_of_list env in
            exec := Some (Fv_simd.Exec.run ?budget ?annot ~emit:sink vloop m e);
            note_injected m;
            if !mix = None then mix := Some (Fv_vir.Count.of_vloop vloop))
    | Rtm tile -> (
        match vloop_for Fv_vectorizer.Gen.Flexvec with
        | Error d -> degrade d
        | Ok vloop ->
            compile := Vectorized;
            let m = injected_mem () and e = Interp.env_of_list env in
            let r =
              Fv_simd.Rtm_run.run ?budget ?annot ~emit:sink ~retries:rtm_retries
                ~tile vloop m e
            in
            exec := Some r.Fv_simd.Rtm_run.exec;
            note_injected m;
            rtm_stats :=
              Some
                (match !rtm_stats with
                | None -> r
                | Some acc -> Fv_simd.Rtm_run.combine acc r);
            if !mix = None then mix := Some (Fv_vir.Count.of_vloop vloop))
    | Auto -> assert false (* dispatched above *)
  in
  (* between invocations real applications execute cold code; model it
     as a short serial dependency chain so the OOO cannot overlap
     distinct invocations of the hot loop (otherwise tiny-trip-count
     loops look artificially parallel) *)
  let invocation_gap () =
    let gap = Fv_trace.Sink.internal sink Fv_trace.Sink.r_gap in
    for _ = 1 to 100 do
      Fv_trace.Sink.src sink gap;
      Fv_trace.Sink.uop sink Fv_isa.Latency.Int_alu ~dst:gap
    done
  in
  let run_one b = Fv_obs.Span.with_ ~cat:"harness" "trace" (fun () -> run_one b) in
  run_one first;
  for k = 1 to invocations - 1 do
    invocation_gap ();
    run_one (build (seed + k))
  done;
  let record = Option.map (fun o -> o.o_timing) obs in
  (* memoized replay: the key includes the fault-plan fingerprint, so a
     plan change can never serve a stale entry (see {!Fv_ooo.Simcache}) *)
  let pipe =
    Fv_obs.Span.with_ ~cat:"harness" "simulate" (fun () ->
        Simcache.stats ?budget ?record ~mode
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
      mix = !mix;
      fell_back_to_scalar = !fell_back;
      oracle_error;
      rtm = !rtm_stats;
      injected_faults = !injected;
      compile = !compile;
      auto = None;
    }
    ~compile:!compile ~strategy ~fell_back:!fell_back ~injected:!injected
    ~exec:!exec ~rtm:!rtm_stats
