(** Differential tests for the event-driven pipeline scheduler.

    The event-driven scheduler ([`Event], the default) must be
    {e observationally identical} to the cycle-stepped reference
    scheduler ([`Step]): every field of {!Fv_ooo.Pipeline.stats} equal,
    on every trace. The suites here drive both schedulers over

    - the full workload registry (every kernel, scalar and FlexVec),
    - randomized micro-op traces under the Table 1 machine and under a
      deliberately tiny machine whose structural hazards fire constantly,
    - regression traces for the memory-disambiguation bugs this model
      had: range-blind store-to-load forwarding and an unbounded
      disambiguation window granting forwarding from long-committed
      stores. *)

open Fv_isa
module Sink = Fv_trace.Sink
module Uop = Fv_trace.Uop
module Pipeline = Fv_ooo.Pipeline
module Machine = Fv_ooo.Machine
module K = Fv_workloads.Kernels
module R = Fv_workloads.Registry
module G = QCheck2.Gen

(* run both schedulers over [sink], each against its own (identical)
   cache hierarchy, and insist every stats field matches *)
let check_modes ?cfg ?max_cycles ~msg (sink : Sink.t) : Pipeline.stats =
  let run mode =
    Pipeline.run ?cfg ~hier:(Fv_memsys.Hierarchy.table1 ()) ?max_cycles ~mode
      sink
  in
  let ev = run `Event and st = run `Step in
  Alcotest.(check bool)
    (Printf.sprintf "%s: event==step (%s vs %s)" msg
       (Fmt.str "%a" Pipeline.pp_stats ev)
       (Fmt.str "%a" Pipeline.pp_stats st))
    true
    (compare ev st = 0);
  ev

(* ------------------------------------------------------------------ *)
(* Every registry kernel, scalar and FlexVec                           *)
(* ------------------------------------------------------------------ *)

let trace_kernel (spec : R.spec) strategy : Sink.t =
  let sink = Sink.create ~capacity:4096 () in
  let emit = sink in
  let b = spec.build 42 in
  let m = Fv_mem.Memory.clone b.K.mem in
  let e = Fv_ir.Interp.env_of_list b.K.env in
  (match strategy with
  | `Scalar ->
      let hk = Fv_ir.Interp.hooks ~emit () in
      ignore (Fv_ir.Interp.run ~hk m e b.K.loop)
  | `Flexvec -> (
      match Fv_vectorizer.Gen.vectorize b.K.loop with
      | Ok vloop -> ignore (Fv_simd.Exec.run ~emit vloop m e)
      | Error _ ->
          let hk = Fv_ir.Interp.hooks ~emit () in
          ignore (Fv_ir.Interp.run ~hk m e b.K.loop)));
  sink

let test_kernels_equal () =
  List.iter
    (fun (spec : R.spec) ->
      List.iter
        (fun strategy ->
          let name =
            Printf.sprintf "%s/%s" spec.name
              (match strategy with `Scalar -> "scalar" | `Flexvec -> "flexvec")
          in
          ignore (check_modes ~msg:name (trace_kernel spec strategy)))
        [ `Scalar; `Flexvec ])
    R.all

(* ------------------------------------------------------------------ *)
(* Random traces                                                       *)
(* ------------------------------------------------------------------ *)

(* a machine small enough that every structural stall fires on short
   traces: ROB/RS/LQ/SQ pressure, single ALU port *)
let tiny_machine =
  {
    Machine.table1 with
    Machine.rob_size = 16;
    rs_size = 8;
    lq_size = 4;
    sq_size = 4;
    alu_ports = 1;
  }

let gen_uop : Uop.t G.t =
  let open G in
  let reg = map (Printf.sprintf "r%d") (int_range 0 7) in
  let addr = int_range 1024 1104 in
  let nelems = int_range 1 4 in
  let srcs = list_size (int_range 0 2) reg in
  oneof
    [
      (* ALU of varying latency *)
      map2
        (fun dst srcs -> Uop.make ~dst ~srcs Latency.Int_alu)
        reg srcs;
      map2 (fun dst srcs -> Uop.make ~dst ~srcs Latency.Fp_div) reg srcs;
      (* memory ops with overlapping small ranges *)
      (let* dst = reg and* srcs = srcs and* a = addr and* ne = nelems in
       return (Uop.make ~dst ~srcs ~addr:a ~nelems:ne Latency.Load));
      (let* srcs = srcs and* a = addr and* ne = nelems in
       return (Uop.make ~srcs ~addr:a ~nelems:ne Latency.Store));
      (* branches keying a handful of predictor slots *)
      (let* srcs = srcs
       and* taken = bool
       and* lbl = int_range 0 3 in
       return
         (Uop.branch ~label:(Printf.sprintf "b%d" lbl) ~taken ~srcs));
    ]

let gen_trace : Uop.t list G.t = G.list_size (G.int_range 1 400) gen_uop

let sink_of uops =
  let s = Sink.create () in
  List.iter (Sink.push s) uops;
  s

let prop_random_table1 =
  QCheck2.Test.make ~count:60 ~name:"random traces: event==step (Table 1)"
    gen_trace (fun uops ->
      let run mode =
        Pipeline.run ~hier:(Fv_memsys.Hierarchy.table1 ()) ~mode
          (sink_of uops)
      in
      let ev = run `Event and st = run `Step in
      if compare ev st = 0 then true
      else
        QCheck2.Test.fail_reportf "event %a@.step  %a" Pipeline.pp_stats ev
          Pipeline.pp_stats st)

let prop_random_tiny =
  QCheck2.Test.make ~count:60
    ~name:"random traces: event==step (tiny machine, constant hazards)"
    gen_trace (fun uops ->
      let run mode =
        Pipeline.run ~cfg:tiny_machine
          ~hier:(Fv_memsys.Hierarchy.table1 ()) ~mode (sink_of uops)
      in
      let ev = run `Event and st = run `Step in
      if compare ev st = 0 then true
      else
        QCheck2.Test.fail_reportf "event %a@.step  %a" Pipeline.pp_stats ev
          Pipeline.pp_stats st)

(* ------------------------------------------------------------------ *)
(* The in-flight window                                                *)
(* ------------------------------------------------------------------ *)

(* every uop reads all 16 registers and writes one of them: each waits
   on the 16 before it, so the RS fills with uops holding ~16 edges
   each, far past the edge pool's initial 4 * 256 *)
let fan_in () =
  let s = Sink.create () in
  let reg k = Printf.sprintf "f%d" k in
  for i = 0 to 599 do
    Sink.push s
      (Uop.make ~dst:(reg (i mod 16)) ~srcs:(List.init 16 reg) Latency.Fp_div)
  done;
  s

(* Replay keeps per-uop state for the uops in flight only, in rings of
   window slots. Pinned against statistics the trace-sized replay
   computed (Window_golden), in both schedulers: ROBs of 1 and 3 put
   every uop, or every fourth, in one slot, so a slot still carrying
   its committed occupant's state, or a committed producer read from a
   reused slot, moves the numbers. *)
let test_window_golden () =
  let check ~msg cfg sink (want : Pipeline.stats) =
    List.iter
      (fun mode ->
        let got =
          Pipeline.run ~cfg ~hier:(Fv_memsys.Hierarchy.table1 ())
            ~max_cycles:1_000_000 ~mode sink
        in
        if compare want got <> 0 then
          Alcotest.failf "%s, %s: want %a@.got  %a" msg
            (match mode with `Event -> "event" | `Step -> "step")
            Pipeline.pp_stats want Pipeline.pp_stats got)
      [ `Event; `Step ]
  in
  check ~msg:"fan-in" Machine.table1 (fan_in ()) Window_golden.fan_in;
  Array.iter
    (fun (seed, rob_size, want) ->
      let uops = G.generate1 ~rand:(Random.State.make [| seed |]) gen_trace in
      check
        ~msg:(Printf.sprintf "seed %d, rob %d" seed rob_size)
        { tiny_machine with Machine.rob_size }
        (sink_of uops) want)
    Window_golden.random

(* ------------------------------------------------------------------ *)
(* Regressions                                                         *)
(* ------------------------------------------------------------------ *)

(* Store-to-load forwarding requires the store to cover the load's whole
   element range. Here an 8-element store at 3008 overlaps a 16-element
   load at 3000 without covering it, so the load must wait for the store
   and then read memory — and the load's first cache line (elements
   3000–3015 span two lines; the store only warmed the second) is a cold
   miss costing a memory round trip before its dependent chain starts.
   The regression — forwarding granted on any overlap — would complete
   the load 5 cycles after the store and finish far sooner. *)
let test_partial_overlap_no_forward () =
  let s = Sink.create () in
  (* long-latency producer chain feeding the store's data *)
  for _ = 1 to 20 do
    Sink.push s (Uop.make ~dst:"v" ~srcs:[ "v" ] Latency.Fp_div)
  done;
  Sink.push s (Uop.make ~srcs:[ "v" ] ~addr:3008 ~nelems:8 Latency.Store);
  Sink.push s (Uop.make ~dst:"ld" ~srcs:[] ~addr:3000 ~nelems:16 Latency.Load);
  (* serial consumers so the load's completion time dominates *)
  Sink.push s (Uop.make ~dst:"x" ~srcs:[ "ld" ] Latency.Int_alu);
  for _ = 1 to 99 do
    Sink.push s (Uop.make ~dst:"x" ~srcs:[ "x" ] Latency.Int_alu)
  done;
  let st = check_modes ~msg:"partial-overlap forwarding" s in
  (* 20*14 (divide chain) + memory round trip + 100 serial ALUs; with
     the 5-cycle forwarding bug this lands near 390 *)
  Alcotest.(check bool)
    (Printf.sprintf "load read memory, not the store (cycles=%d)" st.cycles)
    true (st.cycles > 450)

(* A fully-covering store *does* forward: same trace but the store
   covers the load, so the load completes [store_forward_latency] after
   the store instead of paying the memory round trip. *)
let test_covering_store_forwards () =
  let s = Sink.create () in
  for _ = 1 to 20 do
    Sink.push s (Uop.make ~dst:"v" ~srcs:[ "v" ] Latency.Fp_div)
  done;
  Sink.push s (Uop.make ~srcs:[ "v" ] ~addr:3000 ~nelems:16 Latency.Store);
  Sink.push s (Uop.make ~dst:"ld" ~srcs:[] ~addr:3004 ~nelems:8 Latency.Load);
  Sink.push s (Uop.make ~dst:"x" ~srcs:[ "ld" ] Latency.Int_alu);
  for _ = 1 to 99 do
    Sink.push s (Uop.make ~dst:"x" ~srcs:[ "x" ] Latency.Int_alu)
  done;
  let st = check_modes ~msg:"covering forwarding" s in
  Alcotest.(check bool)
    (Printf.sprintf "load forwarded from the store (cycles=%d)" st.cycles)
    true
    (st.cycles < 450)

(* Disambiguation entries die with their store: a load must not forward
   from (or stall on) a store that committed long before it dispatched.
   50 widely-strided stores retire behind a long serial chain; the later
   loads of the same addresses must go to the cache — which they hit,
   the stores having filled the lines — rather than silently "forward"
   from drained SQ entries. The regression kept the stale entries
   forever, so the loads never touched the cache at all and the L1 hit
   rate stayed at the stores' cold-miss 0%. *)
let test_committed_stores_prune () =
  let s = Sink.create () in
  for i = 0 to 49 do
    Sink.push s (Uop.make ~addr:(8192 + (128 * i)) Latency.Store)
  done;
  (* serial chain long enough that every store has committed *)
  for _ = 1 to 600 do
    Sink.push s (Uop.make ~dst:"g" ~srcs:[ "g" ] Latency.Int_alu)
  done;
  for i = 0 to 49 do
    Sink.push s
      (Uop.make ~dst:(Printf.sprintf "l%d" (i mod 4)) ~addr:(8192 + (128 * i))
         Latency.Load)
  done;
  let st = check_modes ~msg:"SQ-window pruning" s in
  Alcotest.(check bool)
    (Printf.sprintf "loads hit the cache the stores warmed (l1=%.2f)"
       st.l1_hit_rate)
    true
    (st.l1_hit_rate > 0.4)

(* The watchdog fires identically in both modes and marks the stats as
   truncated: a machine with no ALU ports can never issue, so the trace
   cannot finish. *)
let test_watchdog_truncates_equally () =
  let s = Sink.create () in
  for _ = 1 to 10 do
    Sink.push s (Uop.make ~dst:"x" ~srcs:[ "x" ] Latency.Int_alu)
  done;
  let cfg = { Machine.table1 with Machine.alu_ports = 0 } in
  let st =
    check_modes ~cfg ~max_cycles:5000 ~msg:"watchdog" s
  in
  Alcotest.(check bool) "truncated flag set" true st.truncated;
  Alcotest.(check int) "stopped at the watchdog" 5000 st.cycles

(* The watchdog must also clamp an event-mode fast-forward leap: a
   serial chain of cold-miss loads advances in ~200-cycle jumps (each
   load waits a full memory round trip; the 256-line stride never
   trains the prefetcher), and a threshold landing inside one of those
   jumps must stop both schedulers at exactly the same cycle — the
   event scheduler may not overshoot to the end of the leap it was
   mid-flight in. *)
let test_watchdog_clamps_fast_forward () =
  let s = Sink.create () in
  for i = 0 to 19 do
    Sink.push s
      (Uop.make ~dst:"p" ~srcs:[ "p" ] ~addr:(100_000 + (4096 * i))
         Latency.Load)
  done;
  let st = check_modes ~max_cycles:450 ~msg:"watchdog mid-jump" s in
  Alcotest.(check bool) "truncated flag set" true st.truncated;
  Alcotest.(check int) "stopped exactly at the watchdog" 450 st.cycles

(* A truncated replay must not manufacture a speedup: either side dying
   degrades the ratio to a neutral 1.0. *)
let test_hot_speedup_truncated_neutral () =
  let module E = Fv_core.Experiment in
  let mk ~cycles ~truncated : E.hot_run =
    {
      E.strategy = E.Scalar;
      cycles;
      uops = 100;
      pipe =
        {
          Pipeline.cycles;
          uops = 100;
          ipc = 1.0;
          branch_lookups = 0;
          branch_mispredicts = 0;
          l1_hit_rate = 1.0;
          stall_rob = 0;
          stall_rs = 0;
          stall_lq = 0;
          stall_sq = 0;
          stall_redirect = 0;
          loads = 0;
          stores = 0;
          truncated;
        };
      exec = None;
      mix = None;
      fell_back_to_scalar = false;
      oracle_error = None;
      rtm = None;
      injected_faults = 0;
      compile = E.Not_compiled;
      auto = None;
    }
  in
  let ok = mk ~cycles:1000 ~truncated:false in
  let fast = mk ~cycles:500 ~truncated:false in
  let dead = mk ~cycles:500 ~truncated:true in
  Alcotest.(check (float 1e-9))
    "honest ratio when both completed" 2.0
    (E.hot_speedup ~baseline:ok fast);
  Alcotest.(check (float 1e-9))
    "neutral when the candidate died" 1.0
    (E.hot_speedup ~baseline:ok dead);
  Alcotest.(check (float 1e-9))
    "neutral when the baseline died" 1.0
    (E.hot_speedup ~baseline:dead fast)

let suite =
  [
    Alcotest.test_case "all kernels, scalar+flexvec: event==step" `Slow
      test_kernels_equal;
    Alcotest.test_case "in-flight window == trace-sized replay (golden)"
      `Quick test_window_golden;
    Alcotest.test_case "partial overlap does not forward" `Quick
      test_partial_overlap_no_forward;
    Alcotest.test_case "covering store forwards" `Quick
      test_covering_store_forwards;
    Alcotest.test_case "committed stores leave the SQ window" `Quick
      test_committed_stores_prune;
    Alcotest.test_case "watchdog truncates identically" `Quick
      test_watchdog_truncates_equally;
    Alcotest.test_case "watchdog clamps event fast-forward" `Quick
      test_watchdog_clamps_fast_forward;
    Alcotest.test_case "hot_speedup is neutral on truncation" `Quick
      test_hot_speedup_truncated_neutral;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_random_table1; prop_random_tiny ]
