(** Integration tests over the experiment pipeline: every execution
    strategy on a real kernel, the Figure 8 / Table 2 row machinery,
    sweep harness sanity, and report rendering. *)

module E = Fv_core.Experiment
module R = Fv_workloads.Registry

let small_build seed =
  Fv_core.Sweeps.tunable_cond_update ~trip:256 ~update_rate:0.02 ~near_rate:0.2
    seed

let test_all_strategies_run () =
  let base = E.run_workload ~invocations:2 ~seed:1 E.Scalar small_build in
  Alcotest.(check bool) "scalar cycles > 0" true (base.cycles > 0);
  List.iter
    (fun s ->
      let r = E.run_workload ~invocations:2 ~seed:1 s small_build in
      Alcotest.(check bool)
        (Fmt.str "%a produced cycles" (Fmt.of_to_string E.show_strategy) s)
        true (r.cycles > 0);
      Alcotest.(check bool)
        (Fmt.str "%a emitted fewer uops than scalar"
           (Fmt.of_to_string E.show_strategy) s)
        true
        (r.uops < base.uops))
    [ E.Flexvec; E.Wholesale; E.Rtm 64 ]

let test_traditional_falls_back () =
  let r = E.run_workload ~invocations:1 ~seed:1 E.Traditional small_build in
  Alcotest.(check bool) "fell back to scalar" true r.fell_back_to_scalar

let test_amdahl () =
  let s = E.overall_speedup ~coverage:0.5 ~hot:2.0 in
  Alcotest.(check (float 1e-9)) "amdahl" (1. /. 0.75) s;
  Alcotest.(check (float 1e-9)) "no coverage" 1.0
    (E.overall_speedup ~coverage:0.0 ~hot:10.0);
  Alcotest.(check bool) "bounded by 1/(1-c)" true
    (E.overall_speedup ~coverage:0.3 ~hot:1e9 < 1. /. 0.7 +. 1e-6)

let test_figure8_row () =
  let row = Fv_core.Figure8.run_row (R.find "445.gobmk") in
  Alcotest.(check bool) "decision made" true row.decision.vectorize;
  Alcotest.(check bool) "hot speedup sane" true (row.hot > 0.5 && row.hot < 20.);
  Alcotest.(check bool) "overall between 1/(1-c) bound" true
    (row.overall < 1. /. (1. -. row.spec.coverage) +. 1e-6);
  Alcotest.(check string) "mix" "KFTM, VPSLCTLAST" row.mix_measured

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Fv_core.Figure8.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Fv_core.Figure8.geomean [])

let test_rtm_sweep_tiny () =
  let pts = Fv_core.Sweeps.rtm_tile_sweep ~tiles:[ 32; 256 ] ~trip:512 () in
  Alcotest.(check int) "two points" 2 (List.length pts);
  let small = List.nth pts 0 and big = List.nth pts 1 in
  Alcotest.(check bool) "smaller tiles cost more" true
    (small.rel_to_ff >= big.rel_to_ff -. 0.02)

let test_strategy_sweep_tiny () =
  let pts =
    Fv_core.Sweeps.strategy_sweep ~rates:[ 0.0; 0.2 ] ~trip:512
      ~pattern:`Cond_update ()
  in
  let quiet = List.nth pts 0 and noisy = List.nth pts 1 in
  Alcotest.(check bool) "wholesale collapses under frequent deps" true
    (noisy.wholesale_speedup < quiet.wholesale_speedup);
  Alcotest.(check bool) "flexvec degrades more gracefully" true
    (noisy.flexvec_speedup > noisy.wholesale_speedup)

let test_report_table () =
  let t =
    Fv_core.Report.table [ [ "a"; "bb" ]; [ "ccc"; "d" ]; [ "e"; "ffff" ] ]
  in
  let lines = String.split_on_char '\n' t in
  Alcotest.(check bool) "has border rows" true (List.length lines >= 6);
  (* a line printed after the table must not run into its border *)
  Alcotest.(check char) "ends with a newline" '\n' t.[String.length t - 1];
  let widths = List.map String.length (List.filter (fun l -> l <> "") lines) in
  Alcotest.(check bool) "all lines same width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_bar_chart () =
  let c = Fv_core.Report.bar_chart [ ("x", 1.0); ("yy", 2.0) ] in
  Alcotest.(check bool) "renders" true (String.length c > 0);
  Alcotest.(check int) "two rows" 2 (List.length (String.split_on_char '\n' c))

(* [exec] describes the whole workload, not its last invocation: each
   counter is the sum over 445.gobmk's one-invocation runs *)
let test_exec_sums_invocations () =
  let spec = R.find "445.gobmk" and seed = 42 in
  let counters (r : E.hot_run) =
    match r.E.exec with
    | Some e ->
        Fv_simd.Exec.
          [ e.strips; e.vpl_iterations; e.vpl_extra; e.fallbacks;
            e.fallback_iters ]
    | None -> Alcotest.failf "%s: no vector execution" spec.R.name
  in
  let whole =
    E.run_workload ~invocations:spec.R.invocations ~seed E.Flexvec spec.R.build
  in
  let summed =
    List.fold_left
      (fun acc k ->
        List.map2 ( + ) acc
          (counters
             (E.run_workload ~invocations:1 ~seed:(seed + k) E.Flexvec
                spec.R.build)))
      [ 0; 0; 0; 0; 0 ]
      (List.init spec.R.invocations Fun.id)
  in
  Alcotest.(check (list int))
    "strips, vpl_iterations, vpl_extra, fallbacks, fallback_iters" summed
    (counters whole)

(* an RTM leg is gated by the transactional executor it is traced
   through, not by FlexVec's: every registry kernel passes that gate
   through both entry points *)
let test_rtm_gated_by_rtm () =
  List.iter
    (fun (spec : R.spec) ->
      let check what (r : E.hot_run) =
        match (r.E.compile, r.E.oracle_error) with
        | E.Vectorized, None -> ()
        | c, e ->
            Alcotest.failf "%s %s: %s %s" spec.R.name what
              (E.show_compile_status c)
              (Option.value e ~default:"")
      in
      check "run_workload"
        (E.run_workload ~invocations:spec.R.invocations ~seed:42 (E.Rtm 256)
           spec.R.build);
      let b = spec.R.build 42 in
      check "run_hot"
        (E.run_hot (E.Rtm 256) b.Fv_workloads.Kernels.loop
           b.Fv_workloads.Kernels.mem b.Fv_workloads.Kernels.env))
    R.all

(* a zero-trip loop starts no transactional tile, yet its RTM run must
   record the bounds check its first-faulting run records, not an empty
   trace that the speedup clamps to one cycle *)
let test_rtm_zero_trip () =
  let l =
    Fv_ir.Builder.(
      loop ~name:"z" ~index:"i" ~hi:(int 0) ~live_out:[ "t" ]
        [ assign "t" (load "a" (var "i")) ])
  in
  let mem = Fv_mem.Memory.create () in
  ignore (Fv_mem.Memory.alloc_ints mem "a" [| 1; 2; 3; 4 |]);
  let ff = E.run_hot E.Flexvec l mem [] in
  let rtm = E.run_hot (E.Rtm 256) l mem [] in
  Alcotest.(check string) "rtm vectorized" "vectorized"
    (E.show_compile_status rtm.E.compile);
  Alcotest.(check int) "uops" ff.E.uops rtm.E.uops;
  Alcotest.(check int) "cycles" ff.E.cycles rtm.E.cycles

let suite =
  [
    Alcotest.test_case "all strategies execute" `Quick test_all_strategies_run;
    Alcotest.test_case "traditional falls back on FlexVec loops" `Quick
      test_traditional_falls_back;
    Alcotest.test_case "Amdahl scaling" `Quick test_amdahl;
    Alcotest.test_case "Figure 8 row pipeline" `Quick test_figure8_row;
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "RTM sweep (tiny)" `Quick test_rtm_sweep_tiny;
    Alcotest.test_case "strategy sweep (tiny)" `Quick test_strategy_sweep_tiny;
    Alcotest.test_case "report table" `Quick test_report_table;
    Alcotest.test_case "bar chart" `Quick test_bar_chart;
    Alcotest.test_case "a workload's exec sums its invocations" `Quick
      test_exec_sums_invocations;
    Alcotest.test_case "RTM legs gated by the RTM executor" `Quick
      test_rtm_gated_by_rtm;
    Alcotest.test_case "a zero-trip RTM run records the bounds check"
      `Quick test_rtm_zero_trip;
  ]
