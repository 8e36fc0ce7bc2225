(** Out-of-order pipeline model, branch predictor, profiler. *)

open Fv_isa
module Sink = Fv_trace.Sink
module Uop = Fv_trace.Uop
module Pipeline = Fv_ooo.Pipeline
module B = Fv_ir.Builder
module Memory = Fv_mem.Memory

let run_trace mk n =
  let s = Sink.create () in
  for i = 0 to n - 1 do
    mk s i
  done;
  Pipeline.run s

let test_independent_alu_ipc () =
  let st =
    run_trace
      (fun s i -> Sink.push s (Uop.make ~dst:(Printf.sprintf "r%d" (i mod 32)) Latency.Int_alu))
      50_000
  in
  (* commit width 5 bounds IPC at 5 *)
  Alcotest.(check bool) (Printf.sprintf "ipc %.2f ~ 5" st.ipc) true (st.ipc > 4.8)

let test_serial_chain_ipc_one () =
  let st =
    run_trace (fun s _ -> Sink.push s (Uop.make ~dst:"x" ~srcs:[ "x" ] Latency.Int_alu)) 20_000
  in
  Alcotest.(check bool) (Printf.sprintf "ipc %.2f ~ 1" st.ipc) true
    (st.ipc > 0.95 && st.ipc < 1.05)

let test_latency_respected () =
  (* serial chain of fp divides: ~14 cycles each *)
  let st =
    run_trace (fun s _ -> Sink.push s (Uop.make ~dst:"x" ~srcs:[ "x" ] Latency.Fp_div)) 2_000
  in
  let cpi = float_of_int st.cycles /. 2000. in
  Alcotest.(check bool) (Printf.sprintf "cpi %.1f ~ 14" cpi) true
    (cpi > 13.0 && cpi < 15.5)

let test_load_ports_bound () =
  let st =
    run_trace
      (fun s i -> Sink.push s (Uop.make ~dst:"r" ~addr:(1024 + (i mod 1024)) Latency.Load))
      30_000
  in
  (* two load ports: at most 2 loads per cycle *)
  Alcotest.(check bool) (Printf.sprintf "ipc %.2f <= 2" st.ipc) true (st.ipc <= 2.01)

let test_store_port_bound () =
  let st =
    run_trace
      (fun s i -> Sink.push s (Uop.make ~addr:(1024 + (i mod 1024)) Latency.Store))
      20_000
  in
  Alcotest.(check bool) (Printf.sprintf "ipc %.2f <= 1" st.ipc) true (st.ipc <= 1.01)

let test_predictable_branches_cheap () =
  let st =
    run_trace
      (fun s _ ->
        Sink.push s (Uop.make ~dst:"c" Latency.Int_alu);
        Sink.push s (Uop.branch ~label:"loop" ~taken:true ~srcs:[ "c" ]))
      20_000
  in
  Alcotest.(check bool)
    (Printf.sprintf "miss rate %d/%d low" st.branch_mispredicts st.branch_lookups)
    true
    (float_of_int st.branch_mispredicts /. float_of_int st.branch_lookups < 0.02)

let test_random_branches_hurt () =
  let rng = Random.State.make [| 3 |] in
  let predictable =
    run_trace
      (fun s _ ->
        Sink.push s (Uop.make ~dst:"c" Latency.Int_alu);
        Sink.push s (Uop.branch ~label:"b" ~taken:true ~srcs:[ "c" ]))
      20_000
  in
  let random =
    run_trace
      (fun s _ ->
        Sink.push s (Uop.make ~dst:"c" Latency.Int_alu);
        Sink.push s (Uop.branch ~label:"b" ~taken:(Random.State.bool rng) ~srcs:[ "c" ]))
      20_000
  in
  Alcotest.(check bool) "random branches slower" true
    (random.cycles > 2 * predictable.cycles)

let test_store_to_load_forwarding () =
  (* load immediately after a store to the same address: forwarded, so a
     tight store/load chain runs much faster than a cache round trip *)
  let st =
    run_trace
      (fun s _ ->
        Sink.push s (Uop.make ~dst:"v" ~srcs:[ "v" ] Latency.Int_alu);
        Sink.push s (Uop.make ~srcs:[ "v" ] ~addr:2048 Latency.Store);
        Sink.push s (Uop.make ~dst:"w" ~addr:2048 Latency.Load))
      5_000
  in
  Alcotest.(check bool) "ran" true (st.cycles > 0);
  Alcotest.(check int) "all committed" 15_000 st.uops

let test_empty_trace () =
  let st = Pipeline.run (Sink.create ()) in
  Alcotest.(check int) "cycles" 0 st.cycles

let test_predictor_learns () =
  let p = Fv_ooo.Predictor.create () in
  for _ = 1 to 1000 do
    ignore (Fv_ooo.Predictor.mispredicted p ~label:"b" ~taken:true)
  done;
  Alcotest.(check bool) "low miss rate" true (Fv_ooo.Predictor.miss_rate p < 0.02)

(* ---------------- profiler ---------------- *)

let test_profiler_counts () =
  let mem = Memory.create () in
  ignore (Memory.alloc_ints mem "a" (Array.init 64 (fun i -> if i mod 8 = 0 then 1000 + i else i)));
  let loop =
    B.(loop ~name:"pr" ~index:"i" ~hi:(int 64) ~live_out:[ "m" ])
      B.[ assign "t" (load "a" (var "i")); if_ (var "t" > var "m") [ assign "m" (var "t") ] ]
  in
  let p =
    Fv_profiler.Profile.with_other_uops ~other_uops:1000
      (Fv_profiler.Profile.profile ~invocations:2 loop mem
         [ ("m", Value.Int 500) ])
  in
  Alcotest.(check int) "trips" 128 p.trips;
  Alcotest.(check bool) "avg trip" true (p.avg_trip = 64.0);
  Alcotest.(check bool) "deps counted" true (p.dep_events > 0);
  Alcotest.(check bool) "evl finite" true (p.effective_vl > 1.0);
  Alcotest.(check bool) "coverage in (0,1)" true
    (p.coverage > 0.0 && p.coverage < 1.0);
  Alcotest.(check bool) "mem ratio sane" true (p.mem_ratio > 0.0 && p.mem_ratio < 2.0)

let test_profiler_mem_conflict_window () =
  (* every iteration writes the bucket the next one reads: the windowed
     conflict detector must see ~n dependencies -> EVL ~ 1 *)
  let n = 64 in
  let mem = Memory.create () in
  ignore (Memory.alloc_ints mem "ix" (Array.make n 5));
  ignore (Memory.alloc_ints mem "d" (Array.make 16 0));
  let loop =
    B.(loop ~name:"w" ~index:"i" ~hi:(int n))
      B.[
        assign "j" (load "ix" (var "i"));
        assign "t" (load "d" (var "j") + int 1);
        store "d" (var "j") (var "t");
      ]
  in
  let p = Fv_profiler.Profile.profile loop mem [] in
  Alcotest.(check bool)
    (Printf.sprintf "evl %.1f small" p.effective_vl)
    true (p.effective_vl < 2.0)

let suite =
  [
    Alcotest.test_case "independent ALU IPC ~ commit width" `Quick
      test_independent_alu_ipc;
    Alcotest.test_case "serial chain IPC ~ 1" `Quick test_serial_chain_ipc_one;
    Alcotest.test_case "execution latency respected" `Quick test_latency_respected;
    Alcotest.test_case "2 load ports bound" `Quick test_load_ports_bound;
    Alcotest.test_case "1 store port bound" `Quick test_store_port_bound;
    Alcotest.test_case "predictable branches cheap" `Quick
      test_predictable_branches_cheap;
    Alcotest.test_case "random branches expensive" `Quick test_random_branches_hurt;
    Alcotest.test_case "store-to-load forwarding" `Quick
      test_store_to_load_forwarding;
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    Alcotest.test_case "gshare learns" `Quick test_predictor_learns;
    Alcotest.test_case "profiler counters" `Quick test_profiler_counts;
    Alcotest.test_case "profiler conflict window" `Quick
      test_profiler_mem_conflict_window;
  ]
