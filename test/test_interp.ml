(** Scalar IR and reference interpreter semantics. *)

open Fv_isa
module B = Fv_ir.Builder
module Ast = Fv_ir.Ast
module Interp = Fv_ir.Interp
module Memory = Fv_mem.Memory

let value = Alcotest.testable Value.pp Value.equal

let run_simple body ~env ~arrays =
  let mem = Memory.create () in
  List.iter (fun (n, a) -> ignore (Memory.alloc_ints mem n a)) arrays;
  let e = Interp.env_of_list env in
  let l = B.(loop ~name:"t" ~index:"i" ~hi:(B.int 10)) body in
  let trips = Interp.run mem e l in
  (trips, e, mem)

let test_assign_and_arith () =
  let trips, e, _ =
    run_simple ~env:[ ("x", Value.Int 0) ] ~arrays:[]
      B.[ assign "x" (var "x" + (var "i" * int 2)) ]
  in
  Alcotest.(check int) "trips" 10 trips;
  (* sum of 2i for i in 0..9 = 90 *)
  Alcotest.check value "x" (Value.Int 90) (Interp.env_get e "x")

let test_loads_stores () =
  let _, _, mem =
    run_simple ~env:[] ~arrays:[ ("a", Array.init 10 (fun i -> i)); ("b", Array.make 10 0) ]
      B.[ store "b" (var "i") (load "a" (var "i") * int 3) ]
  in
  Alcotest.check value "b[4]" (Value.Int 12) (Memory.get mem "b" 4)

let test_if_else () =
  let _, e, _ =
    run_simple ~env:[ ("even", Value.Int 0); ("odd", Value.Int 0) ] ~arrays:[]
      B.[
        if_else (var "i" % int 2 = int 0)
          [ assign "even" (var "even" + int 1) ]
          [ assign "odd" (var "odd" + int 1) ];
      ]
  in
  Alcotest.check value "even" (Value.Int 5) (Interp.env_get e "even");
  Alcotest.check value "odd" (Value.Int 5) (Interp.env_get e "odd")

let test_break_stops () =
  let trips, e, _ =
    run_simple ~env:[ ("n", Value.Int 0) ] ~arrays:[]
      B.[
        if_ (var "i" = int 6) [ break_ ];
        assign "n" (var "n" + int 1);
      ]
  in
  Alcotest.(check int) "trips" 7 trips;
  Alcotest.check value "n" (Value.Int 6) (Interp.env_get e "n")

let test_index_after_break () =
  let mem = Memory.create () in
  let e = Interp.env_of_list [] in
  let l =
    B.(loop ~name:"t" ~index:"i" ~hi:(int 100)) B.[ if_ (var "i" = int 42) [ break_ ] ]
  in
  ignore (Interp.run mem e l);
  Alcotest.check value "i" (Value.Int 42) (Interp.env_get e "i")

let test_zero_trip_env_untouched () =
  let mem = Memory.create () in
  let e = Interp.env_of_list [ ("x", Value.Int 5) ] in
  let l = B.(loop ~name:"z" ~index:"i" ~hi:(int 0)) B.[ assign "x" (int 9) ] in
  Alcotest.(check int) "trips" 0 (Interp.run mem e l);
  Alcotest.check value "x" (Value.Int 5) (Interp.env_get e "x")

let test_float_arith () =
  let mem = Memory.create () in
  ignore (Memory.alloc_floats mem "f" [| 0.5; 1.5; 2.5 |]);
  let e = Interp.env_of_list [ ("s", Value.Float 0.0) ] in
  let l =
    B.(loop ~name:"f" ~index:"i" ~hi:(int 3))
      B.[ assign "s" (var "s" + (load "f" (var "i") * flt 2.0)) ]
  in
  ignore (Interp.run mem e l);
  Alcotest.check value "s" (Value.Float 9.0) (Interp.env_get e "s")

let test_fault_on_oob () =
  let mem = Memory.create () in
  ignore (Memory.alloc_ints mem "a" [| 1; 2; 3 |]);
  let e = Interp.env_of_list [ ("x", Value.Int 0) ] in
  let l =
    B.(loop ~name:"oob" ~index:"i" ~hi:(int 10))
      B.[ assign "x" (load "a" (var "i")) ]
  in
  Alcotest.check_raises "faults"
    (Memory.Fault { addr = Memory.addr_of mem "a" 3; write = false; injected = false })
    (fun () -> ignore (Interp.run mem e l))

let test_uop_trace_counts () =
  let sink = Fv_trace.Sink.create () in
  let mem = Memory.create () in
  ignore (Memory.alloc_ints mem "a" (Array.init 8 (fun i -> i)));
  ignore (Memory.alloc_ints mem "b" (Array.make 8 0));
  let e = Interp.env_of_list [] in
  let l =
    B.(loop ~name:"tr" ~index:"i" ~hi:(int 8))
      B.[ store "b" (var "i") (load "a" (var "i") + int 1) ]
  in
  let hk = Interp.hooks ~emit:sink () in
  ignore (Interp.run ~hk mem e l);
  Alcotest.(check int) "loads" 8 (Fv_trace.Sink.count_class sink Latency.Load);
  Alcotest.(check int) "stores" 8 (Fv_trace.Sink.count_class sink Latency.Store);
  (* 8 back-edge branches + 1 exit branch *)
  Alcotest.(check int) "branches" 9 (Fv_trace.Sink.count_class sink Latency.Branch)

let test_run_iteration () =
  let mem = Memory.create () in
  let e = Interp.env_of_list [ ("x", Value.Int 0) ] in
  let l =
    B.(loop ~name:"ri" ~index:"i" ~hi:(int 100))
      B.[ assign "x" (var "x" + var "i"); if_ (var "i" = int 5) [ break_ ] ]
  in
  Alcotest.(check bool) "ok" true (Interp.run_iteration mem e l 3 = `Ok);
  Alcotest.(check bool) "break" true (Interp.run_iteration mem e l 5 = `Break);
  Alcotest.check value "x accumulated" (Value.Int 8) (Interp.env_get e "x")

(* pretty printer / AST utilities *)

let test_pp_roundtrip_shape () =
  let l =
    B.(loop ~name:"p" ~index:"i" ~hi:(int 4))
      B.[ if_else (var "i" < int 2) [ assign "x" (int 1) ] [ assign "x" (int 2) ] ]
  in
  let s = Fv_ir.Pp.loop_to_string l in
  Alcotest.(check bool) "mentions for" true
    (String.length s > 0 && String.sub s 0 3 = "for");
  Alcotest.(check bool) "numbered" true (Ast.is_numbered l);
  Alcotest.(check int) "size" 3 (Ast.size l)

let test_number_assigns_unique_ids () =
  let l =
    B.(loop ~name:"n" ~index:"i" ~hi:(int 4))
      B.[
        assign "a" (int 1);
        if_ (var "a" > int 0) [ assign "b" (int 2); assign "c" (int 3) ];
        assign "d" (int 4);
      ]
  in
  let ids = List.map (fun (s : Ast.stmt) -> s.id) (Ast.all_stmts l) in
  Alcotest.(check (list int)) "consecutive" [ 0; 1; 2; 3; 4 ] (List.sort compare ids)

let test_analysis_defs_uses () =
  let module A = Fv_ir.Analysis in
  let e = B.(load "a" (var "i") + var "x") in
  Alcotest.(check (list string)) "uses" [ "i"; "x" ]
    (List.sort compare (A.StringSet.elements (A.expr_uses e)));
  Alcotest.(check int) "loads" 1 (List.length (A.expr_loads e));
  let l =
    B.(loop ~name:"a" ~index:"i" ~hi:(int 4))
      B.[ assign "x" (load "a" (var "i")); store "b" (var "i") (var "x") ]
  in
  Alcotest.(check bool) "x defined" true
    (A.StringSet.mem "x" (A.loop_defs l));
  Alcotest.(check bool) "i not an input after removal" true
    (not (A.StringSet.mem "i" (A.loop_inputs l)))

let test_affine_recognition () =
  let module A = Fv_ir.Analysis in
  let aff e = A.affine_in_index ~index:"i" e <> None in
  Alcotest.(check bool) "i" true (aff B.(var "i"));
  Alcotest.(check bool) "i+3" true (aff B.(var "i" + int 3));
  Alcotest.(check bool) "3+i" true (aff B.(int 3 + var "i"));
  Alcotest.(check bool) "i-1" true (aff B.(var "i" - int 1));
  Alcotest.(check bool) "2i" false (aff B.(var "i" * int 2));
  Alcotest.(check bool) "a[i]" false (aff B.(load "a" (var "i")))

let suite =
  [
    Alcotest.test_case "assign and arithmetic" `Quick test_assign_and_arith;
    Alcotest.test_case "loads and stores" `Quick test_loads_stores;
    Alcotest.test_case "if/else" `Quick test_if_else;
    Alcotest.test_case "break stops the loop" `Quick test_break_stops;
    Alcotest.test_case "index value after break" `Quick test_index_after_break;
    Alcotest.test_case "zero-trip leaves env untouched" `Quick
      test_zero_trip_env_untouched;
    Alcotest.test_case "float arithmetic" `Quick test_float_arith;
    Alcotest.test_case "out-of-bounds faults" `Quick test_fault_on_oob;
    Alcotest.test_case "uop trace counts" `Quick test_uop_trace_counts;
    Alcotest.test_case "run_iteration" `Quick test_run_iteration;
    Alcotest.test_case "pretty printer shape" `Quick test_pp_roundtrip_shape;
    Alcotest.test_case "numbering" `Quick test_number_assigns_unique_ids;
    Alcotest.test_case "defs/uses analysis" `Quick test_analysis_defs_uses;
    Alcotest.test_case "affine index recognition" `Quick test_affine_recognition;
  ]
