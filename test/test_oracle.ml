(** End-to-end scalar-vs-vector equivalence on the paper's three loop
    patterns (Figs. 2, 5, 6), plus simple vectorizable shapes. Each test
    vectorizes the loop, runs both versions from identical state, and
    compares final memory + live-outs. *)

open Fv_isa
module B = Fv_ir.Builder
module Memory = Fv_mem.Memory
module Oracle = Fv_core.Oracle

let seeded_rng seed = Random.State.make [| seed; 0xf1e2 |]

(* ------------------------------------------------------------------ *)
(* Loop definitions                                                    *)
(* ------------------------------------------------------------------ *)

(** Fig. 6: the h264ref conditional-scalar-update loop.

    for pos: if (block_sad[pos] < min_mcost) { mcost = block_sad[pos];
    cand = spiral[pos]; mcost += mv[cand]; if (mcost < min_mcost)
    { min_mcost = mcost; best_pos = pos } } *)
let h264_loop n =
  B.(
    loop ~name:"h264" ~index:"pos" ~hi:(int n)
      ~live_out:[ "min_mcost"; "best_pos" ]
      [
        if_
          (load "block_sad" (var "pos") < var "min_mcost")
          [
            assign "mcost" (load "block_sad" (var "pos"));
            assign "cand" (load "spiral" (var "pos"));
            assign "mcost" (var "mcost" + load "mv" (var "cand"));
            if_
              (var "mcost" < var "min_mcost")
              [ assign "min_mcost" (var "mcost"); assign "best_pos" (var "pos") ];
          ];
      ])

(** Build h264 memory. [update_prob] controls how often the running
    minimum improves; [poison] plants invalid gather indices at positions
    whose guard is false (exercising first-faulting suppression). *)
let h264_mem ?(poison = false) ~seed ~n ~update_prob () =
  let rng = seeded_rng seed in
  let mem = Memory.create () in
  let sad = Array.make n 0 in
  let spiral = Array.make n 0 in
  let m = 64 in
  for i = 0 to n - 1 do
    (* mostly large SADs; occasionally a very small one that will beat
       the running minimum *)
    sad.(i) <-
      (if Random.State.float rng 1.0 < update_prob then
         Random.State.int rng 50
       else 500 + Random.State.int rng 500);
    spiral.(i) <-
      (if poison && sad.(i) >= 500 && Random.State.float rng 1.0 < 0.3 then
         1_000_000 (* unmapped if ever dereferenced *)
       else Random.State.int rng m)
  done;
  ignore (Memory.alloc_ints mem "block_sad" sad);
  ignore (Memory.alloc_ints mem "spiral" spiral);
  ignore
    (Memory.alloc_ints mem "mv" (Array.init m (fun _ -> Random.State.int rng 40)));
  (mem, [ ("min_mcost", Value.Int 400); ("best_pos", Value.Int (-1)) ])

(** Fig. 5: early loop termination with speculative loads.

    for i: v = data[i]; t = tab[v]; if (t == key) { best = i; break; }
    sum += t *)
let early_exit_loop n =
  B.(
    loop ~name:"srch" ~index:"i" ~hi:(int n) ~live_out:[ "best"; "sum" ]
      [
        assign "v" (load "data" (var "i"));
        assign "t" (load "tab" (var "v"));
        if_ (var "t" = var "key") [ assign "best" (var "i"); break_ ];
        assign "sum" (var "sum" + var "t");
      ])

let early_exit_mem ?(exit_at = None) ?(poison_after_exit = false) ~seed ~n () =
  let rng = seeded_rng seed in
  let mem = Memory.create () in
  let m = 128 in
  let tab = Array.init m (fun _ -> 1 + Random.State.int rng 1000) in
  let key = 424242 in
  let data = Array.init n (fun _ -> Random.State.int rng m) in
  (match exit_at with
  | Some pos when pos < n ->
      tab.(data.(pos)) <- key;
      (* avoid accidental earlier hits on the same table slot *)
      for i = 0 to pos - 1 do
        if tab.(data.(i)) = key then data.(i) <- (data.(i) + 1) mod m
      done;
      if poison_after_exit then
        for i = pos + 1 to n - 1 do
          if Random.State.float rng 1.0 < 0.5 then data.(i) <- 2_000_000
        done
  | _ -> ());
  ignore (Memory.alloc_ints mem "data" data);
  ignore (Memory.alloc_ints mem "tab" tab);
  (mem, [ ("key", Value.Int key); ("best", Value.Int (-1)); ("sum", Value.Int 0) ])

(** Fig. 2: runtime cross-iteration memory dependency.

    for i: q = qa[i]; s = sa[i]; coord = q - s;
    if (s >= d[coord]) d[coord] = s *)
let mem_conflict_loop n =
  B.(
    loop ~name:"hits" ~index:"i" ~hi:(int n)
      [
        assign "q" (load "qa" (var "i"));
        assign "s" (load "sa" (var "i"));
        assign "coord" (var "q" - var "s");
        if_
          (var "s" >= load "d" (var "coord"))
          [ store "d" (var "coord") (var "s") ];
      ])

let mem_conflict_mem ~seed ~n ~conflict_prob () =
  let rng = seeded_rng seed in
  let mem = Memory.create () in
  let m = 256 in
  let qa = Array.make n 0 and sa = Array.make n 0 in
  let prev = ref (Random.State.int rng m) in
  for i = 0 to n - 1 do
    let coord =
      if Random.State.float rng 1.0 < conflict_prob then !prev
      else Random.State.int rng m
    in
    prev := coord;
    let s = Random.State.int rng 100 in
    sa.(i) <- s;
    qa.(i) <- coord + s
  done;
  ignore (Memory.alloc_ints mem "qa" qa);
  ignore (Memory.alloc_ints mem "sa" sa);
  ignore (Memory.alloc_ints mem "d" (Array.init m (fun _ -> Random.State.int rng 50)));
  (mem, [])

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let styles = [ ("flexvec", Fv_vectorizer.Gen.Flexvec); ("wholesale", Fv_vectorizer.Gen.Wholesale) ]

let check_all_styles ?(vls = [ 16; 8; 4 ]) name l mem env =
  List.iter
    (fun (sname, style) ->
      List.iter
        (fun vl ->
          let o = Oracle.check_exn ~vl ~style l (Memory.clone mem) env in
          ignore o;
          ())
        vls;
      ignore sname)
    styles;
  ignore name

let test_h264_no_updates () =
  let l = h264_loop 200 in
  let mem, env = h264_mem ~seed:1 ~n:200 ~update_prob:0.0 () in
  check_all_styles "h264" l mem env

let test_h264_sparse_updates () =
  let l = h264_loop 333 in
  let mem, env = h264_mem ~seed:2 ~n:333 ~update_prob:0.05 () in
  check_all_styles "h264" l mem env

let test_h264_dense_updates () =
  let l = h264_loop 128 in
  let mem, env = h264_mem ~seed:3 ~n:128 ~update_prob:0.6 () in
  check_all_styles "h264" l mem env

let test_h264_poisoned_speculation () =
  (* invalid gather indices behind false guards: first-faulting loads
     must suppress them and the fallback must reproduce scalar results *)
  let l = h264_loop 222 in
  let mem, env = h264_mem ~poison:true ~seed:4 ~n:222 ~update_prob:0.1 () in
  check_all_styles "h264/poison" l mem env

let test_h264_vpl_partitions_observed () =
  let l = h264_loop 256 in
  let mem, env = h264_mem ~seed:5 ~n:256 ~update_prob:0.5 () in
  let o = Oracle.check_exn ~vl:16 l mem env in
  Alcotest.(check bool)
    "dense updates force extra VPL partitions" true
    (o.stats.vpl_extra > 0)

let test_early_exit_no_hit () =
  let l = early_exit_loop 150 in
  let mem, env = early_exit_mem ~seed:10 ~n:150 () in
  (* key may appear by accident: force-disable by removing key hits *)
  check_all_styles "srch" l mem env

let test_early_exit_hits () =
  List.iter
    (fun pos ->
      let l = early_exit_loop 140 in
      let mem, env = early_exit_mem ~exit_at:(Some pos) ~seed:(20 + pos) ~n:140 () in
      check_all_styles "srch" l mem env)
    [ 0; 1; 7; 15; 16; 17; 63; 64; 139 ]

let test_early_exit_poisoned_tail () =
  (* beyond the exit position the data is garbage: scalar never touches
     it, vector speculation must suppress the faults *)
  List.iter
    (fun pos ->
      let l = early_exit_loop 120 in
      let mem, env =
        early_exit_mem ~exit_at:(Some pos) ~poison_after_exit:true
          ~seed:(40 + pos) ~n:120 ()
      in
      check_all_styles "srch/poison" l mem env)
    [ 3; 21; 50 ]

let test_mem_conflict_none () =
  let l = mem_conflict_loop 180 in
  let mem, env = mem_conflict_mem ~seed:60 ~n:180 ~conflict_prob:0.0 () in
  check_all_styles "hits" l mem env

let test_mem_conflict_sparse () =
  let l = mem_conflict_loop 256 in
  let mem, env = mem_conflict_mem ~seed:61 ~n:256 ~conflict_prob:0.08 () in
  check_all_styles "hits" l mem env

let test_mem_conflict_dense () =
  let l = mem_conflict_loop 200 in
  let mem, env = mem_conflict_mem ~seed:62 ~n:200 ~conflict_prob:0.7 () in
  check_all_styles "hits" l mem env

let test_mem_conflict_all_same_coord () =
  (* pathological: every iteration touches the same element *)
  let l = mem_conflict_loop 64 in
  let mem = Memory.create () in
  let n = 64 in
  ignore (Memory.alloc_ints mem "qa" (Array.init n (fun i -> 5 + (i mod 7))));
  ignore (Memory.alloc_ints mem "sa" (Array.init n (fun i -> i mod 7)));
  ignore (Memory.alloc_ints mem "d" (Array.make 16 0));
  check_all_styles "hits/same" l mem []

(* simple vectorizable shapes *)

let test_plain_map () =
  let l =
    B.(
      loop ~name:"map" ~index:"i" ~hi:(int 100)
        [ store "b" (var "i") ((load "a" (var "i") * int 3) + int 1) ])
  in
  let mem = Memory.create () in
  ignore (Memory.alloc_ints mem "a" (Array.init 100 (fun i -> i)));
  ignore (Memory.alloc_ints mem "b" (Array.make 100 0));
  check_all_styles "map" l mem []

let test_reduction_sum () =
  let l =
    B.(
      loop ~name:"sum" ~index:"i" ~hi:(int 97) ~live_out:[ "acc" ]
        [ assign "acc" (var "acc" + load "a" (var "i")) ])
  in
  let mem = Memory.create () in
  ignore (Memory.alloc_ints mem "a" (Array.init 97 (fun i -> (i * 7) mod 13)));
  check_all_styles "sum" l mem [ ("acc", Value.Int 100) ]

let test_guarded_reduction () =
  let l =
    B.(
      loop ~name:"gsum" ~index:"i" ~hi:(int 120) ~live_out:[ "acc" ]
        [
          if_
            (load "a" (var "i") > int 6)
            [ assign "acc" (var "acc" + load "a" (var "i")) ];
        ])
  in
  let mem = Memory.create () in
  ignore (Memory.alloc_ints mem "a" (Array.init 120 (fun i -> (i * 11) mod 17)));
  check_all_styles "gsum" l mem [ ("acc", Value.Int 0) ]

let test_min_reduction () =
  let l =
    B.(
      loop ~name:"minr" ~index:"i" ~hi:(int 75) ~live_out:[ "m" ]
        [ assign "m" (min_ (var "m") (load "a" (var "i"))) ])
  in
  let mem = Memory.create () in
  ignore
    (Memory.alloc_ints mem "a" (Array.init 75 (fun i -> 1000 - ((i * 37) mod 900))));
  check_all_styles "minr" l mem [ ("m", Value.Int 999999) ]

let test_if_else_blend () =
  let l =
    B.(
      loop ~name:"blend" ~index:"i" ~hi:(int 90)
        [
          if_else
            (load "a" (var "i") % int 2 = int 0)
            [ assign "x" (load "a" (var "i") * int 2) ]
            [ assign "x" (load "a" (var "i") + int 100) ];
          store "b" (var "i") (var "x");
        ])
  in
  let mem = Memory.create () in
  ignore (Memory.alloc_ints mem "a" (Array.init 90 (fun i -> i)));
  ignore (Memory.alloc_ints mem "b" (Array.make 90 0));
  check_all_styles "blend" l mem []

let test_gather_scatter_disjoint () =
  let l =
    B.(
      loop ~name:"gs" ~index:"i" ~hi:(int 80)
        [ store "out" (load "idx" (var "i")) (load "a" (var "i") + int 5) ])
  in
  let mem = Memory.create () in
  (* permutation: no conflicts *)
  let idx = Array.init 80 (fun i -> (i * 37) mod 80) in
  ignore (Memory.alloc_ints mem "idx" idx);
  ignore (Memory.alloc_ints mem "a" (Array.init 80 (fun i -> i * 3)));
  ignore (Memory.alloc_ints mem "out" (Array.make 80 (-1)));
  check_all_styles "gs" l mem []

let test_odd_trip_counts () =
  (* remainder handling at every alignment *)
  List.iter
    (fun n ->
      let l =
        B.(
          loop ~name:"tail" ~index:"i" ~hi:(int n) ~live_out:[ "acc" ]
            [ assign "acc" (var "acc" + load "a" (var "i")) ])
      in
      let mem = Memory.create () in
      ignore (Memory.alloc_ints mem "a" (Array.init (max n 1) (fun i -> i + 1)));
      check_all_styles "tail" l mem [ ("acc", Value.Int 0) ])
    [ 1; 2; 15; 16; 17; 31; 32; 33; 47 ]

let test_nan_agreement () =
  (* regression: IEEE NaN <> NaN used to flag a kernel that computes
     NaN identically in scalar and vector form as a divergence. inf * 0
     is NaN; the poisoned elements flow into both a stored array and a
     live-out reduction *)
  let l =
    B.(
      loop ~name:"nanmap" ~index:"i" ~hi:(int 40) ~live_out:[ "acc" ]
        [
          assign "x" (load "a" (var "i") * flt 0.0);
          store "b" (var "i") (var "x");
          assign "acc" (var "acc" + var "x");
        ])
  in
  let mem = Memory.create () in
  ignore
    (Memory.alloc_floats mem "a"
       (Array.init 40 (fun i ->
            if Stdlib.(i mod 5 = 0) then Float.infinity else float_of_int i)));
  ignore (Memory.alloc_floats mem "b" (Array.make 40 0.0));
  Alcotest.(check bool) "value_close: NaN agrees with NaN" true
    (Oracle.value_close (Value.Float Float.nan) (Value.Float Float.nan));
  Alcotest.(check bool) "value_close: inf agrees with inf" true
    (Oracle.value_close (Value.Float Float.infinity) (Value.Float Float.infinity));
  Alcotest.(check bool) "value_close: NaN still differs from a number" false
    (Oracle.value_close (Value.Float Float.nan) (Value.Float 1.0));
  check_all_styles "nanmap" l mem [ ("acc", Value.Float 0.0) ]

let test_zero_trip () =
  let l =
    B.(
      loop ~name:"zero" ~index:"i" ~hi:(int 0) ~live_out:[ "acc" ]
        [ assign "acc" (var "acc" + int 1) ])
  in
  let mem = Memory.create () in
  check_all_styles "zero" l mem [ ("acc", Value.Int 42) ]

(* the live-out rule: a live-out the reference never bound has no
   ground truth and is not compared; one it bound must be bound by the
   candidate. Both used to raise [Invalid_argument] out of the lookup *)
let test_compare_env_unbound () =
  let l =
    B.(loop ~name:"lo" ~index:"i" ~hi:(int 0) ~live_out:[ "t"; "u" ] [])
  in
  let env = Fv_ir.Interp.env_of_list in
  let u = ("u", Value.Int 1) in
  Alcotest.(check bool) "unbound in the reference: skipped" true
    (Oracle.compare_env l (env [ u ]) (env [ u ]) = Ok ());
  match Oracle.compare_env l (env [ ("t", Value.Int 1); u ]) (env [ u ]) with
  | Error m ->
      Alcotest.(check string) "unbound in the candidate"
        "live-out \"t\" unbound after vector run" m
  | Ok () -> Alcotest.fail "a live-out the candidate left unbound passed"

(* the one exception policy of the candidate runner, on stub executors *)
let test_against_policy () =
  let l =
    B.(
      loop ~name:"fill" ~index:"i" ~hi:(int 4)
        [ store "a" (var "i") (var "i") ])
  in
  let mem = Memory.create () in
  ignore (Memory.alloc_ints mem "a" (Array.make 4 0));
  let r = Oracle.reference l mem [] in
  let against exec = Oracle.against r l mem [] exec in
  (match against (fun m e -> Fv_ir.Interp.run m e l) with
  | Ok (trips, m) ->
      Alcotest.(check int) "the scalar loop agrees with itself" 4 trips;
      Alcotest.(check int) "on the memory it returns" 3
        (Value.to_int (Memory.get m "a" 3))
  | Error f -> Alcotest.failf "self-check failed: %a" Oracle.pp_failure f);
  (match against (fun _ _ -> raise (Fv_simd.Exec.Vector_exec_error "boom")) with
  | Error (Oracle.Vector_crash m) ->
      Alcotest.(check string) "exec error" "boom" m
  | _ -> Alcotest.fail "Vector_exec_error must be a Vector_crash");
  let fault = { Memory.addr = 7; write = true; injected = false } in
  (match against (fun _ _ -> raise (Memory.Fault fault)) with
  | Error (Oracle.Vector_crash m) ->
      Alcotest.(check string) "names the fault"
        ("memory fault: " ^ Memory.show_fault fault) m
  | _ -> Alcotest.fail "Memory.Fault must be a Vector_crash");
  (match
     against (fun m e ->
         ignore (Fv_ir.Interp.run m e l);
         Memory.set m "a" 2 (Value.Int 99))
   with
  | Error (Oracle.Mismatch m) ->
      Alcotest.(check string) "names the array and index"
        "array a differs at [2]: scalar=2 vector=99" m
  | _ -> Alcotest.fail "a wrong element must be a Mismatch");
  match against (fun _ _ -> raise Not_found) with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "any other exception must escape"

let suite =
  [
    Alcotest.test_case "h264: no updates" `Quick test_h264_no_updates;
    Alcotest.test_case "h264: sparse updates" `Quick test_h264_sparse_updates;
    Alcotest.test_case "h264: dense updates" `Quick test_h264_dense_updates;
    Alcotest.test_case "h264: poisoned speculation" `Quick
      test_h264_poisoned_speculation;
    Alcotest.test_case "h264: VPL partitions observed" `Quick
      test_h264_vpl_partitions_observed;
    Alcotest.test_case "early exit: no hit" `Quick test_early_exit_no_hit;
    Alcotest.test_case "early exit: hit positions" `Quick test_early_exit_hits;
    Alcotest.test_case "early exit: poisoned tail" `Quick
      test_early_exit_poisoned_tail;
    Alcotest.test_case "mem conflict: none" `Quick test_mem_conflict_none;
    Alcotest.test_case "mem conflict: sparse" `Quick test_mem_conflict_sparse;
    Alcotest.test_case "mem conflict: dense" `Quick test_mem_conflict_dense;
    Alcotest.test_case "mem conflict: single coordinate" `Quick
      test_mem_conflict_all_same_coord;
    Alcotest.test_case "plain map" `Quick test_plain_map;
    Alcotest.test_case "sum reduction" `Quick test_reduction_sum;
    Alcotest.test_case "guarded reduction" `Quick test_guarded_reduction;
    Alcotest.test_case "min reduction" `Quick test_min_reduction;
    Alcotest.test_case "if/else blend" `Quick test_if_else_blend;
    Alcotest.test_case "gather/scatter disjoint" `Quick
      test_gather_scatter_disjoint;
    Alcotest.test_case "odd trip counts" `Quick test_odd_trip_counts;
    Alcotest.test_case "NaN-producing kernel agrees" `Quick test_nan_agreement;
    Alcotest.test_case "zero trip" `Quick test_zero_trip;
    Alcotest.test_case "compare_env: unbound live-outs" `Quick
      test_compare_env_unbound;
    Alcotest.test_case "against: one exception policy" `Quick
      test_against_policy;
  ]
