(** The trace the emulators record: register ids, temporaries and what
    recording costs. *)

open Fv_isa
module B = Fv_ir.Builder
module Sink = Fv_trace.Sink
module Pipeline = Fv_ooo.Pipeline
module Ast = Fv_ir.Ast
module E = Fv_core.Experiment
module K = Fv_workloads.Kernels
module R = Fv_workloads.Registry
module Gen = Fv_fuzz.Gen

let spec name = List.find (fun (s : R.spec) -> s.name = name) R.all

(* one invocation of a registry kernel (data seed 42) traced into a
   fresh sink, scalar or as FlexVec code at vector length [vl]; [~emit]
   is off for the untraced reference run *)
let trace_into ?(vl = 16) ?emit (spec : R.spec) strategy =
  let b = spec.build 42 in
  let m = Fv_mem.Memory.clone b.K.mem and e = Fv_ir.Interp.env_of_list b.K.env in
  match strategy with
  | `Scalar ->
      ignore (Fv_ir.Interp.run ~hk:(Fv_ir.Interp.hooks ?emit ()) m e b.K.loop)
  | `Flexvec -> (
      match Fv_vectorizer.Gen.vectorize ~vl b.K.loop with
      | Ok vloop -> ignore (Fv_simd.Exec.run ?emit vloop m e)
      | Error _ -> Alcotest.failf "%s does not vectorize at vl %d" spec.name vl)

let trace ?vl spec strategy =
  let sink = Sink.create ~capacity:4096 () in
  trace_into ?vl ~emit:sink spec strategy;
  sink

(* [n] loads summed right-leaning, [l0 + (l1 + (... + l(n-1)))]: every
   left operand stays live while the rest of the chain evaluates, so
   [n - 1] temporaries are live at the deepest point. Load [miss] reads
   a fresh cache line each iteration; the others hit. *)
let deep_chain ~n ~miss =
  let rec go k =
    let l =
      if k = miss then B.load "big" B.(var "i" * int 4096)
      else B.load "a" B.(var "i" + int k)
    in
    if k = n - 1 then l else B.(l + go (Stdlib.( + ) k 1))
  in
  B.(loop ~name:"deep" ~index:"i" ~hi:(int 16)) [ B.assign "s" (go 0) ]

(* Its scalar statistics, pinned from a build that gave every
   temporary a name of its own. A cyclic pool of 64 names lets the
   consumer of load 60 read a later temporary instead, so it no longer
   waits for the miss, and the cycle count drops. *)
let test_deep_chain_exact () =
  let mem = Fv_mem.Memory.create () in
  ignore (Fv_mem.Memory.alloc_ints mem "big" (Array.init ((16 * 4096) + 64) Fun.id));
  ignore (Fv_mem.Memory.alloc_ints mem "a" (Array.init 128 Fun.id));
  let sink = Sink.create () in
  let hk = Fv_ir.Interp.hooks ~emit:sink () in
  let env = Fv_ir.Interp.env_of_list [ ("s", Value.Int 0) ] in
  ignore (Fv_ir.Interp.run ~hk mem env (deep_chain ~n:100 ~miss:60));
  let s = Pipeline.run ~hier:(Fv_memsys.Hierarchy.table1 ()) sink in
  Alcotest.(check (list int))
    "cycles, uops, branches, stalls, loads, stores"
    [ 3621; 4817; 17; 1; 1710; 0; 788; 0; 0; 1600; 0 ]
    [ s.cycles; s.uops; s.branch_lookups; s.branch_mispredicts; s.stall_rob;
      s.stall_rs; s.stall_lq; s.stall_sq; s.stall_redirect; s.loads; s.stores ];
  Alcotest.(check bool) "not truncated" false s.truncated

(* A gather's merge uop reads its setup register and one temporary
   per lane, [vl + 1] registers that must all be distinct or the merge
   loses dependences; a cyclic pool of 64 names aliases them from vl 64
   on. These kernels each run gathers with at least 64 lanes enabled at
   both lengths. *)
let test_gather_lanes_distinct () =
  List.iter
    (fun vl ->
      List.iter
        (fun name ->
          let uops = Sink.to_array (trace ~vl (spec name) `Flexvec) in
          let gathers = ref 0 and widest = ref 0 in
          Array.iteri
            (fun i (u : Fv_trace.Uop.t) ->
              match u.cls with
              | Latency.Gather | Latency.Gather_ff ->
                  incr gathers;
                  let setup = Option.get u.dst in
                  (* the lane loads, then the merge *)
                  let j = ref (i + 1) in
                  while uops.(!j).cls = Latency.Load && uops.(!j).srcs = [ setup ] do
                    incr j
                  done;
                  let lanes = !j - i - 1 in
                  widest := max !widest lanes;
                  let merge = uops.(!j) in
                  let lane_regs = List.tl merge.srcs in
                  Alcotest.(check int)
                    (Printf.sprintf "%s vl=%d: merge reads every lane" name vl)
                    lanes (List.length lane_regs);
                  Alcotest.(check bool)
                    (Printf.sprintf "%s vl=%d: lanes distinct from each other and the setup"
                       name vl)
                    true
                    (List.length (List.sort_uniq compare (setup :: lane_regs))
                    = lanes + 1)
              | _ -> ())
            uops;
          Alcotest.(check bool)
            (Printf.sprintf "%s vl=%d: %d gathers, up to %d lanes" name vl !gathers
               !widest)
            true
            (!gathers > 0 && !widest >= 64))
        [ "433.milc"; "454.calculix"; "SSCA2" ])
    [ 64; 128 ]

(* rename every scalar of a loop (and its environment) with [f] *)
let rename f (l : Ast.loop) env =
  let rec expr : Ast.expr -> Ast.expr = function
    | Const _ as c -> c
    | Var x -> Var (f x)
    | Load (a, i) -> Load (a, expr i)
    | Binop (op, a, b) -> Binop (op, expr a, expr b)
    | Cmp (op, a, b) -> Cmp (op, expr a, expr b)
    | Unop (op, a) -> Unop (op, expr a)
  in
  let rec stmt (s : Ast.stmt) : Ast.stmt =
    let node : Ast.node =
      match s.node with
      | Assign (v, e) -> Assign (f v, expr e)
      | Store (a, i, e) -> Store (a, expr i, expr e)
      | If (c, t, e) -> If (expr c, List.map stmt t, List.map stmt e)
      | Break -> Break
    in
    { s with node }
  in
  ( { l with index = f l.index; lo = expr l.lo; hi = expr l.hi;
      body = List.map stmt l.body; live_out = List.map f l.live_out },
    List.map (fun (x, v) -> (f x, v)) env )

(* every name the emulators once used for their own registers *)
let internal_names = [ "_ktest"; "_vt1"; "vi"; "_kchk"; "_rtm"; "_gap"; "_const"; "_vt3"; "st5" ]

let strategies = [ E.Scalar; E.Flexvec; E.Rtm 64 ]

let stats ~vl strategy l mem env = (E.run_hot ~vl strategy l mem env).E.pipe

(* Renaming a loop's scalars onto those names is an alpha-renaming:
   every strategy's statistics stay exactly those of the original. *)
let check_renamings ~what ~vl (l : Ast.loop) mem env renamings =
  List.iter
    (fun strategy ->
      let want = stats ~vl strategy l mem env in
      List.iter
        (fun pairs ->
          let f x = Option.value (List.assoc_opt x pairs) ~default:x in
          let l', env' = rename f l env in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s, renamed %s" what (E.show_strategy strategy)
               (String.concat "," (List.map (fun (a, b) -> a ^ "->" ^ b) pairs)))
            true
            (compare want (stats ~vl strategy l' mem env') = 0))
        renamings)
    strategies

let test_program_names_are_not_internal () =
  let c = Gen.gen_cond_update (Fv_fuzz.Rng.make 7) in
  let rotations = List.init (List.length internal_names) Fun.id in
  let nth k = List.nth internal_names (k mod List.length internal_names) in
  check_renamings ~what:"cond_update case" ~vl:c.vl c.loop (Gen.memory_of c) c.env
    (List.map (fun k -> [ ("m", nth k); ("t", nth (k + 1)) ]) rotations);
  List.iter
    (fun name ->
      let b = (spec name).build 42 in
      let scalars =
        List.sort_uniq compare
          ((b.K.loop.index :: List.map fst b.K.env) @ b.K.loop.live_out)
      in
      check_renamings ~what:name ~vl:16 b.K.loop b.K.mem b.K.env
        (List.map
           (fun k -> List.mapi (fun i x -> (x, nth (k + i))) scalars)
           [ 0; 3; 6 ]))
    [ "464.h264ref"; "458.sjeng"; "473.astar" ]

(* Recording names a temporary by its depth, so a trace needs few
   registers however long it runs. *)
let test_few_registers () =
  List.iter
    (fun (spec : R.spec) ->
      List.iter
        (fun strategy ->
          let n = Sink.nregs (trace spec strategy) in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: %d registers" spec.name
               (match strategy with `Scalar -> "scalar" | `Flexvec -> "flexvec")
               n)
            true (n <= 256))
        [ `Scalar; `Flexvec ])
    R.all

(* Recording allocates nothing per uop: a traced run allocates at most
   one minor word per uop more than the same run with no sink. *)
let test_recording_allocates_nothing () =
  List.iter
    (fun (name, strategy) ->
      let spec = spec name in
      (* warm both paths first, so one-time set-up is not counted *)
      trace_into spec strategy;
      ignore (trace spec strategy);
      let words f =
        let w0 = Gc.minor_words () in
        f ();
        Gc.minor_words () -. w0
      in
      let bare = words (fun () -> trace_into spec strategy) in
      let sink = Sink.create ~capacity:4096 () in
      let traced = words (fun () -> trace_into ~emit:sink spec strategy) in
      let per_uop = (traced -. bare) /. float_of_int (Sink.length sink) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f extra words per uop over %d uops" name per_uop
           (Sink.length sink))
        true (per_uop <= 1.0))
    [ ("458.sjeng", `Scalar); ("401.bzip2", `Flexvec) ]

(* Replay allocates nothing per uop either: its per-uop state is a
   window of in-flight slots and its scheduler closures are built once
   per replay, so what it allocates on the minor heap is a fixed set-up
   cost per trace. *)
let test_replay_allocates_nothing () =
  let sinks =
    List.concat_map
      (fun spec -> [ trace spec `Scalar; trace spec `Flexvec ])
      R.all
  in
  let hier = Fv_memsys.Hierarchy.table1 () in
  let w0 = Gc.minor_words () in
  List.iter
    (fun s ->
      Fv_memsys.Hierarchy.reset hier;
      ignore (Pipeline.run ~hier s))
    sinks;
  let words = Gc.minor_words () -. w0 in
  let uops = List.fold_left (fun a s -> a + Sink.length s) 0 sinks in
  let per_uop = words /. float_of_int uops in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f words per uop over %d traces, %d uops" per_uop
       (List.length sinks) uops)
    true (per_uop <= 0.1)

let suite =
  [
    Alcotest.test_case "deep expression: temporaries stay exact" `Quick
      test_deep_chain_exact;
    Alcotest.test_case "gather lanes stay distinct at vl 64 and 128" `Quick
      test_gather_lanes_distinct;
    Alcotest.test_case "program names never alias internal registers" `Slow
      test_program_names_are_not_internal;
    Alcotest.test_case "every registry trace needs at most 256 registers" `Quick
      test_few_registers;
    Alcotest.test_case "recording allocates nothing per uop" `Quick
      test_recording_allocates_nothing;
    Alcotest.test_case "replay allocates nothing per uop" `Quick
      test_replay_allocates_nothing;
  ]
