(** Fault injection ({!Fv_faults.Plan}), its delivery through
    {!Fv_mem.Memory}, and the recovery machinery it exists to exercise:
    first-faulting mask shrinkage + scalar fallback, and RTM
    abort/retry/scalar-tile re-execution. The headline property is the
    differential oracle {!Fv_core.Oracle.check_under_faults}: scalar,
    FF and RTM must agree on final state under any injection plan. *)

open Fv_isa
module Plan = Fv_faults.Plan
module Memory = Fv_mem.Memory
module Interp = Fv_ir.Interp
module Oracle = Fv_core.Oracle
module R = Fv_workloads.Registry
module K = Fv_workloads.Kernels

let value = Alcotest.testable Value.pp Value.equal

(* ---------------- the plan itself ---------------- *)

let test_plan_determinism () =
  let p = Plan.make ~rate:0.1 ~seed:42 () in
  (* pure: same (access, addr) always answers the same *)
  for a = 0 to 199 do
    Alcotest.(check bool)
      (Printf.sprintf "access %d deterministic" a)
      (Plan.fires p ~access:a ~addr:17)
      (Plan.fires p ~access:a ~addr:17)
  done;
  let count p n =
    let c = ref 0 in
    for a = 0 to n - 1 do
      if Plan.fires p ~access:a ~addr:0 then incr c
    done;
    !c
  in
  let n = 20_000 in
  let hits = count p n in
  let frac = float_of_int hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "empirical rate %.3f near 0.1" frac)
    true
    (frac > 0.05 && frac < 0.15);
  (* a different seed flips a healthy share of decisions *)
  let q = Plan.make ~rate:0.1 ~seed:43 () in
  let differ = ref 0 in
  for a = 0 to n - 1 do
    if Plan.fires p ~access:a ~addr:0 <> Plan.fires q ~access:a ~addr:0 then
      incr differ
  done;
  Alcotest.(check bool) "seeds decorrelate" true (!differ > n / 20);
  Alcotest.(check int) "rate 0 never fires" 0
    (count (Plan.make ~rate:0.0 ~seed:1 ()) n);
  Alcotest.(check int) "rate 1 always fires" n
    (count (Plan.make ~rate:1.0 ~seed:1 ()) n)

let test_plan_nth_and_protected () =
  let p = Plan.make ~nth:[ 0; 7 ] () in
  List.iter
    (fun (a, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "nth at access %d" a)
        expect
        (Plan.fires p ~access:a ~addr:100))
    [ (0, true); (1, false); (6, false); (7, true); (8, false) ];
  let p = Plan.make ~protected:[ (10, 20) ] () in
  List.iter
    (fun (addr, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "protected addr %d" addr)
        expect
        (Plan.fires p ~access:3 ~addr))
    [ (9, false); (10, true); (19, true); (20, false) ];
  (* protected ranges fire on every access ordinal: they model
     persistent faults that survive RTM retries *)
  Alcotest.(check bool) "protected persists across ordinals" true
    (Plan.fires p ~access:0 ~addr:10 && Plan.fires p ~access:999 ~addr:10);
  Alcotest.(check bool) "none is none" true (Plan.is_none Plan.none);
  Alcotest.(check bool) "nth plan is not none" false
    (Plan.is_none (Plan.make ~nth:[ 3 ] ()));
  Alcotest.check_raises "rate above 1 rejected"
    (Invalid_argument "Plan.make: rate must be in [0, 1]") (fun () ->
      ignore (Plan.make ~rate:1.5 ()));
  Alcotest.check_raises "inverted range rejected"
    (Invalid_argument "Plan.make: protected range with lo > hi") (fun () ->
      ignore (Plan.make ~protected:[ (5, 2) ] ()))

(* ---------------- delivery through Memory ---------------- *)

let test_memory_injection () =
  let m = Memory.create () in
  let base = Memory.alloc_ints m "a" [| 1; 2; 3; 4 |] in
  Memory.set_fault_plan m (Some (Plan.make ~nth:[ 1 ] ()));
  (match Memory.load_opt m base with
  | Ok v -> Alcotest.check value "access 0 unharmed" (Value.Int 1) v
  | Error f -> Alcotest.failf "access 0 should not fault: %s" (Memory.show_fault f));
  (match Memory.load_opt m base with
  | Error f ->
      Alcotest.(check bool) "access 1 injected" true f.Memory.injected;
      Alcotest.(check int) "faulting address" base f.Memory.addr;
      Alcotest.(check bool) "read fault" false f.Memory.write
  | Ok _ -> Alcotest.fail "access 1 must fault");
  Alcotest.(check int) "delivery counted" 1 m.Memory.injected_faults;
  (* re-attaching a plan resets the access and delivery counters *)
  Memory.set_fault_plan m (Some (Plan.make ~nth:[ 1 ] ()));
  Alcotest.(check int) "counters reset" 0 m.Memory.injected_faults;
  Alcotest.(check int) "access counter reset" 0 m.Memory.fault_accesses;
  (* injected store faults leave the cell untouched *)
  Memory.set_fault_plan m (Some (Plan.make ~rate:1.0 ()));
  (match Memory.store_opt m (base + 2) (Value.Int 99) with
  | Error f ->
      Alcotest.(check bool) "store injected" true f.Memory.injected;
      Alcotest.(check bool) "write fault" true f.Memory.write
  | Ok () -> Alcotest.fail "store under rate-1 plan must fault");
  Alcotest.check value "store suppressed" (Value.Int 3)
    (Memory.get m "a" 2);
  (* the trapping API never sees injected faults: it is the scalar
     interpreter's path, hence every recovery path must terminate *)
  Alcotest.check value "trapping load immune" (Value.Int 1)
    (Memory.load m base);
  Memory.store m (base + 2) (Value.Int 99);
  Alcotest.check value "trapping store immune" (Value.Int 99)
    (Memory.get m "a" 2);
  (* genuine unmapped faults are not flagged as injected *)
  (match Memory.load_opt m (base + 1000) with
  | Error f -> Alcotest.(check bool) "unmapped not injected" false f.Memory.injected
  | Ok _ -> Alcotest.fail "unmapped access must fault");
  (* clones do not inherit the plan *)
  let c = Memory.clone m in
  (match Memory.load_opt c base with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "clone must not inject: %s" (Memory.show_fault f));
  (* detaching stops injection *)
  Memory.set_fault_plan m None;
  match Memory.load_opt m base with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "detached plan still fires: %s" (Memory.show_fault f)

(* ---------------- FF recovery under injection ---------------- *)

let small_build seed =
  Fv_core.Sweeps.tunable_cond_update ~trip:256 ~update_rate:0.05 ~near_rate:0.2
    seed

let vectorized (b : K.built) =
  match Fv_vectorizer.Gen.vectorize ~vl:16 b.K.loop with
  | Ok v -> v
  | Error e ->
      Alcotest.failf "kernel not vectorizable: %s" (Fv_ir.Validate.describe e)

let scalar_reference (b : K.built) =
  let ms = Memory.clone b.K.mem and es = Interp.env_of_list b.K.env in
  ignore (Interp.run ms es b.K.loop);
  (ms, es)

let check_against_scalar ~what (b : K.built) ms es mv ev =
  (match Oracle.compare_memories ms mv with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: memory diverged: %s" what e);
  match Oracle.compare_env b.K.loop es ev with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: live-outs diverged: %s" what e

let test_ff_absorbs_injected_faults () =
  let b = small_build 5 in
  let vloop = vectorized b in
  let ms, es = scalar_reference b in
  let mv = Memory.clone b.K.mem and ev = Interp.env_of_list b.K.env in
  Memory.set_fault_plan mv (Some (Plan.make ~rate:0.01 ~seed:11 ()));
  ignore (Fv_simd.Exec.run vloop mv ev);
  Alcotest.(check bool) "faults were actually delivered" true
    (mv.Memory.injected_faults > 0);
  check_against_scalar ~what:"ff under injection" b ms es mv ev

(* ---------------- the differential oracle, over the registry ------- *)

(* [FLEXVEC_FAULT_SEED] narrows the sweep to one seed — the CI smoke
   job uses it to pin two specific seeds in separate runs *)
let fault_seeds () =
  match Sys.getenv_opt "FLEXVEC_FAULT_SEED" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> [ n ]
      | None -> failwith ("FLEXVEC_FAULT_SEED is not an integer: " ^ s))
  | None -> [ 3; 7; 23 ]

let test_oracle_under_faults_registry () =
  List.iter
    (fun (spec : R.spec) ->
      let b = spec.build 42 in
      List.iter
        (fun seed ->
          let plan = Plan.make ~rate:0.002 ~seed () in
          let o =
            Oracle.check_under_faults_exn ~vl:16 ~tile:64 ~plan b.K.loop
              b.K.mem b.K.env
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: trips simulated" spec.R.name seed)
            true (o.Oracle.fo_trips >= 0))
        (fault_seeds ()))
    R.all

(* ---------------- RTM retry policy ---------------- *)

let rtm_run ?capacity_elems ~tile ~plan (b : K.built) =
  let vloop = vectorized b in
  let mr = Memory.clone b.K.mem and er = Interp.env_of_list b.K.env in
  Memory.set_fault_plan mr (Some plan);
  let stats = Fv_simd.Rtm_run.run ?capacity_elems ~tile vloop mr er in
  (stats, mr, er)

let test_rtm_retry_succeeds () =
  (* one transient injected fault: the first attempt aborts, the retry
     re-rolls the access ordinal and commits transactionally — no
     scalar fallback at all *)
  let b = small_build 5 in
  let ms, es = scalar_reference b in
  let plan = Plan.make ~nth:[ 10 ] () in
  let stats, mr, er = rtm_run ~tile:64 ~plan b in
  let open Fv_simd.Rtm_run in
  Alcotest.(check int) "tiles" 4 stats.tiles;
  Alcotest.(check int) "one abort" 1 stats.aborts;
  Alcotest.(check int) "no capacity aborts" 0 stats.capacity_aborts;
  Alcotest.(check int) "one retry" 1 stats.retries;
  Alcotest.(check int) "retry committed" 1 stats.retried_commits;
  Alcotest.(check int) "every tile committed" 4 stats.commits;
  Alcotest.(check int) "no scalar fallback" 0 stats.scalar_iters;
  Alcotest.(check int) "the fault was delivered" 1 mr.Memory.injected_faults;
  check_against_scalar ~what:"rtm retry" b ms es mr er

let test_rtm_retries_exhausted_falls_back () =
  (* a protected address faults on every attempt: retries are spent,
     then the tile is re-executed scalar (trapping API, no injection)
     and the run still matches the scalar reference *)
  let b = small_build 5 in
  let ms, es = scalar_reference b in
  let a0 = Memory.base_of b.K.mem "sad" in
  let plan = Plan.make ~protected:[ (a0, a0 + 1) ] () in
  let stats, mr, er = rtm_run ~tile:64 ~plan b in
  let open Fv_simd.Rtm_run in
  Alcotest.(check int) "initial + 2 retries all abort" 3 stats.aborts;
  Alcotest.(check int) "retries spent" 2 stats.retries;
  Alcotest.(check int) "no retried commit" 0 stats.retried_commits;
  Alcotest.(check int) "faulting tile went scalar" 64 stats.scalar_iters;
  Alcotest.(check int) "other tiles committed" 3 stats.commits;
  check_against_scalar ~what:"rtm exhausted" b ms es mr er

let test_rtm_capacity_with_fault_not_retried () =
  (* regression for the capacity-accounting bug: a tile that both
     overflows the read/write-set capacity and takes an injected fault
     mid-tile is a capacity abort — retrying it could never commit, so
     it must go straight to scalar *)
  let b = small_build 5 in
  let ms, es = scalar_reference b in
  let plan = Plan.make ~nth:[ 10 ] () in
  let stats, mr, er = rtm_run ~capacity_elems:4 ~tile:64 ~plan b in
  let open Fv_simd.Rtm_run in
  Alcotest.(check int) "no transactional commits" 0 stats.commits;
  Alcotest.(check bool) "faulting overflowing tile is a capacity abort" true
    (stats.capacity_aborts = stats.aborts && stats.aborts >= 1);
  Alcotest.(check int) "never retried" 0 stats.retries;
  Alcotest.(check int) "whole trip re-executed scalar" 256 stats.scalar_iters;
  check_against_scalar ~what:"rtm capacity+fault" b ms es mr er

(* ---------------- the sweep plumbing ---------------- *)

let test_fault_sweep_smoke () =
  let points =
    Fv_core.Sweeps.fault_sweep ~rates:[ 0.0; 0.02 ] ~tiles:[ 64 ] ~trip:512
      ~seed:7 ~domains:2 ()
  in
  let oks =
    List.map
      (function
        | Ok p -> p
        | Error f ->
            Alcotest.failf "sweep point failed: %s"
              (Fv_parallel.Pool.failure_message f))
      points
  in
  Alcotest.(check int) "one point per (tile, rate)" 2 (List.length oks);
  let open Fv_core.Sweeps in
  let zero = List.find (fun p -> p.f_rate = 0.0) oks in
  Alcotest.(check int) "rate 0: nothing injected" 0 zero.f_injected;
  Alcotest.(check int) "rate 0: no retries" 0 zero.f_retries;
  let hot = List.find (fun p -> p.f_rate = 0.02) oks in
  Alcotest.(check bool) "rate 0.02: faults delivered" true (hot.f_injected > 0);
  Alcotest.(check bool) "rate 0.02: aborts observed" true (hot.f_aborts > 0);
  List.iter
    (fun p ->
      Alcotest.(check bool) "abort rate in [0,1]" true
        (p.f_abort_rate >= 0.0 && p.f_abort_rate <= 1.0);
      Alcotest.(check bool) "retry success in [0,1]" true
        (p.f_retry_success >= 0.0 && p.f_retry_success <= 1.0))
    oks

let suite =
  [
    Alcotest.test_case "plan: deterministic probabilistic trigger" `Quick
      test_plan_determinism;
    Alcotest.test_case "plan: nth and protected triggers" `Quick
      test_plan_nth_and_protected;
    Alcotest.test_case "memory: injection delivery and immunity" `Quick
      test_memory_injection;
    Alcotest.test_case "ff: absorbs injected faults" `Quick
      test_ff_absorbs_injected_faults;
    Alcotest.test_case "oracle: scalar == ff == rtm under faults (registry)"
      `Slow test_oracle_under_faults_registry;
    Alcotest.test_case "rtm: transient fault commits on retry" `Quick
      test_rtm_retry_succeeds;
    Alcotest.test_case "rtm: persistent fault exhausts retries" `Quick
      test_rtm_retries_exhausted_falls_back;
    Alcotest.test_case "rtm: capacity+fault tile is not retried" `Quick
      test_rtm_capacity_with_fault_not_retried;
    Alcotest.test_case "fault sweep smoke" `Quick test_fault_sweep_smoke;
  ]
