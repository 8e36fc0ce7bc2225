(** Cooperative cancellation budgets ({!Fv_parallel.Budget}): the
    structured [Canceled] must fire before, during and after the hot
    path; the pool must treat it as a clean early return (zero
    detaches, zero replacement domains); and — the load-bearing
    invariant — with no budget attached the whole pipeline must be
    byte-identical to a budget-free build, across every registry
    kernel. *)

module B = Fv_parallel.Budget
module Pool = Fv_parallel.Pool
module E = Fv_core.Experiment
module R = Fv_workloads.Registry
module Gen = Fv_fuzz.Gen

(* ---------------- unit behavior ---------------- *)

let test_budget_basics () =
  let b = B.create () in
  Alcotest.(check bool) "no deadline: not expired" false (B.expired b);
  Alcotest.(check bool) "remaining is infinite" true
    (B.remaining_s b = infinity);
  B.check b;
  (* check is a no-op on a live budget *)
  B.cancel b;
  Alcotest.(check bool) "cancel flips it" true (B.expired b);
  (match B.check b with
  | exception B.Canceled { limit_ms; _ } ->
      Alcotest.(check (option (float 0.0)))
        "explicit cancel carries no limit" None limit_ms
  | () -> Alcotest.fail "check on a canceled budget must raise");
  let blown = B.of_deadline_ms 0 in
  Alcotest.(check bool) "non-positive deadline already blown" true
    (B.expired blown);
  (match B.check blown with
  | exception B.Canceled { limit_ms = Some l; _ } ->
      Alcotest.(check bool) "limit recorded" true (l <= 0.0 +. 1e-9)
  | exception B.Canceled _ -> Alcotest.fail "blown deadline must carry a limit"
  | () -> Alcotest.fail "blown deadline must raise");
  let generous = B.create ~deadline_s:3600.0 () in
  Alcotest.(check bool) "generous budget live" false (B.expired generous);
  Alcotest.(check bool) "remaining positive" true (B.remaining_s generous > 0.0);
  B.check_opt None;
  B.check_opt (Some generous)

(* ---------------- cancel before: the entry polls fire ---------------- *)

let some_loop = (Gen.case_of_seed ~p_malformed:0.0 7).Gen.loop

let expect_canceled name f =
  match f () with
  | exception B.Canceled _ -> ()
  | _ -> Alcotest.failf "%s: pre-canceled budget did not cancel" name

let test_cancel_before () =
  let canceled () =
    let b = B.create () in
    B.cancel b;
    b
  in
  expect_canceled "Classify.analyze" (fun () ->
      Fv_pdg.Classify.analyze ~budget:(canceled ()) some_loop);
  expect_canceled "Gen.vectorize" (fun () ->
      Fv_vectorizer.Gen.vectorize ~budget:(canceled ()) ~vl:16 some_loop);
  expect_canceled "Traditional.vectorize" (fun () ->
      Fv_vectorizer.Traditional.vectorize ~budget:(canceled ()) ~vl:16
        some_loop);
  let spec = List.hd R.all in
  expect_canceled "run_workload" (fun () ->
      E.run_workload ~budget:(canceled ()) ~invocations:1 ~seed:1 E.Flexvec
        spec.R.build)

(* ---------------- cancel mid-run: the deadline fires inside ------------ *)

let test_cancel_mid () =
  (* a 1 ms budget against a workload that takes far longer: the entry
     poll passes, a later poll (per strip / per batch of pipeline
     events) must raise from inside the computation *)
  let spec = R.find "458.sjeng" in
  let b = B.create ~deadline_s:0.001 () in
  match E.run_workload ~budget:b ~invocations:50 ~seed:1 E.Flexvec spec.R.build
  with
  | exception B.Canceled { elapsed_ms; _ } ->
      Alcotest.(check bool) "canceled after the deadline" true
        (elapsed_ms >= 1.0)
  | _ -> Alcotest.fail "1 ms budget survived a 50-invocation workload"

(* ---------------- pool: clean early return ---------------- *)

let test_pool_clean_early_return () =
  (* a worker whose element raises Canceled is a request that noticed
     its own deadline: the pool answers Timed_out and the worker domain
     keeps running — nothing detached, nothing respawned. The deadline
     is armed (it never fires) so the elements run on worker domains
     under the caller's supervision even on a single core. *)
  let restarts () =
    Fv_obs.Metrics.(total (snapshot global) "pool_worker_restarts")
  in
  let before = restarts () in
  let events = ref 0 in
  let f x =
    if x = 2 then raise (B.Canceled { elapsed_ms = 1.5; limit_ms = Some 1.0 })
    else x * 10
  in
  (match
     Pool.map ~domains:2 ~timeout_s:60.0
       ~on_event:(fun _ -> incr events)
       f [ 1; 2; 3; 4 ]
   with
  | [ Ok 10; Error (Pool.Timed_out { wall_seconds; limit }); Ok 30; Ok 40 ] ->
      Alcotest.(check (float 1e-9)) "wall from elapsed_ms" 0.0015 wall_seconds;
      Alcotest.(check (float 1e-9)) "limit from limit_ms" 0.001 limit
  | _ -> Alcotest.fail "unexpected result shape");
  Alcotest.(check int) "no pool events (no detach, no death)" 0 !events;
  Alcotest.(check int) "zero restarts" 0 (restarts () - before)

(* ---------------- budget-off / generous-budget bit-identity ----------- *)

let test_budget_off_bit_identity () =
  (* every registry kernel × Scalar/Flexvec: pipeline statistics with no
     budget, and with a budget that never fires, must be bit-identical —
     the polling is a pure no-op on results (the obs-off suite's
     pattern, for budgets) *)
  List.iter
    (fun (spec : R.spec) ->
      List.iter
        (fun strategy ->
          let invocations = min spec.R.invocations 2 in
          let plain =
            E.run_workload ~invocations ~seed:1 strategy spec.R.build
          in
          let generous = B.create ~deadline_s:3600.0 () in
          let budgeted =
            E.run_workload ~budget:generous ~invocations ~seed:1 strategy
              spec.R.build
          in
          if plain.E.pipe <> budgeted.E.pipe then
            Alcotest.failf "%s/%s: stats differ with a budget attached"
              spec.R.name (E.show_strategy strategy);
          if plain.E.cycles <> budgeted.E.cycles then
            Alcotest.failf "%s/%s: cycles differ with a budget attached"
              spec.R.name (E.show_strategy strategy))
        [ E.Scalar; E.Flexvec ])
    R.all

let suite =
  [
    Alcotest.test_case "budget: create/cancel/expire/check" `Quick
      test_budget_basics;
    Alcotest.test_case "pre-canceled budget cancels at every entry" `Quick
      test_cancel_before;
    Alcotest.test_case "deadline fires mid-workload" `Quick test_cancel_mid;
    Alcotest.test_case "pool: Canceled is a clean early return" `Quick
      test_pool_clean_early_return;
    Alcotest.test_case "budget-off bit-identity across the registry" `Quick
      test_budget_off_bit_identity;
  ]
