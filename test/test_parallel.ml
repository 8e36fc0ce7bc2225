(** The domain pool ({!Fv_parallel.Pool}), the parallel evaluation
    harness built on it (parallel output must be byte-identical to
    [~domains:1]), and regressions for the experiment-pipeline
    reporting bugs fixed alongside it. *)

module P = Fv_parallel.Pool
module E = Fv_core.Experiment
module R = Fv_workloads.Registry

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  nl = 0
  || (nl <= hl
     && (let found = ref false in
         for i = 0 to hl - nl do
           if (not !found) && String.sub haystack i nl = needle then
             found := true
         done;
         !found))

(* ---------------- pool ---------------- *)

let test_map_ordered_preserves_order () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "parallel map equals List.map, in order"
    (List.map (fun x -> (x * x) + 1) xs)
    (P.map_ordered ~domains:4 (fun x -> (x * x) + 1) xs)

let test_map_ordered_edges () =
  Alcotest.(check (list int)) "empty" [] (P.map_ordered ~domains:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 8 ] (P.map_ordered ~domains:4 succ [ 7 ]);
  Alcotest.(check (list int))
    "more domains than work" [ 1; 2; 3 ]
    (P.map_ordered ~domains:64 succ [ 0; 1; 2 ]);
  Alcotest.(check (list int))
    "one domain degrades to serial" [ 1; 2; 3 ]
    (P.map_ordered ~domains:1 succ [ 0; 1; 2 ])

let test_exception_propagation () =
  (* several elements raise; after joining every domain the pool must
     re-raise the exception of the earliest failing input *)
  Alcotest.check_raises "earliest failure wins" (Failure "boom3") (fun () ->
      ignore
        (P.map_ordered ~domains:3
           (fun x ->
             if x mod 5 = 3 then failwith (Printf.sprintf "boom%d" x) else x)
           (List.init 16 Fun.id)))

(* pool_worker_restarts from the global registry: tests read deltas *)
let restarts () =
  Fv_obs.Metrics.(total (snapshot global) "pool_worker_restarts")

let test_map_captures_failures () =
  (* a raising element becomes an [Error (Raised _)] row in its input
     position; every other element still completes *)
  let outcomes =
    P.map ~domains:3
      (fun x -> if x mod 4 = 2 then failwith (Printf.sprintf "bad%d" x) else x * 10)
      (List.init 8 Fun.id)
  in
  Alcotest.(check int) "one outcome per input" 8 (List.length outcomes);
  List.iteri
    (fun i outcome ->
      match (i mod 4 = 2, outcome) with
      | false, Ok v -> Alcotest.(check int) "survivor value" (i * 10) v
      | true, Error (P.Raised { exn = Failure m; _ }) ->
          Alcotest.(check string) "captured message" (Printf.sprintf "bad%d" i) m
      | _, Ok _ -> Alcotest.failf "element %d should have failed" i
      | _, Error f ->
          Alcotest.failf "element %d: unexpected failure %s" i
            (P.failure_message f))
    outcomes;
  Alcotest.(check bool) "failure_message names the exception" true
    (contains ~needle:"bad2"
       (match List.nth outcomes 2 with
       | Error f -> P.failure_message f
       | Ok _ -> ""))

(* A wedged element is answered [Timed_out] at the deadline — it only
   returns once [stop] is set, after [map] has returned — its worker is
   detached, and a replacement finishes the rest: with [~domains:1]
   that is the only way the remaining elements can complete at all. *)
let test_map_detaches_wedged () =
  let stop = Atomic.make false in
  let events = ref [] in
  let before = restarts () in
  let f x =
    if x = 0 then
      while not (Atomic.get stop) do
        Unix.sleepf 0.002
      done;
    x * 10
  in
  let results =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true (* unwedge the leaked domain *))
      (fun () ->
        P.map ~domains:1 ~timeout_s:0.05
          ~on_event:(fun e -> events := e :: !events)
          f (List.init 8 Fun.id))
  in
  Alcotest.(check int) "all answered" 8 (List.length results);
  (match List.hd results with
  | Error (P.Timed_out { wall_seconds; limit }) ->
      Alcotest.(check (float 1e-9)) "limit echoed" 0.05 limit;
      Alcotest.(check bool) "wall past the limit" true (wall_seconds >= limit)
  | _ -> Alcotest.fail "wedged element not answered Timed_out");
  List.iteri
    (fun i r ->
      if i > 0 then
        match r with
        | Ok v -> Alcotest.(check int) (Printf.sprintf "element %d" i) (i * 10) v
        | Error f -> Alcotest.failf "element %d failed: %s" i (P.failure_message f))
    results;
  (match !events with
  | [ P.Detached { index = 0; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly one Detached event, for element 0");
  Alcotest.(check int) "one replacement domain" 1 (restarts () - before)

(* A slow element is answered [Timed_out] at the deadline with the
   limit echoed, while the fast ones pass; the deadline only detaches,
   so an element that finishes under it keeps its value, however slow. *)
let test_map_times_out_slow () =
  let outcomes =
    P.map ~domains:2 ~timeout_s:0.05
      (fun x ->
        if x = 1 then Unix.sleepf 0.2;
        x)
      [ 0; 1; 2 ]
  in
  (match outcomes with
  | [ Ok 0; Error (P.Timed_out { wall_seconds; limit }); Ok 2 ] ->
      Alcotest.(check bool) "measured wall time over limit" true
        (wall_seconds >= limit);
      Alcotest.(check (float 1e-9)) "limit recorded" 0.05 limit
  | _ ->
      Alcotest.failf "unexpected outcomes: %s"
        (String.concat "; "
           (List.map
              (function
                | Ok x -> string_of_int x
                | Error f -> P.failure_message f)
              outcomes)));
  match
    P.map ~domains:2 ~timeout_s:5.0
      (fun x ->
        if x = 1 then Unix.sleepf 0.05;
        x)
      [ 0; 1; 2 ]
  with
  | [ Ok 0; Ok 1; Ok 2 ] -> ()
  | _ -> Alcotest.fail "an element under the deadline must succeed"

(* Kill_worker ends its worker: the element is answered [Raised], the
   death is reported once, and a replacement domain answers the rest.
   The deadline is armed (and never fires) so that even [~domains:1]
   runs on a worker domain rather than the calling one. *)
let test_map_replaces_dead_worker () =
  let events = ref [] in
  let before = restarts () in
  let f x = if x = 2 then raise (P.Kill_worker "test poison") else x + 100 in
  let results =
    P.map ~domains:1 ~timeout_s:60.0
      ~on_event:(fun e -> events := e :: !events)
      f (List.init 10 Fun.id)
  in
  Alcotest.(check int) "all answered" 10 (List.length results);
  List.iteri
    (fun i r ->
      match (i, r) with
      | 2, Error (P.Raised { exn = P.Kill_worker _; _ }) -> ()
      | 2, _ -> Alcotest.fail "killing element not answered Raised"
      | i, Ok v -> Alcotest.(check int) (Printf.sprintf "element %d" i) (i + 100) v
      | i, Error f ->
          Alcotest.failf "element %d failed: %s" i (P.failure_message f))
    results;
  (match !events with
  | [ P.Died { index = 2; exn = P.Kill_worker _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly one Died event, for element 2");
  Alcotest.(check int) "one replacement domain" 1 (restarts () - before)

(* The scheduler contract over random element outcomes, on both
   supervisor paths (blocking joins, and a deadline armed that never
   fires) and 1-4 domains: exactly one answer per element, in input
   order, each matching its element's outcome; one [Died] per
   [Kill_worker] and none for a cooperative cancel. *)
type outcome = Value | Raise | Cancel | Kill

let outcomes_gen =
  QCheck2.Gen.(
    triple
      (list_size (int_range 0 24)
         (frequency
            [ (4, return Value); (2, return Raise); (1, return Cancel);
              (1, return Kill) ]))
      (int_range 1 4) bool)

let print_outcomes (outs, domains, armed) =
  Printf.sprintf "%d elements, domains=%d, armed=%b: %s" (List.length outs)
    domains armed
    (String.concat ""
       (List.map
          (function Value -> "v" | Raise -> "r" | Cancel -> "c" | Kill -> "k")
          outs))

let perform (i, o) =
  match o with
  | Value -> i * 7
  | Raise -> failwith (string_of_int i)
  | Cancel ->
      raise
        (Fv_parallel.Budget.Canceled { elapsed_ms = 2.0; limit_ms = Some 1.0 })
  | Kill -> raise (P.Kill_worker (string_of_int i))

(* [run on_event] is one scheduler call; true when its answers to [xs],
   its [Died] events and the absence of detaches match the outcomes *)
let answers_as_planned run xs =
  let died = ref [] and detached = ref 0 in
  let results =
    run
      (function
        | P.Died { index; _ } -> died := index :: !died
        | P.Detached _ -> incr detached)
      perform xs
  in
  let answers_match =
    List.length results = List.length xs
    && List.for_all2
         (fun (i, o) r ->
           match (o, r) with
           | Value, Ok v -> v = i * 7
           | Raise, Error (P.Raised { exn = Failure m; _ }) ->
               m = string_of_int i
           | Cancel, Error (P.Timed_out { wall_seconds; limit }) ->
               wall_seconds = 0.002 && limit = 0.001
           | Kill, Error (P.Raised { exn = P.Kill_worker m; _ }) ->
               m = string_of_int i
           | _ -> false)
         xs results
  in
  let kills =
    List.filter_map (fun (i, o) -> if o = Kill then Some i else None) xs
  in
  answers_match && !detached = 0 && List.sort compare !died = kills

let prop_map_outcomes =
  QCheck2.Test.make ~name:"Pool.map answers every element in order" ~count:150
    ~print:print_outcomes outcomes_gen
    (fun (outs, domains, armed) ->
      let xs = List.mapi (fun i o -> (i, o)) outs in
      let timeout_s = if armed then Some 60.0 else None in
      answers_as_planned
        (fun on_event -> P.map ~domains ?timeout_s ~on_event)
        xs)

(* [f ()] and the worker domains spawned while it ran *)
let spawning f =
  let before = P.domains_spawned () in
  let r = f () in
  (r, P.domains_spawned () - before)

(* The same contract through consecutive runs on one long-lived pool,
   plus its domain accounting, read from [domains_spawned] alone: a run
   spawns only the workers the parked set cannot supply, and at most one
   more per [Kill] (a replacement while unclaimed work remains); every
   spawned worker that did not die is parked afterwards, never more than
   the pool's size. A final run of [size] plain elements, which hires
   [size] workers, spawns exactly the ones the runs did not leave
   parked, and after [release] it spawns all [size] afresh. *)
let prop_run_outcomes =
  QCheck2.Test.make ~name:"Pool.run reuses parked workers across runs"
    ~count:100 ~print:print_outcomes outcomes_gen
    (fun (outs, domains, armed) ->
      let xs = List.mapi (fun i o -> (i, o)) outs in
      let n = List.length xs in
      let kills = List.length (List.filter (fun o -> o = Kill) outs) in
      let size = min domains (Domain.recommended_domain_count ()) in
      let serial = (not armed) && (size = 1 || n <= 1) in
      let hired = if serial then 0 else min size n in
      let deaths = if serial then 0 else kills in
      let timeout_s = if armed then Some 60.0 else None in
      let t = P.create ~domains () in
      let probe () =
        snd
          (spawning (fun () ->
               P.run t ~timeout_s:60.0 Fun.id (List.init size Fun.id)))
      in
      (* workers the runs so far have left parked *)
      let parked = ref 0 in
      Fun.protect
        ~finally:(fun () -> P.release t)
        (fun () ->
          let runs_ok =
            List.for_all
              (fun _ ->
                let ok, spawned =
                  spawning (fun () ->
                      answers_as_planned
                        (fun on_event -> P.run t ?timeout_s ~on_event)
                        xs)
                in
                let shortfall = max 0 (hired - !parked) in
                parked := !parked + spawned - deaths;
                ok && shortfall <= spawned
                && spawned <= shortfall + deaths
                && !parked <= size)
              [ 1; 2; 3 ]
          in
          let kept = probe () = size - !parked in
          P.release t;
          runs_ok && kept && probe () = size))

(* Count the worker domains that have run [record] (the function to
   map) and, separately, the ones that have since exited; a serial run
   on the calling domain counts for neither. *)
let exit_tracker () =
  let lock = Mutex.create () in
  let seen = ref [] and exited = Atomic.make 0 in
  let record x =
    let d = (Domain.self () :> int) in
    if not (Domain.is_main_domain ()) then
      Mutex.protect lock (fun () ->
          if not (List.mem d !seen) then begin
            seen := d :: !seen;
            Domain.at_exit (fun () -> Atomic.incr exited)
          end);
    x + 1
  in
  (record, (fun () -> List.length !seen), fun () -> Atomic.get exited)

(* workers a pool of [d] domains runs on this machine *)
let workers d = min d (Domain.recommended_domain_count ())

(* Back-to-back runs on one pool reuse its workers: only the first
   spawns, the workers stay alive between runs, and [release] ends
   them. Unarmed runs are what the daemon does; the armed ones keep
   a 1-core machine off the calling-domain shortcut. *)
let test_run_reuses_parked_workers () =
  let t = P.create ~domains:2 () in
  let record, used, exited = exit_tracker () in
  let before = P.domains_spawned () in
  Fun.protect
    ~finally:(fun () -> P.release t)
    (fun () ->
      for run = 1 to 6 do
        let timeout_s = if run mod 2 = 0 then Some 60.0 else None in
        Alcotest.(check (list int))
          (Printf.sprintf "run %d answers" run)
          (List.init 16 succ)
          (List.map Result.get_ok
             (P.run t ?timeout_s record (List.init 16 Fun.id)))
      done;
      Alcotest.(check int) "only the first runs spawn" (workers 2)
        (P.domains_spawned () - before);
      Alcotest.(check bool) "no run used a domain beyond them" true
        (used () <= workers 2);
      Alcotest.(check int) "no worker exited between runs" 0 (exited ()));
  Alcotest.(check int) "release ends every worker" (used ()) (exited ())

(* After [release], the next run spawns its workers afresh; a second
   [release] with nothing parked does nothing. *)
let test_release_then_run_spawns () =
  let t = P.create ~domains:2 () in
  let go () = ignore (P.run t ~timeout_s:60.0 succ (List.init 8 Fun.id)) in
  Fun.protect
    ~finally:(fun () -> P.release t)
    (fun () ->
      P.release t;
      Alcotest.(check int) "the first run spawns" (workers 2)
        (snd (spawning go));
      Alcotest.(check int) "the next run spawns none" 0 (snd (spawning go));
      P.release t;
      P.release t;
      Alcotest.(check int) "a run after release spawns afresh" (workers 2)
        (snd (spawning go));
      Alcotest.(check int) "and its workers are kept" 0 (snd (spawning go)))

(* A detached worker is abandoned: when the wedged element finally
   returns, the worker exits instead of joining the parked set, while
   its replacement stays parked, so a later run reuses the replacement
   alone. *)
let test_detached_never_parks () =
  let t = P.create ~domains:1 () in
  let record, used, exited = exit_tracker () in
  let stop = Atomic.make false in
  let f x =
    ignore (record x);
    if x = 0 then
      while not (Atomic.get stop) do
        Unix.sleepf 0.002
      done;
    x
  in
  let before = P.domains_spawned () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      P.release t)
    (fun () ->
      (match P.run t ~timeout_s:0.05 f (List.init 4 Fun.id) with
      | Error (P.Timed_out _) :: rest ->
          Alcotest.(check (list int)) "the rest answered" [ 1; 2; 3 ]
            (List.map Result.get_ok rest)
      | _ -> Alcotest.fail "wedged element not answered Timed_out");
      Alcotest.(check int) "wedged worker and its replacement" 2
        (P.domains_spawned () - before);
      Alcotest.(check int) "both still alive" 0 (exited ());
      Atomic.set stop true;
      let deadline = Fv_obs.Clock.now () +. 10.0 in
      while exited () = 0 && Fv_obs.Clock.now () < deadline do
        Unix.sleepf 0.002
      done;
      Alcotest.(check int) "the detached worker exits once its element returns"
        1 (exited ());
      Alcotest.(check (list int)) "a later run answers" [ 5; 6 ]
        (List.map Result.get_ok (P.run t ~timeout_s:60.0 f [ 5; 6 ]));
      Alcotest.(check int) "and spawns nothing" 2
        (P.domains_spawned () - before);
      Alcotest.(check int) "the replacement is still alive" 1 (exited ()));
  Alcotest.(check int) "release ends the replacement" (used ()) (exited ())

(* A one-shot [Pool.map] keeps no worker: every domain that ran an
   element has exited by the time the call returns. *)
let test_map_leaves_no_parked_worker () =
  let record, used, exited = exit_tracker () in
  let before = P.domains_spawned () in
  List.iter
    (fun timeout_s ->
      ignore (P.map ~domains:2 ?timeout_s record (List.init 16 Fun.id)))
    [ None; Some 60.0 ];
  Alcotest.(check bool) "the maps ran on worker domains" true
    (P.domains_spawned () - before >= workers 2 && used () > 0);
  Alcotest.(check int) "every worker exited before map returned" (used ())
    (exited ())

(* Every worker's metrics shard is retired once it is joined, so the
   registry's live shards stay as few as the running domains — a shard
   left behind per spawned domain made every metric op walk a longer
   list as the process aged. *)
let test_map_retires_worker_shards () =
  let g = Fv_obs.Metrics.global in
  let before = Fv_obs.Metrics.live_shards g in
  for _ = 1 to 200 do
    ignore (P.map ~domains:2 succ [ 1; 2; 3; 4 ])
  done;
  let grown = Fv_obs.Metrics.live_shards g - before in
  Alcotest.(check bool)
    (Printf.sprintf "live shards grew by %d over 200 maps" grown)
    true (grown <= 1)

(* ---------------- parallel harness == serial harness ---------------- *)

let fig8_row_fingerprint (r : Fv_core.Figure8.row) : string =
  Printf.sprintf "%s|%d|%d|%d|%d|%.9f|%.9f|%s|%b|%b" r.spec.R.name
    r.baseline.E.cycles r.baseline.E.uops r.flexvec.E.cycles r.flexvec.E.uops
    r.hot r.overall r.mix_measured r.decision.vectorize
    r.flexvec.E.fell_back_to_scalar

let test_figure8_parallel_equals_serial () =
  let benchmarks = [ R.find "445.gobmk"; R.find "458.sjeng" ] in
  let serial = Fv_core.Figure8.run ~domains:1 ~benchmarks () in
  let parallel = Fv_core.Figure8.run ~domains:4 ~benchmarks () in
  Alcotest.(check (list string))
    "figure8 rows identical under 4 domains"
    (List.map fig8_row_fingerprint serial.rows)
    (List.map fig8_row_fingerprint parallel.rows);
  Alcotest.(check (float 1e-12))
    "spec geomean identical" serial.spec_geomean parallel.spec_geomean

let test_trip_sweep_parallel_equals_serial () =
  let trips = [ 256; 1024 ] in
  let fingerprint (p : Fv_core.Sweeps.trip_point) =
    Printf.sprintf "%d|%.9f" p.trip p.speedup
  in
  Alcotest.(check (list string))
    "trip sweep identical under 4 domains"
    (List.map fingerprint (Fv_core.Sweeps.trip_sweep ~trips ~domains:1 ()))
    (List.map fingerprint (Fv_core.Sweeps.trip_sweep ~trips ~domains:4 ()))

let test_figure8_poisoned_row_degrades () =
  (* one benchmark whose kernel builder raises must yield an error row
     while the healthy rows complete and the geomeans cover survivors *)
  let good = R.find "458.sjeng" in
  let poisoned =
    { good with R.name = "999.poisoned";
      build = (fun _ -> failwith "kernel build exploded") }
  in
  let r =
    Fv_core.Figure8.run ~domains:2 ~benchmarks:[ good; poisoned ] ()
  in
  Alcotest.(check int) "one surviving row" 1 (List.length r.rows);
  Alcotest.(check string) "survivor is the healthy benchmark" good.R.name
    (List.hd r.rows).spec.R.name;
  (match r.errors with
  | [ (name, msg) ] ->
      Alcotest.(check string) "error row names the benchmark" "999.poisoned"
        name;
      Alcotest.(check bool) "error row carries the message" true
        (contains ~needle:"kernel build exploded" msg)
  | es -> Alcotest.failf "expected 1 error row, got %d" (List.length es));
  Alcotest.(check bool) "spec geomean over survivors is finite" true
    (Float.is_finite r.spec_geomean && r.spec_geomean > 0.0);
  (* the JSON report can still be rendered and records the failure *)
  let s = Fv_core.Report.Json.(to_string (Obj (of_figure8_result r))) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" needle) true
        (contains ~needle s))
    [
      "\"errors\":"; "\"benchmark\":\"999.poisoned\"";
      "kernel build exploded"; "\"spec_geomean\"";
    ]

(* ---------------- reporting-bug regressions ---------------- *)

let small_build seed =
  Fv_core.Sweeps.tunable_cond_update ~trip:256 ~update_rate:0.02 ~near_rate:0.2
    seed

let test_scalar_baseline_is_not_a_fallback () =
  (* the Scalar strategy runs the scalar path by definition; it used to
     report itself as a fallback *)
  let r = E.run_workload ~invocations:2 ~seed:1 E.Scalar small_build in
  Alcotest.(check bool) "workload scalar: no fallback" false
    r.fell_back_to_scalar;
  Alcotest.(check bool) "workload scalar: no oracle error" true
    (r.oracle_error = None);
  let b = small_build 1 in
  let h =
    E.run_hot E.Scalar b.Fv_workloads.Kernels.loop b.Fv_workloads.Kernels.mem
      b.Fv_workloads.Kernels.env
  in
  Alcotest.(check bool) "hot scalar: no fallback" false h.fell_back_to_scalar;
  (* a vectorizing strategy that succeeds is not a fallback either *)
  let fv = E.run_workload ~invocations:2 ~seed:1 E.Flexvec small_build in
  Alcotest.(check bool) "flexvec: vectorized, no fallback" false
    fv.fell_back_to_scalar;
  Alcotest.(check bool) "flexvec: oracle passed" true (fv.oracle_error = None)

let test_hot_speedup_total () =
  let r = E.run_workload ~invocations:1 ~seed:1 E.Scalar small_build in
  let zero = { r with E.cycles = 0 } in
  let finite x = Float.is_finite x && x > 0.0 in
  Alcotest.(check (float 1e-12))
    "both zero compares as 1.0x" 1.0
    (E.hot_speedup ~baseline:zero zero);
  Alcotest.(check bool) "zero baseline stays total" true
    (finite (E.hot_speedup ~baseline:zero r));
  Alcotest.(check bool) "zero run stays total" true
    (finite (E.hot_speedup ~baseline:r zero));
  Alcotest.(check (float 1e-12))
    "zero run speedup = baseline cycles"
    (float_of_int r.E.cycles)
    (E.hot_speedup ~baseline:r zero)

let test_report_table_ragged_rows () =
  (* a data row with MORE cells than the header used to raise
     Failure "nth"; extra cells are now clamped off *)
  let t =
    Fv_core.Report.table
      [ [ "a"; "b" ]; [ "1"; "2"; "SURPLUS" ]; [ "only" ]; [] ]
  in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' t) in
  Alcotest.(check bool) "renders" true (String.length t > 0);
  let widths = List.map String.length lines in
  Alcotest.(check bool) "all lines same width" true
    (List.for_all (fun w -> w = List.hd widths) widths);
  Alcotest.(check bool) "clamped cell does not leak" true
    (not
       (List.exists
          (fun l ->
            match String.index_opt l 'S' with Some _ -> true | None -> false)
          lines));
  Alcotest.(check string) "empty table" "" (Fv_core.Report.table [])

let test_harness_validates_up_front () =
  let available = [ "figure8"; "table2"; "micro" ] in
  (match Fv_core.Harness.parse_args ~available [ "figure8"; "nope"; "micro" ] with
  | Ok _ -> Alcotest.fail "unknown section must be rejected before running"
  | Error msg ->
      Alcotest.(check bool) "names the bad section" true
        (contains ~needle:"nope" msg));
  (match
     Fv_core.Harness.parse_args ~available
       [ "table2"; "--domains"; "4"; "--json"; "out.json"; "figure8" ]
   with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      Alcotest.(check (list string))
        "sections in request order" [ "table2"; "figure8" ] plan.sections;
      Alcotest.(check (option int)) "domains" (Some 4) plan.domains;
      Alcotest.(check (option string)) "json" (Some "out.json") plan.json);
  (match Fv_core.Harness.parse_args ~available [ "--domains=2" ] with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      Alcotest.(check (option int)) "inline =value" (Some 2) plan.domains;
      Alcotest.(check (list string)) "no sections means all" available
        plan.sections);
  let rejected args =
    match Fv_core.Harness.parse_args ~available args with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "missing --domains value" true (rejected [ "--domains" ]);
  Alcotest.(check bool) "non-integer --domains" true
    (rejected [ "--domains"; "many" ]);
  Alcotest.(check bool) "zero --domains" true (rejected [ "--domains"; "0" ]);
  Alcotest.(check bool) "unknown option" true (rejected [ "--frobnicate" ]);
  (* bars are always on: no flag arms them *)
  Alcotest.(check bool) "unknown option --fail-on-degraded" true
    (rejected [ "--fail-on-degraded" ]);
  (* every section replays on the event-driven scheduler, and an RTM
     tile is retried a fixed [Rtm_run.retries] times: no flag chooses
     either *)
  List.iter
    (fun args ->
      Alcotest.(check bool)
        ("unknown option " ^ String.concat " " args)
        true (rejected args))
    [ [ "--mode"; "step" ]; [ "--mode=event" ]; [ "--mode"; "fast" ];
      [ "--mode" ]; [ "--rtm-retries"; "5" ]; [ "--rtm-retries=-1" ] ];
  (* fault-injection and robustness knobs *)
  (match
     Fv_core.Harness.parse_args ~available
       [ "figure8"; "--fault-rate"; "0.01"; "--fault-seed=23";
         "--row-timeout=2.5" ]
   with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      Alcotest.(check (float 1e-12)) "--fault-rate" 0.01 plan.fault_rate;
      Alcotest.(check int) "--fault-seed" 23 plan.fault_seed;
      Alcotest.(check (option (float 1e-12))) "--row-timeout" (Some 2.5)
        plan.row_timeout;
      Alcotest.(check bool) "nonzero rate yields an injection plan" true
        (Fv_core.Harness.fault_plan plan <> None));
  (match Fv_core.Harness.parse_args ~available [ "figure8" ] with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      Alcotest.(check (float 1e-12)) "default rate is 0" 0.0 plan.fault_rate;
      Alcotest.(check bool) "default run never builds a plan" true
        (Fv_core.Harness.fault_plan plan = None));
  Alcotest.(check bool) "rate above 1" true (rejected [ "--fault-rate"; "1.5" ]);
  Alcotest.(check bool) "negative rate" true
    (rejected [ "--fault-rate"; "-0.1" ]);
  Alcotest.(check bool) "NaN rate" true (rejected [ "--fault-rate"; "nan" ]);
  Alcotest.(check bool) "non-numeric rate" true
    (rejected [ "--fault-rate"; "often" ]);
  Alcotest.(check bool) "non-integer seed" true
    (rejected [ "--fault-seed"; "x" ]);
  Alcotest.(check bool) "zero timeout" true (rejected [ "--row-timeout"; "0" ]);
  Alcotest.(check bool) "negative timeout" true
    (rejected [ "--row-timeout"; "-3" ]);
  (* a bare "--" is not a section name and not a valid option: it used
     to crash String.sub computing the option's stem *)
  (match Fv_core.Harness.parse_args ~available [ "--" ] with
  | Ok _ -> Alcotest.fail "bare -- must be rejected"
  | Error msg ->
      Alcotest.(check bool) "bare -- rejected as an unknown option" true
        (contains ~needle:"--" msg));
  (* a duplicated section used to run twice and silently overwrite its
     own BENCH json; now it is rejected up front *)
  (match
     Fv_core.Harness.parse_args ~available [ "figure8"; "micro"; "figure8" ]
   with
  | Ok _ -> Alcotest.fail "duplicate section must be rejected"
  | Error msg ->
      Alcotest.(check bool) "duplicate rejection names the section" true
        (contains ~needle:"figure8" msg))

let test_json_report_shape () =
  let open Fv_core.Report.Json in
  let r = E.run_workload ~invocations:1 ~seed:1 E.Flexvec small_build in
  let s =
    to_string
      (report ~section:"t" ~domains:3 ~wall_seconds:0.25
         [ ("run", of_hot_run r) ])
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report has %s" needle) true
        (contains ~needle s))
    [
      "\"section\":\"t\""; "\"domains\":3";
      "\"compile_status\":\"vectorized\""; "\"rejection\":null";
      "\"truncated\":false";
      "\"fault_rate\":0"; "\"fault_seed\":1";
      "\"row_timeout\":null"; "\"metrics\":[]";
      "\"wall_seconds\":0.25"; "\"cycles\""; "\"ipc\"";
      "\"fell_back_to_scalar\":false"; "\"oracle_error\":null";
      "\"injected_faults\":0"; "\"retries\":0";
    ];
  Alcotest.(check string) "string escaping" "\"a\\\"b\\n\""
    (to_string (Str "a\"b\n"));
  Alcotest.(check string) "non-finite floats become null" "null"
    (to_string (Float Float.nan))

let suite =
  [
    Alcotest.test_case "pool preserves order" `Quick
      test_map_ordered_preserves_order;
    Alcotest.test_case "pool edge cases" `Quick test_map_ordered_edges;
    Alcotest.test_case "pool propagates first exception" `Quick
      test_exception_propagation;
    Alcotest.test_case "Pool.map captures per-element failures" `Quick
      test_map_captures_failures;
    Alcotest.test_case "Pool.map detaches a wedged worker" `Quick
      test_map_detaches_wedged;
    Alcotest.test_case "Pool.map times out a slow element" `Quick
      test_map_times_out_slow;
    Alcotest.test_case "Pool.map survives a dying worker" `Quick
      test_map_replaces_dead_worker;
    QCheck_alcotest.to_alcotest prop_map_outcomes;
    Alcotest.test_case "figure8: parallel == serial" `Slow
      test_figure8_parallel_equals_serial;
    Alcotest.test_case "figure8: poisoned row degrades gracefully" `Slow
      test_figure8_poisoned_row_degrades;
    Alcotest.test_case "trip sweep: parallel == serial" `Slow
      test_trip_sweep_parallel_equals_serial;
    Alcotest.test_case "scalar baseline is not a fallback" `Quick
      test_scalar_baseline_is_not_a_fallback;
    Alcotest.test_case "hot_speedup is total" `Quick test_hot_speedup_total;
    Alcotest.test_case "report table survives ragged rows" `Quick
      test_report_table_ragged_rows;
    Alcotest.test_case "bench sections validated up front" `Quick
      test_harness_validates_up_front;
    Alcotest.test_case "JSON report shape" `Quick test_json_report_shape;
    QCheck_alcotest.to_alcotest prop_run_outcomes;
    Alcotest.test_case "Pool.run: consecutive runs spawn no domain" `Quick
      test_run_reuses_parked_workers;
    Alcotest.test_case "Pool.release: the next run spawns afresh" `Quick
      test_release_then_run_spawns;
    Alcotest.test_case "Pool.run: a detached worker never parks" `Quick
      test_detached_never_parks;
    Alcotest.test_case "Pool.map: no worker outlives the call" `Quick
      test_map_leaves_no_parked_worker;
    Alcotest.test_case "Pool.map retires every worker's metrics shard"
      `Quick test_map_retires_worker_shards;
  ]
