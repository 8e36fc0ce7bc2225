(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) plus the ablation sweeps for its secondary claims,
   runs Bechamel micro-benchmarks of the emulated FlexVec primitives and
   the simulation pipeline itself, and drives the compile service under
   load, injected faults and overload.

   Sections:
     table1         — simulated machine configuration (Table 1)
     figure8        — overall application speedups (Figure 8)
     table2         — coverage / trip counts / instruction mix (Table 2)
     rtm-sweep      — RTM tile-size tuning (§3.3.2, §4.1)
     strategy-sweep — FlexVec vs PACT'13 wholesale speculation (§2)
     trip-sweep     — speedup vs trip count (§5)
     evl-sweep      — speedup vs effective vector length (§5)
     vl-sweep       — ablation over hardware vector length
     strategies     — Figure 8 under FlexVec / wholesale / RTM
     prefetch-ablation — stream prefetcher on/off (§5 memory subsystem)
     fault-sweep    — RTM abort/retry/fallback vs injected fault rate,
                      each point checked scalar == FF == RTM
     auto           — profile-guided strategy selection: regret vs oracle
     micro          — Bechamel micro-benchmarks
     serve          — compile-service load: cold vs warm plan cache
     chaos          — the serve loop under seeded fault injection
     overload       — the serve loop at 0.5x to 4x its measured capacity

   Run a subset with:   bench/main.exe table2 figure8
   Options (validated up front, before anything runs):
     --domains N    worker domains for the parallel sections
     --json FILE    write a combined JSON report of every section run
     --fault-rate R inject faults with per-access probability R into
                    the recovery-capable strategies (default 0 = off)
     --fault-seed N injection determinism seed (default 1)
     --row-timeout S per-row wall-clock budget (seconds) for figure8,
                    the only section that reads it: an overdue row is
                    canceled cooperatively and becomes an error row
     --trace-out DIR one Chrome trace of host spans per section
   Every section additionally writes BENCH_<section>.json (the
   machine-readable trajectory file) next to the human tables.

   Bars: each section checks the numbers it has just computed; a failed
   bar prints "BAR FAILED <section>: <what>".
     all      — the metrics snapshot is self-consistent (counter sum ==
                count; histogram buckets cumulative, the last one +inf
                and holding every observation)
     figure8  — no hot run compiled below its requested strategy (a
                front-end regression); the simulations went through
                Simcache
     serve    — per row: no failed warm request, the plan cache within
                capacity, cold p50 >= 10x warm p50; restart drill: every
                snapshotted entry restored, none corrupt, restored warm
                p50 <= 2x in-process, a corrupted reload counts >= 1
                corrupt entry
     chaos    — the fault-free baseline answers all ok; every rate
                answers every request with 0 oracle mismatches; at 0.05
                availability >= 0.99 and the poison request quarantined;
                at 0.2 >= 1 worker restart
     overload — every multiplier answers each request exactly once;
                goodput >= 0.95x capacity at 2x; pure-timeout leg all
                deadline-exceeded with 0 restarts; the client delivers
                everything
     auto     — every kernel scored with regret >= 0.999; Auto's geomean
                speedup within 10% of the oracle's; sweeps cover trip,
                vl and fault, one chosen arm across the fault probes
   Exit status: 1 on a bad command line (before anything runs) or if a
   bar failed (after every requested section has run and written its
   report, so the failing report can be inspected); 0 otherwise. *)

open Fv_core
module J = Report.Json

let section name =
  Printf.printf "\n=== %s %s\n%!" name (String.make (max 1 (70 - String.length name)) '=')

(* A bar is a check a section makes on the numbers it has just
   computed: [bar ok what] fails unless [ok], and [what] says what went
   wrong. The driver gives each section its own [bar]. *)
type bar = bool -> string -> unit

(* Each section prints its human tables, checks its bars and returns
   the body fields of its JSON report; the driver wraps them in the
   common envelope (section name, domain count, wall-clock seconds). *)

(* ------------------------------------------------------------------ *)

let table1 (_ : Harness.plan) (_ : bar) =
  section "table1: simulated machine (paper Table 1)";
  let machine = Fv_ooo.Machine.rows Fv_ooo.Machine.table1 in
  let rows =
    [ "Component"; "Configuration" ] :: List.map (fun (a, b) -> [ a; b ]) machine
  in
  print_string (Report.table rows);
  print_newline ();
  let latencies =
    List.map
      (fun (name, cls) ->
        let t = Fv_isa.Latency.timing cls in
        (name, t.Fv_isa.Latency.latency, t.Fv_isa.Latency.recip_tput))
      Fv_isa.Latency.table1_flexvec_rows
  in
  let rows =
    [ "FlexVec Instruction"; "Latency(cycles), Throughput" ]
    :: List.map
         (fun (name, lat, tput) -> [ name; Printf.sprintf "%d, %d" lat tput ])
         latencies
  in
  print_string (Report.table rows);
  [
    ( "machine",
      J.Obj (List.map (fun (a, b) -> (a, J.Str b)) machine) );
    ( "flexvec_latencies",
      J.List
        (List.map
           (fun (name, lat, tput) ->
             J.Obj
               [
                 ("instruction", J.Str name);
                 ("latency", J.Int lat);
                 ("recip_tput", J.Int tput);
               ])
           latencies) );
  ]

let figure8 (plan : Harness.plan) (bar : bar) =
  section "figure8: application speedup over the AVX-512 baseline";
  let r =
    Figure8.run ?domains:plan.Harness.domains
      ?faults:(Harness.fault_plan plan) ?timeout_s:plan.Harness.row_timeout ()
  in
  let rows =
    [ "Benchmark"; "Cvrg"; "Hot speedup"; "Overall"; "Vectorized?"; "Mix emitted" ]
    :: List.map
         (fun (row : Figure8.row) ->
           [
             row.spec.name;
             Report.pct row.spec.coverage;
             Report.f2 row.hot ^ "x";
             Printf.sprintf "%.3fx" row.overall;
             (if row.decision.vectorize then "yes"
              else "no: " ^ String.concat "; " row.decision.reasons);
             row.mix_measured;
           ])
         r.rows
  in
  print_string (Report.table rows);
  List.iter
    (fun (row : Figure8.row) ->
      Option.iter
        (fun e -> Printf.printf "WARNING %s: %s\n" row.spec.name e)
        row.flexvec.oracle_error;
      List.iter
        (fun (leg, (run : Experiment.hot_run)) ->
          Option.iter
            (fun d ->
              bar false
                (Printf.sprintf "%s/%s compiled %s: %s" row.spec.name leg
                   (Experiment.show_compile_status run.compile)
                   (Fv_ir.Validate.describe d)))
            (Experiment.rejection_of run.compile))
        [ ("flexvec", row.flexvec); ("baseline", row.baseline) ])
    r.rows;
  (* figure8's wall time rests on the whole-trace memo: a run that
     bypasses it is a different (and far slower) code path *)
  let snaps = Fv_obs.Metrics.snapshot Fv_obs.Metrics.global in
  bar
    (Fv_obs.Metrics.total snaps "sim_cache_hits"
     + Fv_obs.Metrics.total snaps "sim_cache_misses"
    > 0)
    "no simulation went through Simcache";
  List.iter
    (fun (name, msg) -> Printf.printf "ERROR %s: row failed: %s\n" name msg)
    r.errors;
  Printf.printf "\nGeomean (11 SPEC 2006): %.3fx   [paper: 1.09x]\n"
    r.spec_geomean;
  Printf.printf "Geomean (7 applications): %.3fx   [paper: 1.11x]\n\n"
    r.app_geomean;
  print_endline
    (Report.bar_chart
       (List.map (fun (row : Figure8.row) -> (row.spec.name, row.overall)) r.rows));
  J.of_figure8_result r

let table2 (plan : Harness.plan) (_ : bar) =
  let domains = plan.Harness.domains in
  section "table2: coverage, trip count and instruction mix";
  let rows = Table2.run ?domains () in
  let header =
    [ "Benchmark"; "Cvrg (paper)"; "Trip (paper)"; "Trip (sim)"; "EVL";
      "Mix emitted"; "= paper?" ]
  in
  let body =
    List.map
      (fun (r : Table2.row) ->
        [
          r.spec.name;
          Report.pct r.spec.coverage;
          r.spec.paper_trip;
          Report.f1 r.measured_trip;
          Report.f1 r.measured_evl;
          r.measured_mix;
          (if r.mix_matches then "yes" else "NO");
        ])
      rows
  in
  print_string (Report.table (header :: body));
  let matches = List.length (List.filter (fun (r : Table2.row) -> r.mix_matches) rows) in
  Printf.printf "\ninstruction mixes matching the paper: %d / %d\n" matches
    (List.length rows);
  [
    ("rows", J.List (List.map J.of_table2_row rows));
    ("mixes_matching_paper", J.Int matches);
  ]

let rtm_sweep (plan : Harness.plan) (_ : bar) =
  section "rtm-sweep: transactional-speculation tile size (paper: 128-256 within 1-2% of FF)";
  let pts =
    Sweeps.rtm_tile_sweep ?domains:plan.Harness.domains
      ?faults:(Harness.fault_plan plan) ()
  in
  let rows =
    [ "Tile"; "RTM cycles"; "FF cycles"; "RTM/FF"; "vs scalar" ]
    :: List.map
         (fun (p : Sweeps.rtm_point) ->
           [
             string_of_int p.tile;
             string_of_int p.rtm_cycles;
             string_of_int p.ff_cycles;
             Report.f2 p.rel_to_ff;
             Report.f2 (float_of_int p.scalar_cycles /. float_of_int p.rtm_cycles) ^ "x";
           ])
         pts
  in
  print_string (Report.table rows);
  [ ("rows", J.List (List.map J.of_rtm_point pts)) ]

let strategy_sweep (plan : Harness.plan) (_ : bar) =
  let domains = plan.Harness.domains in
  section "strategy-sweep: FlexVec vs PACT'13 wholesale speculation";
  let per_pattern =
    List.map
      (fun (label, pattern) ->
        Printf.printf "\n-- %s pattern --\n" label;
        let pts = Sweeps.strategy_sweep ?domains ~pattern () in
        let rows =
          [ "Dep rate"; "FlexVec speedup"; "Wholesale speedup" ]
          :: List.map
               (fun (p : Sweeps.strategy_point) ->
                 [
                   Printf.sprintf "%.3f" p.rate;
                   Report.f2 p.flexvec_speedup ^ "x";
                   Report.f2 p.wholesale_speedup ^ "x";
                 ])
               pts
        in
        print_string (Report.table rows);
        (label, J.List (List.map J.of_strategy_point pts)))
      [ ("conditional update", `Cond_update); ("memory conflict", `Mem_conflict) ]
  in
  [ ("patterns", J.Obj per_pattern) ]

let trip_sweep (plan : Harness.plan) (_ : bar) =
  let domains = plan.Harness.domains in
  section "trip-sweep: speedup vs loop trip count (paper: gains need high trip counts)";
  let pts = Sweeps.trip_sweep ?domains () in
  let rows =
    [ "Trip count"; "FlexVec hot speedup" ]
    :: List.map
         (fun (p : Sweeps.trip_point) ->
           [ string_of_int p.trip; Report.f2 p.speedup ^ "x" ])
         pts
  in
  print_string (Report.table rows);
  [ ("rows", J.List (List.map J.of_trip_point pts)) ]

let evl_sweep (plan : Harness.plan) (_ : bar) =
  let domains = plan.Harness.domains in
  section "evl-sweep: speedup vs effective vector length";
  let pts = Sweeps.evl_sweep ?domains () in
  let rows =
    [ "Update rate"; "Effective VL"; "FlexVec hot speedup" ]
    :: List.map
         (fun (p : Sweeps.evl_point) ->
           [
             Printf.sprintf "%.3f" p.update_rate;
             Report.f1 p.effective_vl;
             Report.f2 p.speedup ^ "x";
           ])
         pts
  in
  print_string (Report.table rows);
  [ ("rows", J.List (List.map J.of_evl_point pts)) ]

let vl_sweep (plan : Harness.plan) (_ : bar) =
  let domains = plan.Harness.domains in
  section "vl-sweep: ablation over hardware vector length";
  let pts = Sweeps.vl_sweep ?domains () in
  let rows =
    [ "VL (lanes)"; "FlexVec hot speedup" ]
    :: List.map
         (fun (p : Sweeps.vl_point) ->
           [ string_of_int p.vl; Report.f2 p.speedup ^ "x" ])
         pts
  in
  print_string (Report.table rows);
  [ ("rows", J.List (List.map J.of_vl_point pts)) ]

let strategies (plan : Harness.plan) (_ : bar) =
  section "strategies: Figure 8 under each speculation mechanism";
  let pts =
    Sweeps.benchmark_strategies ?domains:plan.Harness.domains
      ?faults:(Harness.fault_plan plan) ()
  in
  let rows =
    [ "Benchmark"; "FlexVec (FF)"; "Wholesale (PACT'13)"; "FlexVec (RTM 256)" ]
    :: List.map
         (fun (p : Sweeps.bench_strategies) ->
           [
             p.bench;
             Printf.sprintf "%.3fx" p.flexvec_overall;
             Printf.sprintf "%.3fx" p.wholesale_overall;
             Printf.sprintf "%.3fx" p.rtm_overall;
           ])
         pts
  in
  print_string (Report.table rows);
  let g f = Figure8.geomean (List.map f pts) in
  let gfv = g (fun p -> p.Sweeps.flexvec_overall)
  and gws = g (fun p -> p.Sweeps.wholesale_overall)
  and grtm = g (fun p -> p.Sweeps.rtm_overall) in
  Printf.printf "\ngeomeans: flexvec %.3fx | wholesale %.3fx | rtm %.3fx\n" gfv
    gws grtm;
  [
    ("rows", J.List (List.map J.of_bench_strategies pts));
    ( "geomeans",
      J.Obj
        [
          ("flexvec", J.Float gfv);
          ("wholesale", J.Float gws);
          ("rtm", J.Float grtm);
        ] );
  ]

let prefetch_ablation (_ : Harness.plan) (_ : bar) =
  section "prefetch-ablation: the memory subsystem matters for vector access (§5)";
  let pts = Sweeps.prefetch_ablation () in
  let rows =
    [ "Prefetcher"; "Scalar cycles"; "FlexVec cycles"; "Speedup" ]
    :: List.map
         (fun (p : Sweeps.prefetch_point) ->
           [
             (if p.prefetch then "on" else "off");
             string_of_int p.scalar_cycles2;
             string_of_int p.flexvec_cycles2;
             Report.f2 p.speedup2 ^ "x";
           ])
         pts
  in
  print_string (Report.table rows);
  [ ("rows", J.List (List.map J.of_prefetch_point pts)) ]

let fault_sweep (plan : Harness.plan) (_ : bar) =
  section
    "fault-sweep: RTM abort / retry / scalar fallback under injected faults";
  let rates = [ 0.0; 0.0005; 0.002; 0.008; 0.03 ] in
  let tiles = [ 64; 256; 1024 ] in
  let results =
    Sweeps.fault_sweep ~rates ~tiles ~seed:plan.Harness.fault_seed
      ?domains:plan.Harness.domains ()
  in
  let points =
    List.concat_map (fun t -> List.map (fun r -> (t, r)) rates) tiles
  in
  let labelled = List.combine points results in
  let ok_rows =
    List.filter_map
      (function _, Ok (p : Sweeps.fault_point) -> Some p | _, Error _ -> None)
      labelled
  in
  let errors =
    List.filter_map
      (function
        | (tile, rate), Error f ->
            Some
              ( Printf.sprintf "tile=%d rate=%g" tile rate,
                Fv_parallel.Pool.failure_message f )
        | _, Ok _ -> None)
      labelled
  in
  let rows =
    [ "Tile"; "Rate"; "Tiles"; "Commits"; "Aborts"; "Cap."; "Retries";
      "Retried OK"; "Scalar iters"; "Injected"; "Abort rate"; "Retry succ" ]
    :: List.map
         (fun (p : Sweeps.fault_point) ->
           [
             string_of_int p.f_tile;
             Printf.sprintf "%.4f" p.f_rate;
             string_of_int p.f_tiles;
             string_of_int p.f_commits;
             string_of_int p.f_aborts;
             string_of_int p.f_capacity_aborts;
             string_of_int p.f_retries;
             string_of_int p.f_retried_commits;
             string_of_int p.f_scalar_iters;
             string_of_int p.f_injected;
             Report.pct p.f_abort_rate;
             Report.pct p.f_retry_success;
           ])
         ok_rows
  in
  print_string (Report.table rows);
  List.iter
    (fun (label, msg) -> Printf.printf "ERROR %s: %s\n" label msg)
    errors;
  [
    ("rows", J.List (List.map J.of_fault_point ok_rows));
    ( "errors",
      J.List
        (List.map (fun (label, msg) -> J.of_error_row ~label msg) errors) );
  ]

let auto_bench (plan : Harness.plan) (bar : bar) =
  section "auto: profile-guided strategy selection vs the oracle";
  let domains = plan.Harness.domains in
  let rows = Autobench.kernel_rows ?domains () in
  let table_rows =
    [ "Benchmark"; "Chosen"; "Predicted"; "Actual"; "Oracle"; "Oracle cyc";
      "Regret"; "Auto spd"; "Oracle spd" ]
    :: List.map
         (fun (r : Autobench.row) ->
           [
             r.b_spec.name;
             Experiment.strategy_atom r.b_chosen;
             Printf.sprintf "%.0f" r.b_predicted;
             Printf.sprintf "%.0f" r.b_auto_cycles;
             Fv_auto.Model.atom_of_choice r.b_oracle_arm;
             Printf.sprintf "%.0f" r.b_oracle_cycles;
             Printf.sprintf "%.3f" r.b_regret;
             Report.f2 r.b_auto_speedup ^ "x";
             Report.f2 r.b_oracle_speedup ^ "x";
           ])
         rows
  in
  print_string (Report.table table_rows);
  (* Auto's geomean speedup must stay within 10% of the oracle's *)
  let min_ratio = 0.9 in
  let auto_g, oracle_g, ratio = Autobench.geomeans rows in
  Printf.printf
    "\ngeomean speedup: auto %.3fx | oracle %.3fx | ratio %.3f (bar: >= %g)\n"
    auto_g oracle_g ratio min_ratio;
  let sweeps = Autobench.sweep_rows ?domains () in
  let sweep_table =
    [ "Sweep"; "Point"; "Chosen"; "Regret" ]
    :: List.map
         (fun (s : Autobench.sweep_row) ->
           [
             s.s_sweep;
             s.s_label;
             Experiment.strategy_atom s.s_chosen;
             Printf.sprintf "%.3f" s.s_regret;
           ])
         sweeps
  in
  Printf.printf "\noff-grid decision probes:\n";
  print_string (Report.table sweep_table);
  let kernels = List.length Fv_workloads.Registry.all in
  bar
    (List.length rows = kernels)
    (Printf.sprintf "%d of %d kernels scored" (List.length rows) kernels);
  List.iter
    (fun (r : Autobench.row) ->
      (* regret is Auto's cycles over the oracle-best arm's, so it
         never dips below 1 *)
      bar (r.b_regret >= 0.999)
        (Printf.sprintf "%s: regret %.4f < 0.999" r.b_spec.name r.b_regret))
    rows;
  bar (ratio >= min_ratio)
    (Printf.sprintf "auto/oracle geomean ratio %.3f < %g" ratio min_ratio);
  List.iter
    (fun sweep ->
      bar
        (List.exists
           (fun (s : Autobench.sweep_row) -> s.s_sweep = sweep)
           sweeps)
        (Printf.sprintf "no %s sweep probe" sweep))
    [ "trip"; "vl"; "fault" ];
  (* faults perturb the measured arms, never the warmup profile, so
     every fault-rate probe of the same workload decides alike *)
  let fault_picks =
    List.sort_uniq compare
      (List.filter_map
         (fun (s : Autobench.sweep_row) ->
           if s.s_sweep = "fault" then
             Some (Experiment.strategy_atom s.s_chosen)
           else None)
         sweeps)
  in
  bar
    (List.length fault_picks = 1)
    (Printf.sprintf "fault probes chose [%s], not one arm"
       (String.concat "; " fault_picks));
  [
    ("rows", J.List (List.map J.of_auto_row rows));
    ( "geomeans",
      J.Obj
        [
          ("auto", J.Float auto_g);
          ("oracle", J.Float oracle_g);
          ("ratio", J.Float ratio);
        ] );
    ("sweeps", J.List (List.map J.of_auto_sweep_row sweeps));
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro (_ : Harness.plan) (_ : bar) =
  section "micro: Bechamel micro-benchmarks of emulated primitives";
  let open Bechamel in
  let open Fv_isa in
  let w = Mask.of_bits "1111111111111111" in
  let stop = Mask.of_bits "0000001010000001" in
  let v1 = Vreg.of_int_list [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 1; 5; 7; 9; 9; 10; 10 ] in
  let v2 = Vreg.of_int_list [ 0; 0; 0; 1; 5; 7; 9; 2; 0; 2; 3; 4; 0; 9; 10; 10 ] in
  let built = Fv_workloads.Kernels.h264ref 1 in
  let vloop =
    Result.get_ok (Fv_vectorizer.Gen.vectorize built.Fv_workloads.Kernels.loop)
  in
  let tests =
    [
      Test.make ~name:"kftm_exc (Table 1 row 1)"
        (Staged.stage (fun () -> ignore (Mask.kftm_exc ~write:w stop)));
      Test.make ~name:"vpslctlast (Table 1 row 2)"
        (Staged.stage (fun () -> ignore (Vreg.vpslctlast w v1)));
      Test.make ~name:"vpconflictm (Table 1 row 4)"
        (Staged.stage (fun () -> ignore (Vreg.vpconflictm v1 v2)));
      Test.make ~name:"vectorize h264ref loop (Fig. 6 codegen)"
        (Staged.stage (fun () ->
             ignore
               (Fv_vectorizer.Gen.vectorize built.Fv_workloads.Kernels.loop)));
      Test.make ~name:"PDG build + classify (analysis module)"
        (Staged.stage (fun () ->
             ignore (Fv_pdg.Classify.analyze built.Fv_workloads.Kernels.loop)));
      Test.make ~name:"emulate one h264ref invocation (Figure 8 inner step)"
        (Staged.stage (fun () ->
             let m = Fv_mem.Memory.clone built.Fv_workloads.Kernels.mem in
             let e =
               Fv_ir.Interp.env_of_list built.Fv_workloads.Kernels.env
             in
             ignore (Fv_simd.Exec.run vloop m e)));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances test in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let results = benchmark (Test.make_grouped ~name:"flexvec" ~fmt:"%s %s" tests) in
  let estimates =
    Hashtbl.fold
      (fun name ols acc ->
        match Bechamel.Analyze.OLS.estimates ols with
        | Some [ est ] -> (name, Some est) :: acc
        | _ -> (name, None) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "%-55s %12.1f ns/run\n" name est
      | None -> Printf.printf "%-55s (no estimate)\n" name)
    estimates;
  [
    ( "rows",
      J.List
        (List.map
           (fun (name, est) ->
             J.Obj
               [
                 ("name", J.Str name);
                 ("ns_per_run", J.opt (fun x -> J.Float x) est);
               ])
           estimates) );
  ]

(* ------------------------------------------------------------------ *)
(* compile-service load generator                                      *)
(* ------------------------------------------------------------------ *)

module Plancache = Fv_serve.Plancache
module Client = Fv_serve.Client

let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

(* one load row; latencies in microseconds *)
type serve_row = {
  sv_requests : int;
  sv_domains : int;
  sv_cold_p50 : float;
  sv_cold_p99 : float;
  sv_warm_p50 : float;
  sv_warm_p99 : float;
  sv_failed : int;  (** warm requests the pool answered with an error *)
  sv_rps : float;
  sv_wall : float;
  sv_cache : Plancache.t;
}

let cold_over_warm (r : serve_row) =
  r.sv_cold_p50 /. Float.max r.sv_warm_p50 1e-9

(* One load row: a fresh plan cache, a cold pass touching every distinct
   loop once, then [n] warm requests cycling the pool. Latencies are
   per-request wall seconds ([Fv_obs.Clock], measured inside the worker
   for the parallel rows). A failed warm request has no latency: it is
   counted, and left out of the percentiles rather than taken as 0 us. *)
let serve_row ~(n : int) ~(domains : int) (lines : string array) : serve_row =
  let cache = Plancache.create ~cap:1024 () in
  let scfg = Fv_serve.Service.cfg ~cache () in
  let k = Array.length lines in
  let one line =
    let t0 = Fv_obs.Clock.now () in
    ignore (Fv_serve.Service.handle scfg line);
    Fv_obs.Clock.elapsed ~since:t0
  in
  let cold = Array.map one lines in
  let lat = Array.make n 0.0 in
  let answered = ref 0 in
  let record d =
    lat.(!answered) <- d;
    incr answered
  in
  let t_start = Fv_obs.Clock.now () in
  if domains <= 1 then
    for i = 0 to n - 1 do
      record (one lines.(i mod k))
    done
  else begin
    (* chunked so the request list never holds the whole run at once *)
    let chunk = 8192 in
    let i = ref 0 in
    while !i < n do
      let m = min chunk (n - !i) in
      let idxs = List.init m (fun j -> !i + j) in
      Fv_parallel.Pool.map ~domains (fun j -> one lines.(j mod k)) idxs
      |> List.iter (function Ok d -> record d | Error _ -> ());
      i := !i + m
    done
  end;
  let wall = Fv_obs.Clock.elapsed ~since:t_start in
  let lat = Array.sub lat 0 !answered in
  Array.sort compare cold;
  Array.sort compare lat;
  let us x = 1e6 *. x in
  {
    sv_requests = n;
    sv_domains = domains;
    sv_cold_p50 = us (percentile cold 0.50);
    sv_cold_p99 = us (percentile cold 0.99);
    sv_warm_p50 = us (percentile lat 0.50);
    sv_warm_p99 = us (percentile lat 0.99);
    sv_failed = n - !answered;
    sv_rps = float_of_int n /. wall;
    sv_wall = wall;
    sv_cache = cache;
  }

(* Warm-restart phase: how much of the warm path survives a restart
   through a --plan-cache-file snapshot? Both measured passes run with a
   fresh response memo, so both measure the semantic plan-cache hit
   (parse + canonical key + lookup) rather than the exact-line memo —
   that is the path a restarted server takes for its old working set.
   Ends with a deliberate-corruption drill: flip one byte, reload, and
   count the rejected entry instead of crashing. *)
let serve_restart_phase (bar : bar) (lines : string array) =
  let cap = 1024 in
  let cache = Plancache.create ~cap () in
  let fill = Fv_serve.Service.cfg ~cache () in
  Array.iter (fun l -> ignore (Fv_serve.Service.handle fill l)) lines;
  let pass scfg =
    let lat =
      Array.map
        (fun l ->
          let t0 = Fv_obs.Clock.now () in
          ignore (Fv_serve.Service.handle scfg l);
          Fv_obs.Clock.elapsed ~since:t0)
        lines
    in
    Array.sort compare lat;
    1e6 *. percentile lat 0.50
  in
  let inproc_p50 = pass (Fv_serve.Service.cfg ~cache ()) in
  let path = Filename.temp_file "flexvec_plancache" ".snap" in
  let saved = Fv_serve.Snapshot.save cache ~path in
  let cache2 = Plancache.create ~cap () in
  let restore = Fv_serve.Snapshot.load cache2 ~path in
  let restart_p50 = pass (Fv_serve.Service.cfg ~cache:cache2 ()) in
  (* corruption drill: one flipped byte past the header must cost
     entries, not the process *)
  Fv_serve.Chaos.corrupt_file ~after:64 ~seed:99 path;
  let cache3 = Plancache.create ~cap () in
  let corrupted = Fv_serve.Snapshot.load cache3 ~path in
  Sys.remove path;
  let slowdown = restart_p50 /. Float.max inproc_p50 1e-9 in
  Printf.printf
    "\nrestart: %d entries snapshotted; plan-hit p50 %.1f us in-process vs \
     %.1f us restored (%.2fx); corrupted reload: %d restored, %d corrupt, \
     no crash\n"
    saved inproc_p50 restart_p50 slowdown
    corrupted.Fv_serve.Snapshot.restored corrupted.Fv_serve.Snapshot.corrupt;
  bar
    (saved > 0
    && restore.Fv_serve.Snapshot.restored = saved
    && restore.Fv_serve.Snapshot.corrupt = 0)
    (Printf.sprintf "restart: %d snapshotted, %d restored, %d corrupt" saved
       restore.Fv_serve.Snapshot.restored restore.Fv_serve.Snapshot.corrupt);
  (* a restored cache must answer plan hits about as fast as the
     process that built it *)
  bar (slowdown <= 2.0)
    (Printf.sprintf "restart: restored warm p50 %.2fx the in-process one > 2x"
       slowdown);
  bar
    (corrupted.Fv_serve.Snapshot.corrupt >= 1)
    "restart: the corrupted reload counted no corrupt entry";
  J.Obj
    [
      ("snapshot_entries", J.Int saved);
      ("restored_entries", J.Int restore.Fv_serve.Snapshot.restored);
      ("restore_corrupt_entries", J.Int restore.Fv_serve.Snapshot.corrupt);
      ("inproc_warm_p50_us", J.Float inproc_p50);
      ("restart_warm_p50_us", J.Float restart_p50);
      ("restart_over_inproc_p50", J.Float slowdown);
      ( "corrupted_restored_entries",
        J.Int corrupted.Fv_serve.Snapshot.restored );
      ("corrupted_corrupt_entries", J.Int corrupted.Fv_serve.Snapshot.corrupt);
    ]

let serve_bench (plan : Harness.plan) (bar : bar) =
  section "serve: compile-service load (content-addressed plan cache)";
  let pool = Fv_serve.Loadgen.distinct_cases ~n:256 ~seed:11 in
  let lines =
    Array.of_list (List.map Fv_serve.Loadgen.loop_request_line pool)
  in
  let domains_hi =
    match plan.Harness.domains with
    | Some d -> d
    | None -> min 4 (Fv_parallel.Pool.default_domains ())
  in
  let configs =
    (* single-core hosts skip the redundant parallel rows *)
    List.concat_map
      (fun n -> if domains_hi > 1 then [ (n, 1); (n, domains_hi) ] else [ (n, 1) ])
      [ 1_000; 100_000; 1_000_000 ]
  in
  let rows =
    List.map (fun (n, domains) -> serve_row ~n ~domains lines) configs
  in
  let table =
    [ "Requests"; "Domains"; "Cold p50/p99 (us)"; "Warm p50/p99 (us)";
      "Cold/warm p50"; "Throughput (req/s)"; "Cache (size<=cap)" ]
    :: List.map
         (fun r ->
           [
             string_of_int r.sv_requests;
             string_of_int r.sv_domains;
             Printf.sprintf "%.1f / %.1f" r.sv_cold_p50 r.sv_cold_p99;
             Printf.sprintf "%.1f / %.1f" r.sv_warm_p50 r.sv_warm_p99;
             Printf.sprintf "%.1fx" (cold_over_warm r);
             Printf.sprintf "%.0f" r.sv_rps;
             Printf.sprintf "%d<=%d (%d evicted)"
               (Plancache.size r.sv_cache)
               (Plancache.capacity r.sv_cache)
               (Plancache.evictions r.sv_cache);
           ])
         rows
  in
  print_string (Report.table table);
  Printf.printf
    "\npool: %d distinct loops; warm requests cycle the pool against a \
     populated cache\n"
    (Array.length lines);
  List.iter
    (fun r ->
      let row =
        Printf.sprintf "%d requests x %d domains" r.sv_requests r.sv_domains
      in
      bar (r.sv_failed = 0)
        (Printf.sprintf "%s: %d warm requests failed" row r.sv_failed);
      bar
        (Plancache.size r.sv_cache <= Plancache.capacity r.sv_cache)
        (Printf.sprintf "%s: plan cache holds %d > capacity %d" row
           (Plancache.size r.sv_cache)
           (Plancache.capacity r.sv_cache));
      (* the content-addressed cache must pay off *)
      bar
        (cold_over_warm r >= 10.0)
        (Printf.sprintf "%s: cold p50 only %.1fx warm p50 (< 10x)" row
           (cold_over_warm r)))
    rows;
  let restart = serve_restart_phase bar lines in
  [
    ("restart", restart);
    ( "rows",
      J.List
        (List.map
           (fun r ->
             J.Obj
               [
                 ("requests", J.Int r.sv_requests);
                 ("domains", J.Int r.sv_domains);
                 ("pool_loops", J.Int (Array.length lines));
                 ("cold_p50_us", J.Float r.sv_cold_p50);
                 ("cold_p99_us", J.Float r.sv_cold_p99);
                 ("warm_p50_us", J.Float r.sv_warm_p50);
                 ("warm_p99_us", J.Float r.sv_warm_p99);
                 ("cold_over_warm_p50", J.Float (cold_over_warm r));
                 ("throughput_rps", J.Float r.sv_rps);
                 ("warm_wall_seconds", J.Float r.sv_wall);
                 ("cache_size", J.Int (Plancache.size r.sv_cache));
                 ("cache_capacity", J.Int (Plancache.capacity r.sv_cache));
                 ("cache_evictions", J.Int (Plancache.evictions r.sv_cache));
               ])
           rows) );
  ]

(* ------------------------------------------------------------------ *)
(* chaos: the serve stack under seeded fault injection                 *)
(* ------------------------------------------------------------------ *)

(* one chaos run, at one injection rate *)
type chaos_row = {
  c_rate : float;
  c_answered : int;
  c_ok : int;
  c_deadline : int;
  c_error : int;
  c_overloaded : int;
  c_injected : int;  (** requests the chaos plan perturbed *)
  c_availability : float;  (** ok share of the requests chaos left alone *)
  c_mismatches : int;  (** ok responses that differ from the baseline's *)
  c_quarantined : int;
  c_strikes : int;
  c_restarts : int;
  c_shed : int;
  c_p99_bound : float;
  c_wall : float;
}

let chaos_bench (plan : Harness.plan) (bar : bar) =
  section "chaos: serve availability and byte-stability under injection";
  let seed = plan.Harness.fault_seed in
  let n = 300 in
  let cases = Fv_serve.Loadgen.distinct_cases ~n ~seed:5 in
  let base_lines =
    List.mapi
      (fun i c ->
        Fv_serve.Loadgen.loop_request_line ~id:(Printf.sprintf "c%d" i) c)
      cases
  in
  (* one poison request repeated byte-identically (a hot-looping client
     resends the same bytes — that is what quarantine content-hashes):
     chaos marks it always-slow, so with the row timeout armed it must
     walk the whole arc — detach, strike, strike, refused-by-quarantine *)
  let poison_marker = "(id poison)" in
  let poison_positions = [ 50; 110; 170; 230; 290 ] in
  let poison_line =
    Fv_serve.Loadgen.loop_request_line ~id:"poison" (List.hd cases)
  in
  let lines =
    List.concat
      (List.mapi
         (fun i l ->
           if List.mem i poison_positions then [ poison_line; l ] else [ l ])
         base_lines)
  in
  let requests = List.length lines in
  let domains =
    match plan.Harness.domains with
    | Some d -> d
    | None -> min 4 (Fv_parallel.Pool.default_domains ())
  in
  (* one run at [rate]; with a [baseline] run it also counts oracle
     mismatches *)
  let run ?baseline ~rate () =
    let chaos =
      if rate > 0.0 then
        Some
          (Fv_serve.Chaos.make ~rate ~seed ~slow_s:0.1
             ~poison:poison_marker ())
      else None
    in
    let qdir = Filename.temp_file "flexvec_quarantine" "" in
    Sys.remove qdir;
    let quarantine = Fv_serve.Quarantine.create ~dir:qdir ~max_strikes:2 () in
    let opts =
      {
        Fv_serve.Server.default_opts with
        Fv_serve.Server.domains = Some domains;
        batch = 32;
        queue_cap = 4096;
        row_timeout = (if rate > 0.0 then Some 0.02 else None);
        quarantine = Some quarantine;
        chaos;
      }
    in
    let r = Fv_serve.Loadgen.drive (Fv_serve.Service.cfg ()) opts lines in
    (* best-effort quarantine dir cleanup *)
    (try
       Array.iter
         (fun f -> Sys.remove (Filename.concat qdir f))
         (Sys.readdir qdir);
       Unix.rmdir qdir
     with Sys_error _ | Unix.Unix_error _ -> ());
    let injected =
      Option.fold
        ~none:(List.map (fun _ -> false) lines)
        ~some:(fun c -> Fv_serve.Chaos.injected c lines)
        chaos
    in
    let by_id = Fv_serve.Loadgen.by_id r in
    (* availability over the non-injected population: every request the
       chaos plan left alone must come back ok *)
    let spared =
      List.filter_map
        (fun (l, hit) -> if hit then None else Client.response_field l "id")
        (List.combine lines injected)
    in
    let spared_ok =
      List.filter
        (fun id ->
          match List.assoc_opt id by_id with
          | Some resp -> Client.status_of_response resp = Some "ok"
          | None -> false)
        spared
    in
    let count = Fv_serve.Loadgen.count r and delta = Fv_serve.Loadgen.delta r in
    ( {
        c_rate = rate;
        c_answered = List.length r.responses;
        c_ok = count "ok";
        c_deadline = count "deadline-exceeded";
        c_error = count "error";
        c_overloaded = count "overloaded";
        c_injected = List.length (List.filter Fun.id injected);
        c_availability =
          float_of_int (List.length spared_ok)
          /. float_of_int (max 1 (List.length spared));
        (* differential oracle: chaos may fail a request, but an [ok]
           response must be byte-identical to the fault-free run's *)
        c_mismatches =
          Option.fold ~none:0
            ~some:(fun baseline ->
              List.length (Fv_serve.Loadgen.mismatches ~baseline r))
            baseline;
        c_quarantined = delta "serve_quarantined";
        c_strikes = delta "serve_quarantine_strikes";
        c_restarts = delta "pool_worker_restarts";
        c_shed = delta "serve_shed";
        c_p99_bound =
          Fv_obs.Metrics.quantile_bound ~p:0.99 ~before:r.before ~after:r.after
            "serve_request_seconds";
        c_wall = r.wall_s;
      },
      r )
  in
  (* fault-free baseline: the oracle's ground truth *)
  let base, baseline = run ~rate:0.0 () in
  bar
    (base.c_answered = requests && base.c_ok = requests)
    (Printf.sprintf "fault-free baseline: %d of %d answered, %d ok"
       base.c_answered requests base.c_ok);
  let rates = [ 0.0; 0.01; 0.05; 0.2 ] in
  let rows = List.map (fun rate -> fst (run ~baseline ~rate ())) rates in
  let table =
    [ "Rate"; "Answered"; "ok/ddl/err"; "Injected"; "Avail(non-inj)";
      "Oracle"; "Quarantine(blk/strk)"; "Restarts"; "p99 bucket"; "Wall (s)" ]
    :: List.map
         (fun r ->
           [
             Printf.sprintf "%.2f" r.c_rate;
             Printf.sprintf "%d/%d" r.c_answered requests;
             Printf.sprintf "%d/%d/%d" r.c_ok r.c_deadline r.c_error;
             string_of_int r.c_injected;
             Printf.sprintf "%.4f" r.c_availability;
             (if r.c_mismatches = 0 then "ok"
              else Printf.sprintf "%d MISMATCH" r.c_mismatches);
             Printf.sprintf "%d/%d" r.c_quarantined r.c_strikes;
             string_of_int r.c_restarts;
             Printf.sprintf "<=%gs" r.c_p99_bound;
             Printf.sprintf "%.2f" r.c_wall;
           ])
         rows
  in
  print_string (Report.table table);
  Printf.printf
    "\n%d requests per run (%d poison repeats); seed %d; %d domains; \
     20ms row timeout, quarantine after 2 strikes\n"
    requests (List.length poison_positions) seed domains;
  List.iter
    (fun r ->
      (* a lost response means the daemon, or a batch, died *)
      bar
        (r.c_answered = requests && r.c_mismatches = 0)
        (Printf.sprintf "rate %.2f: %d of %d answered, %d oracle mismatches"
           r.c_rate r.c_answered requests r.c_mismatches))
    rows;
  let at rate = List.find (fun r -> r.c_rate = rate) rows in
  (* the failure model's acceptance bar: at 5% injection the requests
     chaos left alone stay available, and the hot-looping poison
     request gets quarantined *)
  bar
    ((at 0.05).c_availability >= 0.99)
    (Printf.sprintf "rate 0.05: availability %.4f < 0.99"
       (at 0.05).c_availability);
  bar
    ((at 0.05).c_quarantined >= 1)
    "rate 0.05: the poison request was never quarantined";
  (* injected deaths force pool worker restarts *)
  bar ((at 0.2).c_restarts >= 1) "rate 0.20: no worker restart";
  [
    ("requests", J.Int requests);
    ("poison_repeats", J.Int (List.length poison_positions));
    ("domains", J.Int domains);
    ( "rows",
      J.List
        (List.map
           (fun r ->
             J.Obj
               [
                 ("rate", J.Float r.c_rate);
                 ("answered", J.Int r.c_answered);
                 ("ok", J.Int r.c_ok);
                 ("deadline_exceeded", J.Int r.c_deadline);
                 ("error", J.Int r.c_error);
                 ("overloaded", J.Int r.c_overloaded);
                 ("injected", J.Int r.c_injected);
                 ("availability_non_injected", J.Float r.c_availability);
                 ("oracle_mismatches", J.Int r.c_mismatches);
                 ("quarantine_blocked", J.Int r.c_quarantined);
                 ("quarantine_strikes", J.Int r.c_strikes);
                 ("worker_restarts", J.Int r.c_restarts);
                 ("shed", J.Int r.c_shed);
                 ("p99_bucket_seconds", J.Float r.c_p99_bound);
                 ("wall_seconds", J.Float r.c_wall);
               ])
           rows) );
  ]

(* ------------------------------------------------------------------ *)
(* overload: deadline-true service under offered load                  *)
(* ------------------------------------------------------------------ *)

(* one offered-load row *)
type overload_row = {
  o_multiplier : float;  (** offered load over measured capacity *)
  o_answered : int;
  o_distinct : int;  (** distinct response ids *)
  o_ok : int;
  o_ok_degraded : int;  (** ok answers produced under brownout *)
  o_shed : int;
  o_deadline : int;
  o_rejected_cost : int;
  o_brownout_transitions : int;
  o_expired_drops : int;
  o_goodput : float;  (** ok answers per second *)
  o_p50_bound : float;
  o_p99_bound : float;
  o_wall : float;
}

let overload_bench (_ : Harness.plan) (bar : bar) =
  section "overload: deadline-true compile service under offered load";
  (* pick one mid-weight simulation case and replicate it with distinct
     ids: uniform real work per request, so goodput under overload is
     comparable to capacity instead of being noise from a heavy-tailed
     cost mix. The probe scans deterministic cases for one whose
     uncached simulate costs ~1 ms — heavy enough that service work
     dominates orchestration and the shed path, light enough that the
     section finishes in seconds. *)
  let probe_pool = Fv_serve.Loadgen.distinct_cases ~n:64 ~seed:17 in
  let work_case, work_seconds =
    let scfg = Fv_serve.Service.cfg () in
    let cost c =
      (* steady-state cost: compile once, then time a fresh simulate
         that hits the plan cache but not the response memo (distinct
         id) — what each replicated request will actually cost *)
      ignore
        (Fv_serve.Service.handle scfg
           (Fv_serve.Loadgen.simulate_request_line ~id:"p0" c));
      let t0 = Fv_obs.Clock.now () in
      ignore
        (Fv_serve.Service.handle scfg
           (Fv_serve.Loadgen.simulate_request_line ~id:"p1" c));
      Fv_obs.Clock.elapsed ~since:t0
    in
    let rec go best = function
      | [] -> best
      | c :: rest ->
          let t = cost c in
          if t >= 5e-4 && t <= 2e-2 then (c, t)
          else go (if t > snd best then (c, t) else best) rest
    in
    match probe_pool with
    | [] -> failwith "overload: empty probe pool"
    | c :: rest -> go (c, cost c) rest
  in
  let n = max 400 (min 2000 (int_of_float (0.8 /. work_seconds))) in
  let lines =
    List.init n (fun i ->
        Fv_serve.Loadgen.simulate_request_line
          ~id:(Printf.sprintf "o%d" i)
          work_case)
  in
  let opts =
    {
      Fv_serve.Server.default_opts with
      Fv_serve.Server.domains = Some 1;
      batch = 32;
      queue_cap = 256;
    }
  in
  (* measured capacity: the same stream and machinery at full speed in a
     no-shed, no-brownout configuration (queue sized to the stream,
     watermarks above 1.0) — every request does its full work, so this
     is the service's real throughput, not the rate at which it can
     write "overloaded" lines *)
  let cap_opts =
    { opts with Fv_serve.Server.queue_cap = n; brownout_lo = 2.0;
      brownout_hi = 2.0 }
  in
  let cap_run =
    Fv_serve.Loadgen.drive (Fv_serve.Service.cfg ()) cap_opts lines
  in
  let cap_ok = Fv_serve.Loadgen.count cap_run "ok" in
  let capacity = float_of_int cap_ok /. cap_run.wall_s in
  Printf.printf
    "work unit: %.3f ms/simulate; measured capacity: %.0f req/s (%d/%d ok, \
     %.3f s, no-shed config)\n"
    (1000.0 *. work_seconds) capacity cap_ok n cap_run.wall_s;
  let multipliers = [ 0.5; 1.0; 2.0; 4.0 ] in
  let rows =
    List.map
      (fun m ->
        let run =
          Fv_serve.Loadgen.drive ~rate:(m *. capacity)
            (Fv_serve.Service.cfg ()) opts lines
        in
        let count = Fv_serve.Loadgen.count run
        and delta = Fv_serve.Loadgen.delta run in
        let bound p =
          Fv_obs.Metrics.quantile_bound ~p ~before:run.before ~after:run.after
            "serve_request_seconds"
        in
        {
          o_multiplier = m;
          o_answered = List.length run.responses;
          o_distinct =
            List.length
              (List.sort_uniq compare
                 (List.map fst (Fv_serve.Loadgen.by_id run)));
          o_ok = count "ok";
          (* compile-only or degraded plans: still useful, still
             goodput, but worth seeing *)
          o_ok_degraded =
            List.length
              (List.filter
                 (fun r ->
                   Client.status_of_response r = Some "ok"
                   && Client.response_field r "brownout" <> None)
                 run.responses);
          o_shed = count "overloaded";
          o_deadline = count "deadline-exceeded";
          o_rejected_cost = count "rejected-cost";
          o_brownout_transitions = delta "serve_brownout_transitions";
          o_expired_drops = delta "serve_expired_drops";
          o_goodput = float_of_int (count "ok") /. run.wall_s;
          o_p50_bound = bound 0.50;
          o_p99_bound = bound 0.99;
          o_wall = run.wall_s;
        })
      multipliers
  in
  let table =
    [ "Offered"; "Answered"; "Distinct"; "Ok"; "Degr"; "Shed"; "Deadline";
      "Goodput"; "p50<=(s)"; "p99<=(s)" ]
    :: List.map
         (fun r ->
           [
             Printf.sprintf "%.1fx" r.o_multiplier;
             string_of_int r.o_answered;
             string_of_int r.o_distinct;
             string_of_int r.o_ok;
             string_of_int r.o_ok_degraded;
             string_of_int r.o_shed;
             string_of_int r.o_deadline;
             Printf.sprintf "%.0f/s" r.o_goodput;
             Printf.sprintf "%.6f" r.o_p50_bound;
             Printf.sprintf "%.6f" r.o_p99_bound;
           ])
         rows
  in
  print_string (Report.table table);
  (* pure-timeout leg: every request a distinct simulation with an
     impossible deadline, with a row timeout armed. Cooperative
     cancellation must answer all of them with zero detached workers
     and zero replacement domains — the row timeout is only the
     backstop for code that never polls, and must never fire *)
  let nt = 200 in
  let sims = Fv_serve.Loadgen.distinct_cases ~n:nt ~seed:23 in
  let sim_lines =
    List.mapi
      (fun i c ->
        Fv_serve.Loadgen.simulate_request_line
          ~id:(Printf.sprintf "t%d" i)
          ~deadline_ms:1 c)
      sims
  in
  let t_opts =
    {
      Fv_serve.Server.default_opts with
      Fv_serve.Server.domains = Some 2;
      row_timeout = Some 5.0;
      queue_cap = 4096;
    }
  in
  let t_run =
    Fv_serve.Loadgen.drive (Fv_serve.Service.cfg ()) t_opts sim_lines
  in
  let restarts = Fv_serve.Loadgen.delta t_run "pool_worker_restarts" in
  let t_answered = List.length t_run.responses
  and t_deadline = Fv_serve.Loadgen.count t_run "deadline-exceeded"
  and t_ok = Fv_serve.Loadgen.count t_run "ok" in
  Printf.printf
    "\npure-timeout: %d offered, %d answered (%d deadline-exceeded, %d ok), \
     %d worker restarts\n"
    nt t_answered t_deadline t_ok restarts;
  (* resilient-client leg: a lossy transport against the same service;
     deadline-aware retries must recover every loss *)
  let scfg_c = Fv_serve.Service.cfg () in
  let drop = ref 0 in
  let lossy line =
    incr drop;
    if !drop mod 3 = 0 then None else Some (Fv_serve.Service.handle scfg_c line)
  in
  let client_pool = Array.of_list probe_pool in
  let client_lines =
    List.init 300 (fun i ->
        Fv_serve.Loadgen.loop_request_line
          ~id:(Printf.sprintf "c%d" i)
          client_pool.(i mod Array.length client_pool))
  in
  let outcomes =
    List.mapi
      (fun i l ->
        Client.call
          ~policy:
            {
              Client.default_policy with
              Client.base_backoff_s = 1e-4;
              max_backoff_s = 1e-3;
            }
          ~seed:i lossy l)
      client_lines
  in
  let delivered =
    List.length (List.filter (fun o -> o.Client.response <> None) outcomes)
  in
  let attempts = List.fold_left (fun a o -> a + o.Client.attempts) 0 outcomes in
  Printf.printf
    "client: %d/%d delivered over a 1-in-3-lossy transport (%d attempts)\n"
    delivered (List.length client_lines) attempts;
  (* every offered request is answered exactly once: no lost responses,
     no duplicates, at any offered load *)
  List.iter
    (fun r ->
      bar
        (r.o_answered = n && r.o_distinct = n)
        (Printf.sprintf "%.1fx: %d answered, %d distinct ids, %d offered"
           r.o_multiplier r.o_answered r.o_distinct n))
    rows;
  (* the brownout ladder's contract: degraded answers count as goodput *)
  let at2 = List.find (fun r -> r.o_multiplier = 2.0) rows in
  bar
    (at2.o_goodput /. capacity >= 0.95)
    (Printf.sprintf "2.0x: goodput %.2fx capacity < 0.95x"
       (at2.o_goodput /. capacity));
  bar
    (t_answered = nt && t_deadline = nt && restarts = 0)
    (Printf.sprintf
       "pure-timeout: %d offered, %d answered, %d deadline-exceeded, %d \
        worker restarts"
       nt t_answered t_deadline restarts);
  bar
    (delivered = List.length client_lines)
    (Printf.sprintf "client: %d of %d delivered" delivered
       (List.length client_lines));
  [
    ("capacity_rps", J.Float capacity);
    ("capacity_requests", J.Int n);
    ("capacity_ok", J.Int cap_ok);
    ("work_unit_seconds", J.Float work_seconds);
    ( "rows",
      J.List
        (List.map
           (fun r ->
             J.Obj
               [
                 ("multiplier", J.Float r.o_multiplier);
                 ("offered", J.Int n);
                 ("answered", J.Int r.o_answered);
                 ("distinct_ids", J.Int r.o_distinct);
                 ("ok", J.Int r.o_ok);
                 ("ok_degraded", J.Int r.o_ok_degraded);
                 ("shed", J.Int r.o_shed);
                 ("deadline_exceeded", J.Int r.o_deadline);
                 ("rejected_cost", J.Int r.o_rejected_cost);
                 ("brownout_transitions", J.Int r.o_brownout_transitions);
                 ("expired_drops", J.Int r.o_expired_drops);
                 ("goodput_rps", J.Float r.o_goodput);
                 ("goodput_over_capacity", J.Float (r.o_goodput /. capacity));
                 ("p50_bucket_seconds", J.Float r.o_p50_bound);
                 ("p99_bucket_seconds", J.Float r.o_p99_bound);
                 ("wall_seconds", J.Float r.o_wall);
               ])
           rows) );
    ( "pure_timeout",
      J.Obj
        [
          ("offered", J.Int nt);
          ("answered", J.Int t_answered);
          ("ok", J.Int t_ok);
          ("deadline_exceeded", J.Int t_deadline);
          ("worker_restarts", J.Int restarts);
        ] );
    ( "client",
      J.Obj
        [
          ("offered", J.Int (List.length client_lines));
          ("delivered", J.Int delivered);
          ("attempts", J.Int attempts);
        ] );
  ]

(* ------------------------------------------------------------------ *)

(* Every section's metrics snapshot must be self-consistent: a
   counter's sum round-trips its count, and histogram buckets are
   cumulative (Prometheus semantics), ending in the +inf bucket that
   holds every observation. *)
let metrics_bars (bar : bar) (snaps : Fv_obs.Metrics.snap list) : unit =
  List.iter
    (fun (s : Fv_obs.Metrics.snap) ->
      let what problem = Fmt.str "%a: %s" Fv_obs.Metrics.pp_snap s problem in
      match s.s_kind with
      | Fv_obs.Metrics.Counter ->
          bar (float_of_int s.s_count = s.s_sum) (what "sum differs from count")
      | Fv_obs.Metrics.Histogram ->
          let counts = List.map snd s.s_buckets in
          bar
            (counts = List.sort compare counts)
            (what "bucket counts decrease");
          bar
            (match List.rev s.s_buckets with
            | (le, c) :: _ -> le = Float.infinity && c = s.s_count
            | [] -> false)
            (what "last bucket is not +inf holding every observation")
      | Fv_obs.Metrics.Gauge -> ())
    snaps

let sections =
  [
    ("table1", table1);
    ("figure8", figure8);
    ("table2", table2);
    ("rtm-sweep", rtm_sweep);
    ("strategy-sweep", strategy_sweep);
    ("trip-sweep", trip_sweep);
    ("evl-sweep", evl_sweep);
    ("vl-sweep", vl_sweep);
    ("strategies", strategies);
    ("prefetch-ablation", prefetch_ablation);
    ("fault-sweep", fault_sweep);
    ("auto", auto_bench);
    ("micro", micro);
    ("serve", serve_bench);
    ("chaos", chaos_bench);
    ("overload", overload_bench);
  ]

let () =
  let available = List.map fst sections in
  match
    Harness.parse_args ~available (List.tl (Array.to_list Sys.argv))
  with
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  | Ok plan ->
      (* fail on an unwritable --json destination now, not after every
         section has already burned its simulation time *)
      (match plan.json with
      | Some path -> (
          try close_out (open_out path)
          with Sys_error e ->
            Printf.eprintf "--json: cannot write %s (%s)\n" path e;
            exit 1)
      | None -> ());
      let domains_used =
        match plan.domains with
        | Some d -> d
        | None -> Fv_parallel.Pool.default_domains ()
      in
      (* host-span recorder, only when --trace-out asked for timelines *)
      let recorder =
        Option.map
          (fun dir ->
            (try Unix.mkdir dir 0o755
             with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            let r = Fv_obs.Span.recorder () in
            Fv_obs.Span.install r;
            r)
          plan.trace_out
      in
      (* discard metrics any earlier in-process run left behind, so each
         section's snapshot covers exactly that section *)
      Fv_obs.Metrics.reset Fv_obs.Metrics.global;
      let failed_bars = ref 0 in
      let reports =
        List.map
          (fun name ->
            let t_base = Fv_obs.Clock.now () in
            let f = List.assoc name sections in
            let bar ok what =
              if not ok then begin
                Printf.printf "BAR FAILED %s: %s\n%!" name what;
                incr failed_bars
              end
            in
            let body, wall = Report.timed (fun () -> f plan bar) in
            let metrics =
              Fv_obs.Metrics.snapshot ~reset:true Fv_obs.Metrics.global
            in
            metrics_bars bar metrics;
            let j =
              J.report ~section:name ~domains:domains_used
                ~fault_rate:plan.fault_rate ~fault_seed:plan.fault_seed
                ?row_timeout:plan.row_timeout
                ~metrics ~wall_seconds:wall body
            in
            J.to_file (Printf.sprintf "BENCH_%s.json" name) j;
            (match (recorder, plan.trace_out) with
            | Some r, Some dir ->
                let spans = Fv_obs.Span.drain r in
                Fv_obs.Chrome.to_file
                  (Filename.concat dir
                     (Printf.sprintf "trace_%s.json" name))
                  (Fv_obs.Chrome.of_spans ~t_base spans)
            | _ -> ());
            j)
          plan.sections
      in
      Option.iter (fun _ -> Fv_obs.Span.uninstall ()) recorder;
      Option.iter
        (fun path ->
          J.to_file path
            (J.Obj
               [
                 ("domains", J.Int domains_used);
                 ("sections", J.List reports);
               ]))
        plan.json;
      if !failed_bars > 0 then begin
        Printf.eprintf "%d bar(s) failed\n" !failed_bars;
        exit 1
      end
