(** Workload [eval]: the paper's evaluation, Figure 8.

    Batch: [Figure8.run ~domains:2] over the 18 hot loops, repeated for
    the run's duration, with the simulator's trace memo table cleared
    before each pass so every pass simulates. Almost all of a pass is
    emulation and simulation; the compile front end is under 1%. A
    simulator optimisation shows here and nowhere else.

    An operation is one pass. The first pass of a run is set-up: it is
    untimed, and slower than later ones. Checks: every row free of
    [oracle_error], every emitted instruction mix equal to the paper's
    Table 2 column ({!Fv_workloads.Registry.paper_mix}), and every pass
    bit-identical to the first. *)

module R = Fv_workloads.Registry
module K = Fv_workloads.Kernels
module F8 = Fv_core.Figure8
module E = Fv_core.Experiment

let domains = 2
let vl = 16

(* the quick smoke keeps one loop in six *)
let benchmarks ~quick =
  if quick then List.filteri (fun i _ -> i mod 6 = 0) R.all else R.all

let pass ~seed benchmarks : F8.result * float =
  Fv_ooo.Simcache.clear ();
  Stats.time (fun () -> F8.run ~seed ~domains ~benchmarks ())

let vectorized (row : F8.row) = row.F8.decision.Fv_vectorizer.Costmodel.vectorize

(* what must repeat bit for bit from pass to pass *)
let fingerprint (r : F8.result) =
  List.map
    (fun (row : F8.row) ->
      ( row.F8.spec.R.name,
        row.F8.baseline.E.cycles,
        row.F8.flexvec.E.cycles,
        row.F8.overall,
        row.F8.mix_measured ))
    r.F8.rows

let check_pass (rep : Report.t) ~(reference : F8.result) (r : F8.result) =
  List.iter
    (fun (name, msg) -> Report.check rep false "row %s failed: %s" name msg)
    r.F8.errors;
  let bad =
    List.fold_left
      (fun bad (row : F8.row) ->
        let name = row.F8.spec.R.name in
        let oracle_ok =
          row.F8.baseline.E.oracle_error = None
          && row.F8.flexvec.E.oracle_error = None
        in
        (* a loop the cost model leaves scalar emits no vector code; the
           vectorizer's mix for it is checked once per run instead *)
        let mix_ok =
          (not (vectorized row))
          || String.equal row.F8.mix_measured row.F8.spec.R.paper_mix
        in
        Report.check rep oracle_ok "%s: oracle_error" name;
        Report.check rep mix_ok "%s: mix %S, paper %S" name row.F8.mix_measured
          row.F8.spec.R.paper_mix;
        if oracle_ok && mix_ok then bad else bad + 1)
      (List.length r.F8.errors) r.F8.rows
  in
  Report.check rep
    (fingerprint r = fingerprint reference)
    "a pass differs from the first pass";
  Report.count rep ~n:(List.length r.F8.rows + List.length r.F8.errors) ~bad

(* Table 2: the vectorizer's mix for every loop, the ones the cost
   model leaves scalar included, against the paper's column *)
let check_table2 (rep : Report.t) ~seed benchmarks =
  List.iter
    (fun (spec : R.spec) ->
      let mix =
        match Fv_vectorizer.Gen.vectorize ~vl (spec.R.build seed).K.loop with
        | Ok v -> Fv_vir.Count.to_table2_string (Fv_vir.Count.of_vloop v)
        | Error d -> "rejected: " ^ Fv_ir.Validate.describe d
      in
      Report.check rep
        (String.equal mix spec.R.paper_mix)
        "%s: Table 2 mix %S, paper %S" spec.R.name mix spec.R.paper_mix)
    benchmarks

let speedup_geomean (r : F8.result) =
  F8.geomean (List.map (fun (row : F8.row) -> row.F8.overall) r.F8.rows)

(* ---------------- untraced: the end-to-end numbers ---------------- *)

let run_untraced (rep : Report.t) ~seed ~seconds ~quick =
  let benchmarks = benchmarks ~quick in
  let t_setup = Stats.now_ns () in
  check_table2 rep ~seed benchmarks;
  let reference, _ = pass ~seed benchmarks in
  check_pass rep ~reference reference;
  let setup_s = Stats.since_s t_setup in
  let walls = Stats.samples () in
  let t_run = Stats.now_ns () in
  while walls.Stats.len = 0 || Stats.since_s t_run < seconds do
    let r, ns = pass ~seed benchmarks in
    check_pass rep ~reference r;
    Stats.add walls ns
  done;
  let walls = Stats.to_array walls in
  let s = Stats.summarize ~pct:100.0 walls in
  let busy_s = Array.fold_left ( +. ) 0.0 walls *. 1e-9 in
  Report.check_tail rep ~quick s;
  Report.set rep "setup_s" setup_s;
  Report.set rep "latency_p50_ms" (s.Stats.p50 *. 1e-6);
  Report.set rep "latency_tail_ms" (s.Stats.tail *. 1e-6);
  Report.set rep "throughput_per_s"
    (float_of_int (s.Stats.n * List.length benchmarks) /. busy_s);
  Report.set rep "peak_rss_mb" (Report.vmhwm_mb "self")

(* ---------------- traced: the per-layer breakdown ---------------- *)

(* The parts of a row no span covers, timed by calling the same public
   functions on the same kernels, in seconds per pass: the kernel build
   of the profiling probe, the profiler's interpretation (its
   [Classify.analyze] call is spanned, so it is subtracted) and the
   oracle's scalar-vs-vector execution (its compile likewise). *)
type unspanned = { build_s : float; profile_s : float; oracle_s : float }

let unspanned_estimates ~seed (reference : F8.result) : unspanned =
  let secs f = snd (Stats.time f) *. 1e-9 in
  List.fold_left
    (fun u (row : F8.row) ->
      let spec = row.F8.spec in
      let b, t_build = Stats.time (fun () -> spec.R.build seed) in
      let l = b.K.loop in
      let profile =
        secs (fun () ->
            Fv_profiler.Profile.profile
              ~invocations:(min spec.R.invocations 4)
              l b.K.mem b.K.env)
        -. secs (fun () -> Fv_pdg.Classify.analyze l)
      in
      let flexvec = Fv_vectorizer.Gen.Flexvec in
      let oracle =
        if vectorized row then
          secs (fun () ->
              Fv_core.Oracle.check ~vl ~style:flexvec l
                (Fv_mem.Memory.clone b.K.mem) b.K.env)
          -. secs (fun () -> Fv_vectorizer.Gen.vectorize ~vl ~style:flexvec l)
        else 0.0
      in
      {
        build_s = u.build_s +. (t_build *. 1e-9);
        profile_s = u.profile_s +. profile;
        oracle_s = u.oracle_s +. oracle;
      })
    { build_s = 0.0; profile_s = 0.0; oracle_s = 0.0 }
    reference.F8.rows

let run_traced (rep : Report.t) ~seed ~seconds ~quick =
  let benchmarks = benchmarks ~quick in
  check_table2 rep ~seed benchmarks;
  let reference, _ = pass ~seed benchmarks in
  check_pass rep ~reference reference;
  let u = unspanned_estimates ~seed reference in
  let plain = Stats.samples () and traced = Stats.samples () in
  let layer_s = Hashtbl.create 8 in
  let add k v =
    Hashtbl.replace layer_s k (v +. Option.value ~default:0.0 (Hashtbl.find_opt layer_s k))
  in
  let max_rows = Stats.samples () in
  let t_run = Stats.now_ns () in
  while traced.Stats.len = 0 || Stats.since_s t_run < seconds do
    (* untraced and traced passes alternate, so drift hits both alike *)
    let gc0 = (Gc.quick_stat ()).Gc.minor_words in
    let r, ns = pass ~seed benchmarks in
    add "minor_words" ((Gc.quick_stat ()).Gc.minor_words -. gc0);
    check_pass rep ~reference r;
    Stats.add plain ns;
    let hits0 = Obs.counter "sim_cache_hits"
    and misses0 = Obs.counter "sim_cache_misses" in
    let (r, ns), events = Obs.recording (fun () -> pass ~seed benchmarks) in
    check_pass rep ~reference r;
    Stats.add traced ns;
    let hits = Obs.counter "sim_cache_hits" - hits0
    and misses = Obs.counter "sim_cache_misses" - misses0 in
    add "hits" (float_of_int hits);
    add "misses" (float_of_int misses);
    let selfs = Obs.self_times events in
    List.iter (fun (k, names) -> add k (Obs.self_sum selfs names)) Obs.layers;
    let rows = List.filter Obs.is_row events in
    let row_total = List.fold_left (fun a e -> a +. Obs.duration e) 0.0 rows in
    let row_self =
      List.fold_left (fun a (e, s) -> if Obs.is_row e then a +. s else a) 0.0 selfs
    in
    add "row_total" row_total;
    add "unattributed" (row_self -. u.build_s -. u.profile_s -. u.oracle_s);
    add "busy_frac" (row_total /. (ns *. 1e-9 *. float_of_int domains));
    Stats.add max_rows
      (List.fold_left (fun a e -> Float.max a (Obs.duration e)) 0.0 rows);
    add "uops"
      (float_of_int
         (List.fold_left
            (fun a (row : F8.row) ->
              a + row.F8.baseline.E.uops
              + if vectorized row then row.F8.flexvec.E.uops else 0)
            0 r.F8.rows))
  done;
  let passes = float_of_int traced.Stats.len in
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt layer_s k) in
  let per_pass_us k = get k /. passes *. 1e6 in
  List.iter (fun (k, _) -> Report.set rep k (per_pass_us k)) Obs.layers;
  (* the profiling probe's kernel build runs outside any span *)
  Report.set rep "harness.build_us" (per_pass_us "harness.build_us" +. (u.build_s *. 1e6));
  Report.set rep "profiler.profile_us" (u.profile_s *. 1e6);
  Report.set rep "oracle.check_us" (u.oracle_s *. 1e6);
  Report.set rep "sim.replay_uops_per_us" (get "uops" /. (get "sim.replay_us" *. 1e6));
  Report.set rep "sim.cache_hit_frac" (Stats.hit_frac (get "hits") (get "misses"));
  Report.set rep "speedup_geomean" (speedup_geomean reference);
  Report.set rep "pool.max_row_us" (Stats.median (Stats.to_array max_rows) *. 1e6);
  Report.set rep "pool.busy_frac" (get "busy_frac" /. passes);
  Report.set rep "gc.minor_words_per_op" (get "minor_words" /. passes);
  Report.set rep "unattributed_frac" (get "unattributed" /. get "row_total");
  Report.set rep "trace_overhead_frac"
    ((Stats.median (Stats.to_array traced) /. Stats.median (Stats.to_array plain))
    -. 1.0);
  Report.note rep "%.0f traced passes; rows busy %.0f%% of 2 domains"
    passes (100.0 *. get "busy_frac" /. passes)

let run (rep : Report.t) ~seed ~seconds ~quick =
  if rep.Report.trace then run_traced rep ~seed ~seconds ~quick
  else run_untraced rep ~seed ~seconds ~quick
