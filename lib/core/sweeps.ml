(** Parameter sweeps for the paper's secondary claims:

    - {b RTM tile size} (§3.3.2/§4.1): strip-mined transactional
      speculation approaches first-faulting performance at tile sizes of
      128–256 scalar iterations; smaller tiles drown in XBEGIN/XEND
      overhead.
    - {b strategy × dependency frequency} (§2): the PACT'13 wholesale
      speculation baseline collapses once dependencies fire in most
      strips; FlexVec degrades gracefully (one extra VPL partition per
      firing lane).
    - {b trip count} (§5): OOO machines need long trip counts to find
      distant vector ILP; short loops cap the benefit.
    - {b branchiness / effective vector length} (§5): guard selectivity
      dilutes SIMD utilisation. *)

module E = Experiment

(** A tunable conditional-update kernel with a sustained update rate:
    the staircase generator keeps the guard live for the whole run. *)
let tunable_cond_update ~trip ~update_rate ~near_rate seed : Fv_workloads.Kernels.built =
  let st = Fv_workloads.Data.rng (seed * 7919) in
  let sad =
    Fv_workloads.Data.descending_staircase st trip ~hi:100000 ~lo:100
      ~update_rate ~near_rate ()
  in
  let m = 64 in
  let spiral = Fv_workloads.Data.uniform_ints st trip m in
  let mv = Fv_workloads.Data.uniform_ints st m 15 in
  Fv_workloads.Kernels.min_search_speculative ~name:"tunable" ~trip ~sad
    ~spiral ~mv ~init_min:90000 ()

let tunable_mem_conflict ~trip ~repeat_rate seed : Fv_workloads.Kernels.built =
  let st = Fv_workloads.Data.rng (seed * 104729) in
  let buckets = 512 in
  let coord =
    Fv_workloads.Data.conflicting_indices st trip ~buckets ~repeat_rate
  in
  let sa = Fv_workloads.Data.uniform_ints st trip 100 in
  let qa = Array.init trip (fun k -> coord.(k) + sa.(k)) in
  let d = Fv_workloads.Data.uniform_ints st buckets 50 in
  Fv_workloads.Kernels.coord_update ~name:"tunable_mc" ~trip ~qa ~sa ~d ()

let tunable_early_exit ~trip seed : Fv_workloads.Kernels.built =
  let st = Fv_workloads.Data.rng (seed * 31) in
  let m = 256 in
  let tab = Array.init m (fun k -> 1 + ((k * 91) mod 5000)) in
  let key = 999999 in
  let data = Fv_workloads.Data.uniform_ints st trip m in
  (* hit near the end: plenty of vector work before the exit *)
  let pos = trip - 1 - Random.State.int st (max 1 (trip / 8)) in
  tab.(data.(pos)) <- key;
  for k = 0 to pos - 1 do
    if tab.(data.(k)) = key then data.(k) <- (data.(k) + 1) mod m
  done;
  Fv_workloads.Kernels.search_break ~name:"tunable_ee" ~trip ~data ~tab ~key ()

(* ------------------------------------------------------------------ *)
(* RTM tile-size sweep                                                 *)
(* ------------------------------------------------------------------ *)

type rtm_point = {
  tile : int;
  rtm_cycles : int;
  ff_cycles : int;
  scalar_cycles : int;
  rel_to_ff : float;  (** RTM cycles / first-faulting cycles *)
}

let rtm_tile_sweep ?(tiles = [ 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ])
    ?(trip = 8192) ?(seed = 5) ?mode ?domains ?faults ?rtm_retries () :
    rtm_point list =
  let build s = tunable_early_exit ~trip s in
  let inv = 4 in
  let scalar = E.run_workload ?mode ~invocations:inv ~seed E.Scalar build in
  let ff =
    E.run_workload ?mode ?faults ?rtm_retries ~invocations:inv ~seed E.Flexvec
      build
  in
  Fv_parallel.Pool.map_ordered ?domains
    (fun tile ->
      let rtm =
        E.run_workload ?mode ?faults ?rtm_retries ~invocations:inv ~seed
          (E.Rtm tile) build
      in
      {
        tile;
        rtm_cycles = rtm.E.cycles;
        ff_cycles = ff.E.cycles;
        scalar_cycles = scalar.E.cycles;
        rel_to_ff = float_of_int rtm.E.cycles /. float_of_int (max 1 ff.E.cycles);
      })
    tiles

(* ------------------------------------------------------------------ *)
(* Strategy vs dependency frequency                                    *)
(* ------------------------------------------------------------------ *)

type strategy_point = {
  rate : float;  (** dependency-fire probability per iteration *)
  scalar_c : int;
  flexvec_c : int;
  wholesale_c : int;
  flexvec_speedup : float;
  wholesale_speedup : float;
}

let strategy_sweep ?(rates = [ 0.0; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2; 0.4 ])
    ?(trip = 4096) ?(seed = 11) ?mode ?domains
    ~(pattern : [ `Cond_update | `Mem_conflict ]) () : strategy_point list =
  Fv_parallel.Pool.map_ordered ?domains
    (fun rate ->
      let build s =
        match pattern with
        | `Cond_update ->
            tunable_cond_update ~trip ~update_rate:rate ~near_rate:0.2 s
        | `Mem_conflict -> tunable_mem_conflict ~trip ~repeat_rate:rate s
      in
      let inv = 3 in
      let scalar = E.run_workload ?mode ~invocations:inv ~seed E.Scalar build in
      let fv = E.run_workload ?mode ~invocations:inv ~seed E.Flexvec build in
      let ws = E.run_workload ?mode ~invocations:inv ~seed E.Wholesale build in
      {
        rate;
        scalar_c = scalar.E.cycles;
        flexvec_c = fv.E.cycles;
        wholesale_c = ws.E.cycles;
        flexvec_speedup = E.hot_speedup ~baseline:scalar fv;
        wholesale_speedup = E.hot_speedup ~baseline:scalar ws;
      })
    rates

(* ------------------------------------------------------------------ *)
(* Trip-count sweep                                                    *)
(* ------------------------------------------------------------------ *)

type trip_point = { trip : int; speedup : float }

let trip_sweep ?(trips = [ 8; 16; 32; 64; 128; 512; 2048; 8192 ]) ?(seed = 3)
    ?mode ?domains () : trip_point list =
  Fv_parallel.Pool.map_ordered ?domains
    (fun trip ->
      let build s = tunable_cond_update ~trip ~update_rate:0.01 ~near_rate:0.2 s in
      (* total dynamic work held roughly constant *)
      let inv = max 1 (8192 / max 1 trip) in
      let scalar = E.run_workload ?mode ~invocations:inv ~seed E.Scalar build in
      let fv = E.run_workload ?mode ~invocations:inv ~seed E.Flexvec build in
      { trip; speedup = E.hot_speedup ~baseline:scalar fv })
    trips

(* ------------------------------------------------------------------ *)
(* Effective-vector-length sweep                                       *)
(* ------------------------------------------------------------------ *)

type evl_point = { update_rate : float; effective_vl : float; speedup : float }

let evl_sweep ?(rates = [ 0.002; 0.01; 0.03; 0.06; 0.12; 0.25; 0.5 ])
    ?(trip = 4096) ?(seed = 17) ?mode ?domains () : evl_point list =
  Fv_parallel.Pool.map_ordered ?domains
    (fun rate ->
      let build s = tunable_cond_update ~trip ~update_rate:rate ~near_rate:0.1 s in
      let b = build seed in
      let p =
        Fv_profiler.Profile.profile b.Fv_workloads.Kernels.loop
          b.Fv_workloads.Kernels.mem b.Fv_workloads.Kernels.env
      in
      let scalar = E.run_workload ?mode ~invocations:3 ~seed E.Scalar build in
      let fv = E.run_workload ?mode ~invocations:3 ~seed E.Flexvec build in
      {
        update_rate = rate;
        effective_vl = p.Fv_profiler.Profile.effective_vl;
        speedup = E.hot_speedup ~baseline:scalar fv;
      })
    rates

(* ------------------------------------------------------------------ *)
(* Vector-length ablation                                              *)
(* ------------------------------------------------------------------ *)

type vl_point = { vl : int; speedup : float }

(** How much of FlexVec's benefit needs the full 512-bit width? The
    paper's examples all use 16 lanes; narrower configurations pay the
    same per-strip mask machinery over fewer elements. *)
let vl_sweep ?(vls = [ 4; 8; 16 ]) ?(trip = 4096) ?(seed = 23) ?mode ?domains
    () : vl_point list =
  let build s = tunable_cond_update ~trip ~update_rate:0.01 ~near_rate:0.2 s in
  let scalar = E.run_workload ?mode ~invocations:3 ~seed E.Scalar build in
  Fv_parallel.Pool.map_ordered ?domains
    (fun vl ->
      let fv = E.run_workload ~vl ?mode ~invocations:3 ~seed E.Flexvec build in
      { vl; speedup = E.hot_speedup ~baseline:scalar fv })
    vls

(* ------------------------------------------------------------------ *)
(* Prefetcher ablation                                                 *)
(* ------------------------------------------------------------------ *)

type prefetch_point = {
  prefetch : bool;
  scalar_cycles2 : int;
  flexvec_cycles2 : int;
  speedup2 : float;
}

(** §5 attributes part of the memory-bound applications' weakness to the
    memory subsystem not being vector friendly. This ablation runs the
    same traces against a hierarchy without the stream prefetcher: both
    versions get slower, the wide unit-stride vector accesses much more
    so. *)
let prefetch_ablation ?(trip = 4096) ?(seed = 29) ?mode ?domains () :
    prefetch_point list =
  let build s = tunable_cond_update ~trip ~update_rate:0.01 ~near_rate:0.2 s in
  let trace strategy =
    let sink = Fv_trace.Sink.create ~capacity:65536 () in
    let emit u = Fv_trace.Sink.push sink u in
    let b = build seed in
    let l = b.Fv_workloads.Kernels.loop in
    let m = Fv_mem.Memory.clone b.Fv_workloads.Kernels.mem in
    let e = Fv_ir.Interp.env_of_list b.Fv_workloads.Kernels.env in
    (match strategy with
    | `Scalar ->
        let hk = Fv_ir.Interp.hooks ~emit () in
        ignore (Fv_ir.Interp.run ~hk m e l)
    | `Flexvec ->
        let vloop = Result.get_ok (Fv_vectorizer.Gen.vectorize l) in
        ignore (Fv_simd.Exec.run ~emit vloop m e));
    sink
  in
  let scalar_trace = trace `Scalar and flexvec_trace = trace `Flexvec in
  (* both points replay the same two traces; Pipeline.run only reads
     the sink, so concurrent replay is safe *)
  Fv_parallel.Pool.map_ordered ?domains
    (fun prefetch ->
      let depth = if prefetch then 4 else 0 in
      (* memoized: the prefetch depth is part of the cache key, so the
         two ablation points never alias *)
      let run t =
        (Fv_ooo.Simcache.stats ?mode ~prefetch_depth:depth t)
          .Fv_ooo.Pipeline.cycles
      in
      let sc = run scalar_trace and fc = run flexvec_trace in
      {
        prefetch;
        scalar_cycles2 = sc;
        flexvec_cycles2 = fc;
        speedup2 = float_of_int sc /. float_of_int (max 1 fc);
      })
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Per-benchmark strategy comparison                                   *)
(* ------------------------------------------------------------------ *)

type bench_strategies = {
  bench : string;
  flexvec_overall : float;
  wholesale_overall : float;
  rtm_overall : float;
}

(** Figure 8 re-run under each speculation mechanism: FlexVec partial
    vector code (first-faulting), the PACT'13 wholesale baseline, and
    FlexVec-over-RTM with the paper's recommended 256-iteration tiles.
    The paper argues FlexVec dominates; this makes the comparison
    apples-to-apples on every Table 2 benchmark. *)
let benchmark_strategies ?(seed = 42) ?(tile = 256) ?mode ?domains ?faults
    ?rtm_retries () : bench_strategies list =
  Fv_parallel.Pool.map_ordered ?domains
    (fun (spec : Fv_workloads.Registry.spec) ->
      let run strategy =
        E.run_workload ?mode ?faults ?rtm_retries
          ~invocations:spec.invocations ~seed strategy spec.build
      in
      let base = run E.Scalar in
      let overall r =
        E.overall_speedup ~coverage:spec.coverage
          ~hot:(E.hot_speedup ~baseline:base r)
      in
      {
        bench = spec.name;
        flexvec_overall = overall (run E.Flexvec);
        wholesale_overall = overall (run E.Wholesale);
        rtm_overall = overall (run (E.Rtm tile));
      })
    Fv_workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Fault-injection sweep                                               *)
(* ------------------------------------------------------------------ *)

type fault_point = {
  f_rate : float;  (** injected fault probability per access *)
  f_tile : int;  (** RTM tile size (scalar iterations) *)
  f_tiles : int;
  f_commits : int;
  f_aborts : int;
  f_capacity_aborts : int;
  f_retries : int;
  f_retried_commits : int;
  f_scalar_iters : int;  (** iterations re-executed scalar after aborts *)
  f_injected : int;  (** injected faults actually delivered *)
  f_abort_rate : float;  (** aborts / transactional attempts *)
  f_retry_success : float;
      (** of the tiles whose first attempt aborted on a retryable
          fault, the fraction eventually committed transactionally
          (1.0 when no tile ever aborted) *)
}

(** RTM robustness under injected faults: for each (tile size, fault
    rate) point, run the strip-mined transactional execution with a
    seeded probabilistic plan attached and record how the abort/retry/
    scalar-fallback machinery responded. Every point is verified
    against an injection-free scalar reference — a divergence raises,
    which {!Fv_parallel.Pool.map} captures as that point's error
    row rather than sinking the sweep. *)
let fault_sweep ?(rates = [ 0.0; 0.0005; 0.002; 0.008; 0.03 ])
    ?(tiles = [ 64; 256; 1024 ]) ?(trip = 4096) ?(seed = 7) ?(retries = 2)
    ?domains () : (fault_point, Fv_parallel.Pool.failure) result list =
  let points =
    List.concat_map (fun f_tile -> List.map (fun r -> (f_tile, r)) rates) tiles
  in
  Fv_parallel.Pool.map ?domains
    (fun (f_tile, f_rate) ->
      let b = tunable_cond_update ~trip ~update_rate:0.01 ~near_rate:0.2 seed in
      let l = b.Fv_workloads.Kernels.loop in
      let vloop =
        match Fv_vectorizer.Gen.vectorize ~vl:16 l with
        | Ok v -> v
        | Error e ->
            failwith
              ("fault sweep: not vectorizable: " ^ Fv_ir.Validate.describe e)
      in
      let module Memory = Fv_mem.Memory in
      let ms = Memory.clone b.Fv_workloads.Kernels.mem
      and es = Fv_ir.Interp.env_of_list b.Fv_workloads.Kernels.env in
      ignore (Fv_ir.Interp.run ms es l);
      let mr = Memory.clone b.Fv_workloads.Kernels.mem
      and er = Fv_ir.Interp.env_of_list b.Fv_workloads.Kernels.env in
      Memory.set_fault_plan mr
        (Some (Fv_faults.Plan.make ~rate:f_rate ~seed ()));
      let r = Fv_simd.Rtm_run.run ~retries ~tile:f_tile vloop mr er in
      (match (Oracle.compare_memories ms mr, Oracle.compare_env l es er) with
      | Ok (), Ok () -> ()
      | Error e, _ | _, Error e ->
          failwith
            (Fmt.str "fault sweep (tile=%d rate=%g): diverged from scalar: %s"
               f_tile f_rate e));
      let open Fv_simd.Rtm_run in
      let attempts = r.tiles + r.retries in
      let scalar_tiles = r.tiles - r.commits in
      let retry_denom = r.retried_commits + scalar_tiles in
      {
        f_rate;
        f_tile;
        f_tiles = r.tiles;
        f_commits = r.commits;
        f_aborts = r.aborts;
        f_capacity_aborts = r.capacity_aborts;
        f_retries = r.retries;
        f_retried_commits = r.retried_commits;
        f_scalar_iters = r.scalar_iters;
        f_injected = mr.Memory.injected_faults;
        f_abort_rate =
          (if attempts = 0 then 0.0
           else float_of_int r.aborts /. float_of_int attempts);
        f_retry_success =
          (if retry_denom = 0 then 1.0
           else float_of_int r.retried_commits /. float_of_int retry_denom);
      })
    points
