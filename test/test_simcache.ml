(** The whole-trace memo cache ({!Fv_ooo.Simcache}) must be invisible:
    a cached replay returns bit-identical statistics to a fresh
    {!Fv_ooo.Pipeline.run}, across every registry kernel, strategy and
    fault seed — and the key must be sound, so changing the fault plan,
    the machine, the prefetch depth, the mode or the watchdog threshold
    can never serve a stale entry. Replays borrow pooled hierarchies
    ({!Fv_memsys.Hierarchy.with_cold}), so the oracle is also run on
    hierarchies dirtied by other traces, by a canceled replay and by
    concurrent domains. *)

open Fv_isa
module Sink = Fv_trace.Sink
module Uop = Fv_trace.Uop
module Pipeline = Fv_ooo.Pipeline
module Machine = Fv_ooo.Machine
module Simcache = Fv_ooo.Simcache
module Plan = Fv_faults.Plan
module K = Fv_workloads.Kernels
module R = Fv_workloads.Registry

let counter name =
  match
    List.find_opt
      (fun s ->
        s.Fv_obs.Metrics.s_name = name && s.Fv_obs.Metrics.s_labels = [])
      (Fv_obs.Metrics.snapshot Fv_obs.Metrics.global)
  with
  | Some s -> s.Fv_obs.Metrics.s_count
  | None -> 0

(* one kernel invocation traced under a strategy, with an optional
   fault plan attached to the traced memory (FlexVec only — mirroring
   {!Fv_core.Experiment.plan_for}) *)
let trace_kernel ?plan (spec : R.spec) strategy : Sink.t =
  let sink = Sink.create ~capacity:4096 () in
  let emit = sink in
  let b = spec.build 42 in
  let m = Fv_mem.Memory.clone b.K.mem in
  let e = Fv_ir.Interp.env_of_list b.K.env in
  (match strategy with
  | `Scalar ->
      let hk = Fv_ir.Interp.hooks ~emit () in
      ignore (Fv_ir.Interp.run ~hk m e b.K.loop)
  | `Flexvec -> (
      match Fv_vectorizer.Gen.vectorize b.K.loop with
      | Ok vloop ->
          Fv_mem.Memory.set_fault_plan m plan;
          ignore (Fv_simd.Exec.run ~emit vloop m e)
      | Error _ ->
          let hk = Fv_ir.Interp.hooks ~emit () in
          ignore (Fv_ir.Interp.run ~hk m e b.K.loop)));
  sink

let label (spec : R.spec) strategy fault_key =
  Printf.sprintf "%s/%s/%s" spec.name
    (match strategy with `Scalar -> "scalar" | `Flexvec -> "flexvec")
    fault_key

(* Every kernel x {scalar, flexvec} x {no faults, seed 1, seed 2}: the
   first cached call must equal a fresh uncached replay, and the second
   cached call (a hit) must equal the first. Then, after a clear, every
   case again in reverse order: each miss now replays on a pooled
   hierarchy that other traces dirtied, and must still equal fresh. *)
let test_cached_equals_fresh_all_kernels () =
  Simcache.clear ();
  let cases =
    List.concat_map
      (fun (spec : R.spec) ->
        List.map
          (fun (strategy, plan) ->
            let sink = trace_kernel ?plan spec strategy in
            let fresh =
              Pipeline.run ~hier:(Fv_memsys.Hierarchy.table1 ()) sink
            in
            let fault_key = Plan.fingerprint plan in
            let c1 = Simcache.stats ~fault_key sink in
            let c2 = Simcache.stats ~fault_key sink in
            let msg suffix =
              Printf.sprintf "%s: %s" (label spec strategy fault_key) suffix
            in
            Alcotest.(check bool)
              (msg "cached == fresh") true
              (compare fresh c1 = 0);
            Alcotest.(check bool) (msg "hit == miss") true (compare c1 c2 = 0);
            (spec, strategy, plan, fresh))
          [
            (`Scalar, None);
            (`Flexvec, None);
            (`Flexvec, Some (Plan.make ~rate:0.05 ~seed:1 ()));
            (`Flexvec, Some (Plan.make ~rate:0.05 ~seed:2 ()));
          ])
      R.all
  in
  Simcache.clear ();
  List.iter
    (fun (spec, strategy, plan, fresh) ->
      let fault_key = Plan.fingerprint plan in
      let again =
        Simcache.stats ~fault_key (trace_kernel ?plan spec strategy)
      in
      Alcotest.(check bool)
        (label spec strategy fault_key ^ ": reused hierarchy == fresh")
        true
        (compare fresh again = 0))
    (List.rev cases)

let chain n =
  let s = Sink.create () in
  for _ = 1 to n do
    Sink.push s (Uop.make ~dst:"x" ~srcs:[ "x" ] Latency.Int_alu)
  done;
  s

(* The hit/miss counters move, and a repeat is a hit (one table entry). *)
let test_hit_miss_counters () =
  Simcache.clear ();
  let s = chain 50 in
  let h0 = counter "sim_cache_hits" and m0 = counter "sim_cache_misses" in
  ignore (Simcache.stats s);
  Alcotest.(check int) "first call misses" (m0 + 1)
    (counter "sim_cache_misses");
  ignore (Simcache.stats s);
  Alcotest.(check int) "second call hits" (h0 + 1) (counter "sim_cache_hits");
  Alcotest.(check int) "one entry stored" 1 (Simcache.size ())

(* Key soundness: every key component separates entries. *)
let test_key_separates () =
  Simcache.clear ();
  let s = chain 50 in
  ignore (Simcache.stats s);
  Alcotest.(check int) "baseline entry" 1 (Simcache.size ());
  ignore (Simcache.stats ~fault_key:"rate=0x1p-5 seed=7 nth= protected=" s);
  Alcotest.(check int) "fault plan change misses" 2 (Simcache.size ());
  let tiny = { Machine.table1 with Machine.alu_ports = 2 } in
  ignore (Simcache.stats ~cfg:tiny s);
  Alcotest.(check int) "machine change misses" 3 (Simcache.size ());
  ignore (Simcache.stats ~prefetch_depth:0 s);
  Alcotest.(check int) "prefetch depth change misses" 4 (Simcache.size ());
  ignore (Simcache.stats ~max_cycles:1000 s);
  Alcotest.(check int) "watchdog change misses" 5 (Simcache.size ())

(* A recording run bypasses the cache lookup (the stage-cycle log is a
   side effect a cached result cannot replay) but still stores its
   statistics, so the untraced replay that follows is a hit. *)
let test_record_bypasses () =
  Simcache.clear ();
  let s = chain 50 in
  let b0 = counter "sim_cache_bypass" in
  let h0 = counter "sim_cache_hits" in
  let recorded = Simcache.stats ~record:(Pipeline.timing ()) s in
  Alcotest.(check int) "bypass stores its result" 1 (Simcache.size ());
  Alcotest.(check int) "bypass counted" (b0 + 1) (counter "sim_cache_bypass");
  let cached = Simcache.stats s in
  Alcotest.(check int) "untraced replay hits" (h0 + 1)
    (counter "sim_cache_hits");
  Alcotest.(check bool)
    "recorded stats == cached stats" true
    (compare recorded cached = 0)

(* distinct single-op chains: chain n and chain m (n <> m) differ in
   k_len, so each is its own entry *)
let chains lo hi = List.init (hi - lo + 1) (fun i -> chain (lo + i))

(* Bounded eviction across the capacity boundary: the table never
   exceeds its cap, is never flushed to empty, and a repeatedly-hit
   entry keeps hitting while a stream of distinct traces overflows the
   table — the regression the old flush-the-world cap failed (every
   crossing dropped the whole table, so the hot entry's hit rate went
   to zero). *)
let test_bounded_eviction () =
  Simcache.set_capacity 8;
  Fun.protect
    ~finally:(fun () -> Simcache.set_capacity 4096)
    (fun () ->
      let hot = chain 1000 in
      ignore (Simcache.stats hot);
      let h0 = counter "sim_cache_hits" in
      let e0 = counter "sim_cache_evictions" in
      List.iter
        (fun s ->
          (* re-touch the hot entry while the stream overflows the
             table: second chance keeps re-hit entries resident *)
          ignore (Simcache.stats hot);
          ignore (Simcache.stats s))
        (chains 1 20);
      (* 21+ distinct entries through a cap of 8: full, never flushed *)
      Alcotest.(check int) "table sits exactly at cap" 8 (Simcache.size ());
      Alcotest.(check bool)
        "evictions counted" true
        (counter "sim_cache_evictions" - e0 >= 21 - 8);
      Alcotest.(check bool)
        (Printf.sprintf "hit rate stays nonzero across the cap (%d hits)"
           (counter "sim_cache_hits" - h0))
        true
        (counter "sim_cache_hits" - h0 >= 15))

(* The content hash is deterministic, sensitive to any simulated field,
   and invariant under consistent register renaming. *)
let test_compiled_hash () =
  let s = chain 100 in
  let h1 = Sink.hash s in
  let h2 = Sink.hash s in
  Alcotest.(check bool) "hash deterministic" true (Int64.equal h1 h2);
  let s' = chain 100 in
  Sink.push s' (Uop.make ~dst:"y" ~srcs:[ "x" ] Latency.Int_alu);
  let h3 = Sink.hash s' in
  Alcotest.(check bool) "one extra uop changes the hash" false
    (Int64.equal h1 h3);
  (* same structure, every register consistently renamed: ids match, so
     the hash must too *)
  let renamed = Sink.create () in
  for _ = 1 to 100 do
    Sink.push renamed (Uop.make ~dst:"zz" ~srcs:[ "zz" ] Latency.Int_alu)
  done;
  let h4 = Sink.hash renamed in
  Alcotest.(check bool) "alpha-renaming preserves the hash" true
    (Int64.equal h1 h4);
  (* ...but a different dependence structure does not *)
  let split = Sink.create () in
  for i = 1 to 100 do
    let r = if i mod 2 = 0 then "a" else "b" in
    Sink.push split (Uop.make ~dst:r ~srcs:[ r ] Latency.Int_alu)
  done;
  let h5 = Sink.hash split in
  Alcotest.(check bool) "different dependence structure differs" false
    (Int64.equal h1 h5)

module G = QCheck2.Gen

(* random uops: registers from a small pool of shared strings plus
   freshly built names (equal contents, distinct objects), so interning
   meets both of its lookup paths *)
let gen_uops : Uop.t list G.t =
  let open G in
  let reg =
    oneof
      [
        oneofl [ "a"; "b"; "c"; "x" ];
        map (fun n -> "t" ^ string_of_int n) (int_range 0 40);
      ]
  in
  let uop =
    let* cls =
      oneof
        [
          return Latency.Branch;
          map Latency.of_code (int_range 0 (Latency.ncodes - 1));
        ]
    in
    let* srcs = list_size (int_range 0 3) reg in
    let* dst = opt reg in
    let* addr = opt (int_range (-5000) 5000) in
    let* nelems = int_range 1 16 in
    let* label = oneofl [ ""; "L1"; "L2"; "back" ] in
    let* taken = bool in
    return (Uop.make ?dst ~srcs ?addr ~nelems ~label ~taken cls)
  in
  list_size (int_range 0 600) uop

let print_uops us =
  String.concat "; "
    (List.map
       (fun (u : Uop.t) ->
         Printf.sprintf "%s %s<-[%s]%s x%d %S%s"
           (Latency.show_uop_class u.cls)
           (Option.value u.dst ~default:"-")
           (String.concat "," u.srcs)
           (match u.addr with Some a -> Printf.sprintf " @%d" a | None -> "")
           u.nelems u.label
           (if u.taken then " T" else ""))
       us)

let sink_of ?capacity us =
  let s = Sink.create ?capacity () in
  List.iter (Sink.push s) us;
  s

(* The sink records what it is given: [to_array] rebuilds exactly the
   pushed uops, growing from one slot changes nothing (so the hash
   folded across growth is right), and a consistent injective renaming
   of the registers leaves the hash alone. *)
let prop_sink_round_trip =
  QCheck2.Test.make ~count:200 ~print:print_uops
    ~name:"sink: to_array round-trips, growth and renaming keep the hash"
    gen_uops (fun us ->
      let s = sink_of us and s1 = sink_of ~capacity:1 us in
      let renamed =
        sink_of
          (List.map
             (fun (u : Uop.t) ->
               let r x = "renamed." ^ x in
               { u with dst = Option.map r u.dst; srcs = List.map r u.srcs })
             us)
      in
      if Array.to_list (Sink.to_array s) <> us then
        QCheck2.Test.fail_report "to_array differs from the pushed uops";
      if
        Sink.length s1 <> Sink.length s
        || Sink.nregs s1 <> Sink.nregs s
        || not (Int64.equal (Sink.hash s1) (Sink.hash s))
        || Sink.to_array s1 <> Sink.to_array s
      then QCheck2.Test.fail_report "a one-slot sink differs after growth";
      if
        Sink.nregs renamed <> Sink.nregs s
        || not (Int64.equal (Sink.hash renamed) (Sink.hash s))
      then QCheck2.Test.fail_report "renaming the registers moved the hash";
      true)

(* [n] loads, one line apart: every replay fills thousands of sets *)
let loads n =
  let s = Sink.create () in
  for i = 0 to n - 1 do
    Sink.push s (Uop.make ~dst:"x" ~addr:(i * 16) Latency.Load)
  done;
  s

let fresh_run s = Pipeline.run ~hier:(Fv_memsys.Hierarchy.table1 ()) s

(* A replay canceled mid-trace returns its hierarchy to the pool dirty
   (the budget is polled after 4096 scheduler rounds, thousands of loads
   in); the next replays must still see a cold hierarchy. *)
let test_canceled_replay_leaves_no_trace () =
  Simcache.clear ();
  let long = loads 50_000 in
  let budget = Fv_parallel.Budget.create ~deadline_s:0.0 () in
  (match Simcache.stats ~budget long with
  | _ -> Alcotest.fail "a past deadline must cancel the replay"
  | exception Fv_parallel.Budget.Canceled _ -> ());
  Alcotest.(check int) "the canceled replay is not memoized" 0
    (Simcache.size ());
  let probe = trace_kernel (List.hd R.all) `Flexvec in
  Alcotest.(check bool)
    "next replay == fresh" true
    (compare (fresh_run probe) (Simcache.stats probe) = 0);
  Alcotest.(check bool)
    "the canceled trace itself == fresh" true
    (compare (fresh_run long) (Simcache.stats long) = 0)

(* Replays on four domains at once, each on its own pooled hierarchy,
   equal serial replays on fresh ones. *)
let test_parallel_replays_equal_fresh () =
  let sinks =
    List.concat_map
      (fun spec -> [ trace_kernel spec `Scalar; trace_kernel spec `Flexvec ])
      R.all
  in
  let fresh = List.map fresh_run sinks in
  Simcache.clear ();
  let got = Fv_parallel.Pool.map ~domains:4 Simcache.stats sinks in
  List.iteri
    (fun i (want, got) ->
      match got with
      | Ok s ->
          Alcotest.(check bool)
            (Printf.sprintf "trace %d: parallel == fresh" i)
            true
            (compare want s = 0)
      | Error e ->
          Alcotest.failf "trace %d: %s" i (Fv_parallel.Pool.failure_message e))
    (List.combine fresh got)

(* Hundreds of replays build no more hierarchies than ran at once: at
   most one per worker domain, and none once the pool holds a free one. *)
let test_hierarchy_pool_bounded () =
  Simcache.clear ();
  let built () = counter "sim_hierarchies_built" in
  let b0 = built () in
  let results = Fv_parallel.Pool.map ~domains:4 Simcache.stats (chains 1 300) in
  Alcotest.(check bool)
    "every replay answered" true
    (List.for_all Result.is_ok results);
  let workers = min 4 (Domain.recommended_domain_count ()) in
  Alcotest.(check bool)
    (Printf.sprintf "%d built for %d workers" (built () - b0) workers)
    true
    (built () - b0 <= workers);
  let b1 = built () in
  List.iter (fun s -> ignore (Simcache.stats s)) (chains 301 500);
  Alcotest.(check int) "serial replays reuse the pool" b1 (built ())

let suite =
  [
    Alcotest.test_case "cached == fresh on every kernel/strategy/faults"
      `Slow test_cached_equals_fresh_all_kernels;
    Alcotest.test_case "hit and miss counters move" `Quick
      test_hit_miss_counters;
    Alcotest.test_case "every key component separates entries" `Quick
      test_key_separates;
    Alcotest.test_case "recording runs bypass lookup but store" `Quick
      test_record_bypasses;
    Alcotest.test_case "bounded eviction: at cap, hot entries survive" `Quick
      test_bounded_eviction;
    Alcotest.test_case "content hash: deterministic, sensitive, alpha-blind"
      `Quick test_compiled_hash;
    Alcotest.test_case "a canceled replay leaves the next one cold" `Quick
      test_canceled_replay_leaves_no_trace;
    Alcotest.test_case "4-domain replays == fresh serial replays" `Slow
      test_parallel_replays_equal_fresh;
    Alcotest.test_case "hierarchy pool: at most one per worker" `Quick
      test_hierarchy_pool_bounded;
    QCheck_alcotest.to_alcotest prop_sink_round_trip;
  ]
