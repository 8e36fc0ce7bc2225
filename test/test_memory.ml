(** Memory model and cache hierarchy. *)

open Fv_isa
module Memory = Fv_mem.Memory
module Cache = Fv_memsys.Cache
module Hierarchy = Fv_memsys.Hierarchy

let value = Alcotest.testable Value.pp Value.equal

let test_alloc_load_store () =
  let m = Memory.create () in
  let base = Memory.alloc_ints m "a" [| 10; 20; 30 |] in
  Alcotest.check value "load" (Value.Int 20) (Memory.load m (base + 1));
  Memory.store m (base + 1) (Value.Int 99);
  Alcotest.check value "store" (Value.Int 99) (Memory.get m "a" 1)

let test_guard_gaps_fault () =
  let m = Memory.create () in
  let base_a = Memory.alloc_ints m "a" [| 1; 2 |] in
  ignore (Memory.alloc_ints m "b" [| 3; 4 |]);
  (* just past a's end is a guard gap, not b *)
  (match Memory.load_opt m (base_a + 2) with
  | Error f -> Alcotest.(check bool) "read fault" false f.write
  | Ok _ -> Alcotest.fail "expected fault");
  match Memory.store_opt m (base_a + 2) (Value.Int 0) with
  | Error f -> Alcotest.(check bool) "write fault" true f.write
  | Ok _ -> Alcotest.fail "expected fault"

let test_duplicate_alloc_rejected () =
  let m = Memory.create () in
  ignore (Memory.alloc_ints m "a" [| 1 |]);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Memory.alloc: duplicate allocation \"a\"") (fun () ->
      ignore (Memory.alloc_ints m "a" [| 2 |]))

let test_snapshot_restore () =
  let m = Memory.create () in
  ignore (Memory.alloc_ints m "a" [| 1; 2; 3 |]);
  let snap = Memory.snapshot m in
  Memory.set m "a" 0 (Value.Int 42);
  Memory.restore m snap;
  Alcotest.check value "restored" (Value.Int 1) (Memory.get m "a" 0)

let test_clone_is_independent () =
  let m = Memory.create () in
  ignore (Memory.alloc_ints m "a" [| 1 |]);
  let c = Memory.clone m in
  Memory.set m "a" 0 (Value.Int 7);
  Alcotest.check value "clone unchanged" (Value.Int 1) (Memory.get c "a" 0);
  Alcotest.(check bool) "contents differ" false (Memory.equal_contents m c)

(* ---------------- randomized snapshot/clone properties ------------- *)

module G = QCheck2.Gen

(* a random memory image: 1–4 named int arrays plus a stream of
   in-bounds mutations to apply *)
let gen_image : (string * int array) list G.t =
  let open G in
  let* n = int_range 1 4 in
  let arr = array_size (int_range 1 24) (int_range (-1000) 1000) in
  let* arrays = list_size (return n) arr in
  return (List.mapi (fun i a -> (Printf.sprintf "arr%d" i, a)) arrays)

let gen_mutations image : (string * int * int) list G.t =
  let open G in
  list_size (int_range 0 32)
    (let* name, data = oneofl image in
     let* idx = int_range 0 (Array.length data - 1) in
     let* v = int_range (-1000) 1000 in
     return (name, idx, v))

let build_memory image =
  let m = Memory.create () in
  List.iter (fun (name, data) -> ignore (Memory.alloc_ints m name data)) image;
  m

let apply_mutations m muts =
  List.iter (fun (name, idx, v) -> Memory.set m name idx (Value.Int v)) muts

let gen_scenario =
  let open G in
  let* image = gen_image in
  let* muts_before = gen_mutations image in
  let* muts_after = gen_mutations image in
  return (image, muts_before, muts_after)

let print_scenario (image, before, after) =
  Fmt.str "arrays=[%a] before=%d muts after=%d muts"
    Fmt.(list ~sep:comma (pair ~sep:(any ":") string (any "#")))
    (List.map (fun (n, a) -> (n, Array.length a)) image)
    (List.length before) (List.length after)

let prop_snapshot_restore_roundtrip =
  QCheck2.Test.make ~count:200 ~print:print_scenario
    ~name:"snapshot/restore round-trips arbitrary mutations" gen_scenario
    (fun (image, muts_before, muts_after) ->
      let m = build_memory image in
      apply_mutations m muts_before;
      let reference = Memory.clone m in
      let snap = Memory.snapshot m in
      apply_mutations m muts_after;
      Memory.restore m snap;
      Memory.equal_contents m reference
      || QCheck2.Test.fail_report "restore did not reproduce snapshot state")

let prop_clone_independent =
  QCheck2.Test.make ~count:200 ~print:print_scenario
    ~name:"clone is independent and preserves base addresses" gen_scenario
    (fun (image, muts_before, muts_after) ->
      let m = build_memory image in
      apply_mutations m muts_before;
      let c = Memory.clone m in
      List.iter
        (fun (name, _) ->
          if Memory.base_of c name <> Memory.base_of m name then
            QCheck2.Test.fail_reportf
              "clone relocated %s: %d <> %d (scalar and vector runs must \
               share an address map)"
              name (Memory.base_of c name) (Memory.base_of m name))
        image;
      let reference = Memory.clone m in
      (* mutations on the original must not leak into the clone,
         and vice versa *)
      apply_mutations m muts_after;
      let clone_untouched = Memory.equal_contents c reference in
      let m_now = Memory.clone m in
      apply_mutations c muts_after;
      apply_mutations c muts_before;
      let original_untouched = Memory.equal_contents m m_now in
      (clone_untouched
      || QCheck2.Test.fail_report "mutating the original changed the clone")
      && (original_untouched
         || QCheck2.Test.fail_report "mutating the clone changed the original"))

let test_cache_hit_miss () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~ways:2 () in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit" true (Cache.access c 0);
  Alcotest.(check bool) "same line" true (Cache.access c 15);
  Alcotest.(check bool) "next line" false (Cache.access c 16)

let test_cache_lru_eviction () =
  (* 1KB, 2-way, 64B lines -> 16 lines, 8 sets; three lines mapping to
     the same set evict the least recently used *)
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~ways:2 () in
  let line_elems = 16 and sets = 8 in
  let addr_of_line l = l * line_elems in
  let l0 = 0 and l1 = sets and l2 = 2 * sets in
  ignore (Cache.access c (addr_of_line l0));
  ignore (Cache.access c (addr_of_line l1));
  ignore (Cache.access c (addr_of_line l0));
  (* l1 is now LRU; l2 evicts it *)
  ignore (Cache.access c (addr_of_line l2));
  Alcotest.(check bool) "l0 still cached" true (Cache.access c (addr_of_line l0));
  Alcotest.(check bool) "l1 evicted" false (Cache.access c (addr_of_line l1))

let test_hierarchy_latencies () =
  let h = Hierarchy.table1 ~prefetch_depth:0 () in
  Alcotest.(check int) "cold: memory" 200 (Hierarchy.access h 4096);
  Alcotest.(check int) "L1 hit" 4 (Hierarchy.access h 4096);
  (* evict from L1 only: touch enough distinct lines to roll L1 over *)
  for l = 1 to 600 do
    ignore (Hierarchy.access h (4096 + (l * 16)))
  done;
  let lat = Hierarchy.access h 4096 in
  Alcotest.(check bool) "L2-or-L3 hit after L1 eviction" true
    (lat = 12 || lat = 25)

let test_prefetcher_hides_stream () =
  let h = Hierarchy.table1 () in
  (* walk a long unit-stride stream; after training, line-granule misses
     should mostly disappear *)
  let misses = ref 0 in
  for a = 0 to 16 * 512 do
    if Hierarchy.access h a > 4 then incr misses
  done;
  Alcotest.(check bool)
    (Printf.sprintf "few stream misses (%d)" !misses)
    true (!misses < 20)

(* ---------------- exact reset and negative addresses ------------- *)

(* One access: a unit-stride range of [n] elements at [addr]. The bases
   step by 4096 lines, which maps every base to the same set in L1, L2
   and L3; 41 bases overflow even the L3's 32 ways. Small offsets keep a
   stream within a few sets (evictions, LRU order, stream training),
   large ones spread it over many. *)
let gen_stream : (int * int) list G.t =
  let open G in
  list_size (int_range 0 400)
    (let* base = int_range 0 40 in
     let* off = oneof [ int_range 0 63; int_range 0 4095 ] in
     let* n = oneof [ return 1; int_range 1 32 ] in
     return ((base * 16 * 4096) + off, n))

let run_stream h stream =
  List.map (fun (addr, n) -> Hierarchy.access_range h addr n) stream

let counters (h : Hierarchy.t) =
  List.concat_map
    (fun (c : Cache.t) -> [ c.Cache.hits; c.Cache.misses ])
    [ h.Hierarchy.l1; h.Hierarchy.l2; h.Hierarchy.l3 ]
  @ [ h.Hierarchy.prefetches ]

(* Dirty a hierarchy, reset it, and replay a second stream: every
   latency and every counter must match a fresh [table1]. *)
let prop_reset_is_cold depth =
  QCheck2.Test.make ~count:60
    ~print:(fun (dirty, probe) ->
      Printf.sprintf "dirty stream of %d accesses, probe of %d"
        (List.length dirty) (List.length probe))
    ~name:
      (Printf.sprintf "reset hierarchy replays like a fresh one (prefetch %d)"
         depth)
    G.(pair gen_stream gen_stream)
    (fun (dirty, probe) ->
      let h = Hierarchy.table1 ~prefetch_depth:depth () in
      ignore (run_stream h dirty);
      Hierarchy.reset h;
      let fresh = Hierarchy.table1 ~prefetch_depth:depth () in
      let got = run_stream h probe in
      let want = run_stream fresh probe in
      (got = want || QCheck2.Test.fail_report "per-access latencies differ")
      && (counters h = counters fresh
         || QCheck2.Test.fail_report "hit/miss/prefetch counters differ"))

(* Field by field: a reset cache is the one [create] builds. *)
let test_reset_state_is_fresh () =
  let same (a : Cache.t) (b : Cache.t) =
    a.Cache.tags = b.Cache.tags && a.Cache.lru = b.Cache.lru
    && a.Cache.nfilled = b.Cache.nfilled
    && a.Cache.stamp = b.Cache.stamp
    && a.Cache.hits = b.Cache.hits
    && a.Cache.misses = b.Cache.misses
  in
  let h = Hierarchy.table1 () in
  for a = 0 to 20_000 do
    ignore (Hierarchy.access h ((a * 37) land 0xfffff))
  done;
  Alcotest.(check bool) "dirty L3 differs" false
    (same h.Hierarchy.l3 (Hierarchy.table1 ()).Hierarchy.l3);
  Hierarchy.reset h;
  let fresh = Hierarchy.table1 () in
  List.iter
    (fun (name, a, b) -> Alcotest.(check bool) name true (same a b))
    [
      ("L1", h.Hierarchy.l1, fresh.Hierarchy.l1);
      ("L2", h.Hierarchy.l2, fresh.Hierarchy.l2);
      ("L3", h.Hierarchy.l3, fresh.Hierarchy.l3);
    ];
  Alcotest.(check (array int))
    "stream table" fresh.Hierarchy.prefetch_streams
    h.Hierarchy.prefetch_streams;
  Alcotest.(check int) "prefetches" 0 h.Hierarchy.prefetches

(* Negative addresses (unmapped speculative accesses) floor to their
   line and land in a set inside the tag arrays, for power-of-two
   geometries and others. *)
let test_negative_addresses () =
  let h = Hierarchy.table1 () in
  (* 24 lines of 12 elements in 12 sets: neither is a power of two *)
  let odd =
    Cache.create ~name:"odd" ~size_bytes:(24 * 48) ~ways:2 ~line_bytes:48 ()
  in
  let probes =
    List.init 5000 (fun i -> -i - 1)
    @ [ -(1 lsl 20); -(1 lsl 40) - 3; min_int / 2; 0; 15; 16; 1 lsl 30 ]
  in
  List.iter
    (fun (c : Cache.t) ->
      let bad =
        List.filter
          (fun a ->
            let l = Cache.line_of c a in
            let s = Cache.set_of c l in
            l * c.Cache.line_elems > a
            || a >= (l + 1) * c.Cache.line_elems
            || s < 0 || s >= c.Cache.sets)
          probes
      in
      Alcotest.(check (list int))
        (c.Cache.name ^ ": every address floors to its line and set")
        [] bad)
    [ h.Hierarchy.l1; h.Hierarchy.l2; h.Hierarchy.l3; odd ];
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~ways:2 () in
  Alcotest.(check bool) "line -1 misses cold" false (Cache.access c (-1));
  Alcotest.(check bool) "same line hits" true (Cache.access c (-16));
  Alcotest.(check bool) "line -2 misses" false (Cache.access c (-17));
  Alcotest.(check bool) "line 0 is another line" false (Cache.access c 0);
  Alcotest.(check int) "hierarchy: line -1 misses cold" 200
    (Hierarchy.access (Hierarchy.table1 ~prefetch_depth:0 ()) (-1))

let suite =
  [
    Alcotest.test_case "alloc/load/store" `Quick test_alloc_load_store;
    Alcotest.test_case "guard gaps fault" `Quick test_guard_gaps_fault;
    Alcotest.test_case "duplicate alloc rejected" `Quick
      test_duplicate_alloc_rejected;
    Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
    Alcotest.test_case "clone independence" `Quick test_clone_is_independent;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "hierarchy latencies" `Quick test_hierarchy_latencies;
    Alcotest.test_case "stream prefetcher" `Quick test_prefetcher_hides_stream;
    Alcotest.test_case "reset restores the fresh cache state" `Quick
      test_reset_state_is_fresh;
    Alcotest.test_case "negative addresses stay inside the tag arrays" `Quick
      test_negative_addresses;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_snapshot_restore_roundtrip;
        prop_clone_independent;
        prop_reset_is_cold 0;
        prop_reset_is_cold 4;
      ]
