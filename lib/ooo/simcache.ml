(** Whole-trace memoization of {!Pipeline.stats}.

    [Pipeline.run] is deterministic: the statistics are a pure function
    of the trace content, the machine configuration, the hierarchy
    configuration (geometry is fixed; only the prefetch depth varies)
    and the watchdog threshold — every replay starts from a cold
    hierarchy and a fresh predictor, and runs the event-driven
    scheduler, whose statistics the stepped one reproduces bit for bit
    ({!Pipeline.run}'s [?mode]; the tests compare the two). The sweeps
    re-simulate identical traces dozens of times (the strategy
    comparison re-runs every Figure 8 workload verbatim), so a
    process-wide cache keyed on those inputs turns the repeats into
    hashtable hits.

    The key carries the trace's FNV-1a content hash ({!Sink.hash},
    folded as the trace was recorded, so building the key never walks
    the trace) plus its length and register count, the full
    {!Machine.t} (a flat int record, compared structurally), the
    prefetch depth, the watchdog threshold, and the caller's
    fault-plan fingerprint. The fingerprint is belt-and-braces: injected
    faults change the {e trace} (recovery uops appear), so the content
    hash already separates faulted from unfaulted runs — but keying on
    the plan too guarantees that a fault-plan change can never return a
    stale entry even through a hash collision between the two traces.

    The table is bounded by {!Fv_cache.Second_chance} (shared with the
    compile service's plan cache): at capacity it evicts one
    not-recently-hit entry per insertion instead of flushing the world,
    so a runaway caller (the fuzzer's endless distinct traces) cannot
    grow it without bound and steady-state repeats keep hitting across
    the cap boundary.

    Runs that record a stage-cycle log run the instrumented simulator
    directly — the log is a side effect a cached result cannot replay —
    but still {e store} their (identical with or without recording)
    statistics, so a traced run warms the cache for the untraced replay
    that usually follows it.

    The cold hierarchy is not allocated per replay: an uncached replay
    borrows one from {!Fv_memsys.Hierarchy.with_cold}'s pool, reset to
    exactly the state [Hierarchy.table1 ~prefetch_depth ()] builds, so
    the statistics are those of a fresh hierarchy without the 2 MiB
    Table 1 model (mostly the L3's tags and stamps) allocated each time.

    Shared across domains behind a mutex; the simulation itself runs
    outside the lock, so two domains racing on the same key at worst
    both compute (identical) results. Counted in
    {!Fv_obs.Metrics.global}: [sim_cache_hits] / [sim_cache_misses] /
    [sim_cache_bypass] / [sim_cache_evictions]. *)

module Sink = Fv_trace.Sink

type key = {
  k_hash : int64;  (** {!Sink.hash} of the trace *)
  k_len : int;
  k_nregs : int;
  k_cfg : Machine.t;
  k_prefetch : int;  (** hierarchy prefetch depth; geometry is fixed *)
  k_max_cycles : int;
  k_fault : string;  (** fault-plan fingerprint ({!Fv_faults.Plan.fingerprint}) *)
}

module Cache = Fv_cache.Second_chance.Make (struct
  type t = key

  let equal = ( = )
  let hash = Hashtbl.hash
end)

let lock = Mutex.create ()

(** Size cap; at capacity one cold entry is evicted per insertion. *)
let max_entries = 4096

let table : Pipeline.stats Cache.t ref = ref (Cache.create ~cap:max_entries ())
let note name = Fv_obs.Metrics.incr Fv_obs.Metrics.global name
let lookup k = Mutex.protect lock (fun () -> Cache.find_opt !table k)

let store k v =
  Mutex.protect lock (fun () ->
      let before = Cache.evictions !table in
      Cache.put !table k v;
      let evicted = Cache.evictions !table - before in
      if evicted > 0 then note "sim_cache_evictions")

(** Drop every entry (tests; between unrelated bench sections it is
    deliberately {e not} called — cross-section repeats are the point). *)
let clear () = Mutex.protect lock (fun () -> Cache.clear !table)

let size () = Mutex.protect lock (fun () -> Cache.length !table)

(** Test hook: replace the table with an empty one of capacity [cap]
    (eviction behaviour is exercised at tiny capacities). *)
let set_capacity cap =
  Mutex.protect lock (fun () -> table := Cache.create ~cap ())

(** Memoized [Pipeline.run]. [?prefetch_depth] configures the cold
    hierarchy each uncached replay runs against: a pooled one reset to
    the fresh state, so the result equals passing
    [~hier:(Hierarchy.table1 ~prefetch_depth ())] to {!Pipeline.run};
    [?fault_key] names the fault plan that shaped the trace (default: no
    injection). *)
let stats ?budget ?(cfg = Machine.table1) ?(prefetch_depth = 4)
    ?(max_cycles = 400_000_000) ?(fault_key = "")
    ?(record : Pipeline.timing option) (trace : Sink.t) : Pipeline.stats =
  let k =
    {
      k_hash = Sink.hash trace;
      k_len = Sink.length trace;
      k_nregs = Sink.nregs trace;
      k_cfg = cfg;
      k_prefetch = prefetch_depth;
      k_max_cycles = max_cycles;
      k_fault = fault_key;
    }
  in
  match record with
  | Some _ ->
      note "sim_cache_bypass";
      let s =
        (* a canceled replay raises out of [Pipeline.run] before
           the store below, so a partial simulation is never memoized *)
        Fv_memsys.Hierarchy.with_cold ~prefetch_depth (fun hier ->
            Pipeline.run ?budget ~cfg ~hier ~max_cycles ?record trace)
      in
      store k s;
      s
  | None -> (
      match lookup k with
      | Some s ->
          note "sim_cache_hits";
          s
      | None ->
          note "sim_cache_misses";
          let s =
            Fv_obs.Span.with_ ~cat:"sim" "replay" (fun () ->
                Fv_memsys.Hierarchy.with_cold ~prefetch_depth (fun hier ->
                    Pipeline.run ?budget ~cfg ~hier ~max_cycles trace))
          in
          store k s;
          s)
