(** What one benchmark run prints.

    Every metric prints by name, with its unit, as a human-readable line
    prefixed by the workload ([eval.latency_p50_ms = ...]). The last line
    of standard output is one JSON object:
    [{"correct", "attempted", "failed", "metrics"}], where [metrics] maps
    each bare metric name to [{"value", "unit"}]. An untraced run reports
    every end-to-end metric; a traced run ([--trace 1]) reports every
    per-layer metric.

    The metric names and units below are the benchmark's definition;
    [BENCHMARK.json] lists the same names with their direction and
    bound, and the [smoke] subcommand checks that the two agree. *)

(** End-to-end metrics. Every workload reports all of them; what an
    "operation" is differs per workload (README.md, "Metrics"). *)
let end_to_end : (string * string) list =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("throughput_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

(** Per-layer metrics. Every traced run reports all of them; a layer a
    workload never enters reads 0 there. Stage times are mean self time
    per operation ([_us]) or the median per call ([_p50_us]). *)
let per_layer : (string * string) list =
  [
    (* the compile service's request path, in [Service.handle] order *)
    ("serve.memo_find_us", "us");
    ("sexp.parse_us", "us");
    ("protocol.decode_us", "us");
    ("protocol.key_us", "us");
    ("plancache.find_us", "us");
    ("corpus.decode_us", "us");
    ("pdg.classify_us", "us");
    ("vectorizer.vectorize_us", "us");
    ("vir.render_us", "us");
    ("protocol.render_us", "us");
    ("plancache.put_us", "us");
    ("serve.memo_find_p50_us", "us");
    ("sexp.parse_p50_us", "us");
    ("protocol.decode_p50_us", "us");
    ("protocol.key_p50_us", "us");
    ("plancache.find_p50_us", "us");
    ("corpus.decode_p50_us", "us");
    ("pdg.classify_p50_us", "us");
    ("vectorizer.vectorize_p50_us", "us");
    ("vir.render_p50_us", "us");
    ("protocol.render_p50_us", "us");
    ("plancache.put_p50_us", "us");
    (* the evaluation harness: build -> trace -> compile-trace -> replay *)
    ("harness.build_us", "us");
    ("harness.trace_us", "us");
    ("sim.compile_us", "us");
    ("sim.replay_us", "us");
    ("profiler.profile_us", "us");
    ("oracle.check_us", "us");
    ("experiment.scalar_leg_us", "us");
    ("experiment.strategy_leg_us", "us");
    ("sim.replay_uops_per_us", "uops/us");
    ("sim.cache_hit_frac", "ratio");
    ("speedup_geomean", "x");
    ("pool.max_row_us", "us");
    ("pool.busy_frac", "ratio");
    (* the daemon, from its --stats-json report *)
    ("response_cache.hit_frac", "ratio");
    ("plan_cache.hit_frac", "ratio");
    ("plan_cache.evictions_per_kreq", "count");
    ("server.mean_batch", "count");
    ("server.shed", "count");
    ("service.busy_frac", "ratio");
    ("service.mean_us", "us");
    ("server.wait_us", "us");
    (* the load generator *)
    ("gen.busy_frac", "ratio");
    ("gen.late_p99_us", "us");
    (* accounting *)
    ("rejected_frac", "ratio");
    ("gc.minor_words_per_op", "count");
    ("unattributed_frac", "ratio");
    ("trace_overhead_frac", "ratio");
  ]

type t = {
  workload : string;
  trace : bool;
  values : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed output checks, newest first *)
}

let create ~workload ~trace =
  {
    workload;
    trace;
    values = Hashtbl.create 64;
    attempted = 0;
    failed = 0;
    problems = [];
  }

let defs (r : t) = if r.trace then per_layer else end_to_end

(** Record metric [name]. Raises on a name the run's metric set does not
    define, so a typo cannot silently leave a metric at 0. *)
let set (r : t) (name : string) (v : float) : unit =
  if not (List.mem_assoc name (defs r)) then
    invalid_arg ("Report.set: undefined metric " ^ name);
  Hashtbl.replace r.values name v

(** Count [n] attempted operations of which [bad] failed. *)
let count (r : t) ~(n : int) ~(bad : int) : unit =
  r.attempted <- r.attempted + n;
  r.failed <- r.failed + bad

(** An output check: a false [ok] marks the run incorrect. *)
let check (r : t) (ok : bool) (fmt : ('a, unit, string, unit) format4) : 'a =
  if ok then Printf.ikfprintf ignore () fmt
  else
    Printf.ksprintf
      (fun msg ->
        (* the first few explain a failure; the rest only add noise *)
        if List.length r.problems < 20 then r.problems <- msg :: r.problems)
      fmt

let note (r : t) fmt =
  Printf.ksprintf (fun m -> Printf.printf "%s: %s\n%!" r.workload m) fmt

(** Print a timing's sample count and pinned tail level. A percentile
    tail means little with fewer than ten samples beyond it: a
    full-length run with fewer fails a check, a [--quick] run, too short
    by design, only says so. *)
let check_tail (r : t) ~(quick : bool) (s : Stats.summary) : unit =
  let level = Stats.pp_pct s.Stats.pct in
  note r "%d samples; tail is %s, %d beyond it" s.Stats.n level s.Stats.beyond;
  if s.Stats.pct < 100.0 && s.Stats.beyond < 10 then
    if quick then note r "a quick run is too short to resolve %s" level
    else check r false "only %d samples beyond %s: the run is too short" s.Stats.beyond level

let correct (r : t) = r.problems = [] && r.failed = 0 && r.attempted > 0

(** Print every metric, the failed checks, and the result line. *)
let print (r : t) : unit =
  List.iter
    (fun (name, unit) ->
      let v = Option.value ~default:0.0 (Hashtbl.find_opt r.values name) in
      Printf.printf "%s.%s = %s %s\n" r.workload name (Json.num_to_string v) unit)
    (defs r);
  List.iter
    (fun p -> Printf.printf "%s: CHECK FAILED: %s\n" r.workload p)
    (List.rev r.problems);
  Printf.printf "%s: %d attempted, %d failed, %s\n" r.workload r.attempted
    r.failed
    (if correct r then "all checks passed" else "INCORRECT");
  let metrics =
    List.map
      (fun (name, unit) ->
        ( name,
          Json.Obj
            [
              ( "value",
                Json.Num
                  (Option.value ~default:0.0 (Hashtbl.find_opt r.values name)) );
              ("unit", Json.Str unit);
            ] ))
      (defs r)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (correct r));
            ("attempted", Json.Num (float_of_int r.attempted));
            ("failed", Json.Num (float_of_int r.failed));
            ("metrics", Json.Obj metrics);
          ]))

(* ---------------- process memory ---------------- *)

(** [VmHWM] (peak resident set) of process [pid] ("self" for this one)
    in MB, read from procfs; 0 where procfs is unavailable. *)
let vmhwm_mb (pid : string) : float =
  match open_in ("/proc/" ^ pid ^ "/status") with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub l 6 (String.length l - 6))
              " %f kB"
              (fun kb -> kb /. 1024.0)
        | _ -> go ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) go
