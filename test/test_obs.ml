(** The observability subsystem ({!Fv_obs}): growable buffers, the
    monotonic clock, the sharded metrics registry (including
    domain-count determinism), span recording, the Chrome trace-event
    exporter, and the simulated-time pipeline timelines — plus the
    load-bearing guarantee that switching observability on does not
    perturb a single simulation statistic. *)

module Dynbuf = Fv_obs.Dynbuf
module Clock = Fv_obs.Clock
module Metrics = Fv_obs.Metrics
module Span = Fv_obs.Span
module Chrome = Fv_obs.Chrome
module Annot = Fv_obs.Annot
module Timeline = Fv_ooo.Timeline
module Pipeline = Fv_ooo.Pipeline
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

(* ---------------- Dynbuf ---------------- *)

let test_dynbuf_grow () =
  let b = Dynbuf.create ~capacity:2 (-1) in
  for i = 0 to 999 do
    Dynbuf.push b i
  done;
  Alcotest.(check int) "length" 1000 (Dynbuf.length b);
  Alcotest.(check int) "get 0" 0 (Dynbuf.get b 0);
  Alcotest.(check int) "get 999" 999 (Dynbuf.get b 999);
  Alcotest.(check (array int)) "to_array" (Array.init 1000 Fun.id)
    (Dynbuf.to_array b);
  Alcotest.(check int) "fold" (999 * 1000 / 2)
    (Dynbuf.fold (fun a x -> a + x) 0 b);
  Dynbuf.clear b;
  Alcotest.(check int) "cleared" 0 (Dynbuf.length b);
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Dynbuf.get")
    (fun () -> ignore (Dynbuf.get b 0))

(* ---------------- Clock ---------------- *)

let test_clock_monotonic () =
  let prev = ref (Clock.now ()) and step = ref infinity in
  for _ = 1 to 10_000 do
    let t = Clock.now () in
    if t < !prev then Alcotest.failf "clock went backwards: %g < %g" t !prev;
    if t > !prev && t -. !prev < !step then step := t -. !prev;
    prev := t
  done;
  (* back-to-back readings resolve well under gettimeofday's
     microsecond tick *)
  Alcotest.(check bool)
    (Printf.sprintf "smallest step %.0f ns < 500 ns" (!step *. 1e9))
    true (!step < 0.5e-6);
  let t0 = Clock.now () in
  Alcotest.(check bool) "elapsed non-negative" true (Clock.elapsed ~since:t0 >= 0.0);
  (* even against a timestamp from the future, elapsed clamps to 0 *)
  Alcotest.(check (float 0.0))
    "elapsed clamps" 0.0
    (Clock.elapsed ~since:(Clock.now () +. 3600.))

(* ---------------- Metrics ---------------- *)

let test_metrics_counter_and_labels () =
  let m = Metrics.create () in
  Metrics.incr m "runs";
  Metrics.incr m ~by:2 "runs";
  Metrics.incr m ~labels:[ ("strategy", "Flexvec") ] "runs";
  let snaps = Metrics.snapshot m in
  Alcotest.(check int) "two cells" 2 (List.length snaps);
  let plain =
    List.find (fun (s : Metrics.snap) -> s.s_labels = []) snaps
  in
  Alcotest.(check int) "unlabeled count" 3 plain.Metrics.s_count;
  let labeled =
    List.find (fun (s : Metrics.snap) -> s.s_labels <> []) snaps
  in
  Alcotest.(check int) "labeled count" 1 labeled.Metrics.s_count

let test_metrics_histogram_buckets () =
  let m = Metrics.create () in
  Metrics.observe m "t" 5e-6;
  (* lands in the (1e-6, 1e-5] bucket *)
  Metrics.observe m "t" 0.5;
  (* lands in the (1e-1, 1.0] bucket *)
  Metrics.observe m "t" 1e9;
  (* beyond every finite bound: +inf only *)
  match Metrics.snapshot m with
  | [ s ] ->
      Alcotest.(check int) "count" 3 s.Metrics.s_count;
      Alcotest.(check bool) "sum" true (s.Metrics.s_sum > 1e9 -. 1.0);
      (* Prometheus semantics: buckets are cumulative (each counts all
         observations <= its bound), monotone along the list, and the
         final +inf bucket equals the observation count *)
      let counts = List.map snd s.Metrics.s_buckets in
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "buckets monotone non-decreasing" true (a <= b))
        (List.filteri (fun i _ -> i < List.length counts - 1) counts)
        (List.tl counts);
      let le_of i = fst (List.nth s.Metrics.s_buckets i) in
      let at le =
        snd (List.find (fun (b, _) -> b = le) s.Metrics.s_buckets)
      in
      Alcotest.(check int) "le=1e-6 sees nothing" 0 (at (le_of 0));
      Alcotest.(check int) "le=1e-5 sees the 5e-6 observation" 1 (at 1e-5);
      Alcotest.(check int) "le=1e-1 still 1 (cumulative)" 1 (at 1e-1);
      Alcotest.(check int) "le=1.0 accumulates the 0.5" 2 (at 1.0);
      let inf_le, inf_count =
        List.nth s.Metrics.s_buckets (List.length s.Metrics.s_buckets - 1)
      in
      Alcotest.(check bool) "last bound is +inf" true (inf_le = infinity);
      Alcotest.(check int) "+inf bucket == count" s.Metrics.s_count inf_count
  | l -> Alcotest.failf "expected one snap, got %d" (List.length l)

(* regression: [BENCH_strategies.json] once reported [ff_fallbacks] as
   {"count": 907, "sum": 0} — [incr] bumped only [count], so a counter's
   value did not round-trip through the snapshot's [sum] field *)
let test_metrics_counter_sum_roundtrips () =
  let m = Metrics.create () in
  Metrics.incr m "ff_fallbacks";
  Metrics.incr m ~by:906 "ff_fallbacks";
  (* merge across shards too: a second domain contributes its share *)
  Domain.join
    (Domain.spawn (fun () -> Metrics.incr m ~by:10 "ff_fallbacks"));
  match Metrics.snapshot m with
  | [ s ] ->
      Alcotest.(check int) "count" 917 s.Metrics.s_count;
      Alcotest.(check (float 0.0)) "sum agrees with count" 917.0
        s.Metrics.s_sum
  | l -> Alcotest.failf "expected one snap, got %d" (List.length l)

let test_metrics_gauge_merges_by_max () =
  let m = Metrics.create () in
  Metrics.gauge m "watermark" 2.0;
  let ds =
    List.init 3 (fun i ->
        Domain.spawn (fun () -> Metrics.gauge m "watermark" (float_of_int i)))
  in
  List.iter Domain.join ds;
  match Metrics.snapshot m with
  | [ s ] -> Alcotest.(check (float 0.0)) "max across shards" 2.0 s.Metrics.s_sum
  | l -> Alcotest.failf "expected one snap, got %d" (List.length l)

let test_metrics_deterministic_across_domains () =
  (* the same per-element events must aggregate identically whether the
     pool ran serial or on 4 domains — every series, the pool's own
     included: none is labeled by domain *)
  let work domains =
    Metrics.reset Metrics.global;
    let xs = List.init 40 Fun.id in
    ignore
      (Fv_parallel.Pool.map_ordered ~domains
         (fun x ->
           Metrics.incr Metrics.global ~labels:[ ("kind", "row") ] "work";
           x * x)
         xs);
    Metrics.snapshot ~reset:true Metrics.global
  in
  let strip (s : Metrics.snap) =
    (s.Metrics.s_name, s.Metrics.s_labels, s.Metrics.s_count)
  in
  Alcotest.(check (list (triple string (list (pair string string)) int)))
    "serial == 4 domains"
    (List.map strip (work 1))
    (List.map strip (work 4))

let test_metrics_snapshot_reset () =
  let m = Metrics.create () in
  Metrics.incr m "n";
  Alcotest.(check int) "first snapshot sees it" 1
    (List.length (Metrics.snapshot ~reset:true m));
  Alcotest.(check int) "reset cleared it" 0
    (List.length (Metrics.snapshot m))

(* Retiring a dead domain's shard must be exactly-once: the events move
   to the retired accumulator (same totals), a second retire is a
   no-op, and later events land in fresh shards instead of resurrecting
   the dead one. The domain pool retires every worker it joins —
   double-counting here inflated every snapshot taken during a worker
   replacement. *)
let test_metrics_retire_exactly_once () =
  let m = Metrics.create () in
  let count name =
    match
      List.find_opt (fun s -> s.Metrics.s_name = name) (Metrics.snapshot m)
    with
    | Some s -> s.Metrics.s_count
    | None -> 0
  in
  let gauge_of name =
    match
      List.find_opt (fun s -> s.Metrics.s_name = name) (Metrics.snapshot m)
    with
    | Some s -> s.Metrics.s_sum
    | None -> 0.0
  in
  let dom_id = Atomic.make (-1) in
  let d =
    Domain.spawn (fun () ->
        Atomic.set dom_id (Domain.self () :> int);
        Metrics.incr ~by:5 m "events";
        Metrics.gauge m "depth" 9.0)
  in
  Domain.join d;
  Alcotest.(check int) "live shard visible" 5 (count "events");
  Metrics.retire m ~domain:(Atomic.get dom_id);
  Alcotest.(check int) "retire preserves counter totals" 5 (count "events");
  Alcotest.(check (float 1e-9)) "retire preserves gauge" 9.0 (gauge_of "depth");
  Metrics.retire m ~domain:(Atomic.get dom_id);
  Alcotest.(check int) "retire is idempotent" 5 (count "events");
  Metrics.retire m ~domain:424242;
  Alcotest.(check int) "unknown domain is a no-op" 5 (count "events");
  (* events after the restart land in fresh shards and merge with the
     retired history by the usual rules: counters sum, gauges max *)
  Metrics.incr ~by:2 m "events";
  Metrics.gauge m "depth" 4.0;
  Alcotest.(check int) "counters keep summing after retire" 7 (count "events");
  Alcotest.(check (float 1e-9)) "gauges keep the max after retire" 9.0
    (gauge_of "depth");
  ignore (Metrics.snapshot ~reset:true m);
  Alcotest.(check int) "reset clears the retired shard too" 0 (count "events")

(* ---------------- Span ---------------- *)

let test_span_off_records_nothing () =
  Alcotest.(check bool) "disabled by default" false (Span.enabled ());
  Alcotest.(check int) "thunk result" 7 (Span.with_ "noop" (fun () -> 7))

let test_span_nesting_and_drain () =
  let r = Span.recorder () in
  Span.install r;
  Fun.protect ~finally:Span.uninstall (fun () ->
      let v =
        Span.with_ ~cat:"outer" "parent" (fun () ->
            Span.with_ ~cat:"inner" "child" (fun () -> 42))
      in
      Alcotest.(check int) "result" 42 v;
      (try
         Span.with_ "failing" (fun () -> failwith "boom")
       with Failure _ -> ());
      let events = Span.drain r in
      Alcotest.(check int) "three spans" 3 (List.length events);
      (* spans complete innermost-first *)
      let child = List.nth events 0 and parent = List.nth events 1 in
      Alcotest.(check string) "child first" "child" child.Span.name;
      Alcotest.(check string) "then parent" "parent" parent.Span.name;
      Alcotest.(check bool) "child nested in parent" true
        (parent.Span.t0 <= child.Span.t0 && child.Span.t1 <= parent.Span.t1);
      Alcotest.(check string) "span recorded on exception" "failing"
        (List.nth events 2).Span.name;
      Alcotest.(check int) "drain clears" 0 (List.length (Span.drain r)))

(* ---------------- Chrome JSON ---------------- *)

(* minimal JSON syntax checker: enough to prove the exporter emits
   well-formed JSON without pulling in a parser dependency *)
let json_parse (s : string) : (unit, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = failwith (Printf.sprintf "%s at %d" msg !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else error (Printf.sprintf "expected %c" c)
  in
  let literal l =
    let ll = String.length l in
    if !pos + ll <= n && String.sub s !pos ll = l then pos := !pos + ll
    else error ("expected " ^ l)
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while not !fin do
      match peek () with
      | None -> error "unterminated string"
      | Some '"' ->
          incr pos;
          fin := true
      | Some '\\' -> pos := !pos + 2
      | Some _ -> incr pos
    done
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then error "expected number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then incr pos
        else begin
          let cont = ref true in
          while !cont do
            skip_ws ();
            string_lit ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            if peek () = Some ',' then incr pos
            else begin
              expect '}';
              cont := false
            end
          done
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then incr pos
        else begin
          let cont = ref true in
          while !cont do
            value ();
            skip_ws ();
            if peek () = Some ',' then incr pos
            else begin
              expect ']';
              cont := false
            end
          done
        end
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some _ -> number ()
    | None -> error "unexpected end"
  in
  try
    value ();
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing input at %d" !pos)
    else Ok ()
  with Failure m -> Error m

let test_chrome_emits_valid_json () =
  let events =
    [
      Chrome.Process_name { pid = 1; name = "p \"quoted\" \\ name\n" };
      Chrome.Thread_name { pid = 1; tid = 2; name = "t" };
      Chrome.slice ~cat:"c" ~pid:1 ~tid:2 ~ts:0.0 ~dur:5.0
        ~args:[ ("k", "v\twith\ttabs") ]
        "s";
      Chrome.instant ~pid:1 ~tid:2 ~ts:2.5 "i";
    ]
  in
  let s = Chrome.to_string events in
  (match json_parse s with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid JSON: %s in %s" m s);
  Alcotest.(check bool) "has traceEvents" true
    (contains ~needle:"\"traceEvents\"" s);
  Alcotest.(check bool) "has an X slice" true
    (contains ~needle:"\"ph\":\"X\"" s)

let test_chrome_of_spans () =
  match
    Chrome.of_spans ~t_base:10.0
      [ { Span.name = "a"; cat = ""; pid = 3; tid = 4; t0 = 10.5; t1 = 10.75 } ]
  with
  | [ Chrome.Slice s ] ->
      Alcotest.(check (float 1e-6)) "rebased to us" 500_000.0 s.ts;
      Alcotest.(check (float 1e-6)) "duration us" 250_000.0 s.dur;
      Alcotest.(check string) "default cat" "host" s.cat
  | _ -> Alcotest.fail "expected exactly one slice"

(* ---------------- simulated-time timelines ---------------- *)

let run_with_obs ?faults ?(strategy = E.Flexvec) name =
  let spec = R.find name in
  let obs = E.obs () in
  let r =
    E.run_workload ?faults ~invocations:(min spec.R.invocations 3) ~seed:1
      ~obs strategy spec.R.build
  in
  (r, obs)

(* a Slice's inline record cannot escape its constructor: project the
   fields we assert on into a tuple (name, cat, tid, ts, dur) *)
let slices_of events =
  List.filter_map
    (function
      | Chrome.Slice { name; cat; tid; ts; dur; _ } ->
          Some (name, cat, tid, ts, dur)
      | _ -> None)
    events

let timeline_of (r : E.hot_run) (obs : E.run_obs) =
  let trace = Option.get obs.E.o_trace in
  Timeline.events ~annots:(Annot.to_list obs.E.o_annots) ~trace
    ~timing:obs.E.o_timing r.E.pipe

let test_timeline_cross_checks () =
  let r, obs = run_with_obs "458.sjeng" in
  let events = timeline_of r obs in
  let slices = slices_of events in
  let _, _, _, _, run_dur =
    List.find (fun (_, cat, _, _, _) -> cat = "run") slices
  in
  Alcotest.(check (float 0.0))
    "run slice duration = reported cycles"
    (float_of_int r.E.pipe.Pipeline.cycles)
    run_dur;
  let uop_slices = List.filter (fun (_, cat, _, _, _) -> cat = "uop") slices in
  Alcotest.(check int) "one slice per simulated uop" r.E.pipe.Pipeline.uops
    (List.length uop_slices);
  let cycles = float_of_int r.E.pipe.Pipeline.cycles in
  List.iter
    (fun (name, _, _, ts, dur) ->
      if ts < 0.0 || ts +. dur > cycles +. 1.0 then
        Alcotest.failf "slice %s out of [0, cycles]: ts=%g dur=%g cycles=%g"
          name ts dur cycles)
    uop_slices;
  (* per-track well-nestedness: the greedy lane packer must never put
     two overlapping uop slices on the same tid *)
  let by_tid = Hashtbl.create 32 in
  List.iter
    (fun ((_, _, tid, _, _) as s) ->
      Hashtbl.replace by_tid tid
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid tid)))
    uop_slices;
  Hashtbl.iter
    (fun tid ss ->
      let sorted =
        List.sort (fun (_, _, _, a, _) (_, _, _, b, _) -> compare a b) ss
      in
      ignore
        (List.fold_left
           (fun prev_end (_, _, _, ts, dur) ->
             if ts < prev_end then
               Alcotest.failf "tid %d: slice at %g overlaps previous end %g"
                 tid ts prev_end;
             ts +. dur)
           neg_infinity sorted))
    by_tid;
  (* the whole thing must serialize to valid JSON *)
  match json_parse (Chrome.to_string events) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "timeline JSON invalid: %s" m

let test_timeline_rtm_markers_under_faults () =
  let faults = Fv_faults.Plan.make ~rate:0.05 ~seed:1 () in
  let r, obs = run_with_obs ~faults ~strategy:(E.Rtm 256) "458.sjeng" in
  let rtm = Option.get r.E.rtm in
  Alcotest.(check bool) "faults actually injected" true
    (rtm.Fv_simd.Rtm_run.aborts > 0);
  let annots = List.map snd (Annot.to_list obs.E.o_annots) in
  Alcotest.(check bool) "rtm:retry annotated" true
    (List.mem "rtm:retry" annots);
  let events = timeline_of r obs in
  let instants =
    List.filter_map
      (function Chrome.Instant { name; _ } -> Some name | _ -> None)
      events
  in
  Alcotest.(check bool) "Xabort instant present" true
    (List.mem "Xabort" instants);
  Alcotest.(check bool) "retry instant present" true
    (List.mem "rtm:retry" instants)

let test_timing_identical_event_vs_step () =
  (* the runner replays on the event-driven scheduler; its trace,
     replayed through the stepped reference, must log the same stages *)
  let spec = R.find "445.gobmk" in
  let obs = E.obs () in
  let r = E.run_workload ~invocations:2 ~seed:1 ~obs E.Flexvec spec.R.build in
  let te = obs.E.o_timing and ts = Pipeline.timing () in
  let ps = Pipeline.run ~mode:`Step ~record:ts (Option.get obs.E.o_trace) in
  Alcotest.(check int) "same cycles" r.E.pipe.Pipeline.cycles ps.Pipeline.cycles;
  let check_arr name a b =
    if a <> b then Alcotest.failf "stage log %s differs between schedulers" name
  in
  check_arr "dispatch" te.Pipeline.t_dispatch ts.Pipeline.t_dispatch;
  check_arr "issue" te.Pipeline.t_issue ts.Pipeline.t_issue;
  check_arr "complete" te.Pipeline.t_complete ts.Pipeline.t_complete;
  check_arr "commit" te.Pipeline.t_commit ts.Pipeline.t_commit

(* ---------------- zero perturbation ---------------- *)

let test_obs_does_not_perturb_stats () =
  (* every registry kernel: the pipeline statistics of an instrumented
     run must be bit-identical to the plain run *)
  List.iter
    (fun (spec : R.spec) ->
      let invocations = min spec.R.invocations 2 in
      let plain =
        E.run_workload ~invocations ~seed:1 E.Flexvec spec.R.build
      in
      let obs = E.obs () in
      let observed =
        E.run_workload ~invocations ~seed:1 ~obs E.Flexvec spec.R.build
      in
      if plain.E.pipe <> observed.E.pipe then
        Alcotest.failf "%s: stats differ with observability on" spec.R.name)
    R.all

(* ---------------- registry suggestions ---------------- *)

let test_registry_suggest () =
  Alcotest.(check (option string))
    "typo suggests sjeng" (Some "458.sjeng")
    (R.suggest "458.sjneg");
  Alcotest.(check (option string))
    "case-insensitive" (Some "GZIP") (R.suggest "gzip");
  Alcotest.(check (option string)) "nonsense suggests nothing" None
    (R.suggest "quicksort-9000");
  (match R.find "458.sjeng" with
  | s -> Alcotest.(check string) "find still works" "458.sjeng" s.R.name);
  match R.find "458.sjneg" with
  | exception Invalid_argument m ->
      Alcotest.(check bool) "error suggests the fix" true
        (contains ~needle:"did you mean" m)
  | _ -> Alcotest.fail "found a kernel that does not exist"

(* ---------------- harness flag ---------------- *)

let test_harness_trace_out () =
  let available = [ "table1"; "figure8" ] in
  (match Fv_core.Harness.parse_args ~available [ "--trace-out"; "traces" ] with
  | Ok p ->
      Alcotest.(check (option string)) "parsed" (Some "traces")
        p.Fv_core.Harness.trace_out
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (match
     Fv_core.Harness.parse_args ~available [ "--trace-out=d"; "table1" ]
   with
  | Ok p ->
      Alcotest.(check (option string)) "inline form" (Some "d")
        p.Fv_core.Harness.trace_out;
      Alcotest.(check (list string)) "section kept" [ "table1" ]
        p.Fv_core.Harness.sections
  | Error m -> Alcotest.failf "parse failed: %s" m);
  match Fv_core.Harness.parse_args ~available [ "--trace-out" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing value accepted"

let suite =
  [
    Alcotest.test_case "dynbuf: grow, access, clear" `Quick test_dynbuf_grow;
    Alcotest.test_case "clock: monotonic and clamped" `Quick
      test_clock_monotonic;
    Alcotest.test_case "metrics: counters and labels" `Quick
      test_metrics_counter_and_labels;
    Alcotest.test_case "metrics: histogram buckets" `Quick
      test_metrics_histogram_buckets;
    Alcotest.test_case "metrics: counter sum round-trips" `Quick
      test_metrics_counter_sum_roundtrips;
    Alcotest.test_case "metrics: gauges merge by max" `Quick
      test_metrics_gauge_merges_by_max;
    Alcotest.test_case "metrics: deterministic across domain counts" `Quick
      test_metrics_deterministic_across_domains;
    Alcotest.test_case "metrics: snapshot ~reset" `Quick
      test_metrics_snapshot_reset;
    Alcotest.test_case "metrics: retire is exactly-once" `Quick
      test_metrics_retire_exactly_once;
    Alcotest.test_case "span: off by default, zero effect" `Quick
      test_span_off_records_nothing;
    Alcotest.test_case "span: nesting, exceptions, drain" `Quick
      test_span_nesting_and_drain;
    Alcotest.test_case "chrome: emits valid JSON" `Quick
      test_chrome_emits_valid_json;
    Alcotest.test_case "chrome: host spans rebased to us" `Quick
      test_chrome_of_spans;
    Alcotest.test_case "timeline: slices match pipeline stats" `Quick
      test_timeline_cross_checks;
    Alcotest.test_case "timeline: RTM abort/retry markers" `Quick
      test_timeline_rtm_markers_under_faults;
    Alcotest.test_case "timing log: event == step" `Quick
      test_timing_identical_event_vs_step;
    Alcotest.test_case "observability on does not perturb stats" `Slow
      test_obs_does_not_perturb_stats;
    Alcotest.test_case "registry: did-you-mean suggestions" `Quick
      test_registry_suggest;
    Alcotest.test_case "harness: --trace-out" `Quick test_harness_trace_out;
  ]
