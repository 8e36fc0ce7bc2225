(* flexvec — command-line front end for the FlexVec reproduction.

   Subcommands:
     list                      list the benchmark kernels
     show BENCH                scalar loop, PDG analysis and generated vector code
     profile BENCH             Pin-style loop profile + cost-model decision
     simulate BENCH            simulate scalar vs FlexVec on the Table 1 machine
     calibrate                 re-fit the auto-strategy cost model
     fuzz                      differential fuzzing of the front end
     serve                     long-running compile service (plan cache)

   Figure 8 and Table 2 are sections of the bench harness
   (bench/main.exe figure8 table2), which also checks their bars. *)

open Cmdliner
module R = Fv_workloads.Registry
module K = Fv_workloads.Kernels

let bench_arg =
  let doc = "Benchmark name (as in Table 2), e.g. 464.h264ref or LAMMPS." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Data seed.")

let strategy_names =
  [ ("scalar", `Scalar); ("flexvec", `Flexvec); ("wholesale", `Wholesale);
    ("traditional", `Traditional); ("rtm", `Rtm); ("auto", `Auto) ]

(* Like [Arg.enum], but a typo gets the same Levenshtein "did you
   mean" treatment the benchmark lookup gives, instead of a bare
   alternatives dump. *)
let strategy_conv =
  let parse s =
    let k = String.lowercase_ascii s in
    match List.assoc_opt k strategy_names with
    | Some v -> Ok v
    | None ->
        let hint =
          List.filter_map
            (fun (n, _) ->
              let d = R.edit_distance k n in
              if d <= 2 then Some (d, n) else None)
            strategy_names
          |> List.sort compare
          |> function
          | (_, n) :: _ -> Printf.sprintf " — did you mean %S?" n
          | [] -> ""
        in
        Error
          (`Msg
            (Printf.sprintf "unknown strategy %S%s (expected one of %s)" s
               hint
               (String.concat ", " (List.map fst strategy_names))))
  in
  let print ppf v =
    Fmt.string ppf
      (fst (List.find (fun (_, v') -> v' = v) strategy_names))
  in
  Arg.conv (parse, print)

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv `Flexvec
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Execution strategy: scalar, flexvec, wholesale (PACT'13 \
           baseline), traditional, rtm, or auto (profile-guided \
           selection by the calibrated cost model).")

let tile_arg =
  Arg.(
    value & opt int 256
    & info [ "tile" ] ~docv:"N" ~doc:"RTM strip-mining tile size.")

let fault_rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "fault-rate" ] ~docv:"R"
        ~doc:
          "Inject faults with per-access probability $(docv) (in [0,1]) \
           into the recovery-capable strategies; 0 disables injection.")

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:"Determinism seed for fault injection.")

let to_strategy s tile =
  match s with
  | `Scalar -> Fv_core.Experiment.Scalar
  | `Flexvec -> Fv_core.Experiment.Flexvec
  | `Wholesale -> Fv_core.Experiment.Wholesale
  | `Traditional -> Fv_core.Experiment.Traditional
  | `Rtm -> Fv_core.Experiment.Rtm tile
  | `Auto -> Fv_core.Experiment.Auto

(** Resolve a kernel name or exit 2 with a "did you mean" hint — the
    CLI should never dump an [Invalid_argument] backtrace at a typo. *)
let find_spec (name : string) : R.spec =
  match R.find_opt name with
  | Some s -> s
  | None ->
      Fmt.epr "flexvec: unknown benchmark %S%s@.(run `flexvec list` to see \
               the registered kernels)@."
        name
        (match R.suggest name with
        | Some n -> Printf.sprintf " — did you mean %S?" n
        | None -> "");
      exit 2

(* ---------------- list ---------------- *)

(** Which strategies a kernel supports: a vectorizing strategy is
    supported when its compile accepts the loop (scalar always is; RTM
    rides on the FlexVec compile). *)
let supported_strategies (s : R.spec) : string list =
  let b = s.R.build 1 in
  let l = b.K.loop in
  let flexvec =
    Result.is_ok (Fv_vectorizer.Gen.vectorize ~style:Fv_vectorizer.Gen.Flexvec l)
  in
  let wholesale =
    Result.is_ok
      (Fv_vectorizer.Gen.vectorize ~style:Fv_vectorizer.Gen.Wholesale l)
  in
  let traditional = Result.is_ok (Fv_vectorizer.Traditional.vectorize l) in
  List.filter_map
    (fun (name, ok) -> if ok then Some name else None)
    [
      ("scalar", true);
      ("flexvec", flexvec);
      ("wholesale", wholesale);
      ("traditional", traditional);
      ("rtm", flexvec);
      (* auto needs at least one vector arm to choose from, otherwise
         the decision is degenerate *)
      ("auto", flexvec || wholesale || traditional);
    ]

let list_cmd =
  let run () =
    List.iter
      (fun (s : R.spec) ->
        Printf.printf
          "%-14s %-5s coverage=%5.1f%% trip=%-6s strategies=%-42s mix=%s\n"
          s.name
          (match s.group with R.Spec -> "SPEC" | R.App -> "app")
          (100. *. s.coverage) s.paper_trip
          (String.concat "," (supported_strategies s))
          s.paper_mix)
      R.all
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List the benchmark kernels (Table 2 rows) with their group and \
          supported execution strategies.")
    Term.(const run $ const ())

(* ---------------- show ---------------- *)

let show_cmd =
  let run name seed =
    let spec = find_spec name in
    let b = spec.build seed in
    Fmt.pr "=== scalar loop ===@.%a@.@." Fv_ir.Pp.pp_loop b.K.loop;
    Fmt.pr "=== dependence analysis ===@.%s@.@."
      (Fv_pdg.Classify.describe (Fv_pdg.Classify.analyze b.K.loop));
    let diagnostics = Fv_ir.Validate.check b.K.loop in
    if diagnostics <> [] then begin
      Fmt.pr "=== validation diagnostics ===@.";
      List.iter
        (fun d -> Fmt.pr "  %s@." (Fv_ir.Validate.describe d))
        diagnostics;
      Fmt.pr "@."
    end;
    (match Fv_vectorizer.Gen.vectorize b.K.loop with
    | Ok vloop ->
        Fmt.pr "=== FlexVec vector code ===@.%a@.@." Fv_vir.Vpp.pp_vloop vloop;
        Fmt.pr "instruction mix: %s@."
          (Fv_vir.Count.to_table2_string (Fv_vir.Count.of_vloop vloop))
    | Error d -> Fmt.pr "not vectorizable: %s@." (Fv_ir.Validate.describe d))
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Print a benchmark's scalar loop, analysis and vector code.")
    Term.(const run $ bench_arg $ seed_arg)

(* ---------------- profile ---------------- *)

let profile_cmd =
  let run name seed =
    let spec = find_spec name in
    let b = spec.build seed in
    let probe =
      Fv_profiler.Profile.profile ~invocations:(min spec.invocations 4)
        b.K.loop b.K.mem b.K.env
    in
    let other =
      int_of_float
        (float_of_int probe.hot_uops *. (1. -. spec.coverage) /. spec.coverage)
    in
    let p =
      Fv_profiler.Profile.profile ~invocations:(min spec.invocations 4)
        ~other_uops:other b.K.loop b.K.mem b.K.env
    in
    Fmt.pr "%a@." Fv_profiler.Profile.pp p;
    let d =
      Fv_vectorizer.Costmodel.decide ~avg_trip:p.avg_trip
        ~effective_vl:p.effective_vl ~mem_ratio:p.mem_ratio
        ~coverage:p.coverage ()
    in
    if d.vectorize then Fmt.pr "cost model: vectorize@."
    else Fmt.pr "cost model: do not vectorize (%s)@." (String.concat "; " d.reasons)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Pin-style loop profile and §5 cost-model decision.")
    Term.(const run $ bench_arg $ seed_arg)

(* ---------------- simulate ---------------- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file (open in \
           https://ui.perfetto.dev) with the host-side compile/harness \
           spans and the simulated-time pipeline timelines of both runs \
           (1 simulated cycle = 1 µs).")

let simulate_cmd =
  let run name seed strategy tile fault_rate fault_seed trace_out =
    let spec = find_spec name in
    let faults =
      if fault_rate = 0.0 then None
      else Some (Fv_faults.Plan.make ~rate:fault_rate ~seed:fault_seed ())
    in
    (* observability only when a trace destination was requested: the
       default run must not even allocate the recording buffers *)
    let recorder =
      Option.map
        (fun _ ->
          let r = Fv_obs.Span.recorder () in
          Fv_obs.Span.install r;
          r)
        trace_out
    in
    let t_base = Fv_obs.Clock.now () in
    let mk_obs () = Option.map (fun _ -> Fv_core.Experiment.obs ()) trace_out in
    let base_obs = mk_obs () and strat_obs = mk_obs () in
    let base =
      Fv_core.Experiment.run_workload ?obs:base_obs
        ~invocations:spec.invocations ~seed Fv_core.Experiment.Scalar
        spec.build
    in
    let s = to_strategy strategy tile in
    let r =
      Fv_core.Experiment.run_workload ?faults ?obs:strat_obs
        ~invocations:spec.invocations ~seed s spec.build
    in
    (match (trace_out, recorder) with
    | Some path, Some rec_ ->
        Fv_obs.Span.uninstall ();
        let host = Fv_obs.Chrome.of_spans ~t_base (Fv_obs.Span.drain rec_) in
        let timeline obs pid pname (run : Fv_core.Experiment.hot_run) =
          match obs with
          | Some (o : Fv_core.Experiment.run_obs) -> (
              match o.Fv_core.Experiment.o_trace with
              | Some tr ->
                  Fv_ooo.Timeline.events ~pid
                    ~name:(pname ^ " (simulated cycles)")
                    ~annots:(Fv_obs.Annot.to_list o.Fv_core.Experiment.o_annots)
                    ~trace:tr ~timing:o.Fv_core.Experiment.o_timing
                    run.Fv_core.Experiment.pipe
              | None -> [])
          | None -> []
        in
        Fv_obs.Chrome.to_file path
          (host
          @ timeline base_obs 10 "scalar" base
          @ timeline strat_obs 11 (Fv_core.Experiment.show_strategy s) r);
        Fmt.pr "trace written: %s@." path
    | _ -> ());
    Fmt.pr "scalar : %a@." Fv_ooo.Pipeline.pp_stats base.pipe;
    Fmt.pr "%-7s: %a@."
      (Fv_core.Experiment.show_strategy s)
      Fv_ooo.Pipeline.pp_stats r.pipe;
    (match r.auto with
    | Some (p : Fv_core.Experiment.auto_pick) ->
        Fmt.pr "auto decision: %s (predicted %.0f cycles)@."
          (Fv_core.Experiment.show_strategy p.a_chosen)
          (Fv_core.Experiment.predicted_cycles p);
        List.iter
          (fun (arm, cyc) ->
            Fmt.pr "  predicted %-12s %12.0f cycles@."
              (Fv_core.Experiment.show_strategy arm)
              cyc)
          p.a_predicted
    | None -> ());
    Fmt.pr "compile: %s@."
      (Fv_core.Experiment.show_compile_status r.compile);
    (match Fv_core.Experiment.rejection_of r.compile with
    | Some d -> Fmt.pr "rejection: %s@." (Fv_ir.Validate.describe d)
    | None -> ());
    (match r.exec with
    | Some e -> Fmt.pr "vector execution: %a@." Fv_simd.Exec.pp_stats e
    | None -> ());
    (match r.rtm with
    | Some rtm -> Fmt.pr "rtm: %a@." Fv_simd.Rtm_run.pp_rtm_stats rtm
    | None -> ());
    if faults <> None then
      Fmt.pr "injected faults delivered: %d@." r.injected_faults;
    let hot = Fv_core.Experiment.hot_speedup ~baseline:base r in
    Fmt.pr "hot-region speedup: %.2fx@." hot;
    Fmt.pr "overall (coverage %.1f%%): %.3fx@." (100. *. spec.coverage)
      (Fv_core.Experiment.overall_speedup ~coverage:spec.coverage ~hot)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate a benchmark on the Table 1 machine under a strategy.")
    Term.(
      const run $ bench_arg $ seed_arg $ strategy_arg $ tile_arg
      $ fault_rate_arg $ fault_seed_arg $ trace_out_arg)

(* ---------------- fuzz ---------------- *)

let corpus_arg =
  Arg.(
    value
    & opt string "fuzz/corpus"
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:"Counterexample corpus directory.")

let fuzz_run_term =
  let cases_arg =
    Arg.(
      value & opt int 1000
      & info [ "cases" ] ~docv:"N" ~doc:"Number of fuzz cases to run.")
  in
  let fuzz_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~env:(Cmd.Env.info "FLEXVEC_FUZZ_SEED")
          ~doc:
            "Campaign seed; also read from $(b,FLEXVEC_FUZZ_SEED). The \
             whole campaign — cases, outcomes, minimized \
             counterexamples — is a pure function of this seed.")
  in
  let malformed_arg =
    Arg.(
      value & opt float 0.5
      & info [ "malformed" ] ~docv:"P"
          ~doc:
            "Probability in [0,1] that a case is drawn from the \
             malformed families (outside the supported grammar) rather \
             than the well-formed ones.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Persist failing cases as found, without minimization.")
  in
  let run cases seed p_malformed no_shrink corpus =
    if p_malformed < 0.0 || p_malformed > 1.0 then begin
      Fmt.epr "fuzz: --malformed must be in [0,1]@.";
      exit 2
    end;
    let module D = Fv_fuzz.Driver in
    Fmt.pr "fuzzing: %d cases, seed %d, malformed ratio %.2f@." cases seed
      p_malformed;
    let s =
      D.run ~p_malformed ~corpus_dir:corpus ~shrink:(not no_shrink)
        ~on_case:(fun i o ->
          if D.is_failure o then
            Fmt.pr "case %d: %a@." i D.pp_outcome o)
        ~seed ~cases ()
    in
    Fmt.pr "%a@." D.pp_summary s;
    List.iter
      (fun (f : D.failure) ->
        Fmt.pr "--- minimized (from case seed %d)%s ---@.%a%a@."
          f.D.f_original_seed
          (match f.D.f_path with Some p -> " -> " ^ p | None -> "")
          D.pp_outcome f.D.f_outcome Fv_fuzz.Gen.pp_case f.D.f_case)
      s.D.failures;
    if s.D.failures <> [] then exit 1
  in
  Term.(
    const run $ cases_arg $ fuzz_seed_arg $ malformed_arg $ no_shrink_arg
    $ corpus_arg)

let fuzz_replay_cmd =
  let run corpus =
    let module D = Fv_fuzz.Driver in
    let results = D.replay ~dir:corpus () in
    if results = [] then Fmt.pr "corpus %s is empty@." corpus
    else begin
      List.iter
        (fun (path, _case, o) -> Fmt.pr "%-40s %a@." path D.pp_outcome o)
        results;
      let bad = List.filter (fun (_, _, o) -> D.is_failure o) results in
      Fmt.pr "replayed %d, still failing %d@." (List.length results)
        (List.length bad);
      if bad <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run every persisted counterexample in the corpus; exits \
          non-zero if any still crashes or diverges.")
    Term.(const run $ corpus_arg)

let fuzz_cmd =
  let info =
    Cmd.info "fuzz"
      ~doc:
        "Differential fuzzing of the vectorizer front end: random loops \
         (well-formed and deliberately malformed) are vectorized, \
         executed, and compared against the scalar interpreter; crashes \
         and divergences are auto-minimized and persisted to the corpus."
  in
  Cmd.group ~default:fuzz_run_term info
    [ Cmd.v (Cmd.info "run" ~doc:"Run a fuzzing campaign.") fuzz_run_term;
      fuzz_replay_cmd ]

(* ---------------- shared options ---------------- *)

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel row evaluation (default: \
           recommended domain count minus one).")

let domains_used = function
  | Some d -> d
  | None -> Fv_parallel.Pool.default_domains ()

(* ---------------- calibrate ---------------- *)

let calibrate_cmd =
  let run domains out =
    let ms, wall =
      Fv_core.Report.timed (fun () ->
          Fv_core.Autocal.measure ~domains:(domains_used domains) ())
    in
    let coeffs = Fv_core.Autocal.fit ms in
    Fmt.epr "calibrated on %d samples in %.1fs@." (List.length ms) wall;
    List.iter
      (fun (arm, err) ->
        Fmt.epr "  %-10s mean relative error %s@."
          (Fv_auto.Model.atom_of_choice arm)
          (match err with
          | Some e -> Printf.sprintf "%.1f%%" (100. *. e)
          | None -> "n/a (no vectorized samples; scalar row reused)"))
      (Fv_core.Autocal.report coeffs ms);
    let text = Fmt.str "%a" Fv_auto.Calibrate.render_table coeffs in
    match out with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Fmt.epr "coefficient table written: %s@." path
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the regenerated coefficient table (OCaml source) to \
             $(docv) instead of stdout — point it at lib/auto/coeffs.ml \
             to refresh the checked-in table.")
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Re-fit the auto-strategy cost model: run every registry kernel \
          under every model arm, fit the per-arm coefficients to the \
          measured cycle counts, and emit the coeffs.ml source. The \
          simulator is deterministic, so the checked-in table is \
          reproduced bit-for-bit from the same tree.")
    Term.(const run $ domains_arg $ out_arg)

(* ---------------- serve ---------------- *)

let serve_cmd =
  let run domains batch max_queue deadline_ms row_timeout max_request_bytes
      socket plan_cache plan_cache_file quarantine_dir max_strikes
      chaos_rate chaos_seed stats_json emit seed =
    match emit with
    | Some n ->
        (* generator mode: print a deterministic request stream and
           exit — the piping side of a smoke test or a manual session *)
        List.iteri
          (fun i c ->
            print_endline
              (Fv_serve.Loadgen.request_line ~id:(Printf.sprintf "q%d" i) c))
          (Fv_serve.Loadgen.distinct_cases ~n ~seed)
    | None ->
        (* SIGINT/SIGTERM request a graceful shutdown: stop reading,
           answer what was admitted, then fall through to the stats and
           snapshot writes below instead of dying mid-state *)
        Fv_serve.Server.install_signal_handlers ();
        let cache = Fv_serve.Plancache.create ~cap:plan_cache () in
        let restore =
          match plan_cache_file with
          | Some path -> Fv_serve.Snapshot.load cache ~path
          | None -> Fv_serve.Snapshot.empty_stats
        in
        (* deadlines imply admission control: with no deadline there is
           nothing for a cost estimate to be compared against *)
        let admission =
          Option.map (fun _ -> Fv_serve.Admission.create ()) deadline_ms
        in
        let scfg =
          Fv_serve.Service.cfg ~cache ?deadline_ms ~max_request_bytes
            ?admission ()
        in
        (* always bounded: a row-timeout detach without quarantine
           would leak one domain per repeat of a poison request *)
        let quarantine =
          Fv_serve.Quarantine.create ?dir:quarantine_dir ~max_strikes ()
        in
        let chaos =
          if chaos_rate > 0.0 then
            Some (Fv_serve.Chaos.make ~rate:chaos_rate ~seed:chaos_seed ())
          else None
        in
        let opts =
          {
            Fv_serve.Server.default_opts with
            Fv_serve.Server.domains;
            batch;
            queue_cap = max_queue;
            row_timeout;
            quarantine = Some quarantine;
            chaos;
          }
        in
        let (), wall =
          Fv_core.Report.timed (fun () ->
              match socket with
              | Some path -> Fv_serve.Server.serve_socket scfg opts ~path
              | None -> Fv_serve.Server.serve_stdin scfg opts)
        in
        let snapshot_saved =
          match plan_cache_file with
          | Some path -> Some (Fv_serve.Snapshot.save cache ~path)
          | None -> None
        in
        (* unlike the bench sections the server's whole point is its
           counters, so the report always carries the metrics snapshot *)
        match stats_json with
        | None -> ()
        | Some path ->
            let module J = Fv_core.Report.Json in
            let cache_obj c =
              J.Obj
                [
                  ("size", J.Int (Fv_serve.Plancache.size c));
                  ("capacity", J.Int (Fv_serve.Plancache.capacity c));
                  ("evictions", J.Int (Fv_serve.Plancache.evictions c));
                ]
            in
            J.to_file path
              (J.report ~section:"serve" ~domains:(domains_used domains)
                 ~metrics:(Fv_obs.Metrics.snapshot Fv_obs.Metrics.global)
                 ~wall_seconds:wall
                 [
                   ("plan_cache", cache_obj scfg.Fv_serve.Service.cache);
                   ("response_cache", cache_obj scfg.Fv_serve.Service.lines);
                   ( "snapshot",
                     J.Obj
                       [
                         ("restored", J.Int restore.Fv_serve.Snapshot.restored);
                         ("corrupt", J.Int restore.Fv_serve.Snapshot.corrupt);
                         ( "saved",
                           match snapshot_saved with
                           | Some n -> J.Int n
                           | None -> J.Null );
                       ] );
                   ( "quarantine",
                     J.Obj
                       [
                         ("size", J.Int (Fv_serve.Quarantine.size quarantine));
                         ( "max_strikes",
                           J.Int (Fv_serve.Quarantine.max_strikes quarantine) );
                       ] );
                 ])
  in
  let batch_arg =
    Arg.(
      value & opt int 32
      & info [ "batch" ] ~docv:"N"
          ~doc:"Requests handed to the worker pool per drain.")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 256
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Bound on parsed-but-unanswered requests; arrivals beyond it \
             are shed with an $(b,overloaded) response.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline, counted from admission (queue \
             wait included): a request still running at it cancels \
             itself at its next budget poll and is answered \
             $(b,deadline-exceeded) (a request's own $(i,deadline-ms) \
             field overrides this). Also turns on cost-based admission \
             control.")
  in
  let row_timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "row-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Detach deadline of the worker pool: a request still running \
             after $(docv) is answered $(b,deadline-exceeded), its worker \
             domain is abandoned and replaced, and the request is struck \
             in the quarantine table. The backstop for code that never \
             polls a budget; --deadline-ms is the cooperative deadline.")
  in
  let max_request_bytes_arg =
    Arg.(
      value
      & opt int Fv_serve.Service.default_max_request_bytes
      & info [ "max-request-bytes" ] ~docv:"BYTES"
          ~doc:"Requests larger than this are answered $(b,oversized).")
  in
  let socket_arg =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve a unix-domain socket at $(docv) (connections accepted \
             sequentially, forever) instead of stdin-to-stdout.")
  in
  let plan_cache_arg =
    Arg.(
      value
      & opt int Fv_serve.Plancache.default_capacity
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:
            "Plan cache capacity (entries); at capacity one \
             not-recently-hit entry is evicted per insertion.")
  in
  let plan_cache_file_arg =
    Arg.(
      value & opt (some string) None
      & info [ "plan-cache-file" ] ~docv:"FILE"
          ~doc:
            "Persist the plan cache: restore a snapshot from $(docv) at \
             startup (corrupt entries are skipped and counted, never \
             fatal) and write one back atomically on graceful exit, so \
             a restarted server serves its working set warm.")
  in
  let quarantine_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "quarantine-dir" ] ~docv:"DIR"
          ~doc:
            "Persist each quarantined request line to \
             $(docv)/cex-<hash>.sexp (fuzz-corpus reproducer naming). \
             The quarantine table itself is always on; this only adds \
             persistence.")
  in
  let max_strikes_arg =
    Arg.(
      value
      & opt int Fv_serve.Quarantine.default_max_strikes
      & info [ "max-strikes" ] ~docv:"N"
          ~doc:
            "Pool failures a request is allowed before it is refused up \
             front with an $(b,error) response (quarantine).")
  in
  let chaos_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-rate" ] ~docv:"P"
          ~doc:
            "Chaos injection probability per request (slow requests, \
             worker deaths, short reads/writes) — a drill switch, \
             deterministic for a given --chaos-seed.")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "chaos-seed" ] ~docv:"N" ~doc:"Seed for the chaos plan.")
  in
  let stats_json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "On exit (stdin mode), write a JSON report with the metrics \
             snapshot (cache hits/misses, request counters, latency \
             histogram) to $(docv).")
  in
  let emit_arg =
    Arg.(
      value & opt (some int) None
      & info [ "emit-requests" ] ~docv:"N"
          ~doc:
            "Do not serve: print $(docv) deterministic well-formed \
             compile requests (one per line, distinct loops, derived \
             from --seed) and exit. Pipe them back into a server.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Compilation as a service: read newline-delimited s-expression \
          requests (stdin or --socket), answer each with the plan / \
          diagnostic / simulation stats, amortizing repeats through a \
          content-addressed plan cache.")
    Term.(
      const run $ domains_arg $ batch_arg $ max_queue_arg $ deadline_arg
      $ row_timeout_arg $ max_request_bytes_arg $ socket_arg $ plan_cache_arg
      $ plan_cache_file_arg $ quarantine_dir_arg
      $ max_strikes_arg $ chaos_rate_arg $ chaos_seed_arg $ stats_json_arg
      $ emit_arg $ seed_arg)

let () =
  let info =
    Cmd.info "flexvec" ~version:"1.0.0"
      ~doc:"FlexVec: auto-vectorization for irregular loops (PLDI'16 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; show_cmd; profile_cmd; simulate_cmd; calibrate_cmd;
            fuzz_cmd; serve_cmd ]))
