(** Plain-text table rendering for the bench harness and CLI, plus the
    machine-readable JSON report layer ({!Json}) that serializes every
    evaluation row type into the [BENCH_<section>.json] trajectory
    files. *)

let hline widths =
  "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"

let pad w s =
  let s = if String.length s > w then String.sub s 0 w else s in
  s ^ String.make (w - String.length s) ' '

(** Render rows (first row = header) as an ASCII table, every line
    newline-terminated, so whatever is printed next starts on a line of
    its own. The header fixes the column count: ragged data rows are
    normalized to it — extra cells are clamped off, missing cells render
    blank — so a malformed row can no longer crash the whole report. *)
let table (rows : string list list) : string =
  match rows with
  | [] -> ""
  | header :: _ ->
      let ncols = List.length header in
      let widths =
        List.init ncols (fun c ->
            List.fold_left
              (fun acc row ->
                match List.nth_opt row c with
                | Some s -> max acc (String.length s)
                | None -> acc)
              0 rows)
      in
      let render_row row =
        let cells =
          List.mapi
            (fun c w -> pad w (Option.value ~default:"" (List.nth_opt row c)))
            widths
        in
        "| " ^ String.concat " | " cells ^ " |"
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf (hline widths);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (render_row header);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (hline widths);
      Buffer.add_char buf '\n';
      List.iter
        (fun row ->
          Buffer.add_string buf (render_row row);
          Buffer.add_char buf '\n')
        (List.tl rows);
      Buffer.add_string buf (hline widths);
      Buffer.add_char buf '\n';
      Buffer.contents buf

let f2 x = Printf.sprintf "%.2f" x
let f1 x = Printf.sprintf "%.1f" x
let pct x = Printf.sprintf "%.1f%%" (100. *. x)

(** A crude ASCII bar chart (the "figure" half of Figure 8). *)
let bar_chart ?(width = 40) (rows : (string * float) list) : string =
  let vmax = List.fold_left (fun a (_, v) -> Float.max a v) 1.0 rows in
  let label_w =
    List.fold_left (fun a (s, _) -> max a (String.length s)) 0 rows
  in
  String.concat "\n"
    (List.map
       (fun (name, v) ->
         let n = int_of_float (v /. vmax *. float_of_int width) in
         Printf.sprintf "%s | %s %.2fx" (pad label_w name) (String.make n '#') v)
       rows)

(** [timed f] runs [f ()] and returns its result with the wall-clock
    seconds it took (not CPU time: a parallel section burns more CPU
    seconds than wall seconds, and wall is what the report tracks).
    Measured on {!Fv_obs.Clock}, so an NTP step during a long bench run
    cannot produce a negative or wildly wrong duration. *)
let timed (f : unit -> 'a) : 'a * float =
  let t0 = Fv_obs.Clock.now () in
  let y = f () in
  (y, Fv_obs.Clock.elapsed ~since:t0)

(* ------------------------------------------------------------------ *)
(* JSON reports                                                        *)
(* ------------------------------------------------------------------ *)

(** The report layer's JSON: {!Fv_obs.Json}'s tree and writer, plus
    serializers for every row type the evaluation produces. Schema:
    every [BENCH_<section>.json] file is an object with [section],
    [domains] (worker-domain count used), [metrics], [wall_seconds],
    and a section-specific body
    (EXPERIMENTS.md lists the fields). *)
module Json = struct
  include Fv_obs.Json

  (* ---- serializers for the evaluation row types ---- *)

  let of_pipeline_stats (s : Fv_ooo.Pipeline.stats) : t =
    Obj
      [
        ("cycles", Int s.cycles);
        ("uops", Int s.uops);
        ("ipc", Float s.ipc);
        ("branch_lookups", Int s.branch_lookups);
        ("branch_mispredicts", Int s.branch_mispredicts);
        ("l1_hit_rate", Float s.l1_hit_rate);
        ("stall_rob", Int s.stall_rob);
        ("stall_rs", Int s.stall_rs);
        ("stall_lq", Int s.stall_lq);
        ("stall_sq", Int s.stall_sq);
        ("stall_redirect", Int s.stall_redirect);
        ("loads", Int s.loads);
        ("stores", Int s.stores);
        ("truncated", Bool s.truncated);
      ]

  let of_exec_stats (s : Fv_simd.Exec.stats) : t =
    Obj
      [
        ("strips", Int s.strips);
        ("vpl_iterations", Int s.vpl_iterations);
        ("vpl_extra", Int s.vpl_extra);
        ("fallbacks", Int s.fallbacks);
        ("fallback_iters", Int s.fallback_iters);
        ("broke", Bool s.broke);
      ]

  let of_mix (m : Fv_vir.Count.mix) : t =
    Str (Fv_vir.Count.to_table2_string m)

  let of_rtm_stats (s : Fv_simd.Rtm_run.rtm_stats) : t =
    Obj
      [
        ("tiles", Int s.tiles);
        ("commits", Int s.commits);
        ("aborts", Int s.aborts);
        ("capacity_aborts", Int s.capacity_aborts);
        ("retries", Int s.retries);
        ("retried_commits", Int s.retried_commits);
        ("scalar_iters", Int s.scalar_iters);
      ]

  let of_diagnostic (d : Fv_ir.Validate.diagnostic) : t =
    Obj
      [
        ("stmt", opt (fun i -> Int i) d.Fv_ir.Validate.stmt);
        ( "severity",
          Str
            (match d.Fv_ir.Validate.severity with
            | Fv_ir.Validate.Reject -> "reject"
            | Fv_ir.Validate.Warn -> "warn") );
        ("reason", Str (Fv_ir.Validate.reason_label d.Fv_ir.Validate.reason));
        ("detail", Str (Fv_ir.Validate.reason_detail d.Fv_ir.Validate.reason));
      ]

  let of_hot_run (r : Experiment.hot_run) : t =
    Obj
      [
        ("strategy", Str (Experiment.show_strategy r.strategy));
        ("compile_status", Str (Experiment.show_compile_status r.compile));
        ("rejection", opt of_diagnostic (Experiment.rejection_of r.compile));
        ("cycles", Int r.cycles);
        ("uops", Int r.uops);
        ("pipe", of_pipeline_stats r.pipe);
        ("exec", opt of_exec_stats r.exec);
        ("mix", opt of_mix r.mix);
        ("fell_back_to_scalar", Bool r.fell_back_to_scalar);
        ("oracle_error", opt (fun s -> Str s) r.oracle_error);
        ("rtm", opt of_rtm_stats r.rtm);
        ("injected_faults", Int r.injected_faults);
        ( "retries",
          Int
            (match r.rtm with
            | Some s -> s.Fv_simd.Rtm_run.retries
            | None -> 0) );
      ]

  let of_profile (p : Fv_profiler.Profile.t) : t =
    Obj
      [
        ("invocations", Int p.invocations);
        ("trips", Int p.trips);
        ("avg_trip", Float p.avg_trip);
        ("dep_events", Int p.dep_events);
        ("effective_vl", Float p.effective_vl);
        ("hot_uops", Int p.hot_uops);
        ("mem_ratio", Float p.mem_ratio);
        ("branches", Int p.branches);
        ("branch_taken_ratio", Float p.branch_taken_ratio);
        ("coverage", Float p.coverage);
      ]

  let of_decision (d : Fv_vectorizer.Costmodel.decision) : t =
    Obj
      [
        ("vectorize", Bool d.vectorize);
        ("reasons", List (List.map (fun s -> Str s) d.reasons));
      ]

  let of_figure8_row (r : Figure8.row) : t =
    Obj
      [
        ("benchmark", Str r.spec.Fv_workloads.Registry.name);
        ("coverage", Float r.spec.Fv_workloads.Registry.coverage);
        ("profile", of_profile r.profile);
        ("decision", of_decision r.decision);
        ("baseline", of_hot_run r.baseline);
        ("flexvec", of_hot_run r.flexvec);
        ("hot_speedup", Float r.hot);
        ("overall_speedup", Float r.overall);
        ("mix_emitted", Str r.mix_measured);
      ]

  (* a row that produced no value: who it was and why it failed *)
  let of_error_row ~(label : string) (message : string) : t =
    Obj [ ("benchmark", Str label); ("error", Str message) ]

  (* the figure8 section's report body *)
  let of_figure8_result (r : Figure8.result) : (string * t) list =
    [
      ("rows", List (List.map of_figure8_row r.rows));
      ( "errors",
        List
          (List.map (fun (name, msg) -> of_error_row ~label:name msg) r.errors)
      );
      ("spec_geomean", Float r.spec_geomean);
      ("app_geomean", Float r.app_geomean);
    ]

  let of_table2_row (r : Table2.row) : t =
    Obj
      [
        ("benchmark", Str r.spec.Fv_workloads.Registry.name);
        ("paper_coverage", Float r.spec.Fv_workloads.Registry.coverage);
        ("paper_trip", Str r.spec.Fv_workloads.Registry.paper_trip);
        ("paper_mix", Str r.spec.Fv_workloads.Registry.paper_mix);
        ("measured_trip", Float r.measured_trip);
        ("measured_evl", Float r.measured_evl);
        ("measured_coverage", Float r.measured_coverage);
        ("measured_mix", Str r.measured_mix);
        ("mix_matches", Bool r.mix_matches);
      ]

  let of_rtm_point (p : Sweeps.rtm_point) : t =
    Obj
      [
        ("tile", Int p.tile);
        ("rtm_cycles", Int p.rtm_cycles);
        ("ff_cycles", Int p.ff_cycles);
        ("scalar_cycles", Int p.scalar_cycles);
        ("rel_to_ff", Float p.rel_to_ff);
      ]

  let of_strategy_point (p : Sweeps.strategy_point) : t =
    Obj
      [
        ("dep_rate", Float p.rate);
        ("scalar_cycles", Int p.scalar_c);
        ("flexvec_cycles", Int p.flexvec_c);
        ("wholesale_cycles", Int p.wholesale_c);
        ("flexvec_speedup", Float p.flexvec_speedup);
        ("wholesale_speedup", Float p.wholesale_speedup);
      ]

  let of_trip_point (p : Sweeps.trip_point) : t =
    Obj [ ("trip", Int p.trip); ("speedup", Float p.speedup) ]

  let of_evl_point (p : Sweeps.evl_point) : t =
    Obj
      [
        ("update_rate", Float p.update_rate);
        ("effective_vl", Float p.effective_vl);
        ("speedup", Float p.speedup);
      ]

  let of_vl_point (p : Sweeps.vl_point) : t =
    Obj [ ("vl", Int p.vl); ("speedup", Float p.speedup) ]

  let of_prefetch_point (p : Sweeps.prefetch_point) : t =
    Obj
      [
        ("prefetch", Bool p.prefetch);
        ("scalar_cycles", Int p.scalar_cycles2);
        ("flexvec_cycles", Int p.flexvec_cycles2);
        ("speedup", Float p.speedup2);
      ]

  let of_bench_strategies (p : Sweeps.bench_strategies) : t =
    Obj
      [
        ("benchmark", Str p.bench);
        ("flexvec_overall", Float p.flexvec_overall);
        ("wholesale_overall", Float p.wholesale_overall);
        ("rtm_overall", Float p.rtm_overall);
      ]

  let of_fault_point (p : Sweeps.fault_point) : t =
    Obj
      [
        ("fault_rate", Float p.f_rate);
        ("tile", Int p.f_tile);
        ("tiles", Int p.f_tiles);
        ("commits", Int p.f_commits);
        ("aborts", Int p.f_aborts);
        ("capacity_aborts", Int p.f_capacity_aborts);
        ("retries", Int p.f_retries);
        ("retried_commits", Int p.f_retried_commits);
        ("scalar_iters", Int p.f_scalar_iters);
        ("injected_faults", Int p.f_injected);
        ("abort_rate", Float p.f_abort_rate);
        ("retry_success", Float p.f_retry_success);
      ]

  let of_auto_features (f : Fv_auto.Features.t) : t =
    Obj
      [
        ("vl", Int f.Fv_auto.Features.vl);
        ("invocations", Int f.Fv_auto.Features.invocations);
        ("trips", Int f.Fv_auto.Features.trips);
        ("avg_trip", Float f.Fv_auto.Features.avg_trip);
        ("effective_vl", Float f.Fv_auto.Features.effective_vl);
        ("dep_events", Int f.Fv_auto.Features.dep_events);
        ("hot_uops", Int f.Fv_auto.Features.hot_uops);
        ("mem_uops", Int f.Fv_auto.Features.mem_uops);
        ("compute_uops", Int f.Fv_auto.Features.compute_uops);
        ("mem_ratio", Float f.Fv_auto.Features.mem_ratio);
        ("branches", Int f.Fv_auto.Features.branches);
        ("branch_taken_ratio", Float f.Fv_auto.Features.branch_taken_ratio);
        ("coverage", Float f.Fv_auto.Features.coverage);
        ("vectorizable", Bool f.Fv_auto.Features.vectorizable);
        ("traditional_ok", Bool f.Fv_auto.Features.traditional_ok);
        ("reductions", Int f.Fv_auto.Features.reductions);
        ("early_exits", Int f.Fv_auto.Features.early_exits);
        ("cond_updates", Int f.Fv_auto.Features.cond_updates);
        ("mem_conflicts", Int f.Fv_auto.Features.mem_conflicts);
      ]

  let of_auto_arm (a : Autobench.arm_row) : t =
    Obj
      [
        ("arm", Str (Fv_auto.Model.atom_of_choice a.Autobench.ar_arm));
        ("predicted_cycles", Float a.Autobench.ar_predicted);
        ("actual_cycles", Float a.Autobench.ar_actual);
        ("vectorized", Bool a.Autobench.ar_vectorized);
      ]

  let of_auto_row (r : Autobench.row) : t =
    Obj
      [
        ("benchmark", Str r.Autobench.b_spec.Fv_workloads.Registry.name);
        ("chosen", Str (Experiment.strategy_atom r.Autobench.b_chosen));
        ("predicted_cycles", Float r.Autobench.b_predicted);
        ("auto_cycles", Float r.Autobench.b_auto_cycles);
        ("scalar_cycles", Float r.Autobench.b_scalar_cycles);
        ("oracle_arm", Str (Fv_auto.Model.atom_of_choice r.Autobench.b_oracle_arm));
        ("oracle_cycles", Float r.Autobench.b_oracle_cycles);
        ("regret", Float r.Autobench.b_regret);
        ("auto_speedup", Float r.Autobench.b_auto_speedup);
        ("oracle_speedup", Float r.Autobench.b_oracle_speedup);
        ("features", of_auto_features r.Autobench.b_features);
        ("arms", List (List.map of_auto_arm r.Autobench.b_arms));
      ]

  let of_auto_sweep_row (s : Autobench.sweep_row) : t =
    Obj
      [
        ("sweep", Str s.Autobench.s_sweep);
        ("label", Str s.Autobench.s_label);
        ("chosen", Str (Experiment.strategy_atom s.Autobench.s_chosen));
        ("regret", Float s.Autobench.s_regret);
      ]

  (* one observability-registry sample; buckets are cumulative
     (Prometheus semantics) and [le: null] is the +inf bucket (JSON has
     no Infinity literal), which therefore equals [count] *)
  let of_metric (s : Fv_obs.Metrics.snap) : t =
    Obj
      ([
         ("name", Str s.Fv_obs.Metrics.s_name);
         ("kind", Str (Fv_obs.Metrics.show_kind s.Fv_obs.Metrics.s_kind));
         ( "labels",
           Obj
             (List.map
                (fun (k, v) -> (k, Str v))
                s.Fv_obs.Metrics.s_labels) );
         ("count", Int s.Fv_obs.Metrics.s_count);
         ("sum", Float s.Fv_obs.Metrics.s_sum);
       ]
      @
      match s.Fv_obs.Metrics.s_kind with
      | Fv_obs.Metrics.Histogram ->
          [
            ( "buckets",
              List
                (List.map
                   (fun (le, c) ->
                     Obj [ ("le", Float le); ("count", Int c) ])
                   s.Fv_obs.Metrics.s_buckets) );
          ]
      | Fv_obs.Metrics.Counter | Fv_obs.Metrics.Gauge -> [])

  (** Wrap a section's body fields into the common report envelope.
      [?metrics] is the observability-registry snapshot taken when the
      section finished (empty when nothing was recorded). *)
  let report ~(section : string) ~(domains : int) ?(metrics = [])
      ~(wall_seconds : float) (body : (string * t) list) : t =
    Obj
      ([
         ("section", Str section);
         ("domains", Int domains);
         ("metrics", List (List.map of_metric metrics));
         ("wall_seconds", Float wall_seconds);
       ]
      @ body)
end
