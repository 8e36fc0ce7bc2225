(** Profile-guided strategy selection ({!Fv_auto} + [Experiment.Auto]):
    the decision must be a pure function of the workload — identical
    across worker-domain counts, unperturbed by a generous cancellation
    budget, and blind to fault injection (faults hit the measured run,
    never the warmup profile) — and the serve daemon must answer
    [strategy auto] with the decision rationale and memoize it. *)

module R = Fv_workloads.Registry
module E = Fv_core.Experiment
module M = Fv_auto.Model
module Pool = Fv_parallel.Pool
module B = Fv_parallel.Budget

(* the selector's decision for one registry kernel, via the same
   profile + verdict join the Auto strategy runs *)
let pick_for (spec : R.spec) : E.auto_pick =
  E.pick_of_features (Fv_core.Autocal.features_of spec ~seed:1)

let show_picks (picks : (string * E.strategy) list) : string =
  String.concat "; "
    (List.map (fun (n, s) -> n ^ "=" ^ E.show_strategy s) picks)

(* ---------------- determinism across domains ---------------- *)

let test_decisions_domain_deterministic () =
  let picks ~domains =
    Pool.map ~domains
      (fun (spec : R.spec) -> (spec.R.name, (pick_for spec).E.a_chosen))
      R.all
    |> List.map (function
         | Ok p -> p
         | Error f -> Alcotest.failf "pick failed: %s" (Pool.failure_message f))
  in
  let one = picks ~domains:1 and four = picks ~domains:4 in
  Alcotest.(check string)
    "same decisions at 1 and 4 domains" (show_picks one) (show_picks four);
  (* the decision roll is observable: every pick above counted *)
  let decisions = Fv_obs.Metrics.(total (snapshot global) "auto_decisions") in
  Alcotest.(check bool)
    "auto_decisions counter rolled" true
    (decisions >= 2 * List.length R.all)

(* ---------------- budget-off bit-identity ---------------- *)

let test_budget_off_bit_identity () =
  (* an Auto run with a budget that never fires must be bit-identical
     to a budget-free run: same decision, same pipeline statistics *)
  List.iter
    (fun (spec : R.spec) ->
      let invocations = min spec.R.invocations 2 in
      let plain = E.run_workload ~invocations ~seed:1 E.Auto spec.R.build in
      let generous = B.create ~deadline_s:3600.0 () in
      let budgeted =
        E.run_workload ~budget:generous ~invocations ~seed:1 E.Auto
          spec.R.build
      in
      let chosen r =
        match r.E.auto with
        | Some p -> p.E.a_chosen
        | None -> Alcotest.failf "%s: Auto run without a decision" spec.R.name
      in
      if chosen plain <> chosen budgeted then
        Alcotest.failf "%s: decision differs with a budget attached"
          spec.R.name;
      if plain.E.pipe <> budgeted.E.pipe then
        Alcotest.failf "%s: stats differ with a budget attached" spec.R.name;
      if plain.E.cycles <> budgeted.E.cycles then
        Alcotest.failf "%s: cycles differ with a budget attached" spec.R.name)
    R.all

(* ---------------- fault-injection blindness ---------------- *)

let test_fault_rate_zero_stability () =
  (* a zero-rate fault plan delivers nothing, so both the decision and
     the run must match injection-off exactly; a non-zero rate may
     perturb the measured run but never the decision, because the
     warmup profile runs on unplanned memory *)
  List.iter
    (fun (spec : R.spec) ->
      let invocations = min spec.R.invocations 2 in
      let run faults =
        E.run_workload ?faults ~invocations ~seed:1 E.Auto spec.R.build
      in
      let off = run None in
      let zero = run (Some (Fv_faults.Plan.make ~rate:0.0 ~seed:1 ())) in
      let hot = run (Some (Fv_faults.Plan.make ~rate:0.01 ~seed:1 ())) in
      let chosen r =
        match r.E.auto with
        | Some p -> p.E.a_chosen
        | None -> Alcotest.failf "%s: Auto run without a decision" spec.R.name
      in
      if chosen off <> chosen zero then
        Alcotest.failf "%s: rate-0 plan changed the decision" spec.R.name;
      if off.E.cycles <> zero.E.cycles then
        Alcotest.failf "%s: rate-0 plan changed the cycles" spec.R.name;
      if chosen off <> chosen hot then
        Alcotest.failf "%s: fault injection leaked into the decision"
          spec.R.name)
    R.all

(* ---------------- serve: rationale + memoization ---------------- *)

module Sexp = Fv_fuzz.Sexp
module Gen = Fv_fuzz.Gen
module Corpus = Fv_fuzz.Corpus
module Service = Fv_serve.Service
module Plancache = Fv_serve.Plancache

let fresh_cfg () =
  Service.cfg
    ~cache:(Plancache.create ~cap:64 ())
    ~lines:(Plancache.create ~cap:64 ~metrics_prefix:"response_cache" ())
    ()

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let counter name =
  Fv_obs.Metrics.(total (snapshot global) name)

let auto_case_line (cs : Gen.case) : string =
  Sexp.to_line
    (Sexp.List
       [
         Sexp.Atom "request";
         Sexp.List [ Sexp.Atom "strategy"; Sexp.Atom "auto" ];
         Corpus.sexp_of_case cs;
       ])

let auto_loop_line (cs : Gen.case) : string =
  Sexp.to_line
    (Sexp.List
       [
         Sexp.Atom "request";
         Sexp.List [ Sexp.Atom "strategy"; Sexp.Atom "auto" ];
         Sexp.List [ Sexp.Atom "vl"; Sexp.Atom (string_of_int cs.Gen.vl) ];
         Corpus.sexp_of_loop cs.Gen.loop;
       ])

let status_of (line : string) : string =
  match Sexp.of_string line with
  | Sexp.List (Sexp.Atom "response" :: fields) -> (
      match Fv_serve.Protocol.one_atom "status" fields with
      | Some s -> s
      | None -> Alcotest.failf "response without status: %s" line)
  | _ -> Alcotest.failf "not a response line: %s" line

let test_serve_auto_rationale () =
  let c = fresh_cfg () in
  let cases = Fv_serve.Loadgen.distinct_cases ~n:6 ~seed:3 in
  let cs = List.hd cases in
  let line = auto_case_line cs in
  let cold = Service.handle c line in
  (match status_of cold with
  | "ok" | "rejected" -> ()
  | s -> Alcotest.failf "auto compile answered %s: %s" s cold);
  Alcotest.(check bool)
    "cold answer carries the decision rationale" true
    (contains ~needle:"(auto (chosen " cold);
  Alcotest.(check bool)
    "profiled case is not a static estimate" false
    (contains ~needle:"static-estimate" cold);
  (* replay: the decision (and its why) was memoized in the plan cache *)
  let ph0 = counter "plan_cache_hits" in
  let warm = Service.handle c ("  " ^ line) in
  Alcotest.(check int)
    "respelled replay hit the plan cache" (ph0 + 1)
    (counter "plan_cache_hits");
  Alcotest.(check bool)
    "warm answer still carries the rationale" true
    (contains ~needle:"(auto (chosen " warm);
  (* a bare loop has no memory image to profile: the rationale must
     mark the decision as a static prior *)
  let bare = Service.handle c (auto_loop_line cs) in
  Alcotest.(check bool)
    "bare-loop decision is marked static-estimate" true
    (contains ~needle:"static-estimate" bare)

let suite =
  [
    Alcotest.test_case "decisions identical at 1 vs 4 domains" `Quick
      test_decisions_domain_deterministic;
    Alcotest.test_case "generous budget is bit-identical" `Slow
      test_budget_off_bit_identity;
    Alcotest.test_case "fault injection never reaches the decision" `Slow
      test_fault_rate_zero_stability;
    Alcotest.test_case "serve answers auto with a memoized rationale" `Quick
      test_serve_auto_rationale;
  ]
