(** The chaos harness ({!Fv_serve.Chaos}) and the self-healing serve
    path under it: plans are pure functions of [(seed, ordinal)], the
    differential oracle — every [ok] response under injected faults is
    byte-identical to the fault-free run — holds across seeds, and a
    repeating poison request walks the full quarantine arc: answered at
    the deadline, struck, then refused without touching the pool. *)

module Sexp = Fv_fuzz.Sexp
module Gen = Fv_fuzz.Gen
module P = Fv_serve.Protocol
module Service = Fv_serve.Service
module Server = Fv_serve.Server
module Plancache = Fv_serve.Plancache
module Loadgen = Fv_serve.Loadgen
module Chaos = Fv_serve.Chaos
module Quarantine = Fv_serve.Quarantine

let fresh_cfg () =
  Service.cfg
    ~cache:(Plancache.create ~cap:512 ())
    ~lines:(Plancache.create ~cap:512 ~metrics_prefix:"response_cache" ())
    ()

let fields_of_response (line : string) : Sexp.t list =
  match Sexp.of_string line with
  | Sexp.List (Sexp.Atom "response" :: fields) -> fields
  | _ -> Alcotest.failf "not a response line: %s" line

let field name line =
  match P.one_atom name (fields_of_response line) with
  | Some s -> s
  | None -> Alcotest.failf "response without %s: %s" name line

(* The plan is pure: same seed and ordinal, same decision — that is
   what lets the harness recompute which requests were injected after
   the fact — and the dials do what they say. *)
let test_plan_is_pure () =
  let c = Chaos.make ~rate:0.3 ~seed:42 () in
  let decisions =
    List.init 100 (fun ord -> Chaos.action c ~line:"x" ~ordinal:ord)
  in
  List.iteri
    (fun ord d ->
      Alcotest.(check bool)
        (Printf.sprintf "ordinal %d decides once" ord)
        true
        (Chaos.action c ~line:"x" ~ordinal:ord = d))
    decisions;
  let injected = List.length (List.filter (fun d -> d <> Chaos.Pass) decisions) in
  Alcotest.(check bool) "rate 0.3 injects some" true (injected > 0);
  Alcotest.(check bool) "rate 0.3 passes some" true (injected < 100);
  let off = Chaos.make ~rate:0.0 ~seed:42 () in
  Alcotest.(check bool) "rate 0 never injects" true
    (List.for_all
       (fun ord -> Chaos.action off ~line:"x" ~ordinal:ord = Chaos.Pass)
       (List.init 100 Fun.id));
  let poisoned = Chaos.make ~rate:0.0 ~poison:"BAD" ~seed:42 () in
  Alcotest.(check bool) "poison marker always slows" true
    (Chaos.action poisoned ~line:"a BAD b" ~ordinal:0 = Chaos.Slow);
  Alcotest.(check bool) "non-poison untouched at rate 0" true
    (Chaos.action poisoned ~line:"clean" ~ordinal:0 = Chaos.Pass)

(* The differential oracle, the acceptance bar for the whole harness:
   200 distinct requests, three chaos seeds at 5% injection with row
   timeouts armed. Every request is answered exactly once, every [ok]
   answer is byte-identical to the fault-free baseline, and the
   non-injected population stays >= 99% available. *)
let test_differential_oracle () =
  let n = 200 in
  let cases = Loadgen.distinct_cases ~n ~seed:21 in
  let lines =
    List.mapi
      (fun i (cs : Gen.case) ->
        Loadgen.loop_request_line ~id:(Printf.sprintf "o%d" i) cs)
      cases
  in
  let base_opts =
    {
      Server.default_opts with
      domains = Some 1;
      batch = 16;
      queue_cap = 4096;
    }
  in
  (* every response names its request and its status *)
  let well_formed (run : Loadgen.run) =
    List.iter (fun r -> ignore (field "id" r, field "status" r)) run.responses
  in
  let baseline = Loadgen.drive (fresh_cfg ()) base_opts lines in
  Alcotest.(check int) "baseline answers everything" n
    (List.length baseline.responses);
  well_formed baseline;
  let base_by_id = Loadgen.by_id baseline in
  List.iter
    (fun seed ->
      let chaos =
        Chaos.make ~rate:0.05 ~seed ~slow_s:0.06 ~transport_rate:0.05 ()
      in
      let o =
        { base_opts with row_timeout = Some 0.02; chaos = Some chaos }
      in
      let run = Loadgen.drive (fresh_cfg ()) o lines in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: every request answered exactly once" seed)
        n (List.length run.responses);
      well_formed run;
      (* recompute the plan to learn which ordinals were injected;
         admission order is line order here (nothing sheds) *)
      let injected_ids =
        List.combine lines (Chaos.injected chaos lines)
        |> List.filter_map (fun (line, hit) ->
               if not hit then None
               else
                 match Server.id_of_frame line with
                 | Some id -> Some id
                 | None -> Alcotest.fail "request line without id")
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: chaos actually injected" seed)
        true
        (List.length injected_ids > 0);
      let mismatches = Loadgen.mismatches ~baseline run in
      List.iter (fun r -> Printf.eprintf "oracle mismatch: %s\n" r) mismatches;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: ok responses byte-identical to baseline" seed)
        0 (List.length mismatches);
      let non_injected_ok =
        List.filter
          (fun r ->
            let id = field "id" r in
            (not (List.mem id injected_ids))
            && match List.assoc_opt id base_by_id with
               | Some b -> String.equal b r
               | None -> false)
          run.responses
      in
      let non_injected = n - List.length injected_ids in
      let avail =
        float_of_int (List.length non_injected_ok)
        /. float_of_int (max 1 non_injected)
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: non-injected availability %.4f >= 0.99" seed
           avail)
        true (avail >= 0.99))
    [ 101; 202; 303 ]

(* The quarantine arc end to end: a poison request that wedges its
   worker is answered at the deadline and struck; at [max_strikes] it
   is refused up front with a structured error; the reproducer file
   holds the exact request bytes; honest requests keep being served
   throughout. *)
let test_quarantine_arc () =
  let cases = Loadgen.distinct_cases ~n:2 ~seed:4 in
  let poison_line =
    Loadgen.loop_request_line ~id:"poison" (List.nth cases 0)
  in
  let good_line = Loadgen.loop_request_line ~id:"good" (List.nth cases 1) in
  let dir = Filename.temp_file "quarantine_test" "" in
  Sys.remove dir;
  let qt = Quarantine.create ~max_strikes:2 ~dir () in
  let o =
    {
      Server.default_opts with
      domains = Some 1;
      batch = 1;
      queue_cap = 64;
      row_timeout = Some 0.01;
      quarantine = Some qt;
      chaos = Some (Chaos.make ~rate:0.0 ~slow_s:0.05 ~poison:"(id poison)" ());
    }
  in
  let lines =
    [ poison_line; good_line; poison_line; poison_line; poison_line ]
  in
  let responses = Loadgen.serve_lines (fresh_cfg ()) o lines in
  Alcotest.(check int) "everything answered" 5 (List.length responses);
  let status i = field "status" (List.nth responses i) in
  Alcotest.(check string) "first poison answered at the deadline"
    "deadline-exceeded" (status 0);
  Alcotest.(check bool) "honest request served between strikes" true
    (status 1 <> "deadline-exceeded" && status 1 <> "error");
  Alcotest.(check string) "second poison is the last pool failure"
    "deadline-exceeded" (status 2);
  Alcotest.(check string) "third occurrence refused up front" "error"
    (status 3);
  Alcotest.(check string) "and every one after it" "error" (status 4);
  Alcotest.(check bool) "refusal names the quarantine" true
    (let r = List.nth responses 3 in
     let needle = "quarantined" in
     let nl = String.length needle and hl = String.length r in
     let found = ref false in
     for i = 0 to hl - nl do
       if (not !found) && String.sub r i nl = needle then found := true
     done;
     !found);
  Alcotest.(check bool) "table blocks the line" true
    (Quarantine.blocked qt ~line:poison_line);
  Alcotest.(check int) "exactly two strikes" 2
    (Quarantine.strikes qt ~line:poison_line);
  (* the reproducer is the exact request bytes, replayable as-is *)
  let repro =
    Filename.concat dir
      (Printf.sprintf "cex-%016Lx.sexp" (Fv_obs.Hash.fnv1a64 poison_line))
  in
  Alcotest.(check bool) "reproducer persisted" true (Sys.file_exists repro);
  let ic = open_in repro in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "reproducer is the raw line" (poison_line ^ "\n")
    content;
  Sys.remove repro;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

(* The table itself: strike counts are per exact bytes, the capacity
   bound holds against a stream of distinct offenders, and an evicted
   offender starts over at zero. *)
let test_quarantine_table_bounded () =
  let qt = Quarantine.create ~cap:4 ~max_strikes:2 () in
  Alcotest.(check int) "first strike" 1 (Quarantine.strike qt ~line:"p");
  Alcotest.(check bool) "one strike does not block" false
    (Quarantine.blocked qt ~line:"p");
  Alcotest.(check int) "second strike" 2 (Quarantine.strike qt ~line:"p");
  Alcotest.(check bool) "max_strikes blocks" true
    (Quarantine.blocked qt ~line:"p");
  Alcotest.(check int) "different bytes, different offender" 1
    (Quarantine.strike qt ~line:"p ");
  for i = 0 to 19 do
    ignore (Quarantine.strike qt ~line:(Printf.sprintf "distinct-%d" i))
  done;
  Alcotest.(check bool) "table stays bounded" true (Quarantine.size qt <= 4);
  Alcotest.(check int) "never-struck line reads zero" 0
    (Quarantine.strikes qt ~line:"unseen")

(* The oracle's reading of two runs: an [ok] answer whose bytes differ
   from the baseline's answer to the same id (or that the baseline
   never gave) is a mismatch; an answer chaos failed is not. *)
let test_mismatches () =
  let run responses =
    { Loadgen.responses; wall_s = 0.0; before = []; after = [] }
  in
  let baseline =
    run
      [
        "(response (id a) (status ok) (x 1))";
        "(response (id b) (status ok) (x 2))";
        "(response (id c) (status ok) (x 3))";
      ]
  in
  let changed = "(response (id b) (status ok) (x 9))"
  and unanswered = "(response (id d) (status ok) (x 4))" in
  let chaos =
    run
      [
        "(response (id a) (status ok) (x 1))";
        changed;
        "(response (id c) (status deadline-exceeded))";
        unanswered;
      ]
  in
  Alcotest.(check (list string))
    "the changed ok answer and the unanswered id" [ changed; unanswered ]
    (Loadgen.mismatches ~baseline chaos);
  Alcotest.(check (list string)) "a run against itself" []
    (Loadgen.mismatches ~baseline baseline)

let suite =
  [
    Alcotest.test_case "chaos plan is pure and seeded" `Quick
      test_plan_is_pure;
    Alcotest.test_case "differential oracle: 200 requests x 3 seeds" `Slow
      test_differential_oracle;
    Alcotest.test_case "quarantine arc: strike, block, reproduce" `Quick
      test_quarantine_arc;
    Alcotest.test_case "quarantine table is bounded" `Quick
      test_quarantine_table_bounded;
    Alcotest.test_case "oracle: only changed ok answers mismatch" `Quick
      test_mismatches;
  ]
