(* The end-to-end benchmark's command line. README.md describes the
   workloads, the metrics and how to read a comparison. *)

let workloads = [ "eval"; "compile-cold"; "serve-replay"; "simulate" ]

let usage =
  "usage:\n\
  \  e2e.exe --workload W --seed N --seconds S --trace 0|1 [--quick] [--server EXE]\n\
  \  e2e.exe series --out FILE [--out FILE]... [--runs N] [--seed N] [--seconds S]\n\
  \                 [--quick] [--server EXE]\n\
  \  e2e.exe compare A.json B.json [--bench BENCHMARK.json]\n\
  \  e2e.exe smoke --bench BENCHMARK.json [--server EXE]\n"

let die fmt = Printf.ksprintf (fun m -> prerr_string (m ^ "\n"); exit 2) fmt

(* ---------------- one run ---------------- *)

let run_one ~workload ~seed ~seconds ~trace ~quick ~server =
  if not (List.mem workload workloads) then
    die "unknown workload %S (one of %s)" workload (String.concat ", " workloads);
  let rep = Report.create ~workload ~trace in
  let c = { W_serve.exe = server; seed; seconds; quick } in
  (try
     match workload with
     | "eval" -> W_eval.run rep ~seed ~seconds ~quick
     | "compile-cold" -> W_compile.run rep ~seed ~seconds ~quick
     | "serve-replay" -> W_serve.replay rep c
     | _ -> W_serve.simulate rep c
   with Server.Died m ->
     Report.check rep false "the daemon failed: %s" m;
     Report.count rep ~n:1 ~bad:1);
  Report.print rep;
  exit (if Report.correct rep then 0 else 1)

(* ---------------- child runs ---------------- *)

(* Run one workload in a fresh child process of this executable, so GC
   state and peak memory stay separate; its result line, if it printed
   one, and whether it exited 0. *)
let child ?(echo = true) ~workload ~seed ~seconds ~trace ~quick ~server () :
    Json.t option * bool =
  let args =
    [
      Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
      "--server"; server;
    ]
    @ if quick then [ "--quick" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  if echo then
    List.iter (fun l -> if l <> "" && l.[0] <> '{' then print_endline l) lines;
  let last =
    List.fold_left
      (fun acc l -> if l <> "" && l.[0] = '{' then Some l else acc)
      None lines
  in
  ( Option.bind last (fun l -> try Some (Json.of_string l) with Json.Error _ -> None),
    status = Unix.WEXITED 0 )

(* ---------------- series ---------------- *)

(* What two series must share to be compared. *)
let config ~seeds ~seconds ~quick =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("domains", Json.Num (float_of_int W_serve.domains));
      ("window", Json.Num (float_of_int W_serve.window));
      ("open_rate_per_s", Json.Num W_serve.open_rate);
      ("seconds", Json.Num seconds);
      ("seeds", Json.List (List.map (fun s -> Json.Num (float_of_int s)) seeds));
      ("quick", Json.Bool quick);
      ("ocaml", Json.Str Sys.ocaml_version);
    ]

let series ~outs ~runs ~seed ~seconds ~quick ~server =
  let seeds = List.init runs (fun i -> seed + i) in
  let results = Array.make (List.length outs) [] in
  let ok = ref true in
  (* the sets are interleaved run by run, so drift in the machine hits
     each set alike *)
  List.iter
    (fun s ->
      Array.iteri
        (fun set _ ->
          List.iter
            (fun workload ->
              let res, exited_ok =
                child ~workload ~seed:s ~seconds ~trace:false ~quick ~server ()
              in
              if not exited_ok then ok := false;
              results.(set) <-
                Json.Obj
                  [
                    ("workload", Json.Str workload);
                    ("seed", Json.Num (float_of_int s));
                    ("result", Option.value ~default:Json.Null res);
                  ]
                :: results.(set))
            workloads)
        results)
    seeds;
  List.iteri
    (fun set path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("config", config ~seeds ~seconds ~quick);
                    ("runs", Json.List (List.rev results.(set)));
                  ]));
          output_char oc '\n'))
    outs;
  exit (if !ok then 0 else 1)

(* ---------------- smoke ---------------- *)

(* Every workload, untraced and traced, in its quick form: each must
   pass its checks and print exactly the metrics BENCHMARK.json names,
   with the same units, and no end-to-end metric may read 0. *)
let smoke ~bench ~server =
  let b = Json.of_file bench in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let names key field =
    List.map
      (fun m -> Json.to_str (Json.member field m))
      (Json.to_list (Json.member key b))
  in
  let declared key = List.combine (names key "name") (names key "unit") in
  let sorted l = List.sort compare l in
  if sorted (names "workloads" "name") <> sorted workloads then
    fail "BENCHMARK.json lists workloads %s, the benchmark runs %s"
      (String.concat "," (names "workloads" "name"))
      (String.concat "," workloads);
  List.iter
    (fun trace ->
      let key = if trace then "per_layer" else "end_to_end" in
      let want = declared key in
      if sorted want <> sorted (if trace then Report.per_layer else Report.end_to_end)
      then fail "BENCHMARK.json %s differs from the metrics the benchmark defines" key;
      List.iter
        (fun workload ->
          match
            child ~echo:false ~workload ~seed:1 ~seconds:1.0 ~trace ~quick:true
              ~server ()
          with
          | None, _ -> fail "%s: no result line" workload
          | Some r, exited_ok ->
              if not exited_ok then fail "%s: non-zero exit" workload;
              if Json.member "correct" r <> Json.Bool true then
                fail "%s: checks failed" workload;
              let got = Json.to_obj (Json.member "metrics" r) in
              List.iter
                (fun (name, unit) ->
                  match List.assoc_opt name got with
                  | None -> fail "%s: %s missing" workload name
                  | Some m ->
                      if Json.member "unit" m <> Json.Str unit then
                        fail "%s: %s is not in %s" workload name unit;
                      if (not trace) && Json.member "value" m = Json.Num 0.0 then
                        fail "%s: %s reads 0" workload name)
                want)
        workloads)
    [ false; true ];
  List.iter (fun m -> Printf.printf "smoke: FAILED: %s\n" m) (List.rev !failures);
  if !failures <> [] then exit 1;
  print_endline "smoke: every workload passed its checks and printed every metric"

(* ---------------- command line ---------------- *)

let () =
  let cmd, rest =
    match List.tl (Array.to_list Sys.argv) with
    | c :: rest when c <> "" && c.[0] <> '-' -> (c, rest)
    | rest -> ("run", rest)
  in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0
  and quick = ref false and server = ref "_build/default/bin/flexvec_cli.exe"
  and outs = ref [] and runs = ref 5
  and bench = ref "BENCHMARK.json" and files = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  workload to run");
      ("--seed", Arg.Set_int seed, "N  input seed (series: the first run's)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1  the per-layer breakdown instead");
      ("--quick", Arg.Set quick, " small inputs, for the smoke test");
      ("--server", Arg.Set_string server, "EXE  the flexvec_cli executable");
      ("--out", Arg.String (fun f -> outs := !outs @ [ f ]), "FILE  a series' output");
      ("--runs", Arg.Set_int runs, "N  runs per workload in a series");
      ("--bench", Arg.Set_string bench, "FILE  BENCHMARK.json");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0)
       (Array.of_list (Sys.executable_name :: rest))
       spec
       (fun f -> files := !files @ [ f ])
       usage
   with
  | Arg.Bad m -> die "%s" m
  | Arg.Help m ->
      print_string m;
      exit 0);
  match (cmd, !files) with
  | "run", [] ->
      if !workload = "" then die "%s" usage;
      if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
      run_one ~workload:!workload ~seed:!seed ~seconds:!seconds
        ~trace:(!trace = 1) ~quick:!quick ~server:!server
  | "series", [] ->
      if !outs = [] then die "series needs --out FILE";
      series ~outs:!outs ~runs:!runs ~seed:!seed ~seconds:!seconds
        ~quick:!quick ~server:!server
  | "compare", [ a; b ] -> exit (Compare.main ~bench:!bench a b)
  | "smoke", [] -> smoke ~bench:!bench ~server:!server
  | _ -> die "%s" usage
