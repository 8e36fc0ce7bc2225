(** [e2e.exe compare A.json B.json]: two series of runs, side by side.

    For every workload and end-to-end metric it prints each side's
    median and quartiles and a verdict, against the metric's bound in
    [BENCHMARK.json]:

    - [worse]: B's median is worse than A's by more than the bound;
    - [better]: B wins at least nine in ten of the paired runs (same
      seed) and its median beats A's by more than the distance between
      A's quartiles;
    - [unresolved]: a side's quartiles lie further apart than the bound,
      so a shift of the bound cannot be told from noise (unless every run
      of one side beats every run of the other: then [better] or
      [worse]);
    - [within bound] otherwise.

    Two series are compared only if they pin the same configuration:
    core count, daemon domains, window, open-loop rate, run length,
    seeds, quick mode and OCaml version. The exit code is 1 if any
    verdict is [worse], 2 if the series cannot be compared. *)

type metric = { name : string; lower_better : bool; bound : float }

let metrics_of_bench (path : string) : metric list =
  List.map
    (fun m ->
      {
        name = Json.to_str (Json.member "name" m);
        lower_better = Json.member "better" m = Json.Str "lower";
        bound = Json.to_num (Json.member "bound" m);
      })
    (Json.to_list (Json.member "end_to_end" (Json.of_file path)))

(* (workload, seed) -> metric values of that run *)
let runs_of (series : Json.t) : ((string * float) * (string * float) list) list =
  List.filter_map
    (fun r ->
      match Json.member "result" r with
      | Json.Null -> None
      | res ->
          Some
            ( ( Json.to_str (Json.member "workload" r),
                Json.to_num (Json.member "seed" r) ),
              List.map
                (fun (k, v) -> (k, Json.to_num (Json.member "value" v)))
                (Json.to_obj (Json.member "metrics" res)) ))
    (Json.to_list (Json.member "runs" series))

(* [pairs] holds A's and B's value of each seed *)
let verdict (m : metric) (pairs : (float * float) list) : string * float =
  let xs = Array.of_list (List.map fst pairs)
  and ys = Array.of_list (List.map snd pairs) in
  let qa1, ma, qa3 = Stats.quartiles xs and qb1, mb, qb3 = Stats.quartiles ys in
  let worse_by x y = if m.lower_better then (y -. x) /. x else (x -. y) /. x in
  let shift = worse_by ma mb in
  let spread = Float.max ((qa3 -. qa1) /. ma) ((qb3 -. qb1) /. mb) in
  let better x y = worse_by x y < 0.0 in
  let all_better = Array.for_all (fun y -> Array.for_all (fun x -> better x y) xs) ys in
  let all_worse = Array.for_all (fun y -> Array.for_all (fun x -> better y x) xs) ys in
  let wins = List.length (List.filter (fun (x, y) -> better x y) pairs) in
  let v =
    if spread > m.bound then
      if all_better then "better" else if all_worse then "worse" else "unresolved"
    else if shift > m.bound then "worse"
    else if
      10 * wins >= 9 * List.length pairs
      && shift < 0.0
      && Float.abs (mb -. ma) > qa3 -. qa1
    then "better"
    else "within bound"
  in
  (v, shift)

let main ~(bench : string) (fa : string) (fb : string) : int =
  let a = Json.of_file fa and b = Json.of_file fb in
  let ca = Json.member "config" a and cb = Json.member "config" b in
  if ca <> cb then begin
    Printf.printf "compare: refused: the series pin different configurations\n  %s: %s\n  %s: %s\n"
      fa (Json.to_string ca) fb (Json.to_string cb);
    2
  end
  else
    let metrics = metrics_of_bench bench in
    let ra = runs_of a and rb = runs_of b in
    let workloads = List.sort_uniq compare (List.map (fun ((w, _), _) -> w) ra) in
    let worse = ref false in
    Printf.printf "%-13s %-17s %-31s %-31s %8s  %s\n" "workload" "metric"
      "A median [q1, q3]" "B median [q1, q3]" "worse by" "verdict";
    List.iter
      (fun w ->
        List.iter
          (fun (m : metric) ->
            let pairs =
              List.filter_map
                (fun ((w', seed), va) ->
                  if w' <> w then None
                  else
                    match (List.assoc_opt m.name va, List.assoc_opt (w, seed) rb) with
                    | Some x, Some vb -> Option.map (fun y -> (x, y)) (List.assoc_opt m.name vb)
                    | _ -> None)
                ra
            in
            if pairs <> [] then begin
              let v, shift = verdict m pairs in
              if v = "worse" then worse := true;
              let side xs =
                let q1, md, q3 = Stats.quartiles (Array.of_list xs) in
                Printf.sprintf "%.4g [%.4g, %.4g]" md q1 q3
              in
              Printf.printf "%-13s %-17s %-31s %-31s %7.1f%%  %s (bound %g%%)\n" w m.name
                (side (List.map fst pairs))
                (side (List.map snd pairs))
                (100.0 *. shift) v (100.0 *. m.bound)
            end)
          metrics)
      workloads;
    if !worse then 1 else 0
