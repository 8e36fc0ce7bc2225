(** Reading the program's own {!Fv_obs.Span} spans and
    {!Fv_obs.Metrics} counters.

    The library already records spans at its layer boundaries
    ([harness.build], [harness.trace], [harness.simulate], [sim.compile],
    [sim.replay], [compile.validate], [compile.classify],
    [compile.vectorize], and one [row i] span per pool element) once a
    recorder is installed. A traced run installs one around the work it
    breaks down; an untraced run never does, so its timings carry no
    span cost.

    A layer's {e self time} is its span's duration minus the part its
    child spans cover. Nesting follows from containment: spans recorded
    on one domain that lie inside another's interval are its children. *)

module S = Fv_obs.Span

let recorder : S.recorder = S.recorder ()

(** Run [f] with the span recorder installed; the spans it produced are
    returned with its result. *)
let recording (f : unit -> 'a) : 'a * S.event list =
  ignore (S.drain recorder);
  S.install recorder;
  match f () with
  | y ->
      S.uninstall ();
      (y, S.drain recorder)
  | exception e ->
      S.uninstall ();
      raise e

let duration (e : S.event) = e.S.t1 -. e.S.t0
let full_name (e : S.event) = if e.S.cat = "" then e.S.name else e.S.cat ^ "." ^ e.S.name
let is_row (e : S.event) = e.S.cat = "pool"

(** Each event with its self time (seconds). *)
let self_times (events : S.event list) : (S.event * float) list =
  let by_domain = Hashtbl.create 4 in
  List.iter
    (fun e ->
      Hashtbl.replace by_domain e.S.pid
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_domain e.S.pid)))
    events;
  Hashtbl.fold
    (fun _ evs acc ->
      (* parents first: earlier start, then the longer span *)
      let evs =
        List.sort
          (fun a b ->
            match Float.compare a.S.t0 b.S.t0 with
            | 0 -> Float.compare (duration b) (duration a)
            | c -> c)
          evs
      in
      let child = Hashtbl.create 64 in
      let stack = ref [] in
      List.iteri
        (fun i e ->
          let rec pop () =
            match !stack with
            | (_, p) :: rest when p.S.t1 < e.S.t1 ->
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | (pi, _) :: _ ->
              Hashtbl.replace child pi
                (duration e
                +. Option.value ~default:0.0 (Hashtbl.find_opt child pi))
          | [] -> ());
          stack := (i, e) :: !stack)
        evs;
      List.mapi
        (fun i e ->
          ( e,
            Float.max 0.0
              (duration e -. Option.value ~default:0.0 (Hashtbl.find_opt child i))
          ))
        evs
      @ acc)
    by_domain []

(** Sum of self times (seconds) of the spans named [names]. *)
let self_sum (selfs : (S.event * float) list) (names : string list) : float =
  List.fold_left
    (fun acc (e, s) -> if List.mem (full_name e) names then acc +. s else acc)
    0.0 selfs

(** Sum of full durations (seconds) of the spans named [names]. *)
let total (events : S.event list) (names : string list) : float =
  List.fold_left
    (fun acc e -> if List.mem (full_name e) names then acc +. duration e else acc)
    0.0 events

(** Layer name of each span the benchmark attributes, as reported. The
    self time of [harness.simulate] is the memo-table key and lookup
    around a replay, so it is counted with [sim.compile]. *)
let layers : (string * string list) list =
  [
    ("harness.build_us", [ "harness.build" ]);
    ("harness.trace_us", [ "harness.trace" ]);
    ("sim.compile_us", [ "sim.compile"; "harness.simulate" ]);
    ("sim.replay_us", [ "sim.replay" ]);
    ("pdg.classify_us", [ "compile.validate"; "compile.classify" ]);
    ("vectorizer.vectorize_us", [ "compile.vectorize" ]);
  ]

(** Total of counter [name] over every label set in the program's
    {!Fv_obs.Metrics.global} registry. *)
let counter (name : string) : int =
  List.fold_left
    (fun acc (s : Fv_obs.Metrics.snap) ->
      if s.Fv_obs.Metrics.s_name = name then acc + s.Fv_obs.Metrics.s_count
      else acc)
    0
    (Fv_obs.Metrics.snapshot Fv_obs.Metrics.global)
