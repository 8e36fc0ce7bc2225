(** Command-line plan for the bench harness, factored out of
    [bench/main.ml] so the parsing and up-front validation are unit
    testable. The historical bug this guards against: an unknown
    section name used to [exit 1] only when dispatch reached it, i.e.
    {e after} every earlier (valid) section had already run — wasting
    minutes of simulation before reporting a typo. All names are now
    validated before anything runs.

    Section names, [--domains] and [--trace-out] are the whole command
    line: every section replays on the event-driven scheduler, retries
    an RTM tile [Rtm_run.retries] times, and runs with the fault rate,
    seed and timeouts fixed in its own code. *)

type plan = {
  sections : string list;  (** validated, in request order; never empty *)
  domains : int option;  (** [--domains N]; [None] = pool default *)
  trace_out : string option;
      (** [--trace-out DIR]: write one Chrome trace-event JSON file per
          section ([trace_<section>.json], host wall-clock spans) into
          the directory, creating it if needed *)
}

let flag_value ~flag rest =
  match rest with
  | v :: rest' -> Ok (v, rest')
  | [] -> Error (Printf.sprintf "%s expects a value" flag)

let parse_domains s =
  match int_of_string_opt s with
  | Some d when d >= 1 -> Ok d
  | Some _ -> Error "--domains expects a positive integer"
  | None -> Error (Printf.sprintf "--domains: %S is not an integer" s)

(** Parse bench arguments (everything after [Sys.argv.(0)]). Accepts
    section names interleaved with [--domains N] and [--trace-out DIR]
    (each also accepts the [--flag=value] spelling). No section name
    means "run them all". Every requested section is validated against
    [available] — and rejected if requested twice, since each section
    writes one [BENCH_<name>.json] — before the plan is returned, so
    the caller runs nothing on a bad request. *)
let parse_args ~(available : string list) (args : string list) :
    (plan, string) result =
  let split_eq a =
    match String.index_opt a '=' with
    | Some i ->
        ( String.sub a 0 i,
          Some (String.sub a (i + 1) (String.length a - i - 1)) )
    | None -> (a, None)
  in
  let rec go (acc : plan) = function
    | [] -> Ok { acc with sections = List.rev acc.sections }
    | a :: rest -> (
        let flag, inline = split_eq a in
        (* [set parse k]: consume the flag's value (inline [--f=v] or the
           next argument), parse it, and continue with the updated plan *)
        let set parse k =
          let value =
            match inline with
            | Some v -> Ok (v, rest)
            | None -> flag_value ~flag rest
          in
          match value with
          | Error e -> Error e
          | Ok (v, rest') -> (
              match parse v with
              | Error e -> Error e
              | Ok x -> go (k x) rest')
        in
        match flag with
        | "--domains" -> set parse_domains (fun d -> { acc with domains = Some d })
        | "--trace-out" ->
            set (fun v -> Ok v) (fun d -> { acc with trace_out = Some d })
        | _ when String.length a >= 2 && String.sub a 0 2 = "--" ->
            (* includes bare [--]: there is no positional/flag separator
               here, and treating it as a section name used to yield a
               baffling [unknown section "--"] *)
            Error (Printf.sprintf "unknown option %s" a)
        | _ -> go { acc with sections = a :: acc.sections } rest)
  in
  match go { sections = []; domains = None; trace_out = None } args with
  | Error _ as e -> e
  | Ok plan -> (
      let unknown =
        List.filter (fun s -> not (List.mem s available)) plan.sections
      in
      (* each section writes BENCH_<name>.json, so a duplicate request
         would run twice and silently overwrite the first report *)
      let rec first_dup seen = function
        | [] -> None
        | s :: rest ->
            if List.mem s seen then Some s else first_dup (s :: seen) rest
      in
      match unknown with
      | [] -> (
          match first_dup [] plan.sections with
          | Some s ->
              Error
                (Printf.sprintf
                   "section %S requested more than once (each section runs \
                    once and writes one BENCH_%s.json)"
                   s s)
          | None ->
              Ok
                {
                  plan with
                  sections =
                    (if plan.sections = [] then available else plan.sections);
                })
      | _ ->
          Error
            (Printf.sprintf "unknown section%s %s (available: %s)"
               (if List.length unknown > 1 then "s" else "")
               (String.concat ", "
                  (List.map (Printf.sprintf "%S") unknown))
               (String.concat ", " available)))
