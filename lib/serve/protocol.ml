(** Wire protocol of the compile service.

    Newline-delimited s-expressions ({!Fv_fuzz.Sexp}), the same dialect
    the fuzzer's counterexample corpus uses — one request per line in,
    one response per line out, in request order. A request is

    {v
    (request (id r1)? (op compile|simulate)? (vl N)? (tile N)?
             (strategy scalar|flexvec|wholesale|traditional|rtm|auto)?
             (deadline-ms N)?
             <payload>)
    v}

    [strategy auto] asks the calibrated {!Fv_auto} cost model to pick:
    the response carries an [(auto (chosen ...) (features ...)
    (predicted ...))] rationale alongside the normal body, and the
    cached plan entry stores it too, so the cache records {e why} a
    strategy was picked. A compile-only request with a bare loop decides
    from a static feature estimate (marked [static-estimate]); a
    [(case ...)] payload is profiled for real.

    where [<payload>] is a [(loop ...)] or a [(case ...)] in the corpus
    encoding ({!Fv_fuzz.Corpus}). Every field except the payload is
    optional: [op] defaults to [compile], [strategy] to [flexvec], [vl]
    to the case's own vector length (or 16 for a bare loop), [tile] (the
    RTM strip-mining tile) to 256 as in the CLI. As a convenience a bare
    [(loop ...)] or [(case ...)] is accepted as a whole request meaning
    "compile this with the defaults" — so a corpus directory can be
    replayed by piping its files straight into the server.

    [compile] runs the total front end (validate → classify →
    vectorize) and answers with the rendered plan and instruction mix —
    byte-identical to what [flexvec_cli show] prints for the same loop —
    or the structured rejection diagnostic. [simulate] additionally
    needs the initial memory image and scalar environment, so its
    payload must be a [(case ...)]; it answers with hot-loop cycle
    counts for the requested strategy against the scalar baseline.

    A response is

    {v
    (response (id r1)? (status S) <body>)
    v}

    with [status] one of [ok], [rejected] (the front end refused the
    loop; body carries the diagnostic), [invalid] (unparseable or
    ill-formed request), [deadline-exceeded], [overloaded] (shed by
    backpressure before any work was done), [oversized], or [error]
    (internal failure — the server never crashes on a request). Compile
    responses carry [(cached true|false)]: whether the plan came out of
    the content-addressed {!Plancache}. *)

module Sexp = Fv_fuzz.Sexp
module Corpus = Fv_fuzz.Corpus
module E = Fv_core.Experiment

type op = Compile | Simulate

(** Payloads stay as parsed sexps until someone needs the AST: the warm
    compile path keys the cache on the {e sexp}'s canonical line and
    never decodes, so a cache hit costs a parse and a hash rather than
    an AST round-trip. Decoding (and its [Corpus_error] on a malformed
    body) happens on the cold path. *)
type payload = Loop_s of Sexp.t | Case_s of Sexp.t

type request = {
  id : string option;
  op : op;
  vl : int option;  (** [None]: the case's own vl, or 16 for a bare loop *)
  strategy : E.strategy;
  deadline_ms : int option;  (** overrides the server default, if any *)
  payload : payload;
}

exception Bad_request of string

let bad fmt = Fmt.kstr (fun m -> raise (Bad_request m)) fmt

let strategy_of_atom ~tile = function
  | "scalar" -> E.Scalar
  | "flexvec" -> E.Flexvec
  | "wholesale" -> E.Wholesale
  | "traditional" -> E.Traditional
  | "rtm" -> E.Rtm tile
  | "auto" -> E.Auto
  | s -> bad "unknown strategy %S" s

let show_strategy = function
  | E.Scalar -> "scalar"
  | E.Flexvec -> "flexvec"
  | E.Wholesale -> "wholesale"
  | E.Traditional -> "traditional"
  | E.Rtm _ -> "rtm"
  | E.Auto -> "auto"

(* fields of a (request ...) body: (name value...) lists, looked up by
   name exactly like the corpus decoder does *)
let field name fields =
  List.find_map
    (function
      | Sexp.List (Sexp.Atom a :: rest) when a = name -> Some rest | _ -> None)
    fields

let one_atom name fields =
  match field name fields with
  | None -> None
  | Some [ Sexp.Atom a ] -> Some a
  | Some _ -> bad "field %S wants exactly one atom" name

let one_int name fields =
  match one_atom name fields with
  | None -> None
  | Some a -> (
      match int_of_string_opt a with
      | Some i -> Some i
      | None -> bad "field %S: %S is not an integer" name a)

let payload_of_sexp (s : Sexp.t) : payload option =
  match s with
  | Sexp.List (Sexp.Atom "loop" :: _) -> Some (Loop_s s)
  | Sexp.List (Sexp.Atom "case" :: _) -> Some (Case_s s)
  | _ -> None

(** The [(loop ...)] sexp inside the payload (a case's loop field, or
    the payload itself). *)
let loop_sexp_of_payload : payload -> Sexp.t = function
  | Loop_s s -> s
  | Case_s (Sexp.List (_ :: fields)) -> (
      match
        List.find_opt
          (function Sexp.List (Sexp.Atom "loop" :: _) -> true | _ -> false)
          fields
      with
      | Some l -> l
      | None -> bad "case has no (loop ...) field")
  | Case_s _ -> bad "malformed case"

(** The payload's vector length without a full decode: a case's [vl]
    field, or [None] for a bare loop. *)
let vl_of_payload : payload -> int option = function
  | Loop_s _ -> None
  | Case_s (Sexp.List (_ :: fields)) -> one_int "vl" fields
  | Case_s _ -> None

(** Decode a request. Raises {!Bad_request} (or {!Corpus.Corpus_error}
    from the payload decoder) on ill-formed input. *)
let request_of_sexp (s : Sexp.t) : request =
  let of_fields fields =
    let op =
      match one_atom "op" fields with
      | None | Some "compile" -> Compile
      | Some "simulate" -> Simulate
      | Some o -> bad "unknown op %S" o
    in
    let tile = Option.value ~default:256 (one_int "tile" fields) in
    let strategy =
      match one_atom "strategy" fields with
      | None -> E.Flexvec
      | Some a -> strategy_of_atom ~tile a
    in
    let payload =
      match List.filter_map payload_of_sexp fields with
      | [ p ] -> p
      | [] -> bad "request has no (loop ...) or (case ...) payload"
      | _ -> bad "request has more than one payload"
    in
    (match (op, payload) with
    | Simulate, Loop_s _ ->
        bad "op simulate needs a (case ...) payload (memory image and env)"
    | _ -> ());
    {
      id = one_atom "id" fields;
      op;
      vl = one_int "vl" fields;
      strategy;
      deadline_ms = one_int "deadline-ms" fields;
      payload;
    }
  in
  match s with
  | Sexp.List (Sexp.Atom "request" :: fields) -> of_fields fields
  | Sexp.List (Sexp.Atom ("loop" | "case") :: _) -> of_fields [ s ]
  | _ -> bad "expected (request ...), (loop ...) or (case ...)"

(** Best-effort [(deadline-ms N)] extraction from a raw frame, without
    a parse: a substring scan, exactly the shape of the bench's
    response-field scanner. Used at {e admission} — where the server
    decides whether a frame is worth queueing at all — so it must cost
    nanoseconds, not a sexp parse. The authoritative deadline is still
    re-derived by the full decoder in {!request_of_sexp}; a scan fooled
    by the literal text inside a quoted string merely mis-prioritizes
    one frame, it never changes an answer. *)
let deadline_ms_of_line (line : string) : int option =
  let pat = "(deadline-ms " in
  let ll = String.length line and lp = String.length pat in
  let rec find i =
    if i + lp > ll then None
    else if String.equal (String.sub line i lp) pat then Some (i + lp)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
      match String.index_from_opt line start ')' with
      | None -> None
      | Some stop -> int_of_string_opt (String.sub line start (stop - start)))

(* ---------------- canonical compile key ---------------- *)

(** The content address of a compile request: everything the plan
    depends on — vl, strategy (style + tile for rtm) and the loop sexp —
    in canonical one-line form. Requests that differ only in id,
    deadline, whitespace or comments share a key. The loop is
    canonicalized as the {e parsed sexp}, not an AST round-trip, so the
    warm path never builds a loop; a client spelling the same loop two
    structurally different ways costs at worst one extra cold compile. *)
let compile_key_of_sexp ~(vl : int) ~(strategy : E.strategy)
    (loop_sexp : Sexp.t) : string =
  let strat =
    match strategy with
    | E.Rtm tile ->
        Sexp.List [ Sexp.Atom "rtm"; Sexp.Atom (string_of_int tile) ]
    | s -> Sexp.Atom (show_strategy s)
  in
  Sexp.to_line
    (Sexp.List
       [
         Sexp.Atom "plan";
         Sexp.List [ Sexp.Atom "vl"; Sexp.Atom (string_of_int vl) ];
         Sexp.List [ Sexp.Atom "strategy"; strat ];
         loop_sexp;
       ])

let compile_key ~(vl : int) ~(strategy : E.strategy) (l : Fv_ir.Ast.loop) :
    string =
  compile_key_of_sexp ~vl ~strategy (Corpus.sexp_of_loop l)

(* ---------------- responses ---------------- *)

type status =
  | Ok_
  | Rejected
  | Rejected_cost
      (** admission control: the request's estimated cost already
          exceeds its deadline, so running it would only burn a worker
          on a guaranteed [deadline-exceeded] *)
  | Invalid
  | Deadline_exceeded
  | Overloaded
  | Oversized
  | Internal_error

let status_atom = function
  | Ok_ -> "ok"
  | Rejected -> "rejected"
  | Rejected_cost -> "rejected-cost"
  | Invalid -> "invalid"
  | Deadline_exceeded -> "deadline-exceeded"
  | Overloaded -> "overloaded"
  | Oversized -> "oversized"
  | Internal_error -> "error"

(** [(status S) <body...>] rendered canonically — the response minus
    the envelope and the id. Cached verbatim by the plan cache so a hit
    skips re-quoting a multi-kilobyte plan string. *)
let render_tail ~(status : status) (body : Sexp.t list) : string =
  String.concat " "
    (List.map Sexp.to_line
       (Sexp.List [ Sexp.Atom "status"; Sexp.Atom (status_atom status) ]
       :: body))

(** Assemble the response envelope around a pre-rendered tail.
    Byte-identical to rendering the whole response sexp with
    {!Sexp.to_line} — both put exactly one space between fields. *)
let response_of_tail ?id (tail : string) : string =
  match id with
  | None -> "(response " ^ tail ^ ")"
  | Some i ->
      "(response "
      ^ Sexp.to_line (Sexp.List [ Sexp.Atom "id"; Sexp.Atom i ])
      ^ " " ^ tail ^ ")"

(** Render a one-line response. [body] fields follow the status. *)
let response_line ?id ~(status : status) (body : Sexp.t list) : string =
  response_of_tail ?id (render_tail ~status body)

let error_body msg = [ Sexp.List [ Sexp.Atom "error"; Sexp.Atom msg ] ]

let sexp_of_diagnostic (d : Fv_ir.Validate.diagnostic) : Sexp.t =
  Sexp.List
    [
      Sexp.Atom "diagnostic";
      Sexp.List
        [
          Sexp.Atom "stmt";
          Sexp.Atom
            (match d.Fv_ir.Validate.stmt with
            | Some i -> string_of_int i
            | None -> "none");
        ];
      Sexp.List
        [
          Sexp.Atom "severity";
          Sexp.Atom
            (match d.Fv_ir.Validate.severity with
            | Fv_ir.Validate.Reject -> "reject"
            | Fv_ir.Validate.Warn -> "warn");
        ];
      Sexp.List
        [
          Sexp.Atom "reason";
          Sexp.Atom (Fv_ir.Validate.reason_label d.Fv_ir.Validate.reason);
        ];
      Sexp.List
        [ Sexp.Atom "detail"; Sexp.Atom (Fv_ir.Validate.describe d) ];
    ]

let bool_atom b = Sexp.Atom (if b then "true" else "false")

(** Body of a successful compile response. *)
let compile_ok_body ~cached ~(plan : string) ~(mix : string) : Sexp.t list =
  [
    Sexp.List [ Sexp.Atom "cached"; bool_atom cached ];
    Sexp.List [ Sexp.Atom "plan"; Sexp.Atom plan ];
    Sexp.List [ Sexp.Atom "mix"; Sexp.Atom mix ];
  ]

let compile_rejected_body ~cached (d : Fv_ir.Validate.diagnostic) :
    Sexp.t list =
  [
    Sexp.List [ Sexp.Atom "cached"; bool_atom cached ]; sexp_of_diagnostic d;
  ]

(** The rationale of an auto decision: the chosen arm, the feature
    vector it was chosen on, and every arm's predicted cycles. Rendered
    into compile/simulate response bodies — and therefore into the plan
    cache's stored tail, which is how a cached entry records {e why} a
    strategy was picked. [static] marks a decision made from the
    {!Fv_auto.Features.of_static} estimate rather than a real profile. *)
let auto_sexp ?(static = false) (p : E.auto_pick) : Sexp.t =
  Sexp.List
    ((Sexp.Atom "auto"
      :: Sexp.List
           [ Sexp.Atom "chosen"; Sexp.Atom (E.strategy_atom p.E.a_chosen) ]
      :: Sexp.List
           [
             Sexp.Atom "predicted-cycles";
             Sexp.Atom (Printf.sprintf "%.1f" (E.predicted_cycles p));
           ]
      ::
      (if static then
         [ Sexp.List [ Sexp.Atom "basis"; Sexp.Atom "static-estimate" ] ]
       else []))
    @ [
        Sexp.List
          (Sexp.Atom "features"
          :: List.map
               (fun (k, v) -> Sexp.List [ Sexp.Atom k; Sexp.Atom v ])
               (Fv_auto.Features.to_fields p.E.a_features));
        Sexp.List
          (Sexp.Atom "predicted"
          :: List.map
               (fun (s, c) ->
                 Sexp.List
                   [ Sexp.Atom (E.strategy_atom s);
                     Sexp.Atom (Printf.sprintf "%.1f" c);
                   ])
               p.E.a_predicted);
      ])

(** Body of a successful simulate response: the hot-loop comparison the
    one-shot [flexvec_cli simulate] prints, in machine-readable form.
    An [Auto] run's body additionally carries its decision rationale. *)
let simulate_ok_body ~(scalar : E.hot_run) ~(run : E.hot_run) : Sexp.t list =
  (match run.E.auto with Some p -> [ auto_sexp p ] | None -> [])
  @ [
    Sexp.List
      [ Sexp.Atom "compile"; Sexp.Atom (E.show_compile_status run.E.compile) ];
    Sexp.List
      [ Sexp.Atom "cycles"; Sexp.Atom (string_of_int run.E.cycles) ];
    Sexp.List
      [
        Sexp.Atom "scalar-cycles"; Sexp.Atom (string_of_int scalar.E.cycles);
      ];
    Sexp.List
      [
        Sexp.Atom "speedup";
        Sexp.Atom (Printf.sprintf "%.6f" (E.hot_speedup ~baseline:scalar run));
      ];
    Sexp.List [ Sexp.Atom "uops"; Sexp.Atom (string_of_int run.E.uops) ];
  ]
