(** Deterministic request streams for the load bench and the CI smoke:
    well-formed fuzz-generator cases rendered as wire requests, and the
    pipe driver that serves a stream through the server loop. *)

module Sexp = Fv_fuzz.Sexp
module Corpus = Fv_fuzz.Corpus
module Gen = Fv_fuzz.Gen

let tag_fields ?id ?deadline_ms () =
  (match id with
  | Some i -> [ Sexp.List [ Sexp.Atom "id"; Sexp.Atom i ] ]
  | None -> [])
  @
  match deadline_ms with
  | Some ms ->
      [ Sexp.List [ Sexp.Atom "deadline-ms"; Sexp.Atom (string_of_int ms) ] ]
  | None -> []

(** Render [c] as a one-line compile request (optionally tagged with an
    id and a per-request deadline — the overload bench's pure-timeout
    leg stamps impossible deadlines here). *)
let request_line ?id ?deadline_ms (c : Gen.case) : string =
  let fields = tag_fields ?id ?deadline_ms () @ [ Corpus.sexp_of_case c ] in
  Sexp.to_line (Sexp.List (Sexp.Atom "request" :: fields))

(** The same, as a simulate request: the expensive op, the one worth a
    deadline. *)
let simulate_request_line ?id ?deadline_ms (c : Gen.case) : string =
  let fields =
    tag_fields ?id ?deadline_ms ()
    @ [
        Sexp.List [ Sexp.Atom "op"; Sexp.Atom "simulate" ];
        Corpus.sexp_of_case c;
      ]
  in
  Sexp.to_line (Sexp.List (Sexp.Atom "request" :: fields))

(** Render [c]'s loop (no memory image) as a one-line compile request —
    the load bench's wire shape: a few hundred bytes, so the warm path
    measures cache lookup rather than array parsing. *)
let loop_request_line ?id ?deadline_ms (c : Gen.case) : string =
  let fields =
    tag_fields ?id ?deadline_ms ()
    @ [
        Sexp.List [ Sexp.Atom "vl"; Sexp.Atom (string_of_int c.Gen.vl) ];
        Corpus.sexp_of_loop c.Gen.loop;
      ]
  in
  Sexp.to_line (Sexp.List (Sexp.Atom "request" :: fields))

(** [n] well-formed cases with pairwise-distinct compile keys (distinct
    loops up to canonicalization — duplicates would turn intended cold
    misses into accidental warm hits), derived deterministically from
    [seed]. *)
let distinct_cases ~(n : int) ~(seed : int) : Gen.case list =
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] in
  let found = ref 0 in
  let attempt = ref 0 in
  (* the generator space is vast; the attempt bound only guards against
     a pathological regression making everything collide *)
  while !found < n && !attempt < 100 * n do
    let c = Gen.case_of_seed ~p_malformed:0.0 (seed + !attempt) in
    incr attempt;
    let key =
      Protocol.compile_key ~vl:c.Gen.vl ~strategy:Fv_core.Experiment.Flexvec
        c.Gen.loop
    in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := c :: !out;
      incr found
    end
  done;
  List.rev !out

(** Serve [lines] through {!Server.serve_fd} over a pipe and return the
    responses in the order the server wrote them. A writer domain feeds
    the pipe: a stream longer than the pipe buffer would deadlock a
    write-everything-then-serve scheme. With [rate] (lines per second)
    the writer paces the stream open-loop: line [i] is written [i /.
    rate] seconds after the first, or late if the pipe pushed back,
    which is what an open-loop generator degrades to against a
    saturated server. *)
let serve_lines ?rate (scfg : Service.cfg) (o : Server.opts)
    (lines : string list) : string list =
  let r, w = Unix.pipe () in
  let writer =
    Domain.spawn (fun () ->
        let wc = Unix.out_channel_of_descr w in
        let t0 = Fv_obs.Clock.now () in
        List.iteri
          (fun i l ->
            Option.iter
              (fun rps ->
                let wait =
                  (float_of_int i /. rps) -. Fv_obs.Clock.elapsed ~since:t0
                in
                if wait > 0.0 then Unix.sleepf wait)
              rate;
            output_string wc l;
            output_char wc '\n';
            if rate <> None then flush wc)
          lines;
        close_out wc)
  in
  let path = Filename.temp_file "flexvec_serve" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let out = open_out path in
      Server.serve_fd scfg o ~in_fd:r ~out;
      close_out out;
      Unix.close r;
      Domain.join writer;
      In_channel.with_open_text path In_channel.input_lines)
