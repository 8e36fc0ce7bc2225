(** Stage-by-stage replays of [Service.handle], for the traced runs.

    [Service.handle] records no spans, so a traced run replays its
    requests through the same public functions, one stage at a time,
    each timed with the ns clock: the response memo lookup, the sexp
    parse, the request decode, the canonical key, the plan-cache lookup,
    the corpus decode, the front end, rendering, and the cache stores.
    The front end's own spans split [Gen.vectorize] into classification
    and code generation, and the simulator's spans split an experiment
    leg into trace compilation and replay.

    The replay follows [Service.handle] for the requests the benchmark
    sends: no deadline, nominal brownout, no admission control, and the
    default [flexvec] strategy. Every answer it gives is checked against
    [Service.handle]'s, byte for byte, so a replay that has drifted from
    the library fails the traced run instead of timing other work. What
    it does not reproduce (the request counters, closures, the
    envelope's bookkeeping) is what [unattributed_frac] measures: the gap
    between the sum of the stages and [Service.handle] timed over the
    same requests. *)

module P = Fv_serve.Protocol
module Pc = Fv_serve.Plancache
module Svc = Fv_serve.Service
module Sexp = Fv_fuzz.Sexp
module Corpus = Fv_fuzz.Corpus
module E = Fv_core.Experiment

(** The request-path stages, in [Service.handle] order, then the
    experiment layers a simulate request adds. *)
let stages =
  [|
    "serve.memo_find";
    "sexp.parse";
    "protocol.decode";
    "protocol.key";
    "plancache.find";
    "corpus.decode";
    "pdg.classify";
    "vectorizer.vectorize";
    "vir.render";
    "protocol.render";
    "plancache.put";
    "harness.trace";
    "sim.compile";
    "sim.replay";
    "oracle.check";
    "experiment.scalar_leg";
    "experiment.strategy_leg";
  |]

let index name =
  let rec go i = if stages.(i) = name then i else go (i + 1) in
  go 0

let memo_find = index "serve.memo_find"
let parse = index "sexp.parse"
let decode = index "protocol.decode"
let key = index "protocol.key"
let plan_find = index "plancache.find"
let corpus = index "corpus.decode"
let classify = index "pdg.classify"
let vectorize = index "vectorizer.vectorize"
let vir_render = index "vir.render"
let render = index "protocol.render"
let put = index "plancache.put"
let trace = index "harness.trace"
let sim_compile = index "sim.compile"
let sim_replay = index "sim.replay"
let oracle = index "oracle.check"
let scalar_leg = index "experiment.scalar_leg"
let strategy_leg = index "experiment.strategy_leg"

(* the experiment legs enclose the layers listed after them, so only
   the legs count towards the sum compared with [Service.handle] *)
let additive i = i <= put || i = scalar_leg || i = strategy_leg

type acc = {
  total_ns : float array;  (** per stage, over every request *)
  calls : Stats.samples array;  (** per stage, one sample per call *)
  mutable ops : int;
  mutable uops : int;  (** simulated uops, simulate requests *)
  mutable speedups : float list;  (** hot-loop speedups, simulate requests *)
}

let acc () =
  {
    total_ns = Array.make (Array.length stages) 0.0;
    calls = Array.init (Array.length stages) (fun _ -> Stats.samples ());
    ops = 0;
    uops = 0;
    speedups = [];
  }

let record (a : acc) i ns =
  a.total_ns.(i) <- a.total_ns.(i) +. ns;
  Stats.add a.calls.(i) ns

(* a layer inside an experiment leg: it has no per-call sample *)
let add_total (a : acc) i ns = a.total_ns.(i) <- a.total_ns.(i) +. ns

let timed (a : acc) i f =
  let y, ns = Stats.time f in
  record a i ns;
  y

(** Sum of the stages that add up to a request, ns. *)
let additive_ns (a : acc) : float =
  let s = ref 0.0 in
  Array.iteri (fun i ns -> if additive i then s := !s +. ns) a.total_ns;
  !s

(** [Gen.vectorize], split by its spans into classification
    ([compile.validate] + [compile.classify]) and code generation (the
    rest of the call). *)
let front_end (a : acc) ~vl l =
  let (res, ns), events =
    Obs.recording (fun () ->
        Stats.time (fun () ->
            Fv_vectorizer.Gen.vectorize ~vl ~style:Fv_vectorizer.Gen.Flexvec l))
  in
  let cls = Obs.total events [ "compile.validate"; "compile.classify" ] *. 1e9 in
  record a classify cls;
  record a vectorize (ns -. cls);
  res

let status_of_ok ok = if ok then P.Ok_ else P.Rejected

(* the memo store and the envelope, shared by both request kinds *)
let finish (a : acc) (c : Svc.cfg) ~line ~id ~op ~status ~tail ~hit_tail =
  (match status with
  | P.Ok_ | P.Rejected ->
      timed a put (fun () ->
          Pc.put c.Svc.lines ~canonical:line
            {
              Pc.p_tail = P.response_of_tail ?id hit_tail;
              p_ok = status = P.Ok_;
              p_op = op;
            })
  | _ -> ());
  timed a render (fun () -> P.response_of_tail ?id tail)

let parse_request (a : acc) line =
  let s = timed a parse (fun () -> Sexp.of_string line) in
  timed a decode (fun () -> P.request_of_sexp s)

(** One compile request, as [Service.handle] answers it. *)
let compile (a : acc) (c : Svc.cfg) (line : string) : string =
  a.ops <- a.ops + 1;
  match timed a memo_find (fun () -> Pc.find c.Svc.lines ~canonical:line) with
  | Some p -> p.Pc.p_tail
  | None ->
      let r = parse_request a line in
      let vl, loop_sexp, canonical =
        timed a key (fun () ->
            let vl =
              match r.P.vl with
              | Some v -> v
              | None -> Option.value ~default:16 (P.vl_of_payload r.P.payload)
            in
            let loop_sexp = P.loop_sexp_of_payload r.P.payload in
            (vl, loop_sexp, P.compile_key_of_sexp ~vl ~strategy:r.P.strategy loop_sexp))
      in
      let status, tail, hit_tail =
        match timed a plan_find (fun () -> Pc.find c.Svc.cache ~canonical) with
        | Some p -> (status_of_ok p.Pc.p_ok, p.Pc.p_tail, p.Pc.p_tail)
        | None ->
            let l = timed a corpus (fun () -> Corpus.loop_of_sexp loop_sexp) in
            let res = front_end a ~vl l in
            let rendered = timed a vir_render (fun () -> Result.map Svc.render_vloop res) in
            let body, ok =
              match rendered with
              | Ok (plan, mix) -> ((fun cached -> P.compile_ok_body ~cached ~plan ~mix), true)
              | Error d -> ((fun cached -> P.compile_rejected_body ~cached d), false)
            in
            let status = status_of_ok ok in
            let tail, hit_tail =
              timed a render (fun () ->
                  (P.render_tail ~status (body false), P.render_tail ~status (body true)))
            in
            timed a put (fun () ->
                Pc.put c.Svc.cache ~canonical
                  { Pc.p_tail = hit_tail; p_ok = ok; p_op = "compile" });
            (status, tail, hit_tail)
      in
      finish a c ~line ~id:r.P.id ~op:"compile" ~status ~tail ~hit_tail

(* One experiment leg: its inclusive time, and the layers inside it
   from its spans. Whatever the spans do not cover is tracing and
   emulation, apart from the oracle's execution, which is estimated by
   running [Oracle.check] on the same case. *)
let leg (a : acc) i ~oracle_ns (f : unit -> E.hot_run) : E.hot_run =
  let (run, ns), events = Obs.recording (fun () -> Stats.time f) in
  record a i ns;
  let span names = Obs.total events names *. 1e9 in
  let cls = span [ "compile.validate"; "compile.classify" ] in
  let vec = span [ "compile.vectorize" ] in
  (* [harness.simulate] encloses the trace compilation and the replay *)
  let sim = span [ "harness.simulate" ] in
  let replay = span [ "sim.replay" ] in
  add_total a classify cls;
  add_total a vectorize vec;
  add_total a sim_compile (sim -. replay);
  add_total a sim_replay replay;
  add_total a oracle oracle_ns;
  add_total a trace (ns -. cls -. vec -. sim -. oracle_ns);
  (* a leg answered from the trace memo table replayed nothing *)
  if replay > 0.0 then a.uops <- a.uops + run.E.uops;
  run

(* the oracle's execution inside a flexvec leg: the check minus the
   compile it starts with, which the leg's spans already count *)
let oracle_estimate ~vl (cs : Fv_fuzz.Gen.case) : float =
  let l = cs.Fv_fuzz.Gen.loop in
  match
    Fv_vectorizer.Gen.vectorize ~vl ~style:Fv_vectorizer.Gen.Flexvec l
  with
  | Error _ -> 0.0
  | Ok _ ->
      let _, t_check =
        Stats.time (fun () ->
            Fv_core.Oracle.check ~vl ~style:Fv_vectorizer.Gen.Flexvec l
              (Fv_fuzz.Gen.memory_of cs) cs.Fv_fuzz.Gen.env)
      in
      let _, t_vec =
        Stats.time (fun () ->
            Fv_vectorizer.Gen.vectorize ~vl ~style:Fv_vectorizer.Gen.Flexvec l)
      in
      Float.max 0.0 (t_check -. t_vec)

(** One simulate request, as [Service.handle] answers it. *)
let simulate (a : acc) (c : Svc.cfg) (line : string) : string =
  a.ops <- a.ops + 1;
  match timed a memo_find (fun () -> Pc.find c.Svc.lines ~canonical:line) with
  | Some p -> p.Pc.p_tail
  | None ->
      let r = parse_request a line in
      let cs =
        timed a corpus (fun () ->
            match r.P.payload with
            | P.Case_s s -> Corpus.case_of_sexp s
            | P.Loop_s _ -> invalid_arg "simulate request without a case")
      in
      let vl = Option.value ~default:cs.Fv_fuzz.Gen.vl r.P.vl in
      let run strategy () =
        E.run_hot ~vl strategy cs.Fv_fuzz.Gen.loop (Fv_fuzz.Gen.memory_of cs)
          cs.Fv_fuzz.Gen.env
      in
      let scalar = leg a scalar_leg ~oracle_ns:0.0 (run E.Scalar) in
      let hot =
        match r.P.strategy with
        | E.Scalar -> scalar
        | s -> leg a strategy_leg ~oracle_ns:(oracle_estimate ~vl cs) (run s)
      in
      a.speedups <- E.hot_speedup ~baseline:scalar hot :: a.speedups;
      let tail =
        timed a render (fun () ->
            P.render_tail ~status:P.Ok_ (P.simulate_ok_body ~scalar ~run:hot))
      in
      finish a c ~line ~id:r.P.id ~op:"simulate" ~status:P.Ok_ ~tail ~hit_tail:tail

type run = {
  acc : acc;
  mutable plain_ns : float;  (** [Service.handle], untraced *)
  mutable traced_ns : float;  (** [Service.handle], span recorder on *)
  mutable minor_words : float;  (** allocated by the untraced calls *)
  mutable counts : (string * float) list;
      (** growth of the program's cache counters while measuring, over
          all three paths *)
  mutable drifted : int;  (** staged answers unlike [Service.handle]'s *)
  mutable first_drift : string;  (** the first such request line *)
}

let cache_counters =
  [
    "plan_cache_hits";
    "plan_cache_misses";
    "plan_cache_evictions";
    "response_cache_hits";
    "response_cache_misses";
  ]

(** Send requests from [next] three ways, one request at a time so that
    drift hits all three alike: through [Service.handle] untraced,
    through [Service.handle] with the span recorder installed, and
    through the stage-by-stage replay [stage], each against its own
    caches. The replay's answer must equal the untraced one byte for
    byte, or its stages measured other work than [Service.handle] does.
    The first [warm] requests only fill the caches. Stops after [max]
    requests or [seconds] of measuring. *)
let interleaved ~(stage : acc -> Svc.cfg -> string -> string)
    ~(next : unit -> string) ~(warm : int) ~(max : int) ~(seconds : float) :
    run =
  let plain = Svc.cfg () and traced = Svc.cfg () and staged = Svc.cfg () in
  for _ = 1 to warm do
    let line = next () in
    List.iter (fun c -> ignore (Svc.handle c line)) [ plain; traced; staged ]
  done;
  let r =
    {
      acc = acc ();
      plain_ns = 0.0;
      traced_ns = 0.0;
      minor_words = 0.0;
      counts = [];
      drifted = 0;
      first_drift = "";
    }
  in
  let before = List.map Obs.counter cache_counters in
  let t0 = Stats.now_ns () in
  (* the simulator's trace memo table is process-wide: emptied before
     each path, so that no path replays from another one's entries *)
  let fresh = Fv_ooo.Simcache.clear in
  while r.acc.ops < max && (r.acc.ops = 0 || Stats.since_s t0 < seconds) do
    let line = next () in
    fresh ();
    let w0 = Gc.minor_words () in
    let expected, ns = Stats.time (fun () -> Svc.handle plain line) in
    r.minor_words <- r.minor_words +. (Gc.minor_words () -. w0);
    r.plain_ns <- r.plain_ns +. ns;
    fresh ();
    let (_, ns), _ =
      Obs.recording (fun () -> Stats.time (fun () -> Svc.handle traced line))
    in
    r.traced_ns <- r.traced_ns +. ns;
    fresh ();
    if not (String.equal (stage r.acc staged line) expected) then begin
      if r.drifted = 0 then r.first_drift <- line;
      r.drifted <- r.drifted + 1
    end
  done;
  r.counts <-
    List.map2
      (fun name b -> (name, float_of_int (Obs.counter name - b)))
      cache_counters before;
  r

(** Report the breakdown: mean self time per request of every stage,
    the median per call of the request-path stages, the share of the
    traced [Service.handle] time over the same requests that no stage
    accounts for, what tracing costs, and allocation per request. *)
let report (rep : Report.t) (r : run) : unit =
  let a = r.acc in
  Report.check rep (r.drifted = 0)
    "the stage-by-stage replay answered %d of %d requests unlike Service.handle, \
     first %s"
    r.drifted a.ops
    (String.sub r.first_drift 0 (min 80 (String.length r.first_drift)));
  let ops = float_of_int (max 1 a.ops) in
  let handle_ns = r.traced_ns in
  Report.set rep "trace_overhead_frac" ((r.traced_ns /. r.plain_ns) -. 1.0);
  Report.set rep "gc.minor_words_per_op" (r.minor_words /. ops);
  Array.iteri
    (fun i name ->
      Report.set rep (name ^ "_us") (a.total_ns.(i) /. ops *. 1e-3);
      if i <= put then
        Report.set rep (name ^ "_p50_us")
          (let xs = Stats.to_array a.calls.(i) in
           if Array.length xs = 0 then 0.0 else Stats.median xs *. 1e-3))
    stages;
  Report.set rep "unattributed_frac" ((handle_ns -. additive_ns a) /. handle_ns);
  if a.total_ns.(sim_replay) > 0.0 then
    Report.set rep "sim.replay_uops_per_us"
      (float_of_int a.uops /. (a.total_ns.(sim_replay) *. 1e-3));
  if a.speedups <> [] then
    Report.set rep "speedup_geomean" (Fv_core.Figure8.geomean a.speedups)
