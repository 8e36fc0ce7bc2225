(** Protocol-level tests of the compile service ({!Fv_serve}): the
    wire answers must be bit-identical to the one-shot front end, every
    failure mode must come back as a structured response, backpressure
    must shed rather than stall, and a multi-domain server must answer
    exactly what a synchronous one would. *)

module Sexp = Fv_fuzz.Sexp
module Gen = Fv_fuzz.Gen
module P = Fv_serve.Protocol
module Service = Fv_serve.Service
module Server = Fv_serve.Server
module Batcher = Fv_serve.Batcher
module Plancache = Fv_serve.Plancache
module Loadgen = Fv_serve.Loadgen
module E = Fv_core.Experiment

let counter name =
  Fv_obs.Metrics.(total (snapshot global) name)

(* a service with fresh (small, private) caches per test *)
let fresh_cfg ?deadline_ms ?max_request_bytes ?admission () =
  Service.cfg
    ~cache:(Plancache.create ~cap:64 ())
    ~lines:(Plancache.create ~cap:64 ~metrics_prefix:"response_cache" ())
    ?deadline_ms ?max_request_bytes ?admission ()

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

(* response decoding, via the same sexp dialect the wire uses *)
let fields_of_response (line : string) : Sexp.t list =
  match Sexp.of_string line with
  | Sexp.List (Sexp.Atom "response" :: fields) -> fields
  | _ -> Alcotest.failf "not a response line: %s" line

let status_of (line : string) : string =
  match P.one_atom "status" (fields_of_response line) with
  | Some s -> s
  | None -> Alcotest.failf "response without status: %s" line

let atom_field name line =
  match P.one_atom name (fields_of_response line) with
  | Some s -> s
  | None -> Alcotest.failf "response without %s: %s" name line

let cases = Loadgen.distinct_cases ~n:6 ~seed:3

(* a case the front end definitely accepts, for tests that assert [ok] *)
let ok_case =
  match
    List.find_opt
      (fun (cs : Gen.case) ->
        Result.is_ok
          (Fv_vectorizer.Gen.vectorize ~vl:cs.Gen.vl
             ~style:Fv_vectorizer.Gen.Flexvec cs.Gen.loop))
      cases
  with
  | Some cs -> cs
  | None -> Alcotest.fail "no vectorizable case in the pool"

(* The acceptance bar: a served compile answers exactly what the
   one-shot front end computes — same plan text, same instruction mix,
   or the same rejection verdict. *)
let test_compile_matches_direct () =
  let c = fresh_cfg () in
  List.iter
    (fun (cs : Gen.case) ->
      let resp = Service.handle c (Loadgen.loop_request_line cs) in
      match
        Fv_vectorizer.Gen.vectorize ~vl:cs.Gen.vl
          ~style:Fv_vectorizer.Gen.Flexvec cs.Gen.loop
      with
      | Ok v ->
          Alcotest.(check string) "status" "ok" (status_of resp);
          Alcotest.(check string) "cold response" "false"
            (atom_field "cached" resp);
          Alcotest.(check string) "plan is the one-shot rendering"
            (Fv_vir.Vpp.to_string v)
            (atom_field "plan" resp);
          Alcotest.(check string) "mix is the one-shot rendering"
            (Fv_vir.Count.to_table2_string (Fv_vir.Count.of_vloop v))
            (atom_field "mix" resp)
      | Error _ -> Alcotest.(check string) "status" "rejected" (status_of resp))
    cases

(* Replays: an exact repeat flips to [(cached true)] but is otherwise
   byte-identical; a whitespace-respelled repeat still hits the plan
   cache (the key is the canonical rendering, not the raw line). *)
let test_replay_hits_cache () =
  let c = fresh_cfg () in
  let line = Loadgen.loop_request_line ok_case in
  let cold = Service.handle c line in
  Alcotest.(check string) "first answer is cold" "false"
    (atom_field "cached" cold);
  let rh0 = counter "response_cache_hits" in
  let warm = Service.handle c line in
  Alcotest.(check string) "replay is cached" "true" (atom_field "cached" warm);
  Alcotest.(check int) "replay hit the response memo" (rh0 + 1)
    (counter "response_cache_hits");
  Alcotest.(check string) "same plan bytes" (atom_field "plan" cold)
    (atom_field "plan" warm);
  Alcotest.(check string) "same status" (status_of cold) (status_of warm);
  (* same request, different spelling: surrounding whitespace misses
     the line memo but parses to the same canonical compile key *)
  let respelled = "  " ^ line ^ " " in
  let ph0 = counter "plan_cache_hits" in
  let warm2 = Service.handle c respelled in
  Alcotest.(check int) "respelling hits the plan cache" (ph0 + 1)
    (counter "plan_cache_hits");
  Alcotest.(check string) "respelled answer is cached" "true"
    (atom_field "cached" warm2);
  Alcotest.(check string) "respelled plan identical" (atom_field "plan" cold)
    (atom_field "plan" warm2)

(* Every bad input is a structured response, never an exception. *)
let test_malformed () =
  let c = fresh_cfg () in
  List.iter
    (fun line ->
      Alcotest.(check string)
        (Printf.sprintf "%S is invalid" line)
        "invalid"
        (status_of (Service.handle c line)))
    [
      "(((";
      "not a sexp at all)";
      "(request (op compile))" (* no payload *);
      "(request (op simulate) (loop (name l) (index i) (lo 0) (hi 4) \
       (live-out) (body)))" (* simulate needs a case *);
      "(request (op transmogrify) (loop (name l) (index i) (lo 0) (hi 4) \
       (live-out) (body)))";
      "(loop (name l))" (* structurally a loop, missing fields *);
    ]

let test_oversized () =
  let c = fresh_cfg ~max_request_bytes:64 () in
  let line = Loadgen.loop_request_line ok_case in
  Alcotest.(check bool) "test line really is oversized" true
    (String.length line > 64);
  Alcotest.(check string) "oversized status" "oversized"
    (status_of (Service.handle c line))

(* A deadline of 0 ms always fires, and — because a deadline verdict
   depends on wall time — it must be recomputed, never memoized. *)
let test_deadline () =
  let c = fresh_cfg () in
  let cs = List.hd cases in
  let line =
    Sexp.to_line
      (Sexp.List
         [
           Sexp.Atom "request";
           Sexp.List [ Sexp.Atom "deadline-ms"; Sexp.Atom "0" ];
           Sexp.List [ Sexp.Atom "vl"; Sexp.Atom (string_of_int cs.Gen.vl) ];
           Fv_fuzz.Corpus.sexp_of_loop cs.Gen.loop;
         ])
  in
  Alcotest.(check string) "deadline exceeded" "deadline-exceeded"
    (status_of (Service.handle c line));
  Alcotest.(check string) "replay re-derives the verdict"
    "deadline-exceeded"
    (status_of (Service.handle c line));
  (* the server-wide default applies when the request names none *)
  let c0 = fresh_cfg ~deadline_ms:0 () in
  Alcotest.(check string) "server default deadline" "deadline-exceeded"
    (status_of (Service.handle c0 (Loadgen.loop_request_line cs)))

(* Simulate answers the one-shot hot-loop comparison. *)
let test_simulate_matches_direct () =
  let c = fresh_cfg () in
  let cs =
    match List.find_opt (fun (cs : Gen.case) -> cs.Gen.arrays <> []) cases with
    | Some cs -> cs
    | None -> List.hd cases
  in
  let line =
    Sexp.to_line
      (Sexp.List
         [
           Sexp.Atom "request";
           Sexp.List [ Sexp.Atom "op"; Sexp.Atom "simulate" ];
           Fv_fuzz.Corpus.sexp_of_case cs;
         ])
  in
  let resp = Service.handle c line in
  Alcotest.(check string) "status" "ok" (status_of resp);
  let direct strategy =
    E.run_hot ~vl:cs.Gen.vl strategy cs.Gen.loop (Gen.memory_of cs) cs.Gen.env
  in
  let scalar = direct E.Scalar and hot = direct E.Flexvec in
  Alcotest.(check string) "cycles" (string_of_int hot.E.cycles)
    (atom_field "cycles" resp);
  Alcotest.(check string) "scalar-cycles" (string_of_int scalar.E.cycles)
    (atom_field "scalar-cycles" resp);
  Alcotest.(check string) "compile status"
    (E.show_compile_status hot.E.compile)
    (atom_field "compile" resp)

let run_items taken =
  List.map (function `Run x -> x | `Expired x -> "expired:" ^ x) taken

let test_batcher () =
  let b = Batcher.create ~cap:2 () in
  let admitted x = x = `Admitted in
  Alcotest.(check bool) "first offer" true (admitted (Batcher.offer b "a"));
  Alcotest.(check bool) "second offer" true (admitted (Batcher.offer b "b"));
  Alcotest.(check bool) "third offer shed (newest-first)" true
    (Batcher.offer b "c" = `Shed);
  Alcotest.(check int) "shed counted" 1 (Batcher.shed_count b);
  Alcotest.(check (list string)) "take is FIFO and bounded" [ "a" ]
    (run_items (Batcher.take b ~max:1));
  Alcotest.(check int) "one left" 1 (Batcher.length b);
  Alcotest.(check bool) "freed a slot" true (admitted (Batcher.offer b "d"));
  Alcotest.(check (list string)) "drains in order" [ "b"; "d" ]
    (run_items (Batcher.take b ~max:10))

let test_batcher_expiry () =
  let b = Batcher.create ~cap:4 () in
  (* already expired at offer time: refused without queueing *)
  Alcotest.(check bool) "expired at offer" true
    (Batcher.offer b ~expires_at:1.0 ~now:2.0 "old" = `Expired);
  Alcotest.(check int) "nothing queued" 0 (Batcher.length b);
  ignore (Batcher.offer b ~expires_at:10.0 ~now:2.0 "lives");
  ignore (Batcher.offer b ~expires_at:3.0 ~now:2.0 "dies-queued");
  ignore (Batcher.offer b "immortal");
  (* at take time the middle one has lapsed; it comes back tagged so
     the server can answer it, but it must not claim a worker *)
  Alcotest.(check (list string)) "expiry tagged at take"
    [ "lives"; "expired:dies-queued"; "immortal" ]
    (run_items (Batcher.take b ~now:5.0 ~max:10))

(* ---------------- end-to-end through the server loop ---------------- *)

(* Serve [lines] to EOF through the one pipe driver, on a fresh
   service config unless [cfg] is given. *)
let serve_lines ?(cfg = fresh_cfg ()) (o : Server.opts) (lines : string list) :
    string list =
  Loadgen.serve_lines cfg o lines

(* Backpressure: flood a tiny queue; every request is answered exactly
   once — some [overloaded], the rest for real — and the server neither
   crashes nor drops a request on the floor. *)
let test_shedding () =
  let cs = ok_case in
  let n = 50 in
  let lines =
    List.init n (fun i ->
        Loadgen.loop_request_line ~id:(Printf.sprintf "q%d" i) cs)
  in
  let o = { Server.default_opts with domains = Some 1; batch = 2;
            queue_cap = 4 } in
  let responses = serve_lines o lines in
  Alcotest.(check int) "every request answered exactly once" n
    (List.length responses);
  let ids = List.map (atom_field "id") responses in
  Alcotest.(check (list string))
    "each id answered once (shed answers arrive first)"
    (List.sort compare (List.init n (Printf.sprintf "q%d")))
    (List.sort compare ids);
  let by_status s =
    List.length (List.filter (fun r -> status_of r = s) responses)
  in
  Alcotest.(check bool) "some requests shed" true (by_status "overloaded" > 0);
  Alcotest.(check bool) "some requests served" true (by_status "ok" > 0);
  Alcotest.(check int) "nothing else happened" n
    (by_status "overloaded" + by_status "ok")

(* Oversized frames through the real framer: answered [oversized], and
   the rest of the stream still gets served. *)
let test_oversized_frame_end_to_end () =
  let cs = ok_case in
  let good = Loadgen.loop_request_line ~id:"good" cs in
  let huge =
    "(request (id huge) " ^ String.make 200 'x' ^ ")"
  in
  let cfg = fresh_cfg ~max_request_bytes:128 () in
  let o = { Server.default_opts with domains = Some 1 } in
  let responses = serve_lines ~cfg o [ huge; good ] in
  Alcotest.(check int) "two answers" 2 (List.length responses);
  Alcotest.(check string) "huge frame rejected" "oversized"
    (status_of (List.nth responses 0));
  (* the good request is itself bigger than 128 bytes here, so it comes
     back oversized too via the service path — size both to the limit *)
  let small_cfg = fresh_cfg ~max_request_bytes:4096 () in
  let responses = serve_lines ~cfg:small_cfg o [ huge; good ] in
  Alcotest.(check string) "stream continues after an oversized frame" "ok"
    (status_of (List.nth responses 1))

(* The concurrency acceptance check: a 4-domain server must answer a
   hammering stream exactly — bit for bit, in order — what the
   synchronous service answers one request at a time. *)
let test_multi_domain_matches_synchronous () =
  let lines =
    List.mapi
      (fun i (cs : Gen.case) ->
        Loadgen.loop_request_line ~id:(Printf.sprintf "h%d" i) cs)
      (Loadgen.distinct_cases ~n:24 ~seed:17)
  in
  let expected = List.map (Service.handle (fresh_cfg ())) lines in
  let o =
    { Server.default_opts with domains = Some 4; batch = 8; queue_cap = 1024 }
  in
  let responses = serve_lines ~cfg:(fresh_cfg ()) o lines in
  Alcotest.(check (list string))
    "4-domain responses == synchronous responses" expected responses

(* Serve [bursts] over a pipe from a daemon domain. Each burst goes out
   in one write of at most [PIPE_BUF] bytes, so the daemon reads it
   whole, and the next burst only once every response to this one is
   out and a pause has let the daemon's input go idle. *)
let serve_bursts (o : Server.opts) (bursts : string list list) : string list =
  let r, w = Unix.pipe () in
  let path = Filename.temp_file "serve_bursts" ".out" in
  let responses () =
    match open_in path with
    | exception Sys_error _ -> []
    | ic ->
        let lines = In_channel.input_lines ic in
        close_in ic;
        lines
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let cfg = fresh_cfg () in
      let server =
        Domain.spawn (fun () ->
            let out = open_out path in
            Server.serve_fd cfg o ~in_fd:r ~out;
            close_out out)
      in
      let sent = ref 0 in
      List.iter
        (fun burst ->
          let s = String.concat "" (List.map (fun l -> l ^ "\n") burst) in
          Alcotest.(check bool) "a burst fits one atomic pipe write" true
            (String.length s <= 4096);
          ignore (Unix.write_substring w s 0 (String.length s));
          sent := !sent + List.length burst;
          let deadline = Unix.gettimeofday () +. 10.0 in
          while
            List.length (responses ()) < !sent
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.01
          done;
          Unix.sleepf 0.3)
        bursts;
      Unix.close w;
      Domain.join server;
      Unix.close r;
      responses ())

(* The daemon keeps its workers through a burst of back-to-back batches
   and releases them once its input goes idle: two bursts of three
   batches each spawn the pool's workers once per burst, not once per
   batch, and answer byte for byte what a one-domain daemon answers. *)
let test_pool_reused_within_burst () =
  let lines =
    List.mapi
      (fun i (cs : Gen.case) ->
        Loadgen.loop_request_line ~id:(Printf.sprintf "b%d" i) cs)
      (Loadgen.distinct_cases ~n:12 ~seed:29)
  in
  let bursts =
    [ List.filteri (fun i _ -> i < 6) lines;
      List.filteri (fun i _ -> i >= 6) lines ]
  in
  let opts domains =
    { Server.default_opts with domains = Some domains; batch = 2 }
  in
  let serial = serve_bursts (opts 1) bursts in
  let before = Fv_parallel.Pool.domains_spawned () in
  let parallel = serve_bursts (opts 2) bursts in
  let spawned = Fv_parallel.Pool.domains_spawned () - before in
  Alcotest.(check int) "every request answered" 12 (List.length parallel);
  Alcotest.(check (list string)) "2 domains == 1 domain, byte for byte"
    serial parallel;
  (* a batch of two runs on the calling domain when the pool has one
     worker: a 1-core machine spawns nothing *)
  let workers = min 2 (Domain.recommended_domain_count ()) in
  let per_burst = if workers = 1 then 0 else workers in
  Alcotest.(check int) "the workers spawn once per burst" (2 * per_burst)
    spawned

(* The plan cache under an overflowing stream: bounded at cap, never
   flushed, and the hit rate stays nonzero past the boundary. *)
let test_plancache_bounded () =
  let pc = Plancache.create ~cap:8 () in
  let plan ~tag =
    { Plancache.p_tail = "(status ok) " ^ tag; p_ok = true; p_op = "compile" }
  in
  Plancache.put pc ~canonical:"hot" (plan ~tag:"hot");
  let h0 = counter "plan_cache_hits" in
  for i = 1 to 20 do
    (* the service's pattern: a miss recompiles and re-stores *)
    (match Plancache.find pc ~canonical:"hot" with
    | Some _ -> ()
    | None -> Plancache.put pc ~canonical:"hot" (plan ~tag:"hot"));
    Plancache.put pc ~canonical:(Printf.sprintf "cold%d" i)
      (plan ~tag:(string_of_int i))
  done;
  Alcotest.(check int) "bounded at cap" 8 (Plancache.size pc);
  Alcotest.(check bool) "evictions counted" true (Plancache.evictions pc >= 12);
  (* second chance keeps the re-hit entry mostly resident: the hit rate
     stays well above zero across the capacity boundary (the old
     flush-the-world policy drove it to zero) *)
  Alcotest.(check bool)
    (Printf.sprintf "hit rate stays nonzero across the cap (%d/20 hits)"
       (counter "plan_cache_hits" - h0))
    true
    (counter "plan_cache_hits" - h0 >= 12)

(* ---------------- failure model ---------------- *)

(* The framer must produce the same frames whatever the read
   granularity: a dribbling client delivering one byte per read, a
   frame continued across newlines (paren depth, strings), and EOF
   arriving mid-frame all land on the identical frame sequence. *)
let test_framer_short_reads () =
  let payload =
    "(a b)\n(multi\nline \"str)\n\")\n   \n(tail never terminated"
  in
  let frames_with ~cap =
    let r, w = Unix.pipe () in
    let wc = Unix.out_channel_of_descr w in
    output_string wc payload;
    close_out wc;
    let fr = Server.Framer.create ~max_bytes:4096 r in
    while not fr.Server.Framer.eof do
      Server.Framer.refill ?cap fr ~blocking:true
    done;
    Unix.close r;
    List.of_seq (Queue.to_seq fr.Server.Framer.frames)
  in
  let show = function
    | Server.Framer.Frame s -> "frame:" ^ s
    | Server.Framer.Too_big n -> Printf.sprintf "too-big:%d" n
  in
  let expected =
    [
      "frame:(a b)";
      (* newline at depth > 0 and newline inside a string both continue
         the frame *)
      "frame:(multi\nline \"str)\n\")";
      (* the blank line is dropped; EOF flushes the unterminated tail *)
      "frame:(tail never terminated";
    ]
  in
  Alcotest.(check (list string))
    "1-byte refills produce exact frames" expected
    (List.map show (frames_with ~cap:(Some 1)));
  Alcotest.(check (list string))
    "bulk refills produce the same frames" expected
    (List.map show (frames_with ~cap:None))

(* Degraded transport must be invisible in the bytes: with every framer
   refill capped to one byte and every response written in two flushes,
   the answers are byte-identical to the clean run. *)
let test_transport_chaos_invisible () =
  let lines =
    List.mapi
      (fun i (cs : Gen.case) ->
        Loadgen.loop_request_line ~id:(Printf.sprintf "t%d" i) cs)
      cases
  in
  let o = { Server.default_opts with domains = Some 1 } in
  let plain = serve_lines ~cfg:(fresh_cfg ()) o lines in
  let degraded =
    serve_lines ~cfg:(fresh_cfg ())
      {
        o with
        chaos =
          Some (Fv_serve.Chaos.make ~rate:0.0 ~transport_rate:1.0 ~seed:7 ());
      }
      lines
  in
  Alcotest.(check (list string))
    "short reads and short writes change nothing" plain degraded

(* A client hanging up mid-batch must cost that connection, not the
   daemon: SIGPIPE is ignored, the failed write is counted, the
   remaining queue is discarded, and serve_fd returns normally. *)
let test_client_death_mid_batch () =
  let c_fd, s_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let wc = Unix.out_channel_of_descr c_fd in
  List.iteri
    (fun i (cs : Gen.case) ->
      output_string wc (Loadgen.loop_request_line ~id:(Printf.sprintf "d%d" i) cs);
      output_char wc '\n')
    (cases @ cases);
  (* client dies without reading a single response *)
  close_out wc;
  let before = counter "serve_client_disconnects" in
  let out = Unix.out_channel_of_descr s_fd in
  let o = { Server.default_opts with domains = Some 1; batch = 2 } in
  Server.serve_fd (fresh_cfg ()) o ~in_fd:s_fd ~out;
  (* reaching this line is the point: no exception escaped *)
  Alcotest.(check bool) "disconnect observed and counted" true
    (counter "serve_client_disconnects" > before);
  Unix.close s_fd

(* Graceful shutdown: requests answered before the flag flips stay
   answered, and the serve loop returns without ever seeing EOF — the
   pipe's write end is still open when the join succeeds. *)
let test_graceful_shutdown () =
  Server.reset_shutdown ();
  let r, w = Unix.pipe () in
  let path = Filename.temp_file "serve_shutdown" ".out" in
  let count_lines () =
    match open_in path with
    | exception Sys_error _ -> 0
    | ic ->
        let rec go n =
          match input_line ic with
          | _ -> go (n + 1)
          | exception End_of_file -> n
        in
        let n = go 0 in
        close_in ic;
        n
  in
  Fun.protect
    ~finally:(fun () ->
      Server.reset_shutdown ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let o = { Server.default_opts with domains = Some 1 } in
      let cfg = fresh_cfg () in
      let server =
        Domain.spawn (fun () ->
            let out = open_out path in
            Server.serve_fd cfg o ~in_fd:r ~out;
            close_out out)
      in
      let wc = Unix.out_channel_of_descr w in
      let k = 5 in
      List.iteri
        (fun i (cs : Gen.case) ->
          if i < k then begin
            output_string wc
              (Loadgen.loop_request_line ~id:(Printf.sprintf "g%d" i) cs);
            output_char wc '\n'
          end)
        cases;
      flush wc;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while count_lines () < k && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.02
      done;
      Alcotest.(check int) "all in-flight requests answered" k (count_lines ());
      Server.request_shutdown ();
      (* joins only if shutdown ends the loop: EOF never arrives *)
      Domain.join server;
      Alcotest.(check int) "drain lost nothing" k (count_lines ());
      close_out wc;
      Unix.close r)

(* ---------------- budgets, admission, brownout, client ------------- *)

module Budget = Fv_parallel.Budget
module Admission = Fv_serve.Admission
module Brownout = Fv_serve.Brownout
module Quarantine = Fv_serve.Quarantine
module Client = Fv_serve.Client

(* a pre-canceled injected budget must map to deadline-exceeded — and
   never be memoized, so a later replay computes the real answer *)
let test_service_maps_canceled () =
  let c = fresh_cfg () in
  let line = Loadgen.loop_request_line ~id:"b1" ok_case in
  let b = Budget.create () in
  Budget.cancel b;
  let resp = Service.handle ~budget:b c line in
  Alcotest.(check string) "cooperative cancel answers deadline-exceeded"
    "deadline-exceeded" (status_of resp);
  Alcotest.(check string) "id survives cancellation" "b1"
    (atom_field "id" resp);
  Alcotest.(check int) "canceled outcome not memoized" 0
    (Plancache.size c.Service.lines);
  Alcotest.(check string) "replay computes the real answer" "ok"
    (status_of (Service.handle c line))

let test_admission_control () =
  let line = Loadgen.loop_request_line ok_case in
  let adm = Admission.create () in
  Alcotest.(check (option (float 0.0))) "uncalibrated admits everything" None
    (Admission.estimate_ms adm ~units:1e12);
  let r = P.request_of_sexp (Sexp.of_string line) in
  let sim_r =
    P.request_of_sexp
      (Sexp.of_string (Loadgen.simulate_request_line ok_case))
  in
  Alcotest.(check bool) "simulation dearer than compilation" true
    (Admission.cost_units sim_r > Admission.cost_units r);
  (* calibrate with an absurdly slow observation: now the estimate for
     this very request dwarfs any deadline *)
  Admission.observe adm ~units:(Admission.cost_units r) ~seconds:1000.0;
  let c = fresh_cfg ~deadline_ms:5 ~admission:adm () in
  let resp = Service.handle c line in
  Alcotest.(check string) "rejected by cost, not by timeout" "rejected-cost"
    (status_of resp);
  Alcotest.(check int) "cost rejections not memoized" 0
    (Plancache.size c.Service.lines);
  (* without a deadline there is nothing to reject against *)
  let c2 = fresh_cfg ~admission:adm () in
  Alcotest.(check string) "no deadline: admitted and served" "ok"
    (status_of (Service.handle c2 line))

(* a case both the FlexVec and the classical vectorizer accept, and one
   only FlexVec accepts — the two rungs of the degrade ladder *)
let find_case pred =
  let rec go seed =
    if seed > 5000 then Alcotest.fail "no matching fuzz case found"
    else
      let c = Gen.case_of_seed ~p_malformed:0.0 seed in
      if pred c then c else go (seed + 1)
  in
  go 0

let flexvec_ok (c : Gen.case) =
  Result.is_ok
    (Fv_vectorizer.Gen.vectorize ~vl:c.Gen.vl ~style:Fv_vectorizer.Gen.Flexvec
       c.Gen.loop)

let traditional_ok (c : Gen.case) =
  Result.is_ok (Fv_vectorizer.Traditional.vectorize ~vl:c.Gen.vl c.Gen.loop)

let test_brownout_ladder () =
  Alcotest.(check int) "empty queue: nominal" 0
    (Brownout.rank (Brownout.of_queue ~len:0 ~cap:8 ~lo:0.5 ~hi:0.875));
  Alcotest.(check int) "half full: compile-only" 1
    (Brownout.rank (Brownout.of_queue ~len:4 ~cap:8 ~lo:0.5 ~hi:0.875));
  Alcotest.(check int) "nearly full: degrade" 2
    (Brownout.rank (Brownout.of_queue ~len:7 ~cap:8 ~lo:0.5 ~hi:0.875));
  (* compile-only: a simulate request is answered with its plan and no
     cycle counts, marked, and never memoized *)
  let c = fresh_cfg () in
  let sim = Loadgen.simulate_request_line ok_case in
  let resp = Service.handle ~brownout:Brownout.Compile_only c sim in
  Alcotest.(check string) "compile-only answers ok" "ok" (status_of resp);
  Alcotest.(check bool) "marked" true
    (contains ~needle:"(brownout compile-only)" resp);
  Alcotest.(check (option string)) "no cycle counts" None
    (P.one_atom "cycles" (fields_of_response resp));
  Alcotest.(check int) "browned-out answers not memoized" 0
    (Plancache.size c.Service.lines);
  let full = Service.handle c sim in
  Alcotest.(check bool) "nominal replay simulates for real" true
    (P.one_atom "cycles" (fields_of_response full) <> None);
  (* degrade, middle rung: a vector compile is answered with a
     Traditional plan *)
  let both = find_case (fun c -> flexvec_ok c && traditional_ok c) in
  let resp =
    Service.handle ~brownout:Brownout.Degrade (fresh_cfg ())
      (Loadgen.loop_request_line both)
  in
  Alcotest.(check string) "degraded compile answers ok" "ok" (status_of resp);
  Alcotest.(check bool) "marked traditional" true
    (contains ~needle:"(brownout traditional)" resp);
  (* degrade, bottom rung: FlexVec-only loops bottom out in an explicit
     run-it-scalar answer instead of a refusal *)
  let relaxed =
    find_case (fun c -> flexvec_ok c && not (traditional_ok c))
  in
  let resp =
    Service.handle ~brownout:Brownout.Degrade (fresh_cfg ())
      (Loadgen.loop_request_line relaxed)
  in
  Alcotest.(check string) "scalar bottom still ok" "ok" (status_of resp);
  Alcotest.(check bool) "marked scalar" true
    (contains ~needle:"(brownout scalar)" resp);
  Alcotest.(check (option string)) "plan says scalar" (Some "scalar")
    (P.one_atom "plan" (fields_of_response resp))

(* [--row-timeout] holds at every domain count: a simulate request that
   runs far past it is answered [deadline-exceeded] by the pool's detach
   with one domain as well as with two. The detached worker finishes
   the request on its own shortly after. *)
let slow_case ~trip : Gen.case =
  (* a long loop over short arrays, so the request line stays small *)
  let a = Array.init 64 (fun i -> Fv_isa.Value.Int (i mod 7)) in
  {
    Gen.label = "slow";
    seed = 0;
    loop =
      Fv_ir.Builder.(
        let j = var "i" % int 64 in
        loop ~name:"slow" ~index:"i" ~hi:(int trip)
          [
            if_else
              (load "a" j % int 3 = int 0)
              [ assign "x" (load "a" j * int 5) ]
              [ assign "x" (load "b" j) ];
            store "b" j (var "x");
          ]);
    arrays = [ ("a", a); ("b", Array.copy a) ];
    env = [];
    vl = 16;
  }

let test_row_timeout_any_domain_count () =
  Server.reset_shutdown ();
  let row_timeout = 0.005 in
  let line = Loadgen.simulate_request_line ~id:"slow" (slow_case ~trip:20_000) in
  let t0 = Fv_obs.Clock.now () in
  let direct = Service.handle (fresh_cfg ()) line in
  let cost = Fv_obs.Clock.elapsed ~since:t0 in
  Alcotest.(check string) "the request itself succeeds" "ok" (status_of direct);
  Alcotest.(check bool)
    (Printf.sprintf "its run (%.3f s) is >= 10x the row timeout" cost)
    true
    (cost >= 10.0 *. row_timeout);
  List.iter
    (fun domains ->
      let o =
        { Server.default_opts with domains = Some domains;
          row_timeout = Some row_timeout }
      in
      match serve_lines o [ line ] with
      | [ r ] ->
          Alcotest.(check string)
            (Printf.sprintf "domains=%d: answered at the row timeout" domains)
            "deadline-exceeded" (status_of r)
      | rs -> Alcotest.failf "domains=%d: %d responses" domains (List.length rs))
    [ 1; 2 ]

(* a request whose deadline is already blown at admission never claims
   a worker: the server answers it straight from the admit path *)
let test_expired_at_admission () =
  Server.reset_shutdown ();
  let live = Loadgen.loop_request_line ~id:"live" ok_case in
  let dead = Loadgen.loop_request_line ~id:"dead" ~deadline_ms:0 ok_case in
  let resps = serve_lines Server.default_opts [ dead; live ] in
  let by_id id =
    match
      List.find_opt (fun r -> P.one_atom "id" (fields_of_response r) = Some id)
        resps
    with
    | Some r -> r
    | None -> Alcotest.failf "no response for %s" id
  in
  Alcotest.(check int) "both answered" 2 (List.length resps);
  Alcotest.(check string) "expired answered without running"
    "deadline-exceeded"
    (status_of (by_id "dead"));
  Alcotest.(check string) "live one served" "ok" (status_of (by_id "live"))

let test_quarantine_unwritable_dir () =
  (* the quarantine dir path sits under a plain file: every persist
     attempt fails at mkdir. The strike must still land, the response
     path must not see an exception, and the failure must be counted *)
  let file = Filename.temp_file "flexvec_q" ".notadir" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let dir = Filename.concat file "sub" in
      let qt = Quarantine.create ~dir ~max_strikes:2 () in
      let before = counter "serve_quarantine_persist_errors" in
      let line = "(request (id poison))" in
      Alcotest.(check int) "first strike recorded" 1
        (Quarantine.strike qt ~line);
      Alcotest.(check bool) "persist failure counted" true
        (counter "serve_quarantine_persist_errors" > before);
      Alcotest.(check int) "second strike recorded" 2
        (Quarantine.strike qt ~line);
      Alcotest.(check bool) "blocked despite unwritable dir" true
        (Quarantine.blocked qt ~line))

let fast_policy =
  {
    Client.default_policy with
    Client.base_backoff_s = 1e-4;
    max_backoff_s = 1e-3;
  }

let test_client_retries () =
  (* lost responses are retried until one lands *)
  let calls = ref 0 in
  let flaky _ =
    incr calls;
    if !calls < 3 then None else Some "(response (status ok))"
  in
  let o = Client.call ~policy:fast_policy flaky "(request)" in
  Alcotest.(check (option string)) "landed" (Some "ok") o.Client.status;
  Alcotest.(check int) "two losses, one success" 3 o.Client.attempts;
  Alcotest.(check bool) "no give-up" true (o.Client.gave_up = None);
  (* overloaded is retryable: the shed clears on the next attempt *)
  let calls = ref 0 in
  let shed _ =
    incr calls;
    if !calls = 1 then Some "(response (status overloaded) (error full))"
    else Some "(response (status ok))"
  in
  let o = Client.call ~policy:fast_policy shed "(request)" in
  Alcotest.(check int) "one retry after a shed" 2 o.Client.attempts;
  Alcotest.(check (option string)) "then ok" (Some "ok") o.Client.status;
  (* deterministic verdicts are terminal: retrying only adds load *)
  let calls = ref 0 in
  let reject _ =
    incr calls;
    Some "(response (status rejected-cost) (error too-big))"
  in
  let o = Client.call ~policy:fast_policy reject "(request)" in
  Alcotest.(check int) "terminal verdict: one attempt" 1 o.Client.attempts;
  Alcotest.(check int) "transport asked once" 1 !calls

let test_client_deadline_and_hedge () =
  (* the deadline bounds the whole retry schedule, backoffs included *)
  let o =
    Client.call
      ~policy:
        {
          Client.retries = 1000;
          base_backoff_s = 0.005;
          max_backoff_s = 0.005;
          jitter = 0.0;
          hedge_after_s = None;
        }
      ~deadline_ms:25
      (fun _ -> None)
      "(request)"
  in
  Alcotest.(check bool) "gave up on the deadline" true
    (o.Client.gave_up = Some `Deadline);
  Alcotest.(check bool) "never reached the retry cap" true
    (o.Client.attempts < 1000);
  Alcotest.(check bool) "no answer to give" true (o.Client.response = None);
  (* a hedge transport rescues a dead primary *)
  let o =
    Client.call ~policy:fast_policy
      ~hedge:(fun _ -> Some "(response (status ok) (via hedge))")
      (fun _ -> None)
      "(request)"
  in
  Alcotest.(check (option string)) "hedge answered" (Some "ok")
    o.Client.status;
  Alcotest.(check bool) "hedge was used" true (o.Client.hedges >= 1)

(* The open-loop driver the overload bench runs: a paced stream is
   answered line for line, each id exactly once, and pacing holds the
   writer back. Line i is due i / rate seconds after the first, so n
   lines span at least (n - 1) / rate seconds. *)
let test_paced_serve_lines () =
  let n = 20 and rate = 200.0 in
  let ids = List.init n (Printf.sprintf "p%d") in
  let lines = List.map (fun id -> Loadgen.loop_request_line ~id ok_case) ids in
  let o =
    { Server.default_opts with domains = Some 1; batch = 4; queue_cap = 64 }
  in
  let t0 = Fv_obs.Clock.now () in
  let responses = Loadgen.serve_lines ~rate (fresh_cfg ()) o lines in
  let wall = Fv_obs.Clock.elapsed ~since:t0 in
  Alcotest.(check int) "every line answered" n (List.length responses);
  Alcotest.(check (list string)) "each id exactly once"
    (List.sort compare ids)
    (List.sort compare (List.map (atom_field "id") responses));
  Alcotest.(check bool) "all ok" true
    (List.for_all (fun r -> status_of r = "ok") responses);
  let floor = float_of_int (n - 1) /. rate in
  Alcotest.(check bool)
    (Printf.sprintf "paced: %.3f s >= %.3f s" wall floor)
    true (wall >= floor)

(* One field reader serves the client, the benches and the end-to-end
   driver: the first "(name " opener wins, a name that only prefixes
   another field's name does not match, and the scan allocates nothing
   but the atom it returns. *)
let test_response_field () =
  let line = "(response (id r7) (status-note x) (status ok) (cached true))" in
  Alcotest.(check (option string)) "id" (Some "r7")
    (Client.response_field line "id");
  Alcotest.(check (option string)) "status, not status-note" (Some "ok")
    (Client.status_of_response line);
  Alcotest.(check (option string)) "missing field" None
    (Client.response_field line "brownout");
  Alcotest.(check (option string)) "unterminated field" None
    (Client.status_of_response "(response (status ok");
  Alcotest.(check (option string)) "opener at the very end" None
    (Client.status_of_response "(response (status ");
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Client.status_of_response line))
  done;
  let words = Gc.minor_words () -. before in
  (* [Some] and the two-byte atom are 4 words a call *)
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for 1000 reads" words)
    true (words <= 5000.0)

(* a zero-trip loop whose live-out only its body assigns: the scalar
   reference never binds it, so the gate has no ground truth for it.
   The gated legs used to answer an internal error *)
let test_simulate_unbound_live_out () =
  List.iter
    (fun strategy ->
      let line =
        Printf.sprintf
          "(request (id z) (op simulate) (strategy %s) (case (label plain) \
           (seed 0) (vl 4) (loop (name z) (index i) (lo (const (i 0))) (hi \
           (const (i 0))) (live-out t) (body (0 assign t (load a (var i))))) \
           (arrays (a (i 1) (i 2) (i 3) (i 4))) (env)))"
          strategy
      in
      let resp = Service.handle (fresh_cfg ()) line in
      Alcotest.(check string) (strategy ^ ": status") "ok" (status_of resp);
      Alcotest.(check string) (strategy ^ ": compile") "vectorized"
        (atom_field "compile" resp))
    [ "flexvec"; "wholesale"; "rtm" ]

let suite =
  [
    Alcotest.test_case "served compile == one-shot front end" `Quick
      test_compile_matches_direct;
    Alcotest.test_case "replays hit: response memo and plan cache" `Quick
      test_replay_hits_cache;
    Alcotest.test_case "malformed requests answer invalid" `Quick
      test_malformed;
    Alcotest.test_case "oversized requests answer oversized" `Quick
      test_oversized;
    Alcotest.test_case "deadlines fire and are never memoized" `Quick
      test_deadline;
    Alcotest.test_case "served simulate == one-shot hot run" `Quick
      test_simulate_matches_direct;
    Alcotest.test_case "batcher: bounded FIFO with shed accounting" `Quick
      test_batcher;
    Alcotest.test_case "batcher: expiry at offer and at take" `Quick
      test_batcher_expiry;
    Alcotest.test_case "service: Canceled maps to deadline-exceeded" `Quick
      test_service_maps_canceled;
    Alcotest.test_case "admission: calibrated cost rejects up front" `Quick
      test_admission_control;
    Alcotest.test_case "brownout: compile-only, traditional, scalar" `Quick
      test_brownout_ladder;
    Alcotest.test_case "expired-at-admission never claims a worker" `Quick
      test_expired_at_admission;
    Alcotest.test_case "quarantine: unwritable dir counted, not raised"
      `Quick test_quarantine_unwritable_dir;
    Alcotest.test_case "client: retries stop at terminal verdicts" `Quick
      test_client_retries;
    Alcotest.test_case "client: deadline bounds retries; hedge rescues"
      `Quick test_client_deadline_and_hedge;
    Alcotest.test_case "backpressure sheds, answers everything once" `Quick
      test_shedding;
    Alcotest.test_case "oversized frame does not break the stream" `Quick
      test_oversized_frame_end_to_end;
    Alcotest.test_case "4 domains bit-identical to synchronous" `Quick
      test_multi_domain_matches_synchronous;
    Alcotest.test_case "plan cache bounded with live hit rate" `Quick
      test_plancache_bounded;
    Alcotest.test_case "framer: 1-byte reads, continuation, EOF mid-frame"
      `Quick test_framer_short_reads;
    Alcotest.test_case "degraded transport is invisible in the bytes" `Quick
      test_transport_chaos_invisible;
    Alcotest.test_case "client death mid-batch drops connection, not daemon"
      `Quick test_client_death_mid_batch;
    Alcotest.test_case "graceful shutdown drains without EOF" `Quick
      test_graceful_shutdown;
    Alcotest.test_case "row timeout holds at 1 and 2 domains" `Quick
      test_row_timeout_any_domain_count;
    Alcotest.test_case "paced serve_lines answers once, at its rate" `Quick
      test_paced_serve_lines;
    Alcotest.test_case "response fields read in place" `Quick
      test_response_field;
    Alcotest.test_case "workers kept through a burst, released when idle"
      `Quick test_pool_reused_within_burst;
    Alcotest.test_case "simulate: a live-out the scalar run never binds"
      `Quick test_simulate_unbound_live_out;
  ]
