(** The long-running compile server: framing, batching, backpressure,
    and the failure model.

    One orchestrator loop owns the input: it reads newline-delimited
    frames off a file descriptor (stdin, or an accepted unix-domain
    socket connection), admits them to the bounded {!Batcher} queue —
    shedding with an immediate [overloaded] response when the queue is
    full — then drains the queue a batch at a time across
    {!Fv_parallel.Pool} domains and writes the responses in batch
    order. Shed and oversized responses are emitted as soon as they are
    detected, ahead of queued work; clients correlate by [(id ...)].

    Framing is newline-delimited with paren-balance continuation: a
    frame ends at the first newline outside a string at paren depth
    zero, so both the canonical one-line wire form and the
    pretty-printed multi-line {!Fv_fuzz.Sexp.to_string} form of a large
    expression are accepted. A frame growing past the request size
    limit stops being buffered (the rest of it is scanned and dropped,
    bounding memory against a hostile writer) and is answered
    [oversized].

    Failure model (see DESIGN.md "Failure model"):

    - {b Client death is not server death}: SIGPIPE is ignored and the
      response write path catches [EPIPE]/[Sys_error], so a client
      disconnecting mid-response drops that connection, never the
      daemon.
    - {b Self-healing batches}: every batch runs on the connection's
      {!Pool.t} (its workers park between back-to-back batches and are
      released whenever the input goes idle) — a request that wedges
      past [row_timeout] or kills its worker is
      answered ([deadline-exceeded] / [error]) immediately and the
      burned domain replaced, and every such pool-level failure strikes
      the {!Quarantine} table (when one is configured) so a repeating
      poison request is refused up front instead of draining the pool
      one domain at a time.
    - {b Graceful shutdown}: {!request_shutdown} (wired to
      SIGINT/SIGTERM by {!install_signal_handlers}) makes every blocking
      point a bounded [select] poll; the serve loop stops reading,
      answers everything already admitted, flushes, and returns so the
      caller can write stats and snapshot the plan cache. The signal
      sets a flag rather than the handler doing work: OCaml delivers
      signals to an arbitrary domain, so the serving loop polls. *)

module Sexp = Fv_fuzz.Sexp
module Pool = Fv_parallel.Pool
module P = Protocol

(* ---------------- shutdown plumbing ---------------- *)

let shutting_down = Atomic.make false
let request_shutdown () = Atomic.set shutting_down true
let shutdown_requested () = Atomic.get shutting_down

(** For tests and fresh [serve] invocations in one process. *)
let reset_shutdown () = Atomic.set shutting_down false

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(** Ignore SIGPIPE and turn SIGINT/SIGTERM into {!request_shutdown}. *)
let install_signal_handlers () =
  ignore_sigpipe ();
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle (fun _ -> request_shutdown ()))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* ---------------- framing ---------------- *)

module Framer = struct
  type frame =
    | Frame of string
    | Too_big of int  (** total size of a frame that blew the limit *)

  type t = {
    fd : Unix.file_descr;
    chunk : Bytes.t;
    acc : Buffer.t;  (** the partial frame being assembled *)
    max_bytes : int;
    mutable depth : int;
    mutable in_string : bool;
    mutable escaped : bool;
    mutable in_comment : bool;
    mutable dropped : int;  (** bytes of the current frame not buffered *)
    mutable eof : bool;
    frames : frame Queue.t;  (** completed frames awaiting admission *)
  }

  let create ~(max_bytes : int) (fd : Unix.file_descr) : t =
    {
      fd;
      chunk = Bytes.create 65536;
      acc = Buffer.create 4096;
      max_bytes;
      depth = 0;
      in_string = false;
      escaped = false;
      in_comment = false;
      dropped = 0;
      eof = false;
      frames = Queue.create ();
    }

  let blank s =
    not (String.exists (fun c -> c <> ' ' && c <> '\t' && c <> '\r') s)

  let end_frame (t : t) : unit =
    if t.dropped > 0 then
      Queue.add (Too_big (t.dropped + Buffer.length t.acc)) t.frames
    else begin
      let s = Buffer.contents t.acc in
      if not (blank s) then Queue.add (Frame s) t.frames
    end;
    Buffer.clear t.acc;
    t.depth <- 0;
    t.in_string <- false;
    t.escaped <- false;
    t.in_comment <- false;
    t.dropped <- 0

  let scan (t : t) (len : int) : unit =
    for i = 0 to len - 1 do
      let ch = Bytes.get t.chunk i in
      if ch = '\n' && (not t.in_string) && t.depth <= 0 then
        (* frame boundary (a comment, if open, ends here too) *)
        end_frame t
      else begin
        if Buffer.length t.acc < t.max_bytes then Buffer.add_char t.acc ch
        else t.dropped <- t.dropped + 1;
        if t.in_comment then begin
          if ch = '\n' then t.in_comment <- false
        end
        else if t.in_string then begin
          if t.escaped then t.escaped <- false
          else if ch = '\\' then t.escaped <- true
          else if ch = '"' then t.in_string <- false
        end
        else
          match ch with
          | '(' -> t.depth <- t.depth + 1
          | ')' -> t.depth <- t.depth - 1
          | '"' -> t.in_string <- true
          | ';' -> t.in_comment <- true
          | _ -> ()
      end
    done

  (** Is data available within [timeout] seconds? [EINTR] (a signal
      landed on this domain) reports "no" so the caller rechecks its
      shutdown flag instead of blocking on. *)
  let wait_readable ?(timeout = 0.0) (fd : Unix.file_descr) : bool =
    match Unix.select [ fd ] [] [] timeout with
    | [ _ ], _, _ -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

  let readable (fd : Unix.file_descr) : bool = wait_readable ~timeout:0.0 fd

  let rec read_retry fd buf len =
    match Unix.read fd buf 0 len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf len

  (** Read once ([blocking]) or only if data is already available, and
      scan what arrived. [?cap] bounds the read size (the chaos
      harness's short reads). EOF flushes the final unterminated
      frame. *)
  let refill ?cap (t : t) ~(blocking : bool) : unit =
    if (not t.eof) && (blocking || readable t.fd) then begin
      let want =
        match cap with
        | Some c -> max 1 (min c (Bytes.length t.chunk))
        | None -> Bytes.length t.chunk
      in
      let n = read_retry t.fd t.chunk want in
      if n = 0 then begin
        t.eof <- true;
        if Buffer.length t.acc > 0 || t.dropped > 0 then end_frame t
      end
      else scan t n
    end
end

(* ---------------- orchestration ---------------- *)

type opts = {
  domains : int option;  (** [None]: {!Pool.default_domains} *)
  batch : int;  (** requests handed to the pool per drain *)
  queue_cap : int;  (** bounded in-flight queue; beyond it we shed *)
  row_timeout : float option;
      (** the pool's detach deadline: a request still running after
          this many seconds is answered [deadline-exceeded] and its
          worker replaced. The backstop for code that never polls a
          budget; [deadline-ms] is the cooperative deadline *)
  quarantine : Quarantine.t option;
      (** repeat-offender table; pool-level failures strike it and
          blocked requests are refused without claiming a domain *)
  chaos : Chaos.t option;  (** fault-injection plan (tests / bench) *)
  brownout_lo : float;
      (** queue-fill fraction at which the {!Brownout} ladder enters
          compile-only *)
  brownout_hi : float;  (** fraction at which it enters degrade *)
}

let default_opts =
  {
    domains = None;
    batch = 32;
    queue_cap = 256;
    row_timeout = None;
    quarantine = None;
    chaos = None;
    brownout_lo = 0.5;
    brownout_hi = 0.875;
  }

(* best-effort id extraction for responses that never reach [Service]
   (shed / pool-failed frames); cheap — no payload decoding *)
let id_of_frame (line : string) : string option =
  match Sexp.of_string line with
  | Sexp.List (Sexp.Atom "request" :: fields) -> (
      match P.one_atom "id" fields with
      | id -> id
      | exception _ -> None)
  | _ -> None
  | exception _ -> None

let note = Fv_obs.Metrics.incr Fv_obs.Metrics.global

(** Serve one input stream until EOF, client disconnect, or
    {!request_shutdown}. Responses go to [out], one line each; the
    channel is flushed after every batch. *)
let serve_fd (scfg : Service.cfg) (o : opts) ~(in_fd : Unix.file_descr)
    ~(out : out_channel) : unit =
  ignore_sigpipe ();
  let fr = Framer.create ~max_bytes:(scfg.Service.max_request_bytes + 1) in_fd in
  (* queue entries carry their admission time so queue wait counts
     against the request's deadline downstream *)
  let q : (int * string * float) Batcher.t = Batcher.create ~cap:o.queue_cap () in
  (* a client that hangs up mid-batch kills this connection, nothing
     else: with SIGPIPE ignored the failed write surfaces as Sys_error /
     EPIPE here, we stop writing and unwind *)
  let client_gone = ref false in
  let disconnected () =
    client_gone := true;
    note "serve_client_disconnects"
  in
  let write_count = ref 0 in
  let respond line =
    if not !client_gone then begin
      let w = !write_count in
      incr write_count;
      try
        let full = line ^ "\n" in
        match o.chaos with
        | Some c when Chaos.short_write c ~write:w && String.length full > 1 ->
            (* short write: two syscalls, same bytes — must be invisible
               to the client *)
            let k = String.length full / 2 in
            output_string out (String.sub full 0 k);
            flush out;
            output_string out (String.sub full k (String.length full - k))
        | _ -> output_string out full
      with
      | Sys_error _ -> disconnected ()
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          disconnected ()
    end
  in
  let flush_out () =
    if not !client_gone then
      try flush out with
      | Sys_error _ -> disconnected ()
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          disconnected ()
  in
  (* request admission ordinals drive the chaos plan: deterministic for
     a given stream, so the harness can recompute which requests were
     perturbed *)
  let next_ordinal = ref 0 in
  let admit frame =
    let ord = !next_ordinal in
    incr next_ordinal;
    match frame with
    | Framer.Too_big n ->
        note "serve_oversized";
        respond
          (P.response_line ~status:P.Oversized
             (P.error_body
                (Printf.sprintf
                   "request of %d bytes exceeds the %d-byte limit" n
                   scfg.Service.max_request_bytes)))
    | Framer.Frame line ->
        let now = Fv_obs.Clock.now () in
        (* expiry from the frame's own deadline (cheap scan, no parse)
           or the server default; an expired entry is answered at
           admission or at take, never handed to a worker *)
        let expires_at =
          match
            (P.deadline_ms_of_line line, scfg.Service.deadline_ms)
          with
          | Some ms, _ | None, Some ms ->
              Some (now +. (float_of_int ms /. 1000.0))
          | None, None -> None
        in
        let expired_response () =
          note "serve_expired_drops";
          respond
            (P.response_line ?id:(id_of_frame line)
               ~status:P.Deadline_exceeded
               (P.error_body "deadline expired before the request ran"))
        in
        (match Batcher.offer ?expires_at ~now q (ord, line, now) with
        | `Admitted -> ()
        | `Expired -> expired_response ()
        | `Shed ->
            note "serve_shed";
            respond
              (P.response_line ?id:(id_of_frame line) ~status:P.Overloaded
                 (P.error_body "in-flight queue full")))
  in
  let drain_frames () =
    while not (Queue.is_empty fr.Framer.frames) do
      admit (Queue.pop fr.Framer.frames)
    done
  in
  let refill_count = ref 0 in
  let refill ~blocking =
    let cap =
      match o.chaos with
      | Some c -> Chaos.read_cap c ~refill:!refill_count
      | None -> None
    in
    incr refill_count;
    Framer.refill ?cap fr ~blocking
  in
  (* block (in bounded slices, so shutdown stays responsive) until
     there is work, the stream ends, or we are told to stop *)
  let stop_reading () = shutdown_requested () || !client_gone in
  (* the workers park between back-to-back batches and end before the
     orchestrator blocks for input: a parked domain takes part in every
     stop-the-world minor collection, so it would tax whatever runs
     next (DESIGN.md, "Daemon workers park only between back-to-back
     batches") *)
  let pool = Pool.create ?domains:o.domains () in
  let rec await_work () =
    drain_frames ();
    if Batcher.length q = 0 && (not fr.Framer.eof) && not (stop_reading ())
    then begin
      if Framer.readable fr.Framer.fd then refill ~blocking:true
      else begin
        Pool.release pool;
        if Framer.wait_readable ~timeout:0.2 fr.Framer.fd then
          refill ~blocking:true
      end;
      await_work ()
    end
  in
  (* admit everything already waiting in the kernel buffer, up to the
     queue bound — beyond it the data stays unread (transport
     backpressure) until the next drain *)
  let slurp () =
    while
      (not fr.Framer.eof)
      && (not (stop_reading ()))
      && Batcher.length q < Batcher.capacity q
      && Framer.readable fr.Framer.fd
    do
      refill ~blocking:false;
      drain_frames ()
    done
  in
  let respond_failure line status msg =
    P.response_line ?id:(id_of_frame line) ~status (P.error_body msg)
  in
  let failure_response line = function
    | Pool.Timed_out { wall_seconds; limit } ->
        respond_failure line P.Deadline_exceeded
          (Printf.sprintf "%.3f s exceeded the %.3f s row timeout"
             wall_seconds limit)
    | Pool.Raised { exn; _ } ->
        respond_failure line P.Internal_error (Printexc.to_string exn)
  in
  let handle_batch ~brownout (items : (int * string * float) list) :
      string list =
    (* refuse known poison up front: a blocked request costs one hash
       lookup, never a pool domain *)
    let tagged =
      List.map
        (fun ((_, line, _) as item) ->
          match o.quarantine with
          | Some qt when Quarantine.blocked qt ~line ->
              note "serve_quarantined";
              `Blocked
                (respond_failure line P.Internal_error
                   (Printf.sprintf "quarantined after %d pool failures"
                      (Quarantine.strikes qt ~line)))
          | _ -> `Run item)
        items
    in
    let to_run =
      List.filter_map (function `Run it -> Some it | `Blocked _ -> None) tagged
    in
    let work (ord, line, admitted) =
      (match o.chaos with
      | Some c -> Chaos.perturb c ~line ~ordinal:ord
      | None -> ());
      Service.handle ~admitted ~brownout scfg line
    in
    let results = Pool.run pool ?timeout_s:o.row_timeout work to_run in
    let answered =
      List.map2
        (fun (_, line, _) -> function
          | Ok resp -> resp
          | Error f ->
              (* a pool-level failure (wedged or worker-killing) is what
                 quarantine exists for; structured error responses from
                 [Service.handle] never strike *)
              (match o.quarantine with
              | Some qt -> ignore (Quarantine.strike qt ~line)
              | None -> ());
              failure_response line f)
        to_run results
    in
    let rec merge tagged answers =
      match (tagged, answers) with
      | [], [] -> []
      | `Blocked r :: rest, answers -> r :: merge rest answers
      | `Run _ :: rest, a :: more -> a :: merge rest more
      | _ -> assert false
    in
    merge tagged answered
  in
  (* brownout level is computed once per batch from the queue
     watermarks, by this single orchestrator loop; workers receive it
     as a value. Transitions are counted so the ladder is visible in
     stats-json *)
  let level = ref Brownout.Nominal in
  let update_brownout () =
    let next =
      Brownout.of_queue ~len:(Batcher.length q) ~cap:o.queue_cap
        ~lo:o.brownout_lo ~hi:o.brownout_hi
    in
    if next <> !level then begin
      Fv_obs.Metrics.incr Fv_obs.Metrics.global "serve_brownout_transitions"
        ~labels:[ ("to", Brownout.atom next) ];
      level := next
    end;
    Fv_obs.Metrics.gauge Fv_obs.Metrics.global "serve_brownout_level"
      (float_of_int (Brownout.rank next));
    next
  in
  let rec loop () =
    await_work ();
    if Batcher.length q > 0 then begin
      (* on shutdown we stop reading but still answer everything already
         admitted — the drain half of "stop accepting, drain in-flight" *)
      slurp ();
      Fv_obs.Metrics.gauge Fv_obs.Metrics.global "serve_queue_depth"
        (float_of_int (Batcher.length q));
      note "serve_batches";
      let brownout = update_brownout () in
      let taken = Batcher.take q ~now:(Fv_obs.Clock.now ()) ~max:o.batch in
      (* a request whose deadline lapsed in the queue is answered now,
         ahead of the batch — it must not claim a worker *)
      let to_run =
        List.filter_map
          (function
            | `Run it -> Some it
            | `Expired (_, line, _) ->
                note "serve_expired_drops";
                respond
                  (P.response_line ?id:(id_of_frame line)
                     ~status:P.Deadline_exceeded
                     (P.error_body
                        "deadline expired while queued"));
                None)
          taken
      in
      let responses = handle_batch ~brownout to_run in
      List.iter respond responses;
      flush_out ();
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> Pool.release pool) loop;
  Fv_obs.Metrics.gauge Fv_obs.Metrics.global "serve_queue_depth" 0.0;
  flush_out ()

(** Serve stdin to stdout until EOF or shutdown. *)
let serve_stdin (scfg : Service.cfg) (o : opts) : unit =
  serve_fd scfg o ~in_fd:Unix.stdin ~out:stdout

(** Bind [path] and serve accepted connections sequentially until
    {!request_shutdown}. Each connection is a full newline-delimited
    session, answered on the same socket; the socket file is unlinked
    on the way out so a restart never trips over a stale path. *)
let serve_socket (scfg : Service.cfg) (o : opts) ~(path : string) : unit =
  ignore_sigpipe ();
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  let rec accept_loop () =
    if not (shutdown_requested ()) then
      if Framer.wait_readable ~timeout:0.2 sock then begin
        (match Unix.accept sock with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _)
          ->
            ()
        | fd, _ ->
            let out = Unix.out_channel_of_descr fd in
            (try serve_fd scfg o ~in_fd:fd ~out
             with e ->
               note "serve_connection_errors";
               Printf.eprintf "serve: connection dropped: %s\n%!"
                 (Printexc.to_string e));
            (try flush out with Sys_error _ -> ());
            (try close_out out with Sys_error _ -> ()));
        accept_loop ()
      end
      else accept_loop ()
  in
  accept_loop ();
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ())
