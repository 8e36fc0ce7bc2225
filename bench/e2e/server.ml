(** The daemon under test, [flexvec_cli serve], as a child process
    behind three pipes, and the single-threaded load generator that
    drives it.

    The generator is one event loop: it queues request lines, writes
    them as the pipe accepts them, and reads answers as they arrive, all
    from one [select], so the load comes from a single busy thread. The
    daemon answers in request order (nothing is shed or degraded below
    its queue bound, which is set far above the generator's 64 requests
    in flight), so the answer at the head of the stream belongs to the
    oldest request in flight; its id is checked against that request's.

    The daemon writes its [--stats-json] report to its standard error at
    exit; {!finish} collects it. *)

type t = {
  pid : int;
  to_srv : Unix.file_descr;
  from_srv : Unix.file_descr;
  err : Unix.file_descr;
  pending : string Queue.t;  (** lines queued, not yet written *)
  mutable head_off : int;  (** bytes of the queue's head already written *)
  chunk : Bytes.t;
  partial : Buffer.t;  (** an answer line still arriving *)
  errbuf : Buffer.t;
  mutable out_eof : bool;
  mutable err_eof : bool;
  mutable select_ns : float;  (** time spent waiting in [select] *)
  mutable awaiting : int;  (** requests sent and not yet answered *)
  mutable progress : int64;  (** when the last answer arrived *)
}

exception Died of string

(* The daemon's queue bound, raised from its default of 256: brownout
   starts at half of it, and a stall of the machine must show as latency
   rather than as degraded answers the checks would count as failures. *)
let max_queue = 4096

(* every daemon still running, killed and reaped at exit whatever ended
   the run *)
let live : int list ref = ref []

let reap pid =
  live := List.filter (( <> ) pid) !live;
  ignore (Unix.waitpid [] pid)

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !live)

(* a daemon that answers nothing for this long while requests wait is
   wedged: the run fails instead of hanging *)
let stall_s = 30.0

let spawn ~(exe : string) ~(domains : int) : t =
  (* a daemon that dies must surface as a failed write, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--domains"; string_of_int domains; "--max-queue";
        string_of_int max_queue; "--stats-json"; "/dev/stderr";
      |]
      in_r out_w err_w
  in
  live := pid :: !live;
  List.iter Unix.close [ in_r; out_w; err_w ];
  List.iter Unix.set_nonblock [ in_w; out_r; err_r ];
  {
    pid;
    to_srv = in_w;
    from_srv = out_r;
    err = err_r;
    pending = Queue.create ();
    head_off = 0;
    chunk = Bytes.create 65536;
    partial = Buffer.create 4096;
    errbuf = Buffer.create 4096;
    out_eof = false;
    err_eof = false;
    select_ns = 0.0;
    awaiting = 0;
    progress = Stats.now_ns ();
  }

let send (t : t) (line : string) : unit =
  if t.awaiting = 0 then t.progress <- Stats.now_ns ();
  t.awaiting <- t.awaiting + 1;
  Queue.add (line ^ "\n") t.pending

let write_some (t : t) : unit =
  let rec go () =
    match Queue.peek_opt t.pending with
    | None -> ()
    | Some s -> (
        let len = String.length s - t.head_off in
        match Unix.single_write_substring t.to_srv s t.head_off len with
        | n when n = len ->
            ignore (Queue.pop t.pending);
            t.head_off <- 0;
            go ()
        | n -> t.head_off <- t.head_off + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error (e, _, _) ->
            raise (Died ("write: " ^ Unix.error_message e)))
  in
  go ()

(* read what is available; complete answer lines go to [on_line] *)
let read_some (t : t) (on_line : string -> unit) : unit =
  match Unix.read t.from_srv t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> t.out_eof <- true
  | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get t.chunk i = '\n' then begin
          Buffer.add_subbytes t.partial t.chunk !start (i - !start);
          t.awaiting <- t.awaiting - 1;
          t.progress <- Stats.now_ns ();
          on_line (Buffer.contents t.partial);
          Buffer.clear t.partial;
          start := i + 1
        end
      done;
      Buffer.add_subbytes t.partial t.chunk !start (n - !start)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let read_err (t : t) : unit =
  match Unix.read t.err t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> t.err_eof <- true
  | n -> Buffer.add_subbytes t.errbuf t.chunk 0 n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(** One turn of the event loop: wait up to [timeout] seconds for the
    pipes, write queued requests, hand complete answers to [on_line]. *)
let pump (t : t) ~(timeout : float) (on_line : string -> unit) : unit =
  let reads =
    (if t.out_eof then [] else [ t.from_srv ]) @ if t.err_eof then [] else [ t.err ]
  in
  let writes = if Queue.is_empty t.pending then [] else [ t.to_srv ] in
  let t0 = Stats.now_ns () in
  let r, w, _ =
    try Unix.select reads writes [] (Float.max 0.0 timeout)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  t.select_ns <- t.select_ns +. Stats.since_ns t0;
  if w <> [] then write_some t;
  if List.mem t.err r then read_err t;
  if List.mem t.from_srv r then read_some t on_line;
  if t.out_eof then raise (Died "the daemon closed its output");
  if t.awaiting > 0 && Stats.since_s t.progress > stall_s then
    raise (Died (Printf.sprintf "no answer for %.0f s" stall_s))

(** Peak resident set of the daemon so far, MB. *)
let vmhwm_mb (t : t) : float = Report.vmhwm_mb (string_of_int t.pid)

(** Close the daemon's input, let it drain and exit, and return its
    [--stats-json] report. A daemon still running after [grace] seconds
    is killed. *)
let finish ?(grace = 60.0) (t : t) : Json.t option =
  (try Unix.close t.to_srv with Unix.Unix_error _ -> ());
  let t0 = Stats.now_ns () in
  while (not (t.out_eof && t.err_eof)) && Stats.since_s t0 < grace do
    let reads =
      (if t.out_eof then [] else [ t.from_srv ]) @ if t.err_eof then [] else [ t.err ]
    in
    match Unix.select reads [] [] 0.5 with
    | r, _, _ ->
        if List.mem t.err r then read_err t;
        if List.mem t.from_srv r then read_some t ignore
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  if not (t.out_eof && t.err_eof) then (
    try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap t.pid;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ t.from_srv; t.err ];
  (* the report is the last line of standard error that is a JSON object *)
  String.split_on_char '\n' (Buffer.contents t.errbuf)
  |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
  |> List.rev
  |> function
  | [] -> None
  | l :: _ -> ( try Some (Json.of_string l) with Json.Error _ -> None)

(* ---------------- load loops ---------------- *)

(** A request the generator sent: its line's expected id, the time it
    counts from, and what the workload needs to check its answer. *)
type 'a flight = { f_id : string option; f_t0 : int64; f_meta : 'a }

type leg = {
  answered : int;  (** answers received before the leg's end *)
  wall_s : float;  (** from the first request to the leg's end *)
  busy_frac : float;  (** share of the leg the generator was not waiting *)
}

(* the answer at the head of the stream belongs to the oldest request
   in flight *)
let take (inflight : 'a flight Queue.t) (line : string)
    ~(on_answer : 'a flight -> string -> unit) ~(on_stray : string -> unit) =
  match Queue.take_opt inflight with
  | Some f when Wire.id line = f.f_id -> on_answer f line
  | _ -> on_stray line

(** Closed loop: keep [window] requests in flight until [until] (a
    duration, or a number of requests), then wait for the last answers.
    [next ()] gives the next request line, its id and its check data;
    [on_answer f line ns ~measured] sees each answer with its round-trip
    time, [measured] telling whether it arrived before the leg ended. *)
let closed (t : t) ~(window : int)
    ~(until : [ `Seconds of float | `Requests of int ])
    ~(next : unit -> string * string option * 'a)
    ~(on_answer : 'a flight -> string -> float -> measured:bool -> unit)
    ~(on_stray : string -> unit) : leg =
  let inflight = Queue.create () in
  let start = Stats.now_ns () in
  let sel0 = t.select_ns in
  let sent = ref 0 and answered = ref 0 in
  let stop_at = ref None in
  let handle line =
    take inflight line ~on_stray ~on_answer:(fun f l ->
        let measured = !stop_at = None in
        if measured then incr answered;
        on_answer f l (Stats.since_ns f.f_t0) ~measured)
  in
  let over () =
    match until with
    | `Seconds s -> Stats.since_s start >= s
    | `Requests n -> !sent >= n
  in
  while !stop_at = None || not (Queue.is_empty inflight) do
    if !stop_at = None && over () then stop_at := Some (Stats.now_ns ());
    if !stop_at = None then
      while Queue.length inflight < window && not (over ()) do
        let line, id, meta = next () in
        send t line;
        incr sent;
        Queue.add { f_id = id; f_t0 = Stats.now_ns (); f_meta = meta } inflight
      done;
    pump t ~timeout:0.5 handle
  done;
  let stop = Option.get !stop_at in
  {
    answered = !answered;
    wall_s = Int64.to_float (Int64.sub stop start) *. 1e-9;
    busy_frac = 1.0 -. ((t.select_ns -. sel0) *. 1e-9 /. Stats.since_s start);
  }

(** Open loop: request [i] is due [due.(i)] seconds after the start,
    whatever the daemon is doing. [on_answer f line ns] gets the time
    from the request's due time to its answer; [late] collects how late
    each request was sent, ns. *)
let open_loop (t : t) ~(due : float array)
    ~(line : int -> string * string option * 'a)
    ~(on_answer : 'a flight -> string -> float -> unit)
    ~(on_stray : string -> unit) ~(late : Stats.samples) : leg =
  let inflight = Queue.create () in
  let start = Stats.now_ns () in
  let due_ns i = Int64.add start (Int64.of_float (due.(i) *. 1e9)) in
  let sel0 = t.select_ns in
  let n = Array.length due in
  let next = ref 0 and answered = ref 0 in
  let handle l =
    take inflight l ~on_stray ~on_answer:(fun f l ->
        incr answered;
        on_answer f l (Stats.since_ns f.f_t0))
  in
  while !next < n || not (Queue.is_empty inflight) do
    let now = Stats.now_ns () in
    while !next < n && Int64.compare (due_ns !next) now <= 0 do
      let l, id, meta = line !next in
      send t l;
      let d = due_ns !next in
      Stats.add late (Stats.since_ns d);
      Queue.add { f_id = id; f_t0 = d; f_meta = meta } inflight;
      incr next
    done;
    let timeout =
      if !next < n then
        Int64.to_float (Int64.sub (due_ns !next) (Stats.now_ns ())) *. 1e-9
      else 0.5
    in
    pump t ~timeout handle
  done;
  let wall = Stats.since_s start in
  {
    answered = !answered;
    wall_s = wall;
    busy_frac = 1.0 -. ((t.select_ns -. sel0) *. 1e-9 /. wall);
  }
