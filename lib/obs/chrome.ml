(** Chrome trace-event JSON exporter (the format Perfetto and
    [chrome://tracing] load).

    Emits the JSON-object form [{"traceEvents": [...]}] with complete
    ["ph":"X"] duration slices, ["ph":"i"] instant markers, and
    ["ph":"M"] process/thread-name metadata. Timestamps are
    microseconds ([ts]/[dur] doubles); simulated-time exporters map one
    cycle to one microsecond so Perfetto's time axis reads directly as
    cycles. Each event is built as a {!Json.t} and written by
    {!Json}, the one JSON emitter, which lives in this library so that
    leaf libraries can export traces without depending on the report
    layer. *)

type event =
  | Slice of {
      name : string;
      cat : string;
      pid : int;
      tid : int;
      ts : float;  (** microseconds *)
      dur : float;  (** microseconds *)
      args : (string * string) list;
    }
  | Instant of {
      name : string;
      cat : string;
      pid : int;
      tid : int;
      ts : float;
      args : (string * string) list;
    }
  | Process_name of { pid : int; name : string }
  | Thread_name of { pid : int; tid : int; name : string }

let slice ?(cat = "") ?(args = []) ~pid ~tid ~ts ~dur name =
  Slice { name; cat; pid; tid; ts; dur; args }

let instant ?(cat = "") ?(args = []) ~pid ~tid ~ts name =
  Instant { name; cat; pid; tid; ts; args }

(* a timestamp the trace viewer can place: a non-finite one (never
   produced by the clock) is written as 0, not as JSON's null *)
let num (f : float) : Json.t =
  if Float.is_finite f then Json.Float f else Json.Int 0

(* the fields every event starts with *)
let common ~name ~cat ~ph ~pid ~tid ~ts =
  (("name", Json.Str name)
  :: (if cat <> "" then [ ("cat", Json.Str cat) ] else []))
  @ [
      ("ph", Json.Str ph);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("ts", num ts);
    ]

let args_field (args : (string * string) list) =
  if args = [] then []
  else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)) ]

(* a ["ph":"M"] record naming a process or thread track *)
let metadata kind ~pid ~tid name =
  Json.Obj
    (common ~name:kind ~cat:"" ~ph:"M" ~pid ~tid ~ts:0.0
    @ args_field [ ("name", name) ])

let json_of_event : event -> Json.t = function
  | Slice { name; cat; pid; tid; ts; dur; args } ->
      Json.Obj
        (common ~name ~cat ~ph:"X" ~pid ~tid ~ts
        @ (("dur", num dur) :: args_field args))
  | Instant { name; cat; pid; tid; ts; args } ->
      (* "s":"t": thread-scoped instant *)
      Json.Obj
        (common ~name ~cat ~ph:"i" ~pid ~tid ~ts
        @ (("s", Json.Str "t") :: args_field args))
  | Process_name { pid; name } -> metadata "process_name" ~pid ~tid:0 name
  | Thread_name { pid; tid; name } -> metadata "thread_name" ~pid ~tid name

let to_json (events : event list) : Json.t =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map json_of_event events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let to_string (events : event list) : string = Json.to_string (to_json events)

let to_file (path : string) (events : event list) : unit =
  Json.to_file path (to_json events)

(** Convert host-clock span events into trace events, with timestamps
    rebased to [t_base] (seconds, typically the recorder's install
    time) and scaled to microseconds. *)
let of_spans ~(t_base : float) (spans : Span.event list) : event list =
  List.map
    (fun (s : Span.event) ->
      slice ~cat:(if s.Span.cat = "" then "host" else s.Span.cat)
        ~pid:s.Span.pid ~tid:s.Span.tid
        ~ts:((s.Span.t0 -. t_base) *. 1e6)
        ~dur:(Float.max 0.01 ((s.Span.t1 -. s.Span.t0) *. 1e6))
        s.Span.name)
    spans
