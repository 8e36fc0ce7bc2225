(** The JSON the benchmark reads and writes: the result line it prints,
    the server's [--stats-json] report, [BENCHMARK.json] and the series
    files {!Compare} reads. No JSON library ships with the toolchain, so
    this is a small recursive-descent reader plus a printer. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* ---------------- reading ---------------- *)

let of_string (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t'
                    || s.[!pos] = '\r')
    then (incr pos; ws ())
  in
  let expect c =
    if peek () <> c then fail "expected %C at byte %d" c !pos;
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal at byte %d" !pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* the files read here are ASCII; keep other code points
                 as their escape rather than re-encoding them *)
              if code < 128 then Buffer.add_char b (Char.chr code)
              else Buffer.add_string b (Printf.sprintf "\\u%04x" code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let num () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number at byte %d" start
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } at byte %d" !pos
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (incr pos; List [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; List (List.rev (v :: acc))
            | _ -> fail "expected , or ] at byte %d" !pos
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (num ())
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing bytes at %d" !pos;
  v

let of_file (path : string) : t =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  try of_string s with Error m -> fail "%s: %s" path m

(* ---------------- access ---------------- *)

let member (k : string) : t -> t = function
  | Obj kvs -> Option.value ~default:Null (List.assoc_opt k kvs)
  | _ -> Null

let to_list = function List xs -> xs | Null -> [] | _ -> fail "not a list"
let to_obj = function Obj kvs -> kvs | Null -> [] | _ -> fail "not an object"
let to_num = function Num f -> f | _ -> fail "not a number"
let to_str = function Str s -> s | _ -> fail "not a string"

(* ---------------- writing ---------------- *)

let escape (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* every digit a float carries: two runs are compared on the raw
   measurements *)
let num_to_string (f : float) : string =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string : t -> string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> num_to_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | List xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
      ^ "}"
