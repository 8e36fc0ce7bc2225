(** Micro-op traces, recorded in the form the pipeline replays.

    The emulators push one {!Uop.t} per executed micro-op, and the
    out-of-order model ({!Fv_ooo.Pipeline.run}) replays the trace
    straight out of the sink's columns, so the trace has one
    representation. As each uop arrives, {!push}:

    - interns its register names to dense ids, sources first and then
      the destination (renaming reads before it writes; the interning
      order fixes the id space, which is private to the trace);
    - writes the flat columns the replay loop reads: a class byte, a
      presence-flag byte, unboxed ints (register ids, element address
      with a {!no_addr} sentinel, element count, the branch predictor's
      label hash) and the label;
    - folds every field that can influence simulation into a
      word-at-a-time FNV-1a content hash ({!Fv_obs.Hash.fold_word}).

    Register names are hashed by id, so alpha-renaming a trace leaves
    {!hash} unchanged; labels of non-branch uops are excluded, since
    they cannot affect the statistics. Two traces with equal {!hash},
    {!length} and {!nregs} simulate identically with overwhelming
    probability, which is what the whole-trace memo cache
    ({!Fv_ooo.Simcache}) keys on.

    Latency, reciprocal throughput, port class and the branch flag are
    functions of the class byte, so the replay reads them from the
    per-code tables below rather than from per-uop columns.

    The only per-push allocation is the caller's transient record and,
    for a name seen for the first time, its intern-table entry. The
    cold paths (timelines, [simulate --trace-out]) rebuild records with
    {!to_array}, mapping each id back to the name first interned for
    it. *)

open Fv_isa

(* presence flags, one byte per uop *)
let b_dst = 1

and b_addr = 2

and b_taken = 4

(** The {!t.addr} of a uop without an address. *)
let no_addr = min_int

(* port class, as {!pcls_of_code} encodes it *)
let b_load = 0

and b_store = 1

and b_alu = 2

(* per-code lookup tables, built once per process *)
let lat_of_code =
  Array.init Latency.ncodes (fun c -> Latency.latency (Latency.of_code c))

let recip_of_code =
  Array.init Latency.ncodes (fun c -> Latency.recip_tput (Latency.of_code c))

let pcls_of_code =
  Array.init Latency.ncodes (fun c ->
      let cls = Latency.of_code c in
      if Latency.is_load cls then b_load
      else if Latency.is_store cls then b_store
      else b_alu)

let isbr_of_code =
  Array.init Latency.ncodes (fun c -> Latency.is_branch (Latency.of_code c))

(* size of the direct-mapped intern cache; a power of two *)
let dm_n = 256

type t = {
  mutable len : int;
  mutable cls : Bytes.t;  (** {!Latency.code} per uop *)
  mutable flags : Bytes.t;  (** {!b_dst} / {!b_addr} / {!b_taken} bits *)
  mutable dst : int array;  (** interned destination register; -1 = none *)
  mutable addr : int array;  (** element address; {!no_addr} = none *)
  mutable nelems : int array;
  mutable lbl : string array;
  mutable lbl_hash : int array;
      (** [Hashtbl.hash label] for branches, exactly what {!Fv_ooo.Predictor}
          computes; 0 otherwise *)
  mutable src_off : int array;
      (** prefix offsets into [srcs]; length = capacity + 1, and
          [src_off.(i) .. src_off.(i+1) - 1] are uop [i]'s sources *)
  mutable srcs : int array;  (** interned source registers *)
  mutable nsrcs : int;
  ids : (string, int) Hashtbl.t;  (** name -> id *)
  mutable names : string array;  (** id -> name *)
  mutable nregs : int;
  dm_s : string array;
  dm_id : int array;  (** -1: empty slot *)
  mutable h : int;  (** FNV-1a state *)
  mutable last_lbl : string;
  mutable last_lblh : int;
}

let create ?(capacity = 256) () : t =
  let cap = max 1 capacity in
  {
    len = 0;
    cls = Bytes.create cap;
    flags = Bytes.create cap;
    dst = Array.make cap 0;
    addr = Array.make cap 0;
    nelems = Array.make cap 0;
    lbl = Array.make cap "";
    lbl_hash = Array.make cap 0;
    src_off = Array.make (cap + 1) 0;
    srcs = Array.make cap 0;
    nsrcs = 0;
    ids = Hashtbl.create (min cap 1024);
    names = Array.make (min cap 1024) "";
    nregs = 0;
    dm_s = Array.make dm_n "";
    dm_id = Array.make dm_n (-1);
    h = Fv_obs.Hash.word_offset;
    last_lbl = "";
    last_lblh = Hashtbl.hash "";
  }

let length t = t.len

(** Distinct register names pushed so far: ids are [0 .. nregs t - 1]. *)
let nregs t = t.nregs

(** The content hash of everything pushed so far. *)
let hash t = Int64.of_int t.h

let grow_to a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow (t : t) =
  let cap = Bytes.length t.cls in
  let ncap = 2 * cap in
  t.cls <- Bytes.extend t.cls 0 cap;
  t.flags <- Bytes.extend t.flags 0 cap;
  t.dst <- grow_to t.dst ncap 0;
  t.addr <- grow_to t.addr ncap 0;
  t.nelems <- grow_to t.nelems ncap 0;
  t.lbl <- grow_to t.lbl ncap "";
  t.lbl_hash <- grow_to t.lbl_hash ncap 0;
  t.src_off <- grow_to t.src_off (ncap + 1) 0

let intern_slow (t : t) (r : string) k =
  let id =
    try Hashtbl.find t.ids r
    with Not_found ->
      let id = t.nregs in
      if id = Array.length t.names then t.names <- grow_to t.names (2 * id) "";
      t.names.(id) <- r;
      t.nregs <- id + 1;
      Hashtbl.add t.ids r id;
      id
  in
  t.dm_s.(k) <- r;
  Array.unsafe_set t.dm_id k id;
  id

(* Names are mostly the AST's own strings, physically shared across
   loop iterations, so a direct-mapped cache in front of the hash table
   absorbs most lookups. It is indexed by a three-byte signature far
   cheaper than [Hashtbl]'s full string hash; a probe compares the
   pointer first ([==] cannot false-positive) and falls back to content
   equality, refreshing the slot's pointer so the next probe for the
   same object is one comparison. *)
let intern (t : t) (r : string) =
  let len = String.length r in
  let k =
    if len = 0 then 0
    else
      (len * 31
      + (Char.code (String.unsafe_get r 0) * 7)
      + Char.code (String.unsafe_get r (len - 1)))
      land (dm_n - 1)
  in
  let id = Array.unsafe_get t.dm_id k in
  let s = Array.unsafe_get t.dm_s k in
  if id >= 0 && s == r then id
  else if id >= 0 && String.equal s r then begin
    t.dm_s.(k) <- r;
    id
  end
  else intern_slow t r k

let fold (t : t) x = t.h <- Fv_obs.Hash.fold_word t.h x

let rec push_srcs (t : t) = function
  | [] -> ()
  | r :: rest ->
      let id = intern t r in
      if t.nsrcs = Array.length t.srcs then
        t.srcs <- grow_to t.srcs (2 * t.nsrcs) 0;
      Array.unsafe_set t.srcs t.nsrcs id;
      t.nsrcs <- t.nsrcs + 1;
      fold t id;
      push_srcs t rest

(* branch labels repeat (one shared string per loop back-edge):
   memoize [Hashtbl.hash] on physical identity *)
let label_hash (t : t) (l : string) =
  if l != t.last_lbl then begin
    t.last_lbl <- l;
    t.last_lblh <- Hashtbl.hash l
  end;
  t.last_lblh

let push (t : t) (u : Uop.t) =
  if t.len = Bytes.length t.cls then grow t;
  let i = t.len in
  let c = Latency.code u.Uop.cls in
  Bytes.unsafe_set t.cls i (Char.unsafe_chr c);
  push_srcs t u.Uop.srcs;
  t.src_off.(i + 1) <- t.nsrcs;
  let d = match u.Uop.dst with Some r -> intern t r | None -> -1 in
  let a = match u.Uop.addr with Some a -> a | None -> no_addr in
  let fl =
    (if d >= 0 then b_dst else 0)
    lor (if Option.is_some u.Uop.addr then b_addr else 0)
    lor if u.Uop.taken then b_taken else 0
  in
  Bytes.unsafe_set t.flags i (Char.unsafe_chr fl);
  t.dst.(i) <- d;
  t.addr.(i) <- a;
  t.nelems.(i) <- u.Uop.nelems;
  t.lbl.(i) <- u.Uop.label;
  fold t ((c lsl 3) lor fl);
  fold t d;
  fold t a;
  fold t u.Uop.nelems;
  if isbr_of_code.(c) then begin
    let lh = label_hash t u.Uop.label in
    t.lbl_hash.(i) <- lh;
    fold t lh
  end;
  t.len <- i + 1

(** The trace as a fresh array of exactly [length t] uops, rebuilt from
    the columns and the name table — for cold consumers (timelines,
    trace dumps) that want records. *)
let to_array (t : t) : Uop.t array =
  Array.init t.len (fun i ->
      let fl = Char.code (Bytes.unsafe_get t.flags i) in
      let lo = t.src_off.(i) in
      {
        Uop.cls = Latency.of_code (Char.code (Bytes.unsafe_get t.cls i));
        dst = (if fl land b_dst <> 0 then Some t.names.(t.dst.(i)) else None);
        srcs = List.init (t.src_off.(i + 1) - lo) (fun k -> t.names.(t.srcs.(lo + k)));
        addr = (if fl land b_addr <> 0 then Some t.addr.(i) else None);
        nelems = t.nelems.(i);
        label = t.lbl.(i);
        taken = fl land b_taken <> 0;
      })

(** Dynamic instruction-class histogram, straight off the code bytes. *)
let histogram t : (Latency.uop_class * int) list =
  let counts = Array.make Latency.ncodes 0 in
  for i = 0 to t.len - 1 do
    let c = Char.code (Bytes.unsafe_get t.cls i) in
    counts.(c) <- counts.(c) + 1
  done;
  List.filter_map
    (fun c ->
      if counts.(c) > 0 then Some (Latency.of_code c, counts.(c)) else None)
    (List.init Latency.ncodes Fun.id)

let count_class t cls =
  let c = Latency.code cls in
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if Char.code (Bytes.unsafe_get t.cls i) = c then incr n
  done;
  !n
