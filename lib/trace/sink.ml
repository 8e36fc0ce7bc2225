(** Micro-op traces, recorded in the form the pipeline replays.

    The emulators record each executed micro-op by register id, straight
    into the flat columns the out-of-order model ({!Fv_ooo.Pipeline.run})
    replays, so the trace has one representation and recording builds
    no per-uop record. A uop is recorded as {!src} once per source
    register, then one closing call: {!uop} (registers only), {!mem_uop}
    (with an element address and count) or {!branch}. The closing call
    writes the columns — a class byte, a presence-flag byte, unboxed
    ints (register ids, element address with a {!no_addr} sentinel,
    element count, label id, the branch predictor's label hash) — and
    folds every field that can influence simulation into a
    word-at-a-time FNV-1a content hash ({!Fv_obs.Hash.fold_word}).

    Register ids are dense, [0 .. nregs t - 1], and come from one
    counter through two tables:

    - {!reg} resolves a program name (an AST variable, a VIR register).
      A direct-mapped cache probed by physical equality sits in front
      of the name table: the emulators pass the program's own strings,
      so a probe is a pointer comparison, and the table is reached
      about once per name.
    - {!internal} resolves an emulator's own register (the reserved
      keys below: temporaries, the vector induction register, mask
      tests, the RTM and invocation-gap chains) through an int-indexed
      table. No program name reaches it, so a loop variable spelled
      like an internal register is still a register of its own.

    Ids are assigned on first use, so they depend only on the order in
    which the program's registers first appear. Register names are
    hashed by id, so consistently renaming a trace's registers leaves
    {!hash} unchanged; labels of non-branch uops are excluded, since
    they cannot affect the statistics. Two traces with equal {!hash},
    {!length} and {!nregs} simulate identically with overwhelming
    probability, which is what the whole-trace memo cache
    ({!Fv_ooo.Simcache}) keys on.

    Branch labels get ids too, through {!label} (a second
    physical-equality cache), and keep the [Hashtbl.hash] of their
    string, computed once per label, which is what
    {!Fv_ooo.Predictor} indexes by.

    Latency, reciprocal throughput, port class and the branch flag are
    functions of the class byte, so the replay reads them from the
    per-code tables below rather than from per-uop columns.

    Recording allocates nothing per uop. {!push} is the name-level
    wrapper over the same path, for tests and cold callers; the cold
    consumers (timelines, [simulate --trace-out]) rebuild records with
    {!to_array}, which spells internal registers with a leading [%].

    A sink made with [~record:false] keeps only the per-class counts
    ({!length}, {!histogram}, {!count_class}): the profiler counts a
    run's uops through it without buffering the trace. *)

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

let branch_code = Latency.code Latency.Branch

(** {2 Reserved registers}

    Keys for {!internal}. The vector loop's induction register, the
    mask-test and fault-check results a branch reads, the RTM region
    chain, the invocation-gap chain and the never-written source of a
    constant operand each have one; the scalar interpreter's
    temporaries and the vector emulator's take one key per stack depth
    or per slot. *)

let r_vi = 0

and r_ktest = 1

and r_kchk = 2

and r_rtm = 3

and r_gap = 4

and r_const = 5

let n_fixed = 6

(** The scalar interpreter's temporary at expression depth [p]. *)
let scalar_tmp p = n_fixed + (2 * p)

(** The vector emulator's temporary slot [q] within one instruction. *)
let vector_tmp q = n_fixed + (2 * q) + 1

let fixed_names = [| "%vi"; "%ktest"; "%kchk"; "%rtm"; "%gap"; "%const" |]

let internal_name k =
  if k < n_fixed then fixed_names.(k)
  else
    let q = (k - n_fixed) / 2 in
    (if (k - n_fixed) land 1 = 0 then "%st" else "%vt") ^ string_of_int q

(* size of the direct-mapped caches; a power of two *)
let dm_n = 256

type t = {
  record : bool;  (** false: count classes only *)
  mutable len : int;
  mutable cls : Bytes.t;  (** {!Latency.code} per uop *)
  mutable flags : Bytes.t;  (** {!b_dst} / {!b_addr} / {!b_taken} bits *)
  mutable dst : int array;  (** destination register id; -1 = none *)
  mutable addr : int array;  (** element address; {!no_addr} = none *)
  mutable nelems : int array;
  mutable lbl : int array;  (** label id; 0 is the empty label *)
  mutable lbl_hash : int array;
      (** [Hashtbl.hash label] for branches, exactly what {!Fv_ooo.Predictor}
          computes; 0 otherwise *)
  mutable src_off : int array;
      (** prefix offsets into [srcs]; length = capacity + 1, and
          [src_off.(i) .. src_off.(i+1) - 1] are uop [i]'s sources *)
  mutable srcs : int array;  (** source register ids *)
  mutable nsrcs : int;
  counts : int array;  (** uops per class code *)
  ids : (string, int) Hashtbl.t;  (** program name -> id *)
  mutable reserved : int array;  (** reserved key -> id; -1 = unused *)
  mutable names : string array;  (** id -> name *)
  mutable nregs : int;
  dm_s : string array;
  dm_id : int array;  (** -1: empty slot *)
  lbl_ids : (string, int) Hashtbl.t;
  mutable lbl_names : string array;  (** label id -> label *)
  mutable lbl_hashes : int array;  (** label id -> [Hashtbl.hash] *)
  mutable nlbls : int;
  lm_s : string array;
  lm_id : int array;
  mutable h : int;  (** FNV-1a state *)
}

let create ?(capacity = 256) ?(record = true) () : t =
  let cap = if record then max 1 capacity else 1 in
  let lbl_ids = Hashtbl.create 16 in
  Hashtbl.add lbl_ids "" 0;
  {
    record;
    len = 0;
    cls = Bytes.create cap;
    flags = Bytes.create cap;
    dst = Array.make cap 0;
    addr = Array.make cap 0;
    nelems = Array.make cap 0;
    lbl = Array.make cap 0;
    lbl_hash = Array.make cap 0;
    src_off = Array.make (cap + 1) 0;
    srcs = Array.make cap 0;
    nsrcs = 0;
    counts = Array.make Latency.ncodes 0;
    ids = Hashtbl.create 32;
    reserved = Array.make 64 (-1);
    names = Array.make 64 "";
    nregs = 0;
    dm_s = Array.make dm_n "";
    dm_id = Array.make dm_n (-1);
    lbl_ids;
    lbl_names = Array.make 16 "";
    lbl_hashes = Array.make 16 (Hashtbl.hash "");
    nlbls = 1;
    lm_s = Array.make dm_n "";
    lm_id = Array.make dm_n (-1);
    h = Fv_obs.Hash.word_offset;
  }

(** Restore the state [create ()] builds, keeping the columns'
    capacity: a reset sink assigns the same ids, folds the same hash and
    rebuilds the same records as a fresh one. What is never read keeps
    its stale contents: slots past {!length}, names past {!nregs},
    labels past the label count, and the strings of cache slots whose
    id is -1. *)
let reset (t : t) =
  t.len <- 0;
  t.nsrcs <- 0;
  Array.fill t.counts 0 (Array.length t.counts) 0;
  Hashtbl.reset t.ids;
  Array.fill t.reserved 0 (Array.length t.reserved) (-1);
  t.nregs <- 0;
  Array.fill t.dm_id 0 dm_n (-1);
  Hashtbl.reset t.lbl_ids;
  Hashtbl.add t.lbl_ids "" 0;
  t.nlbls <- 1;
  Array.fill t.lm_id 0 dm_n (-1);
  t.h <- Fv_obs.Hash.word_offset

(* Free recording sinks, shared by every domain. Not [Domain.DLS]: pool
   workers end with every one-shot map and at every idle point of the
   daemon, so per-domain sinks would die with them. *)
let free_lock = Mutex.create ()
let free : t list ref = ref []

(** A recording sink in exactly the state [create ()] builds, without
    allocating one: a free sink from a process-wide pool, reset, or a
    new one when none is free (counted as [trace_sinks_built]). A sink
    keeps the capacity its longest trace grew it to, so after the
    pool's first few traces recording no longer grows columns. Hand it
    back with {!put_back} once nothing reads it; one handed back dirty,
    by a canceled run, is reset before anyone records into it again. *)
let take () =
  let taken =
    Mutex.protect free_lock (fun () ->
        match !free with
        | t :: rest ->
            free := rest;
            Some t
        | [] -> None)
  in
  match taken with
  | Some t ->
      reset t;
      t
  | None ->
      Fv_obs.Metrics.incr Fv_obs.Metrics.global "trace_sinks_built";
      create ()

(** Return a sink from {!take} to the pool. The caller must not use it
    again. *)
let put_back (t : t) = Mutex.protect free_lock (fun () -> free := t :: !free)

let length t = t.len

(** Distinct registers used so far: ids are [0 .. nregs t - 1]. *)
let nregs t = t.nregs

(** The content hash of everything recorded so far. *)
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
  t.lbl <- grow_to t.lbl ncap 0;
  t.lbl_hash <- grow_to t.lbl_hash ncap 0;
  t.src_off <- grow_to t.src_off (ncap + 1) 0

let new_id (t : t) name =
  let id = t.nregs in
  if id = Array.length t.names then t.names <- grow_to t.names (2 * id) "";
  t.names.(id) <- name;
  t.nregs <- id + 1;
  id

(* The caches are indexed by a signature of the length and the first,
   next-to-last and last bytes, far cheaper than [Hashtbl]'s full
   string hash; a probe compares the pointer first ([==] cannot
   false-positive) and falls back to content equality, refreshing the
   slot's pointer so the next probe for the same object is one
   comparison. *)
let signature (s : string) =
  let n = String.length s in
  if n = 0 then 0
  else
    let last = Char.code (String.unsafe_get s (n - 1)) in
    let prev = if n > 1 then Char.code (String.unsafe_get s (n - 2)) else 0 in
    ((n * 31) + (Char.code (String.unsafe_get s 0) * 7) + (prev * 37) + last)
    land (dm_n - 1)

let reg_slow (t : t) (r : string) k =
  let id =
    match Hashtbl.find_opt t.ids r with
    | Some id -> id
    | None ->
        let id = new_id t r in
        Hashtbl.add t.ids r id;
        id
  in
  t.dm_s.(k) <- r;
  Array.unsafe_set t.dm_id k id;
  id

(** The id of program register [r]. *)
let reg (t : t) (r : string) =
  let k = signature r in
  let id = Array.unsafe_get t.dm_id k in
  if id < 0 then reg_slow t r k
  else
    let s = Array.unsafe_get t.dm_s k in
    if s == r then id
    else if String.equal s r then begin
      t.dm_s.(k) <- r;
      id
    end
    else reg_slow t r k

let internal_slow (t : t) k =
  let n = Array.length t.reserved in
  if k >= n then t.reserved <- grow_to t.reserved (max (k + 1) (2 * n)) (-1);
  let id = new_id t (internal_name k) in
  t.reserved.(k) <- id;
  id

(** The id of the emulators' reserved register [k] ({!r_vi} ...,
    {!scalar_tmp}, {!vector_tmp}). *)
let internal (t : t) k =
  if k < Array.length t.reserved then
    let id = Array.unsafe_get t.reserved k in
    if id >= 0 then id else internal_slow t k
  else internal_slow t k

let label_slow (t : t) (l : string) k =
  let id =
    match Hashtbl.find_opt t.lbl_ids l with
    | Some id -> id
    | None ->
        let id = t.nlbls in
        if id = Array.length t.lbl_names then begin
          t.lbl_names <- grow_to t.lbl_names (2 * id) "";
          t.lbl_hashes <- grow_to t.lbl_hashes (2 * id) 0
        end;
        t.lbl_names.(id) <- l;
        t.lbl_hashes.(id) <- Hashtbl.hash l;
        t.nlbls <- id + 1;
        Hashtbl.add t.lbl_ids l id;
        id
  in
  t.lm_s.(k) <- l;
  Array.unsafe_set t.lm_id k id;
  id

(** The id of branch label [l]; its predictor hash is computed once. *)
let label (t : t) (l : string) =
  let k = signature l in
  let id = Array.unsafe_get t.lm_id k in
  if id < 0 then label_slow t l k
  else
    let s = Array.unsafe_get t.lm_s k in
    if s == l then id
    else if String.equal s l then begin
      t.lm_s.(k) <- l;
      id
    end
    else label_slow t l k

let fold h x = Fv_obs.Hash.fold_word h x

(** Append source register [id] to the uop being recorded. *)
let src (t : t) id =
  if t.record then begin
    let n = t.nsrcs in
    if n = Array.length t.srcs then t.srcs <- grow_to t.srcs (2 * n) 0;
    Array.unsafe_set t.srcs n id;
    t.nsrcs <- n + 1;
    t.h <- fold t.h id
  end

(* close the uop whose sources were appended since the last close *)
let close (t : t) c fl d a ne lbl =
  if t.record then begin
    if t.len = Bytes.length t.cls then grow t;
    let i = t.len in
    Bytes.unsafe_set t.cls i (Char.unsafe_chr c);
    Bytes.unsafe_set t.flags i (Char.unsafe_chr fl);
    t.src_off.(i + 1) <- t.nsrcs;
    Array.unsafe_set t.dst i d;
    Array.unsafe_set t.addr i a;
    Array.unsafe_set t.nelems i ne;
    Array.unsafe_set t.lbl i lbl;
    let h = fold (fold (fold (fold t.h ((c lsl 3) lor fl)) d) a) ne in
    if Array.unsafe_get isbr_of_code c then begin
      let lh = t.lbl_hashes.(lbl) in
      Array.unsafe_set t.lbl_hash i lh;
      t.h <- fold h lh
    end
    else t.h <- h
  end;
  Array.unsafe_set t.counts c (Array.unsafe_get t.counts c + 1);
  t.len <- t.len + 1

(** Close a uop that touches no memory, writing register [dst]
    ([-1]: none). *)
let uop (t : t) cls ~dst =
  close t (Latency.code cls) (if dst >= 0 then b_dst else 0) dst no_addr 1 0

(** Close a memory uop on [nelems] elements from element address
    [addr]. *)
let mem_uop (t : t) cls ~dst ~addr ~nelems =
  close t (Latency.code cls)
    (if dst >= 0 then b_dst lor b_addr else b_addr)
    dst addr nelems 0

(** Close a branch with label id [lbl] (from {!label}). *)
let branch (t : t) lbl ~taken =
  close t branch_code (if taken then b_taken else 0) (-1) no_addr 1 lbl

let rec push_srcs (t : t) = function
  | [] -> ()
  | r :: rest ->
      src t (reg t r);
      push_srcs t rest

(** Record one {!Uop.t}, resolving its names: the name-level wrapper
    over {!src} and the closing calls. *)
let push (t : t) (u : Uop.t) =
  push_srcs t u.Uop.srcs;
  let d = match u.Uop.dst with Some r -> reg t r | None -> -1 in
  let a, fa = match u.Uop.addr with Some a -> (a, b_addr) | None -> (no_addr, 0) in
  let fl =
    (if d >= 0 then b_dst else 0) lor fa lor if u.Uop.taken then b_taken else 0
  in
  close t (Latency.code u.Uop.cls) fl d a u.Uop.nelems (label t u.Uop.label)

(** The trace as a fresh array of exactly [length t] uops, rebuilt from
    the columns and the name tables — for cold consumers (timelines,
    trace dumps) that want records. *)
let to_array (t : t) : Uop.t array =
  if not t.record then invalid_arg "Sink.to_array: a counting sink";
  Array.init t.len (fun i ->
      let fl = Char.code (Bytes.unsafe_get t.flags i) in
      let lo = t.src_off.(i) in
      {
        Uop.cls = Latency.of_code (Char.code (Bytes.unsafe_get t.cls i));
        dst = (if fl land b_dst <> 0 then Some t.names.(t.dst.(i)) else None);
        srcs = List.init (t.src_off.(i + 1) - lo) (fun k -> t.names.(t.srcs.(lo + k)));
        addr = (if fl land b_addr <> 0 then Some t.addr.(i) else None);
        nelems = t.nelems.(i);
        label = t.lbl_names.(t.lbl.(i));
        taken = fl land b_taken <> 0;
      })

(** Dynamic instruction-class histogram. *)
let histogram t : (Latency.uop_class * int) list =
  List.filter_map
    (fun c ->
      if t.counts.(c) > 0 then Some (Latency.of_code c, t.counts.(c)) else None)
    (List.init Latency.ncodes Fun.id)

let count_class t cls = t.counts.(Latency.code cls)
