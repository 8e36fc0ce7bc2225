(** A set-associative cache with LRU replacement.

    Addresses are in element units (4-byte elements); a 64-byte line
    therefore holds 16 elements. The simulator only needs hit/miss
    behaviour and occupancy, not data.

    The tag and LRU stores are flat [sets * ways] arrays and the
    line/set computations use shifts and masks when the geometry is a
    power of two (it always is for the Table 1 configuration): the
    replay loop probes the hierarchy dozens of times per load once
    prefetch fills are counted, so this path is worth keeping free of
    divisions and allocation.

    A cache is reused across replays ({!Hierarchy.with_cold}), so
    {!reset} must restore the exact state {!create} builds, and cheaply:
    a short trace touches a few dozen of the L3's 4096 sets. The miss
    path therefore records each set the first time it fills one; the
    hit path needs no bookkeeping, because a hit can only land in a set
    that some miss already filled. *)

type t = {
  name : string;
  sets : int;
  ways : int;
  line_elems : int;  (** elements per line *)
  line_shift : int;  (** log2 [line_elems], or -1 if not a power of two *)
  set_mask : int;  (** [sets - 1], or -1 if [sets] is not a power of two *)
  tags : int array;  (** [set * ways + way] -> line address, {!invalid} = empty *)
  lru : int array;  (** [set * ways + way] -> last-use stamp *)
  filled : int array;
      (** [filled.(0 .. nfilled - 1)]: base index ([set * ways]) of each
          set filled since the last reset, each set once *)
  mutable nfilled : int;
  mutable stamp : int;
  mutable hits : int;
  mutable misses : int;
}

(** Tag of an empty way. Not [-1]: negative addresses (unmapped
    speculative accesses) floor to negative lines, and line [-1] must
    not hit an empty way. *)
let invalid = min_int

let log2_pow2 n =
  let rec go k = if 1 lsl k = n then k else if 1 lsl k > n then -1 else go (k + 1) in
  if n <= 0 then -1 else go 0

(** [create ~name ~size_bytes ~ways ~line_bytes ~elem_bytes] *)
let create ~name ~size_bytes ~ways ?(line_bytes = 64) ?(elem_bytes = 4) () : t =
  let lines = size_bytes / line_bytes in
  let sets = max 1 (lines / ways) in
  let line_elems = line_bytes / elem_bytes in
  {
    name;
    sets;
    ways;
    line_elems;
    line_shift = log2_pow2 line_elems;
    set_mask = (if log2_pow2 sets >= 0 then sets - 1 else -1);
    tags = Array.make (sets * ways) invalid;
    lru = Array.make (sets * ways) 0;
    filled = Array.make sets 0;
    nfilled = 0;
    stamp = 0;
    hits = 0;
    misses = 0;
  }

(** The line holding [addr], rounding toward minus infinity, so the
    elements of a line are contiguous on both sides of zero. *)
let line_of (c : t) (addr : int) =
  if c.line_shift >= 0 then addr asr c.line_shift
  else
    let q = addr / c.line_elems in
    if q * c.line_elems > addr then q - 1 else q

(** The set of [line], in [\[0, sets)] for negative lines too. *)
let set_of (c : t) (line : int) =
  if c.set_mask >= 0 then line land c.set_mask
  else
    let r = line mod c.sets in
    if r < 0 then r + c.sets else r

(** Access one element address: [true] on hit. Fills on miss. *)
let access (c : t) (addr : int) : bool =
  c.stamp <- c.stamp + 1;
  let line = line_of c addr in
  let base = set_of c line * c.ways in
  let tags = c.tags and lru = c.lru in
  let ways = c.ways in
  let w = ref 0 in
  while !w < ways && Array.unsafe_get tags (base + !w) <> line do incr w done;
  if !w < ways then begin
    Array.unsafe_set lru (base + !w) c.stamp;
    c.hits <- c.hits + 1;
    true
  end
  else begin
    c.misses <- c.misses + 1;
    (* a set's first fill goes to way 0 (every stamp is still 0), and a
       filled way is never emptied again before a reset: an empty way 0
       marks a set this miss is the first to fill *)
    if Array.unsafe_get tags base = invalid then begin
      c.filled.(c.nfilled) <- base;
      c.nfilled <- c.nfilled + 1
    end;
    (* evict LRU way *)
    let victim = ref 0 in
    for w = 1 to ways - 1 do
      if Array.unsafe_get lru (base + w) < Array.unsafe_get lru (base + !victim)
      then victim := w
    done;
    Array.unsafe_set tags (base + !victim) line;
    Array.unsafe_set lru (base + !victim) c.stamp;
    false
  end

(** Restore the state {!create} builds. Costs one pass over the sets
    filled since the last reset, not over the whole cache. *)
let reset (c : t) =
  for i = 0 to c.nfilled - 1 do
    let base = c.filled.(i) in
    Array.fill c.tags base c.ways invalid;
    Array.fill c.lru base c.ways 0
  done;
  c.nfilled <- 0;
  c.stamp <- 0;
  c.hits <- 0;
  c.misses <- 0

let hit_rate (c : t) =
  let total = c.hits + c.misses in
  if total = 0 then 1.0 else float_of_int c.hits /. float_of_int total

let pp ppf (c : t) =
  Fmt.pf ppf "%s: %d sets x %d ways, hits=%d misses=%d (%.1f%%)" c.name c.sets
    c.ways c.hits c.misses (100. *. hit_rate c)
