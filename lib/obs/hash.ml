(** FNV-1a content hashing, shared by everything that content-addresses
    data: the fuzz corpus names counterexample files by the 64-bit hash
    of their s-expression, and the simulator's whole-trace memo cache
    ({!Fv_ooo.Simcache}) keys [Pipeline.stats] on a hash the trace sink
    ({!Fv_trace.Sink}) folds as it records.

    Two variants of the same scheme:

    - {!fnv1a64}/{!fold_string}: the classic byte-at-a-time 64-bit
      FNV-1a, exact down to the published offset basis and prime —
      stable across runs and across OCaml versions, safe to bake into
      on-disk filenames.
    - {!fold_word}: FNV-1a folded one native [int] (63-bit word) at a
      time. Hashing a multi-million-element trace byte-by-byte
      through boxed [Int64] arithmetic would cost more than the
      simulation it memoizes; the word-folded variant is one XOR and one
      multiply per field, allocation-free. It is deterministic for a
      given word size but is {e not} the published 64-bit FNV-1a, so it
      stays in-process (cache keys), never on disk. *)

let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let fold_byte (h : int64) (b : int) : int64 =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

let fold_string (h : int64) (s : string) : int64 =
  let r = ref h in
  String.iter (fun c -> r := fold_byte !r (Char.code c)) s;
  !r

(** The 64-bit FNV-1a hash of a string. *)
let fnv1a64 (s : string) : int64 = fold_string offset_basis s

(* ---- word-folded variant on native ints ---- *)

(** Offset basis truncated to OCaml's tagged-int range. *)
let word_offset = 0x3BF29CE484222325

let word_prime = 0x100000001B3

(** Fold one machine word into a word-folded FNV-1a state. Wrapping
    native-int arithmetic; deterministic on any 64-bit OCaml. *)
let fold_word (h : int) (x : int) : int = (h lxor x) * word_prime
