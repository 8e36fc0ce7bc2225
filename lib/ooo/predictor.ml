(** Gshare branch predictor: global history XOR branch identity indexing
    a table of 2-bit saturating counters. The data-dependent branches of
    FlexVec candidate loops (guards over loaded data) are exactly the
    ones that mispredict; loop back-edges and VPL exits are almost
    always predicted correctly. *)

type t = {
  table : int array;  (** 2-bit counters, 0..3 *)
  mutable history : int;
  bits : int;
  mutable lookups : int;
  mutable mispredicts : int;
}

let create ?(bits = 12) () =
  { table = Array.make (1 lsl bits) 2; history = 0; bits; lookups = 0; mispredicts = 0 }

let index (p : t) (label : string) =
  let h = Hashtbl.hash label in
  (h lxor p.history) land ((1 lsl p.bits) - 1)

(** Predict-and-update on a precomputed label hash ([Hashtbl.hash
    label]) — the replay path, bit-identical to
    {!mispredicted} because the string entry point computes exactly this
    hash. Returns [true] if the branch was mispredicted. *)
let mispredicted_hash (p : t) ~(h : int) ~(taken : bool) : bool =
  p.lookups <- p.lookups + 1;
  let i = (h lxor p.history) land ((1 lsl p.bits) - 1) in
  let predicted = p.table.(i) >= 2 in
  let miss = predicted <> taken in
  if miss then p.mispredicts <- p.mispredicts + 1;
  p.table.(i) <-
    (if taken then min 3 (p.table.(i) + 1) else max 0 (p.table.(i) - 1));
  p.history <- ((p.history lsl 1) lor Bool.to_int taken) land ((1 lsl p.bits) - 1);
  miss

(** Predict-and-update: returns [true] if the branch was mispredicted. *)
let mispredicted (p : t) ~(label : string) ~(taken : bool) : bool =
  p.lookups <- p.lookups + 1;
  let i = index p label in
  let predicted = p.table.(i) >= 2 in
  let miss = predicted <> taken in
  if miss then p.mispredicts <- p.mispredicts + 1;
  (* update counter and history *)
  p.table.(i) <-
    (if taken then min 3 (p.table.(i) + 1) else max 0 (p.table.(i) - 1));
  p.history <- ((p.history lsl 1) lor Bool.to_int taken) land ((1 lsl p.bits) - 1);
  miss

let miss_rate (p : t) =
  if p.lookups = 0 then 0.0
  else float_of_int p.mispredicts /. float_of_int p.lookups
