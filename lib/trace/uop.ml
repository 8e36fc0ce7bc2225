(** Dynamic micro-ops.

    Both the scalar interpreter ([fv_ir]) and the vector ISA emulator
    ([fv_simd]) emit a stream of micro-ops as they execute; the
    trace-driven out-of-order pipeline model ([fv_ooo]) replays that
    stream against the Table 1 machine. This mirrors the paper's
    methodology (LIT traces fed to a cycle-accurate model, §5), with our
    IR/VIR programs standing in for x86 binaries.

    Register dependences are by logical register name; the pipeline does
    renaming by tracking the last writer of each name. Memory ops carry
    element addresses for the cache model and for store-to-load
    forwarding. *)

open Fv_isa

type t = {
  cls : Latency.uop_class;
  dst : string option;  (** logical register written, if any *)
  srcs : string list;  (** logical registers read *)
  addr : int option;  (** first element address, for memory ops *)
  nelems : int;  (** elements touched (gather/scatter lanes); 1 for scalar *)
  label : string;  (** static identity (statement / instruction), keys the branch predictor *)
  taken : bool;  (** branch outcome; meaningful when [cls] is [Branch] *)
}

let make ?dst ?(srcs = []) ?addr ?(nelems = 1) ?(label = "") ?(taken = false) cls =
  { cls; dst; srcs; addr; nelems; label; taken }

let branch ~label ~taken ~srcs = make ~srcs ~label ~taken Latency.Branch
