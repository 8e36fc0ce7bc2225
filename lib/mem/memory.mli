(** Flat emulated address space backing both the scalar interpreter and
    the vector ISA emulator.

    Arrays are allocated at increasing base addresses separated by guard
    gaps, so out-of-bounds indices computed speculatively hit unmapped
    memory and fault — the behaviour first-faulting loads suppress on
    speculative lanes (§3.3). Addresses are element-granular. *)

open Fv_isa

type fault = {
  addr : int;
  write : bool;
  injected : bool;
      (** [true] for faults delivered by an attached injection plan on a
          mapped address (modelling a transient speculative fault the
          recovery machinery must absorb); [false] for genuine unmapped
          accesses *)
}

val pp_fault : Format.formatter -> fault -> unit
val show_fault : fault -> string
val equal_fault : fault -> fault -> bool

exception Fault of fault

type allocation = {
  name : string;
  base : int;
  len : int;
  data : Value.t array;
}

type t = {
  mutable allocs : allocation list;
  mutable next_base : int;
  by_name : (string, allocation) Hashtbl.t;
  mutable loads : int;  (** committed (non-faulting) load count *)
  mutable stores : int;
  mutable hot : allocation option;  (** last-hit lookup cache *)
  mutable fault_plan : Fv_faults.Plan.t option;
  mutable fault_accesses : int;
  mutable injected_faults : int;  (** injected faults delivered so far *)
}

val create : unit -> t

(** Allocate a named array; returns its base address. Names are unique
    per memory ([Invalid_argument] otherwise). *)
val alloc : t -> string -> Value.t array -> int

val alloc_ints : t -> string -> int array -> int
val alloc_floats : t -> string -> float array -> int
val base_of : t -> string -> int

(** Element address of [name.(idx)]; unchecked — the check happens at
    access time. *)
val addr_of : t -> string -> int -> int

(** Attach (or detach) a fault-injection plan; resets the access and
    injected-fault counters. Only the non-trapping accesses consult the
    plan — the trapping API (the scalar interpreter's path, hence every
    recovery path) never sees injected faults. *)
val set_fault_plan : t -> Fv_faults.Plan.t option -> unit

(** Non-trapping accesses: [Error fault] on unmapped addresses, or on
    mapped addresses the attached injection plan faults. *)
val load_opt : t -> int -> (Value.t, fault) result

val store_opt : t -> int -> Value.t -> (unit, fault) result

(** Trapping accesses: raise {!Fault} on unmapped addresses. *)
val load : t -> int -> Value.t

val store : t -> int -> Value.t -> unit
val get : t -> string -> int -> Value.t
val set : t -> string -> int -> Value.t -> unit

(** Full contents of a named array (copy). *)
val read_all : t -> string -> Value.t array

type snapshot

(** Snapshot/restore all array contents — the RTM rollback mechanism. *)
val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
val equal_contents : t -> t -> bool

(** Deep copy preserving base addresses: run scalar and vector versions
    from identical initial states. *)
val clone : t -> t

val pp : Format.formatter -> t -> unit
