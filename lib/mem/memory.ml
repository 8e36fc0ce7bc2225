(** Flat emulated address space backing both the scalar interpreter and
    the vector ISA emulator.

    Arrays are allocated at increasing base addresses separated by guard
    gaps, so an out-of-bounds index computed speculatively (e.g. a gather
    hoisted above its guard, §3.3) hits unmapped memory and {e faults}
    instead of silently reading a neighbouring allocation. First-faulting
    loads exist precisely to suppress such faults on speculative lanes.

    Addresses are in element units (one element = one 32/64-bit value);
    the cache model converts to line addresses itself. *)

open Fv_isa

type fault = { addr : int; write : bool; injected : bool }
[@@deriving show { with_path = false }, eq]

exception Fault of fault

type allocation = {
  name : string;
  base : int;
  len : int;
  data : Value.t array;
}

type t = {
  mutable allocs : allocation list;  (** newest first *)
  mutable next_base : int;
  by_name : (string, allocation) Hashtbl.t;
  mutable loads : int;   (** committed (non-faulting) loads *)
  mutable stores : int;
  mutable hot : allocation option;
      (** last allocation hit by an address lookup — loops touch the
          same few arrays millions of times, so checking it first makes
          the common access O(1) instead of a list walk *)
  mutable fault_plan : Fv_faults.Plan.t option;
      (** injection plan consulted by the non-trapping accesses *)
  mutable fault_accesses : int;  (** plan-visible access ordinal counter *)
  mutable injected_faults : int;  (** injected faults delivered so far *)
}

let guard_gap = 64
let initial_base = 1024

let create () =
  { allocs = []; next_base = initial_base; by_name = Hashtbl.create 16;
    loads = 0; stores = 0; hot = None; fault_plan = None; fault_accesses = 0;
    injected_faults = 0 }

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(** Attach (or detach, with [None]) an injection plan. Only the
    non-trapping accesses ({!load_opt}/{!store_opt}) — the speculative
    access path of the vector emulator — consult it: the trapping API
    used by the scalar interpreter, and therefore by every fault
    recovery path, never sees injected faults, so recovery always
    terminates. Resets the access and injected-fault counters: a run
    under a plan is deterministic in the plan alone. *)
let set_fault_plan (m : t) (p : Fv_faults.Plan.t option) : unit =
  m.fault_plan <- (match p with Some p when Fv_faults.Plan.is_none p -> None | _ -> p);
  m.fault_accesses <- 0;
  m.injected_faults <- 0

(* one [None] match on the hot path when injection is off; the counter
   only advances while a plan is attached, keeping disabled runs
   bit-identical to a build without the hook *)
(* does the attached plan fire on this access? Consumes one access
   ordinal either way; the caller counts actual deliveries, since a
   firing on an unmapped address is overridden by the genuine fault *)
let inject (m : t) (addr : int) : bool =
  match m.fault_plan with
  | None -> false
  | Some p ->
      let n = m.fault_accesses in
      m.fault_accesses <- n + 1;
      Fv_faults.Plan.fires p ~access:n ~addr

(** Allocate a named array initialised from [data]. Returns the base
    address. Names are unique per memory. *)
let alloc (m : t) name (data : Value.t array) : int =
  if Hashtbl.mem m.by_name name then
    invalid_arg (Printf.sprintf "Memory.alloc: duplicate allocation %S" name);
  let a = { name; base = m.next_base; len = Array.length data; data = Array.copy data } in
  m.allocs <- a :: m.allocs;
  m.next_base <- m.next_base + Array.length data + guard_gap;
  Hashtbl.replace m.by_name name a;
  a.base

let alloc_ints m name ints = alloc m name (Array.map Value.int ints)
let alloc_floats m name fs = alloc m name (Array.map Value.float fs)

let find (m : t) name =
  match Hashtbl.find_opt m.by_name name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Memory.find: unknown allocation %S" name)

let base_of m name = (find m name).base

(** Element address of [name.(idx)] — no bounds check; the check happens
    at access time, which is what lets speculative lanes compute wild
    addresses harmlessly. *)
let addr_of m name idx = (find m name).base + idx

(* allocation containing [addr], or [Not_found]; allocation-free on the
   hot (cache-hit) path *)
let locate_alloc (m : t) (addr : int) : allocation =
  match m.hot with
  | Some a when addr >= a.base && addr < a.base + a.len -> a
  | _ ->
      let rec go = function
        | [] -> raise Not_found
        | a :: rest ->
            if addr >= a.base && addr < a.base + a.len then begin
              m.hot <- Some a;
              a
            end
            else go rest
      in
      go m.allocs

(** Non-trapping load: [Error fault] on unmapped addresses, or on a
    mapped address the attached injection plan decides to fault
    ([fault.injected] distinguishes the two). An unmapped access is a
    genuine fault even when the plan would also have fired on it:
    injection only perturbs otherwise-valid accesses. *)
let load_opt (m : t) (addr : int) : (Value.t, fault) result =
  let injected = inject m addr in
  match locate_alloc m addr with
  | exception Not_found -> Error { addr; write = false; injected = false }
  | _ when injected ->
      m.injected_faults <- m.injected_faults + 1;
      Error { addr; write = false; injected = true }
  | a ->
      m.loads <- m.loads + 1;
      Ok a.data.(addr - a.base)

let store_opt (m : t) (addr : int) (v : Value.t) : (unit, fault) result =
  let injected = inject m addr in
  match locate_alloc m addr with
  | exception Not_found -> Error { addr; write = true; injected = false }
  | _ when injected ->
      m.injected_faults <- m.injected_faults + 1;
      Error { addr; write = true; injected = true }
  | a ->
      m.stores <- m.stores + 1;
      a.data.(addr - a.base) <- v;
      Ok ()

(** Trapping load: raises {!Fault} on unmapped addresses — the behaviour
    of a normal (non-first-faulting) access. Never injected: this is
    the committed/scalar path every recovery mechanism re-executes on. *)
let load (m : t) (addr : int) : Value.t =
  match locate_alloc m addr with
  | a ->
      m.loads <- m.loads + 1;
      a.data.(addr - a.base)
  | exception Not_found -> raise (Fault { addr; write = false; injected = false })

let store (m : t) (addr : int) (v : Value.t) : unit =
  match locate_alloc m addr with
  | a ->
      m.stores <- m.stores + 1;
      a.data.(addr - a.base) <- v
  | exception Not_found -> raise (Fault { addr; write = true; injected = false })

let get m name idx = load m (addr_of m name idx)
let set m name idx v = store m (addr_of m name idx) v

(** Full contents of a named array (copy). *)
let read_all m name = Array.copy (find m name).data

(* ------------------------------------------------------------------ *)
(* Snapshots — used by the RTM model and by scalar-vs-vector oracles.  *)
(* ------------------------------------------------------------------ *)

type snapshot = (string * Value.t array) list

let snapshot (m : t) : snapshot =
  List.map (fun a -> (a.name, Array.copy a.data)) m.allocs

let restore (m : t) (s : snapshot) : unit =
  List.iter
    (fun (name, data) ->
      let a = find m name in
      if Array.length data <> a.len then
        invalid_arg "Memory.restore: snapshot shape mismatch";
      Array.blit data 0 a.data 0 a.len)
    s

let equal_contents (a : t) (b : t) : bool =
  let norm m =
    List.sort (fun x y -> String.compare x.name y.name) m.allocs
    |> List.map (fun al -> (al.name, al.data))
  in
  norm a = norm b

(** Deep copy, preserving bases: used to run scalar and vector versions
    of a loop from identical initial states. The clone carries {e no}
    fault plan — each run under injection attaches its own plan
    explicitly ({!set_fault_plan}), so an oracle's scalar reference can
    never inherit injection by accident. *)
let clone (m : t) : t =
  let allocs = List.map (fun a -> { a with data = Array.copy a.data }) m.allocs in
  let by_name = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace by_name a.name a) allocs;
  { allocs; next_base = m.next_base; by_name; loads = m.loads;
    stores = m.stores; hot = None; fault_plan = None; fault_accesses = 0;
    injected_faults = 0 }

let pp ppf (m : t) =
  List.iter
    (fun a ->
      Fmt.pf ppf "%s@%d[%d] = %a@." a.name a.base a.len
        Fmt.(array ~sep:sp Value.pp_compact)
        a.data)
    (List.rev m.allocs)
