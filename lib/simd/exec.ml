(** The FlexVec vector ISA emulator.

    Executes a {!Fv_vir.Inst.vloop} strip by strip over the emulated
    memory and scalar environment, with lane-precise semantics for the
    AVX-512 subset and the FlexVec extensions. Optionally emits the
    micro-op trace the OOO pipeline model replays.

    First-faulting loads/gathers implement §3.3.1 exactly: a fault on
    the first (non-speculative) write-mask-enabled lane is delivered; a
    fault on a speculative lane zeroes the write mask from that lane
    rightward. A subsequent {!Fv_vir.Inst.Fault_check} detects the mask
    shrinkage and falls back to scalar execution of the unprocessed
    lanes. *)

open Fv_isa
open Fv_vir.Inst
module Memory = Fv_mem.Memory
module Uop = Fv_trace.Uop

type stats = {
  mutable strips : int;  (** vector strips executed *)
  mutable vpl_iterations : int;  (** total VPL partitions executed *)
  mutable vpl_extra : int;  (** partitions beyond the first per VPL entry *)
  mutable fallbacks : int;  (** scalar fallbacks after a speculative fault *)
  mutable fallback_iters : int;  (** scalar iterations executed by fallbacks *)
  mutable broke : bool;  (** an early exit fired *)
}

let fresh_stats () =
  { strips = 0; vpl_iterations = 0; vpl_extra = 0; fallbacks = 0;
    fallback_iters = 0; broke = false }

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "strips=%d vpl_iters=%d vpl_extra=%d fallbacks=%d fallback_iters=%d"
    s.strips s.vpl_iterations s.vpl_extra s.fallbacks s.fallback_iters

type state = {
  vl : int;
  mem : Memory.t;
  env : Fv_ir.Interp.env;
  vregs : (string, Vreg.t) Hashtbl.t;
  kregs : (string, Mask.t) Hashtbl.t;
  mutable vi : int;  (** scalar index of lane 0 of the current strip *)
  mutable hi : int;
  mutable brk : bool;  (** an early exit committed: stop after this strip *)
  emit : (Uop.t -> unit) option;
  annot : (string -> unit) option;
      (** observability side channel: noteworthy execution events
          (injected faults, VPL re-partitions, FF fallbacks) keyed to
          the current trace position; see {!Fv_obs.Annot} *)
  vloop : vloop;
  stats : stats;
  mutable tmp : int;
  injected_trap : bool;
      (** inside an RTM transaction, an injected fault on a plain
          (non-first-faulting) access must trap so the transaction
          aborts; outside one it is absorbed by re-executing the access
          (the OS services the transient fault and the instruction
          retries) *)
}

exception Vector_exec_error of string

let error fmt = Fmt.kstr (fun s -> raise (Vector_exec_error s)) fmt

let getv st v =
  match Hashtbl.find_opt st.vregs v with
  | Some x -> x
  | None ->
      (* merge-masked destinations legitimately read an undefined dst *)
      let z = Vreg.zero st.vl in
      Hashtbl.replace st.vregs v z;
      z

let setv st v x = Hashtbl.replace st.vregs v x

let getk st k =
  match Hashtbl.find_opt st.kregs k with
  | Some x -> x
  | None ->
      let z = Mask.none st.vl in
      Hashtbl.replace st.kregs k z;
      z

let setk st k x = Hashtbl.replace st.kregs k x

let atom st = function
  | Imm v -> v
  | Sca x -> Fv_ir.Interp.env_get st.env x

let atom_srcs = function Imm _ -> [] | Sca x -> [ x ]

let emit st u = match st.emit with Some f -> f u | None -> ()

let note st kind = match st.annot with Some f -> f kind | None -> ()

(* Temp names cycle through a preallocated pool of shared strings
   rather than minting ["vt" ^ n] fresh per temp: the trace sink
   interns register names by physical equality, and a trace full of
   once-used strings defeats that cache and bloats its register table.
   Correctness needs only that two simultaneously-live temps never share
   a name; at most [vl + 1] temps are live at once (a gather's setup op
   plus one lane temp per element, vl <= 16), far under the pool size.
   The ["_vt"] prefix is reserved: the vectorizer names VIR registers
   ["vt<n>"], and the old ["vt" ^ n] temps could accidentally alias
   them, splicing a transient lane temp into a vloop register's
   dependence chain. *)
let tmp_pool_n = 64
let tmp_pool = Array.init tmp_pool_n (fun i -> "_vt" ^ string_of_int i)

let fresh st =
  (* temp names only exist inside the trace; with no sink attached
     (oracle runs) skip the lookup *)
  match st.emit with
  | None -> "_"
  | Some _ ->
      st.tmp <- st.tmp + 1;
      Array.unsafe_get tmp_pool (st.tmp land (tmp_pool_n - 1))

let lanes_float (k : Mask.t) (v : Vreg.t) =
  let fl = ref false in
  for i = 0 to Vreg.length v - 1 do
    if Mask.get k i && Value.is_float (Vreg.get v i) then fl := true
  done;
  !fl

let vec_cls op k a b =
  let fl = lanes_float k a || lanes_float k b in
  match (op : Value.binop) with
  | Mul -> if fl then Latency.Vec_mul else Latency.Vec_alu
  | Div -> if fl then Latency.Vec_div else Latency.Vec_mul
  | _ -> Latency.Vec_alu

(* ------------------------------------------------------------------ *)
(* Memory helpers                                                      *)
(* ------------------------------------------------------------------ *)

(** Masked unit-stride load; enabled lanes only touch memory
    (AVX-512 masked loads suppress faults on disabled lanes).

    A {e genuine} (unmapped-address) fault on the first enabled lane is
    delivered: that lane is non-speculative, so the scalar program
    would fault too. An {e injected} fault (a transient fault on a
    mapped address, from the memory's injection plan) is suppressible
    on any lane, the first included — real first-faulting hardware
    reports such faults through the fault mask rather than trapping,
    and the [Fault_check] fallback re-executes the whole strip's
    remaining lanes scalar either way. On a plain (non-FF) access an
    injected fault is absorbed by re-executing the lane through the
    trapping API — unless [injected_trap] is set (inside an RTM
    transaction), where it must raise so the transaction aborts. *)
let do_load st ~ff (dst : Vreg.t) (k : Mask.t) base : Mask.t =
  let kout = Mask.copy k in
  let nonspec = Mask.first_set k in
  (try
     for l = 0 to st.vl - 1 do
       if Mask.get kout l then begin
         match Memory.load_opt st.mem (base + l) with
         | Ok v -> Vreg.set dst l v
         | Error f ->
             if f.Memory.injected && (not ff) && not st.injected_trap then begin
               note st "fault:injected-absorbed";
               Vreg.set dst l (Memory.load st.mem (base + l))
             end
             else if (not ff) || (Some l = nonspec && not f.Memory.injected)
             then raise (Memory.Fault f)
             else begin
               (* zero the write mask from the first excepting speculative
                  lane rightward; stop accessing memory *)
               note st
                 (if f.Memory.injected then "fault:injected"
                  else "fault:speculative");
               for j = l to st.vl - 1 do
                 Mask.set kout j false
               done;
               raise Exit
             end
       end
     done
   with Exit -> ());
  kout

let do_gather st ~ff ~arr (dst : Vreg.t) (k : Mask.t) (idx : Vreg.t) :
    Mask.t * int list =
  let base = Memory.base_of st.mem arr in
  let kout = Mask.copy k in
  let nonspec = Mask.first_set k in
  let addrs = ref [] in
  (try
     for l = 0 to st.vl - 1 do
       if Mask.get kout l then begin
         let a = base + Value.to_int (Vreg.get idx l) in
         match Memory.load_opt st.mem a with
         | Ok v ->
             Vreg.set dst l v;
             addrs := a :: !addrs
         | Error f ->
             if f.Memory.injected && (not ff) && not st.injected_trap then begin
               note st "fault:injected-absorbed";
               Vreg.set dst l (Memory.load st.mem a);
               addrs := a :: !addrs
             end
             else if (not ff) || (Some l = nonspec && not f.Memory.injected)
             then raise (Memory.Fault f)
             else begin
               note st
                 (if f.Memory.injected then "fault:injected"
                  else "fault:speculative");
               for j = l to st.vl - 1 do
                 Mask.set kout j false
               done;
               raise Exit
             end
       end
     done
   with Exit -> ());
  (kout, List.rev !addrs)

(* ------------------------------------------------------------------ *)
(* Reductions and scalar synchronisation                               *)
(* ------------------------------------------------------------------ *)

let identity_for (op : Value.binop) (cur : Value.t) : Value.t =
  match op with
  | Add | Sub -> if Value.is_float cur then Value.Float 0.0 else Value.Int 0
  | Mul -> if Value.is_float cur then Value.Float 1.0 else Value.Int 1
  | Min | Max -> cur  (* idempotent: seeding with the current value is safe *)
  | _ -> error "unsupported reduction operator %s" (Value.show_binop op)

let do_init_acc st v x op =
  let cur = Fv_ir.Interp.env_get st.env x in
  setv st v (Vreg.broadcast st.vl (identity_for op cur));
  emit st (Uop.make ~dst:v ~srcs:[ x ] Latency.Vec_broadcast)

let do_fold_acc st x op v =
  let acc = getv st v in
  let cur = Fv_ir.Interp.env_get st.env x in
  let folded = Vreg.reduce (Mask.full st.vl) op ~init:cur acc in
  Fv_ir.Interp.env_set st.env x folded;
  (* horizontal reduce: log2(vl) shuffle+op pairs, then a scalar move *)
  let steps = max 1 (int_of_float (ceil (log (float_of_int st.vl) /. log 2.))) in
  let prev = ref v in
  for _ = 1 to steps do
    let t = fresh st in
    emit st (Uop.make ~dst:t ~srcs:[ !prev ] Latency.Vec_alu);
    prev := t
  done;
  emit st (Uop.make ~dst:x ~srcs:[ !prev ] Latency.Int_alu);
  (* reset partials so a later fold in the same strip is a no-op *)
  setv st v (Vreg.broadcast st.vl (identity_for op (Fv_ir.Interp.env_get st.env x)))

(** Scalar fallback after a speculative fault (§4.1): fold reduction
    partials into the environment, execute the remaining lanes with the
    scalar interpreter, clear the in-flight masks, and re-broadcast the
    environment-authoritative scalars. *)
let do_fallback st (remaining : Mask.t) =
  st.stats.fallbacks <- st.stats.fallbacks + 1;
  let sync = st.vloop.sync in
  List.iter (fun (x, op, v) -> do_fold_acc st x op v) sync.reductions;
  let hk =
    match st.emit with
    | None -> Fv_ir.Interp.no_hooks
    | Some f -> Fv_ir.Interp.hooks ~emit:f ()
  in
  (try
     for l = 0 to st.vl - 1 do
       if Mask.get remaining l && not st.brk then begin
         st.stats.fallback_iters <- st.stats.fallback_iters + 1;
         match
           Fv_ir.Interp.run_iteration ~hk st.mem st.env st.vloop.source
             (st.vi + l)
         with
         | `Ok -> ()
         | `Break -> st.brk <- true
       end
     done
   with e -> raise e);
  (* "*" means every mask register: after a fallback, the remainder of
     the strip program must execute as a no-op *)
  if List.mem "*" sync.clear_on_fallback then
    Hashtbl.iter
      (fun k _ -> Hashtbl.replace st.kregs k (Mask.none st.vl))
      (Hashtbl.copy st.kregs)
  else List.iter (fun k -> setk st k (Mask.none st.vl)) sync.clear_on_fallback;
  List.iter
    (fun (x, v) ->
      setv st v (Vreg.broadcast st.vl (Fv_ir.Interp.env_get st.env x)))
    sync.uniforms

(* ------------------------------------------------------------------ *)
(* Instruction dispatch                                                *)
(* ------------------------------------------------------------------ *)

let exec_inst (st : state) (i : vinst) : unit =
  match i with
  | Iota v ->
      setv st v (Vreg.iota st.vl ~base:st.vi ~step:1);
      emit st (Uop.make ~dst:v ~srcs:[ "vi" ] Latency.Vec_alu)
  | Broadcast (v, a) ->
      setv st v (Vreg.broadcast st.vl (atom st a));
      emit st (Uop.make ~dst:v ~srcs:(atom_srcs a) Latency.Vec_broadcast)
  | Load (v, k, arr, off) ->
      let km = getk st k in
      let base = Memory.base_of st.mem arr + st.vi + Value.to_int (atom st off) in
      let dst = Vreg.copy (getv st v) in
      let _ = do_load st ~ff:false dst km base in
      setv st v dst;
      emit st
        (Uop.make ~dst:v ~srcs:(k :: atom_srcs off) ~addr:base
           ~nelems:(Mask.popcount km) Latency.Load)
  | Load_ff (v, k, arr, off) ->
      let km = getk st k in
      let base = Memory.base_of st.mem arr + st.vi + Value.to_int (atom st off) in
      let dst = Vreg.copy (getv st v) in
      let kout = do_load st ~ff:true dst km base in
      setv st v dst;
      setk st k kout;
      emit st
        (Uop.make ~dst:v ~srcs:(k :: atom_srcs off) ~addr:base
           ~nelems:(Mask.popcount km) Latency.Load_ff)
  | Gather (v, k, arr, idx) ->
      let km = getk st k and iv = getv st idx in
      let dst = Vreg.copy (getv st v) in
      let _, addrs = do_gather st ~ff:false ~arr dst km iv in
      setv st v dst;
      let setup = fresh st in
      emit st (Uop.make ~dst:setup ~srcs:[ k; idx ] Latency.Gather);
      let temps =
        List.map
          (fun a ->
            let t = fresh st in
            emit st (Uop.make ~dst:t ~srcs:[ setup ] ~addr:a Latency.Load);
            t)
          addrs
      in
      emit st (Uop.make ~dst:v ~srcs:(setup :: temps) Latency.Vec_alu)
  | Gather_ff (v, k, arr, idx) ->
      let km = getk st k and iv = getv st idx in
      let dst = Vreg.copy (getv st v) in
      let kout, addrs = do_gather st ~ff:true ~arr dst km iv in
      setv st v dst;
      setk st k kout;
      let setup = fresh st in
      emit st (Uop.make ~dst:setup ~srcs:[ k; idx ] Latency.Gather_ff);
      let temps =
        List.map
          (fun a ->
            let t = fresh st in
            emit st (Uop.make ~dst:t ~srcs:[ setup ] ~addr:a Latency.Load);
            t)
          addrs
      in
      emit st (Uop.make ~dst:v ~srcs:(setup :: temps) Latency.Vec_alu)
  | Store (k, arr, off, v) ->
      let km = getk st k and vv = getv st v in
      let base = Memory.base_of st.mem arr + st.vi + Value.to_int (atom st off) in
      for l = 0 to st.vl - 1 do
        if Mask.get km l then Memory.store st.mem (base + l) (Vreg.get vv l)
      done;
      emit st
        (Uop.make ~srcs:(k :: v :: atom_srcs off) ~addr:base
           ~nelems:(Mask.popcount km) Latency.Store)
  | Scatter (k, arr, idx, v) ->
      let km = getk st k and iv = getv st idx and vv = getv st v in
      let base = Memory.base_of st.mem arr in
      let setup = fresh st in
      emit st (Uop.make ~dst:setup ~srcs:[ k; idx; v ] Latency.Scatter);
      for l = 0 to st.vl - 1 do
        if Mask.get km l then begin
          let a = base + Value.to_int (Vreg.get iv l) in
          Memory.store st.mem a (Vreg.get vv l);
          emit st (Uop.make ~srcs:[ setup ] ~addr:a Latency.Store)
        end
      done
  | Binop (d, op, k, a, b) ->
      let km = getk st k and av = getv st a and bv = getv st b in
      let cls = vec_cls op km av bv in
      setv st d (Vreg.binop_mask km op ~dst:(getv st d) av bv);
      emit st (Uop.make ~dst:d ~srcs:[ k; a; b; d ] cls)
  | Unop (d, op, k, a) ->
      let km = getk st k and av = getv st a in
      setv st d (Vreg.unop_mask km op ~dst:(getv st d) av);
      emit st (Uop.make ~dst:d ~srcs:[ k; a; d ] Latency.Vec_alu)
  | Blend (d, k, a, b) ->
      setv st d (Vreg.blend (getk st k) (getv st a) (getv st b));
      emit st (Uop.make ~dst:d ~srcs:[ k; a; b ] Latency.Vec_alu)
  | Slct_last (d, k, a) ->
      setv st d (Vreg.vpslctlast (getk st k) (getv st a));
      emit st (Uop.make ~dst:d ~srcs:[ k; a ] Latency.Slct_last)
  | Cmp (d, op, k, a, b) ->
      setk st d (Vreg.cmp_mask (getk st k) op (getv st a) (getv st b));
      emit st (Uop.make ~dst:d ~srcs:[ k; a; b ] Latency.Vec_alu)
  | Conflictm (d, k2, a, b) ->
      let enabled = Option.map (getk st) k2 in
      setk st d (Vreg.vpconflictm ?enabled (getv st a) (getv st b));
      emit st
        (Uop.make ~dst:d
           ~srcs:((match k2 with Some k -> [ k ] | None -> []) @ [ a; b ])
           Latency.Conflictm)
  | Kftm_exc (d, w, s) ->
      setk st d (Mask.kftm_exc ~write:(getk st w) (getk st s));
      emit st (Uop.make ~dst:d ~srcs:[ w; s ] Latency.Kftm)
  | Kftm_inc (d, w, s) ->
      setk st d (Mask.kftm_inc ~write:(getk st w) (getk st s));
      emit st (Uop.make ~dst:d ~srcs:[ w; s ] Latency.Kftm)
  | Kand (d, a, b) ->
      setk st d (Mask.kand (getk st a) (getk st b));
      emit st (Uop.make ~dst:d ~srcs:[ a; b ] Latency.Mask_op)
  | Kandn (d, a, b) ->
      setk st d (Mask.kandn (getk st a) (getk st b));
      emit st (Uop.make ~dst:d ~srcs:[ a; b ] Latency.Mask_op)
  | Kor (d, a, b) ->
      setk st d (Mask.kor (getk st a) (getk st b));
      emit st (Uop.make ~dst:d ~srcs:[ a; b ] Latency.Mask_op)
  | Knot (d, a) ->
      setk st d (Mask.knot (getk st a));
      emit st (Uop.make ~dst:d ~srcs:[ a ] Latency.Mask_op)
  | Kmov (d, a) ->
      setk st d (Mask.copy (getk st a));
      emit st (Uop.make ~dst:d ~srcs:[ a ] Latency.Mask_op)
  | Kset_loop k ->
      setk st k (Mask.iota_lt st.vl (max 0 (st.hi - st.vi)));
      emit st (Uop.make ~dst:k ~srcs:[ "vi" ] Latency.Mask_op)
  | Extract (x, k, v) ->
      let value = Vreg.slct_last (getk st k) (getv st v) in
      Fv_ir.Interp.env_set st.env x value;
      emit st (Uop.make ~dst:x ~srcs:[ k; v ] Latency.Slct_last)
  | Extract_index (x, k) -> (
      match Mask.last_set (getk st k) with
      | Some l ->
          Fv_ir.Interp.env_set st.env x (Value.Int (st.vi + l));
          emit st (Uop.make ~dst:x ~srcs:[ k; "vi" ] Latency.Int_alu)
      | None -> error "Extract_index %s: empty mask %s" x k)
  | Init_acc (v, x, op) -> do_init_acc st v x op
  | Fold_acc (x, op, v) -> do_fold_acc st x op v

let rec exec_stmt (st : state) (s : vstmt) : unit =
  match s with
  | I i -> exec_inst st i
  | Vpl { label; todo; body } ->
      let guard = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        incr guard;
        if !guard > 2 * st.vl + 2 then
          error "VPL %s did not converge (todo=%a)" label Mask.pp (getk st todo);
        st.stats.vpl_iterations <- st.stats.vpl_iterations + 1;
        if !guard > 1 then begin
          st.stats.vpl_extra <- st.stats.vpl_extra + 1;
          note st "vpl:partition"
        end;
        List.iter (exec_stmt st) body;
        let t = getk st todo in
        emit st (Uop.make ~dst:"_ktest" ~srcs:[ todo ] Latency.Mask_op);
        emit st (Uop.branch ~label ~taken:(Mask.any t) ~srcs:[ "_ktest" ]);
        continue_ := Mask.any t
      done
  | If_any { label; k; then_; else_ } ->
      let cond = Mask.any (getk st k) in
      emit st (Uop.make ~dst:"_ktest" ~srcs:[ k ] Latency.Mask_op);
      emit st (Uop.branch ~label ~taken:cond ~srcs:[ "_ktest" ]);
      List.iter (exec_stmt st) (if cond then then_ else else_)
  | Fault_check { label; kff; expected; remaining } ->
      let mismatch = not (Mask.equal (getk st kff) (getk st expected)) in
      emit st (Uop.make ~dst:"_kchk" ~srcs:[ kff; expected ] Latency.Mask_op);
      emit st (Uop.branch ~label ~taken:mismatch ~srcs:[ "_kchk" ]);
      if mismatch then begin
        note st "ff:fallback";
        do_fallback st (getk st remaining)
      end
  | Set_break k ->
      let cond = Mask.any (getk st k) in
      emit st (Uop.make ~dst:"_ktest" ~srcs:[ k ] Latency.Mask_op);
      if cond then st.brk <- true
  | Scalar_run { label; k } ->
      emit st (Uop.branch ~label ~taken:true ~srcs:[ k ]);
      do_fallback st (getk st k)

(* ------------------------------------------------------------------ *)
(* Top-level driver                                                    *)
(* ------------------------------------------------------------------ *)

(** Run the vectorized loop to completion over [mem]/[env]. Returns
    execution statistics. Semantically equivalent to
    [Fv_ir.Interp.run mem env vloop.source]. [~injected_trap] makes
    injected faults on plain accesses raise instead of being absorbed —
    set by {!Rtm_run} so they abort the enclosing transaction.
    [~annot] receives observability annotations (fault absorptions, VPL
    re-partitions, FF fallbacks) as they happen. *)
let run ?budget ?emit:trace_sink ?annot ?(injected_trap = false)
    (vloop : vloop) (mem : Memory.t) (env : Fv_ir.Interp.env) : stats =
  let scalar_eval e =
    (* lo/hi are loop-invariant: evaluate with the scalar interpreter's
       expression evaluator via a throwaway state *)
    let st =
      { Fv_ir.Interp.mem; env; hk = Fv_ir.Interp.no_hooks; tmp = 0; stmt_labels = [||] }
    in
    Value.to_int (fst (Fv_ir.Interp.eval st e))
  in
  let lo = scalar_eval vloop.source.lo in
  let hi = scalar_eval vloop.source.hi in
  let st =
    {
      vl = vloop.vl;
      mem;
      env;
      vregs = Hashtbl.create 32;
      kregs = Hashtbl.create 32;
      vi = lo;
      hi;
      brk = false;
      emit = trace_sink;
      annot;
      vloop;
      stats = fresh_stats ();
      tmp = 0;
      injected_trap;
    }
  in
  List.iter (exec_stmt st) vloop.preamble;
  (* one shared label string for every back-edge of this run: the
     predictor hashes the label per branch, and the trace sink
     memoizes that hash on physical identity *)
  let back_label = "vloop." ^ vloop.source.name in
  while st.vi < hi && not st.brk do
    (* one poll per strip: cheap against the tens of interpreted vector
       statements a strip executes, and a strip is the natural unit a
       canceled run abandons at — never mid-statement *)
    Fv_parallel.Budget.check_opt budget;
    st.stats.strips <- st.stats.strips + 1;
    emit st (Uop.make ~dst:"vi" ~srcs:[ "vi" ] Latency.Int_alu);
    emit st (Uop.branch ~label:back_label ~taken:true ~srcs:[ "vi" ]);
    List.iter (exec_stmt st) vloop.strip;
    st.vi <- st.vi + st.vl
  done;
  emit st (Uop.branch ~label:back_label ~taken:false ~srcs:[ "vi" ]);
  List.iter (exec_stmt st) vloop.postamble;
  (* match the scalar interpreter's final induction-variable value *)
  if (not st.brk) && hi > lo then
    Fv_ir.Interp.env_set env vloop.source.index (Value.Int (hi - 1));
  st.stats.broke <- st.brk;
  st.stats
