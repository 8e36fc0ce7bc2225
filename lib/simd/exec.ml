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
module Sink = Fv_trace.Sink

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

(* A register-file entry: the value and the register's trace id (-1
   without a sink), resolved once when the entry is created. *)
type vslot = { mutable v : Vreg.t; vid : int }
type kslot = { mutable k : Mask.t; kid : int }

type state = {
  vl : int;
  mem : Memory.t;
  env : Fv_ir.Interp.env;
  vregs : (string, vslot) Hashtbl.t;
  kregs : (string, kslot) Hashtbl.t;
  mutable vi : int;  (** scalar index of lane 0 of the current strip *)
  mutable hi : int;
  mutable brk : bool;  (** an early exit committed: stop after this strip *)
  sink : Sink.t option;
  annot : (string -> unit) option;
      (** observability side channel: noteworthy execution events
          (injected faults, VPL re-partitions, FF fallbacks) keyed to
          the current trace position; see {!Fv_obs.Annot} *)
  vloop : vloop;
  stats : stats;
  scalar_iter : (int -> [ `Ok | `Break ]) Lazy.t;
      (** the scalar interpreter over [vloop.source], set up once per
          run for the fallbacks *)
  injected_trap : bool;
      (** inside an RTM transaction, an injected fault on a plain
          (non-first-faulting) access must trap so the transaction
          aborts; outside one it is absorbed by re-executing the access
          (the OS services the transient fault and the instruction
          retries) *)
}

exception Vector_exec_error of string

let error fmt = Fmt.kstr (fun s -> raise (Vector_exec_error s)) fmt

let reg_id st r = match st.sink with Some s -> Sink.reg s r | None -> -1

(* merge-masked destinations legitimately read an undefined register:
   an entry is created, zeroed, on first use *)
let vslot st r =
  match Hashtbl.find_opt st.vregs r with
  | Some x -> x
  | None ->
      let x = { v = Vreg.zero st.vl; vid = reg_id st r } in
      Hashtbl.replace st.vregs r x;
      x

let kslot st r =
  match Hashtbl.find_opt st.kregs r with
  | Some x -> x
  | None ->
      let x = { k = Mask.none st.vl; kid = reg_id st r } in
      Hashtbl.replace st.kregs r x;
      x

let getk st r = (kslot st r).k

let atom st = function
  | Imm v -> v
  | Sca x -> Fv_ir.Interp.env_get st.env x

let note st kind = match st.annot with Some f -> f kind | None -> ()

(* Recording, in {!Sink}'s protocol: [src] per source register, then
   one closing call. Every helper is a no-op without a sink. *)
let src st id = match st.sink with Some s -> Sink.src s id | None -> ()

let src_atom st = function Imm _ -> () | Sca x -> src st (reg_id st x)

let uop st cls ~dst = match st.sink with Some s -> Sink.uop s cls ~dst | None -> ()

let mem_uop st cls ~dst ~addr ~nelems =
  match st.sink with
  | Some s -> Sink.mem_uop s cls ~dst ~addr ~nelems
  | None -> ()

let internal st k = match st.sink with Some s -> Sink.internal s k | None -> -1

let branch st label ~taken =
  match st.sink with
  | Some s -> Sink.branch s (Sink.label s label) ~taken
  | None -> ()

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
  let sv = vslot st v in
  sv.v <- Vreg.broadcast st.vl (identity_for op cur);
  src st (reg_id st x);
  uop st Latency.Vec_broadcast ~dst:sv.vid

let do_fold_acc st x op v =
  let sv = vslot st v in
  let cur = Fv_ir.Interp.env_get st.env x in
  let folded = Vreg.reduce (Mask.full st.vl) op ~init:cur sv.v in
  Fv_ir.Interp.env_set st.env x folded;
  (* horizontal reduce: log2(vl) shuffle+op pairs, then a scalar move *)
  (match st.sink with
  | None -> ()
  | Some s ->
      let steps = max 1 (int_of_float (ceil (log (float_of_int st.vl) /. log 2.))) in
      let prev = ref sv.vid in
      for j = 1 to steps do
        let t = Sink.internal s (Sink.vector_tmp (j land 1)) in
        Sink.src s !prev;
        Sink.uop s Latency.Vec_alu ~dst:t;
        prev := t
      done;
      Sink.src s !prev;
      Sink.uop s Latency.Int_alu ~dst:(Sink.reg s x));
  (* reset partials so a later fold in the same strip is a no-op *)
  sv.v <- Vreg.broadcast st.vl (identity_for op (Fv_ir.Interp.env_get st.env x))

(** Scalar fallback after a speculative fault (§4.1): fold reduction
    partials into the environment, execute the remaining lanes with the
    scalar interpreter, clear the in-flight masks, and re-broadcast the
    environment-authoritative scalars. *)
let do_fallback st (remaining : Mask.t) =
  st.stats.fallbacks <- st.stats.fallbacks + 1;
  let sync = st.vloop.sync in
  List.iter (fun (x, op, v) -> do_fold_acc st x op v) sync.reductions;
  let scalar_iter = Lazy.force st.scalar_iter in
  for l = 0 to st.vl - 1 do
    if Mask.get remaining l && not st.brk then begin
      st.stats.fallback_iters <- st.stats.fallback_iters + 1;
      match scalar_iter (st.vi + l) with
      | `Ok -> ()
      | `Break -> st.brk <- true
    end
  done;
  (* "*" means every mask register: after a fallback, the remainder of
     the strip program must execute as a no-op *)
  if List.mem "*" sync.clear_on_fallback then
    Hashtbl.iter (fun _ x -> x.k <- Mask.none st.vl) st.kregs
  else
    List.iter (fun k -> (kslot st k).k <- Mask.none st.vl) sync.clear_on_fallback;
  List.iter
    (fun (x, v) ->
      (vslot st v).v <- Vreg.broadcast st.vl (Fv_ir.Interp.env_get st.env x))
    sync.uniforms

(* A gather's trace: the setup uop, one load per touched lane, and the
   merge into [sv] reading the setup and every lane. Temporaries are
   slots of the instruction that uses them ({!Sink.vector_tmp}): the
   setup writes slot 0 (so does a scatter's) and the lane loads slots
   1 .. vl, so the merge reads [vl + 1] distinct registers at any vector
   length; a horizontal reduction's shuffle chain alternates slots 0 and
   1. A temporary is produced and consumed inside one instruction, so
   reusing the slots across instructions loses no dependence. They are
   reserved ids, so no VIR register can alias them. *)
let gather_uops st cls (sk : kslot) (sidx : vslot) (sv : vslot) addrs =
  match st.sink with
  | None -> ()
  | Some s ->
      let setup = Sink.internal s (Sink.vector_tmp 0) in
      Sink.src s sk.kid;
      Sink.src s sidx.vid;
      Sink.uop s cls ~dst:setup;
      let rec lanes j = function
        | [] -> j
        | a :: rest ->
            Sink.src s setup;
            Sink.mem_uop s Latency.Load ~dst:(Sink.internal s (Sink.vector_tmp j))
              ~addr:a ~nelems:1;
            lanes (j + 1) rest
      in
      let n = lanes 1 addrs in
      Sink.src s setup;
      for j = 1 to n - 1 do
        Sink.src s (Sink.internal s (Sink.vector_tmp j))
      done;
      Sink.uop s Latency.Vec_alu ~dst:sv.vid

(* ------------------------------------------------------------------ *)
(* Instruction dispatch                                                *)
(* ------------------------------------------------------------------ *)

(* two- and one-operand mask instructions *)
let mask_op2 st f d a b =
  let sa = kslot st a and sb = kslot st b and sd = kslot st d in
  sd.k <- f sa.k sb.k;
  src st sa.kid;
  src st sb.kid;
  uop st Latency.Mask_op ~dst:sd.kid

let mask_op1 st f d a =
  let sa = kslot st a and sd = kslot st d in
  sd.k <- f sa.k;
  src st sa.kid;
  uop st Latency.Mask_op ~dst:sd.kid

let exec_inst (st : state) (i : vinst) : unit =
  match i with
  | Iota v ->
      let sv = vslot st v in
      sv.v <- Vreg.iota st.vl ~base:st.vi ~step:1;
      src st (internal st Sink.r_vi);
      uop st Latency.Vec_alu ~dst:sv.vid
  | Broadcast (v, a) ->
      let sv = vslot st v in
      sv.v <- Vreg.broadcast st.vl (atom st a);
      src_atom st a;
      uop st Latency.Vec_broadcast ~dst:sv.vid
  | Load (v, k, arr, off) ->
      let sk = kslot st k and sv = vslot st v in
      let base = Memory.base_of st.mem arr + st.vi + Value.to_int (atom st off) in
      let dst = Vreg.copy sv.v in
      let _ = do_load st ~ff:false dst sk.k base in
      sv.v <- dst;
      src st sk.kid;
      src_atom st off;
      mem_uop st Latency.Load ~dst:sv.vid ~addr:base ~nelems:(Mask.popcount sk.k)
  | Load_ff (v, k, arr, off) ->
      let sk = kslot st k and sv = vslot st v in
      let km = sk.k in
      let base = Memory.base_of st.mem arr + st.vi + Value.to_int (atom st off) in
      let dst = Vreg.copy sv.v in
      let kout = do_load st ~ff:true dst km base in
      sv.v <- dst;
      sk.k <- kout;
      src st sk.kid;
      src_atom st off;
      mem_uop st Latency.Load_ff ~dst:sv.vid ~addr:base ~nelems:(Mask.popcount km)
  | Gather (v, k, arr, idx) ->
      let sk = kslot st k and sidx = vslot st idx and sv = vslot st v in
      let dst = Vreg.copy sv.v in
      let _, addrs = do_gather st ~ff:false ~arr dst sk.k sidx.v in
      sv.v <- dst;
      gather_uops st Latency.Gather sk sidx sv addrs
  | Gather_ff (v, k, arr, idx) ->
      let sk = kslot st k and sidx = vslot st idx and sv = vslot st v in
      let dst = Vreg.copy sv.v in
      let kout, addrs = do_gather st ~ff:true ~arr dst sk.k sidx.v in
      sv.v <- dst;
      sk.k <- kout;
      gather_uops st Latency.Gather_ff sk sidx sv addrs
  | Store (k, arr, off, v) ->
      let sk = kslot st k and sv = vslot st v in
      let km = sk.k and vv = sv.v in
      let base = Memory.base_of st.mem arr + st.vi + Value.to_int (atom st off) in
      for l = 0 to st.vl - 1 do
        if Mask.get km l then Memory.store st.mem (base + l) (Vreg.get vv l)
      done;
      src st sk.kid;
      src st sv.vid;
      src_atom st off;
      mem_uop st Latency.Store ~dst:(-1) ~addr:base ~nelems:(Mask.popcount km)
  | Scatter (k, arr, idx, v) ->
      let sk = kslot st k and sidx = vslot st idx and sv = vslot st v in
      let km = sk.k and iv = sidx.v and vv = sv.v in
      let base = Memory.base_of st.mem arr in
      let setup = internal st (Sink.vector_tmp 0) in
      src st sk.kid;
      src st sidx.vid;
      src st sv.vid;
      uop st Latency.Scatter ~dst:setup;
      for l = 0 to st.vl - 1 do
        if Mask.get km l then begin
          let a = base + Value.to_int (Vreg.get iv l) in
          Memory.store st.mem a (Vreg.get vv l);
          src st setup;
          mem_uop st Latency.Store ~dst:(-1) ~addr:a ~nelems:1
        end
      done
  | Binop (d, op, k, a, b) ->
      let sk = kslot st k and sa = vslot st a and sb = vslot st b in
      let sd = vslot st d in
      let cls = vec_cls op sk.k sa.v sb.v in
      sd.v <- Vreg.binop_mask sk.k op ~dst:sd.v sa.v sb.v;
      src st sk.kid;
      src st sa.vid;
      src st sb.vid;
      src st sd.vid;
      uop st cls ~dst:sd.vid
  | Unop (d, op, k, a) ->
      let sk = kslot st k and sa = vslot st a and sd = vslot st d in
      sd.v <- Vreg.unop_mask sk.k op ~dst:sd.v sa.v;
      src st sk.kid;
      src st sa.vid;
      src st sd.vid;
      uop st Latency.Vec_alu ~dst:sd.vid
  | Blend (d, k, a, b) ->
      let sk = kslot st k and sa = vslot st a and sb = vslot st b in
      let sd = vslot st d in
      sd.v <- Vreg.blend sk.k sa.v sb.v;
      src st sk.kid;
      src st sa.vid;
      src st sb.vid;
      uop st Latency.Vec_alu ~dst:sd.vid
  | Slct_last (d, k, a) ->
      let sk = kslot st k and sa = vslot st a and sd = vslot st d in
      sd.v <- Vreg.vpslctlast sk.k sa.v;
      src st sk.kid;
      src st sa.vid;
      uop st Latency.Slct_last ~dst:sd.vid
  | Cmp (d, op, k, a, b) ->
      let sk = kslot st k and sa = vslot st a and sb = vslot st b in
      let sd = kslot st d in
      sd.k <- Vreg.cmp_mask sk.k op sa.v sb.v;
      src st sk.kid;
      src st sa.vid;
      src st sb.vid;
      uop st Latency.Vec_alu ~dst:sd.kid
  | Conflictm (d, k2, a, b) ->
      let s2 = Option.map (kslot st) k2 in
      let sa = vslot st a and sb = vslot st b and sd = kslot st d in
      let enabled = Option.map (fun x -> x.k) s2 in
      sd.k <- Vreg.vpconflictm ?enabled sa.v sb.v;
      Option.iter (fun x -> src st x.kid) s2;
      src st sa.vid;
      src st sb.vid;
      uop st Latency.Conflictm ~dst:sd.kid
  | Kftm_exc (d, w, s) ->
      let sw = kslot st w and ss = kslot st s and sd = kslot st d in
      sd.k <- Mask.kftm_exc ~write:sw.k ss.k;
      src st sw.kid;
      src st ss.kid;
      uop st Latency.Kftm ~dst:sd.kid
  | Kftm_inc (d, w, s) ->
      let sw = kslot st w and ss = kslot st s and sd = kslot st d in
      sd.k <- Mask.kftm_inc ~write:sw.k ss.k;
      src st sw.kid;
      src st ss.kid;
      uop st Latency.Kftm ~dst:sd.kid
  | Kand (d, a, b) -> mask_op2 st Mask.kand d a b
  | Kandn (d, a, b) -> mask_op2 st Mask.kandn d a b
  | Kor (d, a, b) -> mask_op2 st Mask.kor d a b
  | Knot (d, a) -> mask_op1 st Mask.knot d a
  | Kmov (d, a) -> mask_op1 st Mask.copy d a
  | Kset_loop k ->
      let sk = kslot st k in
      sk.k <- Mask.iota_lt st.vl (max 0 (st.hi - st.vi));
      src st (internal st Sink.r_vi);
      uop st Latency.Mask_op ~dst:sk.kid
  | Extract (x, k, v) ->
      let sk = kslot st k and sv = vslot st v in
      Fv_ir.Interp.env_set st.env x (Vreg.slct_last sk.k sv.v);
      src st sk.kid;
      src st sv.vid;
      uop st Latency.Slct_last ~dst:(reg_id st x)
  | Extract_index (x, k) -> (
      let sk = kslot st k in
      match Mask.last_set sk.k with
      | Some l ->
          Fv_ir.Interp.env_set st.env x (Value.Int (st.vi + l));
          src st sk.kid;
          src st (internal st Sink.r_vi);
          uop st Latency.Int_alu ~dst:(reg_id st x)
      | None -> error "Extract_index %s: empty mask %s" x k)
  | Init_acc (v, x, op) -> do_init_acc st v x op
  | Fold_acc (x, op, v) -> do_fold_acc st x op v

(* a mask test into reserved register [r] and the branch that reads it *)
let test_and_branch st r (srcs : kslot list) label ~taken =
  let t = internal st r in
  List.iter (fun x -> src st x.kid) srcs;
  uop st Latency.Mask_op ~dst:t;
  src st t;
  branch st label ~taken

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
        let t = kslot st todo in
        test_and_branch st Sink.r_ktest [ t ] label ~taken:(Mask.any t.k);
        continue_ := Mask.any t.k
      done
  | If_any { label; k; then_; else_ } ->
      let sk = kslot st k in
      let cond = Mask.any sk.k in
      test_and_branch st Sink.r_ktest [ sk ] label ~taken:cond;
      List.iter (exec_stmt st) (if cond then then_ else else_)
  | Fault_check { label; kff; expected; remaining } ->
      let sf = kslot st kff and se = kslot st expected in
      let mismatch = not (Mask.equal sf.k se.k) in
      test_and_branch st Sink.r_kchk [ sf; se ] label ~taken:mismatch;
      if mismatch then begin
        note st "ff:fallback";
        do_fallback st (getk st remaining)
      end
  | Set_break k ->
      let sk = kslot st k in
      src st sk.kid;
      uop st Latency.Mask_op ~dst:(internal st Sink.r_ktest);
      if Mask.any sk.k then st.brk <- true
  | Scalar_run { label; k } ->
      let sk = kslot st k in
      src st sk.kid;
      branch st label ~taken:true;
      do_fallback st sk.k

(* ------------------------------------------------------------------ *)
(* Top-level driver                                                    *)
(* ------------------------------------------------------------------ *)

(** Run the vectorized loop to completion over [mem]/[env]. Returns
    execution statistics. Semantically equivalent to
    [Fv_ir.Interp.run mem env vloop.source]. [~emit] records the
    micro-op trace into a sink. [~injected_trap] makes injected faults
    on plain accesses raise instead of being absorbed — set by
    {!Rtm_run} so they abort the enclosing transaction. [~annot]
    receives observability annotations (fault absorptions, VPL
    re-partitions, FF fallbacks) as they happen. *)
let run ?budget ?emit ?annot ?(injected_trap = false) (vloop : vloop)
    (mem : Memory.t) (env : Fv_ir.Interp.env) : stats =
  (* lo/hi are loop-invariant: evaluate with the scalar interpreter *)
  let lo = Fv_ir.Interp.eval_int mem env vloop.source.lo in
  let hi = Fv_ir.Interp.eval_int mem env vloop.source.hi in
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
      sink = emit;
      annot;
      vloop;
      stats = fresh_stats ();
      scalar_iter =
        lazy
          (Fv_ir.Interp.run_iteration ~hk:(Fv_ir.Interp.hooks ?emit ()) mem env
             vloop.source);
      injected_trap;
    }
  in
  List.iter (exec_stmt st) vloop.preamble;
  (* one shared label string for every back-edge of this run, resolved
     by the sink once *)
  let back_label = "vloop." ^ vloop.source.name in
  let vi = internal st Sink.r_vi in
  while st.vi < hi && not st.brk do
    (* one poll per strip: cheap against the tens of interpreted vector
       statements a strip executes, and a strip is the natural unit a
       canceled run abandons at — never mid-statement *)
    Fv_parallel.Budget.check_opt budget;
    st.stats.strips <- st.stats.strips + 1;
    src st vi;
    uop st Latency.Int_alu ~dst:vi;
    src st vi;
    branch st back_label ~taken:true;
    List.iter (exec_stmt st) vloop.strip;
    st.vi <- st.vi + st.vl
  done;
  src st vi;
  branch st back_label ~taken:false;
  List.iter (exec_stmt st) vloop.postamble;
  (* match the scalar interpreter's final induction-variable value *)
  if (not st.brk) && hi > lo then
    Fv_ir.Interp.env_set env vloop.source.index (Value.Int (hi - 1));
  st.stats.broke <- st.brk;
  st.stats
