(** Reference interpreter for the scalar IR.

    This is simultaneously:
    - the {e semantic oracle} every vectorization strategy must match,
    - the {e baseline} the paper measures against (the AVX-512 compiler
      cannot vectorize FlexVec candidate loops, so the baseline runs
      them scalar on the OOO model), and
    - the {e profiler substrate}: hooks observe iterations, branch
      outcomes and statement executions, exactly the statistics the
      paper's modified Pin tool collects (§5).

    With a sink in [emit] it also records the scalar micro-op trace
    consumed by [fv_ooo], by register id ({!Fv_trace.Sink}). *)

open Fv_isa
open Ast

type env = (string, Value.t) Hashtbl.t

let env_of_list kvs : env =
  let e = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace e k v) kvs;
  e

let env_get (e : env) v =
  match Hashtbl.find_opt e v with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Interp: unbound variable %S" v)

let env_set (e : env) v x = Hashtbl.replace e v x

type hooks = {
  on_iter : int -> unit;  (** iteration entered, with index value *)
  on_stmt : int -> unit;  (** statement id executed *)
  on_branch : id:int -> taken:bool -> unit;  (** [If] condition outcome *)
  on_load : int -> unit;  (** element address loaded *)
  on_store : int -> unit;  (** element address stored *)
  emit : Fv_trace.Sink.t option;  (** micro-op trace sink *)
}

let no_hooks =
  {
    on_iter = ignore;
    on_stmt = ignore;
    on_branch = (fun ~id:_ ~taken:_ -> ());
    on_load = ignore;
    on_store = ignore;
    emit = None;
  }

let hooks ?(on_iter = ignore) ?(on_stmt = ignore)
    ?(on_branch = fun ~id:_ ~taken:_ -> ()) ?(on_load = ignore)
    ?(on_store = ignore) ?emit () =
  { on_iter; on_stmt; on_branch; on_load; on_store; emit }

exception Break_exn

module Sink = Fv_trace.Sink

type state = {
  mem : Fv_mem.Memory.t;
  env : env;
  hk : hooks;
  sink : Sink.t option;  (** [hk.emit] *)
  mutable reg : int;
      (** trace register holding the value {!eval} last returned (-1: a
          constant); only meaningful with a sink *)
  mutable stmt_lbl : int array;
      (** label ids of ["s<id>"] branch labels, indexed by statement
          id (-1: not yet resolved); an [If] executes once per
          iteration and resolves its label once per run *)
}

let make_state hk mem env =
  { mem; env; hk; sink = hk.emit; reg = -1; stmt_lbl = [||] }

let stmt_label st s id =
  if id >= Array.length st.stmt_lbl then begin
    let n = Array.length st.stmt_lbl in
    let b = Array.make (max 8 (2 * (id + 1))) (-1) in
    Array.blit st.stmt_lbl 0 b 0 n;
    st.stmt_lbl <- b
  end;
  let l = st.stmt_lbl.(id) in
  if l >= 0 then l
  else begin
    let l = Sink.label s ("s" ^ string_of_int id) in
    st.stmt_lbl.(id) <- l;
    l
  end

let alu_class a b =
  if Value.is_float a || Value.is_float b then Latency.Fp_alu else Latency.Int_alu

let mul_class a b =
  if Value.is_float a || Value.is_float b then Latency.Fp_mul else Latency.Int_mul

(* the register an expression at depth [p] writes: [dst] when given,
   else temporary [p] *)
let dst_or_slot s dst p = if dst >= 0 then dst else Sink.internal s (Sink.scalar_tmp p)

(* read operand register [r]; a constant operand (-1) reads the
   reserved never-written register, resolved only once a uop reads it *)
let src s r = Sink.src s (if r >= 0 then r else Sink.internal s Sink.r_const)

(** Evaluate an expression at stack depth [p]; returns its value and,
    with a sink attached, leaves the trace register holding it in
    [st.reg]. Temporaries live on an expression stack: a [Load]'s index
    and a [Binop]/[Cmp]'s left operand are evaluated at [p], the right
    operand at [p + 1], and the node writes its result to temporary [p]
    after reading its operands. Between an operand's producer and its
    consumer only deeper temporaries are written, so one register per
    depth gives exactly the dependences of one register per temporary,
    at any depth. (A cyclic pool does not: once more temporaries are
    live than it has names, a consumer reads a later writer.) [dst]
    ([-1]: none) is the register the final micro-op writes instead, so
    a scalar assignment's consumers depend on the variable. Each case
    is written out flat — this is the hottest function in trace
    generation. *)
let rec eval (st : state) p dst (e : expr) : Value.t =
  match e with
  | Const v ->
      (match st.sink with
      | Some s when dst >= 0 -> Sink.uop s Latency.Int_alu ~dst
      | _ -> ());
      st.reg <- dst;
      v
  | Var x ->
      let v = env_get st.env x in
      (match st.sink with
      | None -> ()
      | Some s ->
          let r = Sink.reg s x in
          if dst < 0 then st.reg <- r
          else begin
            Sink.src s r;
            Sink.uop s Latency.Int_alu ~dst;
            st.reg <- dst
          end);
      v
  | Load (arr, idx) ->
      let iv = eval st p (-1) idx in
      let addr = Fv_mem.Memory.addr_of st.mem arr (Value.to_int iv) in
      let v = Fv_mem.Memory.load st.mem addr in
      st.hk.on_load addr;
      (match st.sink with
      | None -> ()
      | Some s ->
          let d = dst_or_slot s dst p in
          src s st.reg;
          Sink.mem_uop s Latency.Load ~dst:d ~addr ~nelems:1;
          st.reg <- d);
      v
  | Binop (op, a, b) ->
      let av = eval st p (-1) a in
      let ar = st.reg in
      let bv = eval st (p + 1) (-1) b in
      let v = Value.binop op av bv in
      (match st.sink with
      | None -> ()
      | Some s ->
          let cls =
            match op with
            | Mul -> mul_class av bv
            | Div ->
                if Value.is_float av || Value.is_float bv then Latency.Fp_div
                else Latency.Int_mul
            | _ -> alu_class av bv
          in
          let d = dst_or_slot s dst p in
          src s ar;
          src s st.reg;
          Sink.uop s cls ~dst:d;
          st.reg <- d);
      v
  | Cmp (op, a, b) ->
      let av = eval st p (-1) a in
      let ar = st.reg in
      let bv = eval st (p + 1) (-1) b in
      let v = Value.of_bool (Value.cmp op av bv) in
      (match st.sink with
      | None -> ()
      | Some s ->
          let d = dst_or_slot s dst p in
          src s ar;
          src s st.reg;
          Sink.uop s (alu_class av bv) ~dst:d;
          st.reg <- d);
      v
  | Unop (op, a) ->
      let av = eval st p (-1) a in
      let v = Value.unop op av in
      (match st.sink with
      | None -> ()
      | Some s ->
          let d = dst_or_slot s dst p in
          src s st.reg;
          Sink.uop s (alu_class av av) ~dst:d;
          st.reg <- d);
      v

(** The value of a loop-invariant expression (a bound), with no hooks
    and no trace. *)
let eval_int mem env e = Value.to_int (eval (make_state no_hooks mem env) 0 (-1) e)

let rec exec_stmt (st : state) (s : stmt) : unit =
  st.hk.on_stmt s.id;
  match s.node with
  | Assign (v, e) ->
      let d = match st.sink with Some sk -> Sink.reg sk v | None -> -1 in
      env_set st.env v (eval st 0 d e)
  | Store (arr, idx, e) ->
      let iv = eval st 0 (-1) idx in
      let ir = st.reg in
      let ev = eval st 1 (-1) e in
      let addr = Fv_mem.Memory.addr_of st.mem arr (Value.to_int iv) in
      st.hk.on_store addr;
      (match st.sink with
      | None -> ()
      | Some sk ->
          src sk ir;
          src sk st.reg;
          Sink.mem_uop sk Latency.Store ~dst:(-1) ~addr ~nelems:1);
      Fv_mem.Memory.store st.mem addr ev
  | Break -> raise Break_exn
  | If (c, t, e) ->
      let cv = eval st 0 (-1) c in
      let taken = Value.truthy cv in
      st.hk.on_branch ~id:s.id ~taken;
      (match st.sink with
      | None -> ()
      | Some sk ->
          src sk st.reg;
          Sink.branch sk (stmt_label st sk s.id) ~taken);
      List.iter (exec_stmt st) (if taken then t else e)

(** Run the loop to completion. Returns the number of iterations entered
    (the dynamic trip count). *)
let run ?(hk = no_hooks) (mem : Fv_mem.Memory.t) (env : env) (l : loop) : int =
  if not (is_numbered l) then invalid_arg "Interp.run: loop is not numbered";
  let st = make_state hk mem env in
  let lo = Value.to_int (eval st 0 (-1) l.lo) in
  let hi = Value.to_int (eval st 0 (-1) l.hi) in
  let trips = ref 0 in
  (* loop control: index increment, bound check and back-edge, with
     the index register and the label resolved once per run *)
  let ix, label =
    match st.sink with
    | Some s -> (Sink.reg s l.index, Sink.label s ("loop." ^ l.name))
    | None -> (-1, 0)
  in
  let back_edge ~taken =
    match st.sink with
    | Some s ->
        Sink.src s ix;
        Sink.branch s label ~taken
    | None -> ()
  in
  (try
     let i = ref lo in
     while !i < hi do
       env_set env l.index (Value.Int !i);
       hk.on_iter !i;
       (match st.sink with
       | Some s ->
           Sink.src s ix;
           Sink.uop s Latency.Int_alu ~dst:ix
       | None -> ());
       back_edge ~taken:true;
       incr trips;
       List.iter (exec_stmt st) l.body;
       incr i
     done;
     back_edge ~taken:false
   with Break_exn -> ());
  !trips

(** [run_iteration ?hk mem env l] prepares the per-run state once and
    returns a function that executes the loop body for one index [i] —
    the scalar-fallback entry point used by the vector emulator after a
    first-faulting mismatch (§4.1: "falls back to a scalar version of
    the loop") and by RTM's scalar tiles, which call it once per lane or
    iteration. The function returns [`Break] if the iteration executed
    a break. *)
let run_iteration ?(hk = no_hooks) (mem : Fv_mem.Memory.t) (env : env)
    (l : loop) : int -> [ `Ok | `Break ] =
  let st = make_state hk mem env in
  fun i ->
    env_set env l.index (Value.Int i);
    hk.on_iter i;
    try
      List.iter (exec_stmt st) l.body;
      `Ok
    with Break_exn -> `Break
