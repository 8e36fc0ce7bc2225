(** Scalar-vs-vector equivalence oracle.

    The repo's central correctness property: for any loop the FlexVec
    vectorizer accepts and any initial memory/environment, running the
    generated vector program must leave memory and the live-out scalars
    in the same state as the scalar reference interpreter. Float
    reductions are compared with a small relative tolerance because
    lane-parallel accumulation legitimately reassociates.

    Every scalar-vs-vector check in the repo is one {!reference} and
    one or more {!against} calls: {!check}, {!check_under_faults}, the
    hot-loop runner's gate, the fault sweep and the fuzz driver. *)

open Fv_isa
module Memory = Fv_mem.Memory
module Interp = Fv_ir.Interp

type outcome = {
  trips : int;  (** scalar trip count *)
  stats : Fv_simd.Exec.stats;
  vloop : Fv_vir.Inst.vloop;
}

type failure =
  | Not_vectorizable of Fv_ir.Validate.diagnostic
  | Mismatch of string
  | Vector_crash of string
[@@deriving show { with_path = false }]

(** What went wrong, without the constructor. *)
let message = function
  | Not_vectorizable d -> Fv_ir.Validate.describe d
  | Mismatch m | Vector_crash m -> m

let value_close (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Int x, Value.Int y -> x = y
  | _ ->
      let x = Value.to_float a and y = Value.to_float b in
      (* NaN on both sides is agreement: a kernel that computes 0/0 does
         so identically in scalar and vector form, and the IEEE
         NaN <> NaN convention must not flag that as a divergence.
         Exact equality must be checked before the tolerance band, which
         is NaN-poisoned (hence false) when both sides are infinite *)
      (Float.is_nan x && Float.is_nan y)
      || x = y
      ||
      let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
      Float.abs (x -. y) <= 1e-9 *. scale

let compare_memories (ms : Memory.t) (mv : Memory.t) : (unit, string) result =
  let names =
    List.sort compare (List.map (fun a -> a.Memory.name) ms.Memory.allocs)
  in
  let rec go = function
    | [] -> Ok ()
    | n :: rest ->
        let a = Memory.read_all ms n and b = Memory.read_all mv n in
        let bad = ref None in
        Array.iteri
          (fun i x ->
            if !bad = None && not (value_close x b.(i)) then bad := Some i)
          a;
        (match !bad with
        | Some i ->
            Error
              (Fmt.str "array %s differs at [%d]: scalar=%a vector=%a" n i
                 Value.pp_compact a.(i) Value.pp_compact b.(i))
        | None -> go rest)
  in
  go names

(* A live-out the reference never bound has no ground truth and is not
   compared; one it bound must be bound by the candidate to a close
   value. *)
let compare_env (l : Fv_ir.Ast.loop) (es : Interp.env) (ev : Interp.env) :
    (unit, string) result =
  let rec go = function
    | [] -> Ok ()
    | v :: rest -> (
        match (Hashtbl.find_opt es v, Hashtbl.find_opt ev v) with
        | None, _ -> go rest
        | Some _, None ->
            Error (Printf.sprintf "live-out %S unbound after vector run" v)
        | Some a, Some b ->
            if value_close a b then go rest
            else
              Error
                (Fmt.str "live-out %s differs: scalar=%a vector=%a" v
                   Value.pp_compact a Value.pp_compact b))
  in
  go l.live_out

(** The scalar ground truth: [l] interpreted on clones of [mem] and
    [env], never injected. *)
type reference = {
  r_mem : Memory.t;  (** final memory *)
  r_env : Interp.env;  (** final environment *)
  r_trips : int;  (** scalar trip count *)
}

let reference (l : Fv_ir.Ast.loop) (mem : Memory.t)
    (env : (string * Value.t) list) : reference =
  let r_mem = Memory.clone mem and r_env = Interp.env_of_list env in
  let r_trips = Interp.run r_mem r_env l in
  { r_mem; r_env; r_trips }

(** The one candidate runner: run [exec] on fresh clones of [mem] and
    [env], with [plan] attached to the memory, and check it against
    [r]. A vector-execution error or an uncaught memory fault is a
    [Vector_crash]; any other exception escapes (the fuzz driver
    classifies those as crashes). A difference in memory, then in the
    live-outs of [l], is a [Mismatch]. Returns the executor's result
    and the memory it ran on. *)
let against ?plan (r : reference) (l : Fv_ir.Ast.loop) (mem : Memory.t)
    (env : (string * Value.t) list) (exec : Memory.t -> Interp.env -> 'a) :
    ('a * Memory.t, failure) result =
  let m = Memory.clone mem and e = Interp.env_of_list env in
  Memory.set_fault_plan m plan;
  match exec m e with
  | exception Fv_simd.Exec.Vector_exec_error msg -> Error (Vector_crash msg)
  | exception Memory.Fault f ->
      Error (Vector_crash (Fmt.str "memory fault: %a" Memory.pp_fault f))
  | x -> (
      match
        Result.bind (compare_memories r.r_mem m) (fun () ->
            compare_env l r.r_env e)
      with
      | Error d -> Error (Mismatch d)
      | Ok () -> Ok (x, m))

(** Vectorize [l], run both versions from identical initial state, and
    compare final memory + live-outs. *)
let check ?(vl = 16) ?(style = Fv_vectorizer.Gen.Flexvec) (l : Fv_ir.Ast.loop)
    (mem : Memory.t) (env : (string * Value.t) list) :
    (outcome, failure) result =
  match Fv_vectorizer.Gen.vectorize ~vl ~style l with
  | Error r -> Error (Not_vectorizable r)
  | Ok vloop ->
      let r = reference l mem env in
      Result.map
        (fun (stats, _) -> { trips = r.r_trips; stats; vloop })
        (against r l mem env (Fv_simd.Exec.run vloop))

(** Like {!check} but raises [Failure] with a report on any failure —
    convenient inside Alcotest/QCheck bodies. *)
let check_exn ?vl ?style l mem env : outcome =
  match check ?vl ?style l mem env with
  | Ok o -> o
  | Error f ->
      failwith
        (Fmt.str "oracle failure on %s: %a@.%a" l.Fv_ir.Ast.name pp_failure f
           Fv_ir.Pp.pp_loop l)

(* ------------------------------------------------------------------ *)
(* Differential oracle under fault injection                           *)
(* ------------------------------------------------------------------ *)

type fault_outcome = {
  fo_trips : int;  (** scalar trip count *)
  fo_ff_injected : int;  (** injected faults delivered during the FF run *)
  fo_rtm_injected : int;  (** injected faults delivered during the RTM run *)
  fo_rtm : Fv_simd.Rtm_run.rtm_stats;
}

(** Differential oracle under fault injection: run the scalar reference
    (never injected — it is the semantic ground truth), the
    first-faulting vector program, and the RTM strip-mined program, the
    latter two with [plan] attached to their memories, and require all
    three to agree on final memory and live-outs. This is the whole
    robustness claim in one property: whatever faults the plan injects,
    the recovery machinery (mask shrinkage + scalar fallback for FF;
    abort + retry + scalar tile re-execution for RTM) must reconstruct
    exactly the scalar semantics. *)
let check_under_faults ?(vl = 16) ?(tile = 64) ~(plan : Fv_faults.Plan.t)
    (l : Fv_ir.Ast.loop) (mem : Memory.t) (env : (string * Value.t) list) :
    (fault_outcome, failure) result =
  match Fv_vectorizer.Gen.vectorize ~vl ~style:Fv_vectorizer.Gen.Flexvec l with
  | Error r -> Error (Not_vectorizable r)
  | Ok vloop ->
      let r = reference l mem env in
      let leg what exec =
        Result.map_error
          (function
            | Mismatch e -> Mismatch (what ^ ": " ^ e)
            | Vector_crash e -> Vector_crash (what ^ ": " ^ e)
            | Not_vectorizable _ as f -> f)
          (against ~plan r l mem env exec)
      in
      Result.bind (leg "ff" (Fv_simd.Exec.run vloop)) (fun (_, mf) ->
          Result.map
            (fun (rtm, mr) ->
              {
                fo_trips = r.r_trips;
                fo_ff_injected = mf.Memory.injected_faults;
                fo_rtm_injected = mr.Memory.injected_faults;
                fo_rtm = rtm;
              })
            (leg "rtm" (Fv_simd.Rtm_run.run ~tile vloop)))

(** Raising variant of {!check_under_faults}. *)
let check_under_faults_exn ?vl ?tile ~plan l mem env : fault_outcome =
  match check_under_faults ?vl ?tile ~plan l mem env with
  | Ok o -> o
  | Error f ->
      failwith
        (Fmt.str "fault oracle failure on %s under [%a]: %a" l.Fv_ir.Ast.name
           Fv_faults.Plan.pp plan pp_failure f)
