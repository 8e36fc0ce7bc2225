(** Pin-style loop profiler (paper §5).

    "It uses a Pin-based profiling tool that we modified to detect loops
    with cross iteration dependency patterns which are handled by
    FlexVec. Our tool collects trip counts and the effective vector
    length for the candidate loops. The effective vector length is the
    ratio of the average trip count to the average number of times a
    cross iteration dependency is detected for a loop at runtime."

    The profiler runs the scalar interpreter with hooks and counts, per
    loop invocation: iterations, dependency-pattern fire events
    (conditional updates, early exits, windowed memory conflicts),
    dynamic micro-op mix (for the memory-to-compute cost-model rule) and
    hot-region size (for coverage). *)

open Fv_isa
module C = Fv_pdg.Classify

type t = {
  invocations : int;
  trips : int;  (** total iterations across invocations *)
  avg_trip : float;
  dep_events : int;  (** dynamic cross-iteration dependency fires *)
  effective_vl : float;
      (** avg trip count / avg dependency events per invocation, capped
          at the trip count when no dependency ever fires *)
  hot_uops : int;  (** dynamic micro-ops inside the loop *)
  mem_uops : int;
  compute_uops : int;
  mem_ratio : float;  (** memory / compute micro-ops *)
  branches : int;
  branch_taken_ratio : float;
  coverage : float;  (** hot uops / whole-program uops *)
}
[@@deriving show { with_path = false }]

(** Place a profile in a program with a cold region of [other_uops]
    micro-ops around the hot loop (the paper computes coverage from
    rdtsc over whole-application runs; we model the cold region as a
    given instruction budget). Coverage is the only field that depends
    on the cold region. *)
let with_other_uops (p : t) ~other_uops : t =
  {
    p with
    coverage =
      float_of_int p.hot_uops /. float_of_int (max 1 (p.hot_uops + other_uops));
  }

(** Profile one or more invocations of [l], as if the hot loop were the
    whole program (coverage 1 if it ran; {!with_other_uops} adds a cold
    region). Each invocation gets a fresh clone of [mem]/[env]. *)
let profile ?(invocations = 1) (l : Fv_ir.Ast.loop)
    (mem : Fv_mem.Memory.t) (env : (string * Value.t) list) : t =
  let plan =
    match C.analyze l with
    | C.Vectorizable p -> Some p
    | C.Rejected _ -> None
  in
  let update_stmts, has_break, mem_pattern =
    match plan with
    | None -> ([], false, false)
    | Some p ->
        List.fold_left
          (fun (us, br, mc) pat ->
            match pat with
            | C.Cond_update cu -> (cu.update :: us, br, mc)
            | C.Early_exit _ -> (us, true, mc)
            | C.Mem_conflict _ -> (us, br, true)
            | C.Reduction _ -> (us, br, mc))
          ([], false, false) p.patterns
  in
  let break_ids =
    List.filter_map
      (fun (s : Fv_ir.Ast.stmt) ->
        if s.node = Fv_ir.Ast.Break then Some s.id else None)
      (Fv_ir.Ast.all_stmts l)
  in
  let trips = ref 0 and deps = ref 0 in
  let branches = ref 0 and taken = ref 0 in
  (* windowed conflict detection for the memory pattern: a load hitting
     an address stored by one of the previous VL-1 iterations *)
  let window = 16 in
  let recent_stores : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let cur_iter = ref 0 in
  let iter_stores : (int * int) Queue.t = Queue.create () in
  let on_store a =
    if mem_pattern then begin
      Hashtbl.replace recent_stores a !cur_iter;
      Queue.push (!cur_iter, a) iter_stores
    end
  in
  let on_load a =
    if mem_pattern then
      match Hashtbl.find_opt recent_stores a with
      | Some it when it <> !cur_iter && !cur_iter - it < window -> incr deps
      | _ -> ()
  in
  let on_iter i =
    cur_iter := i;
    incr trips;
    (* age out stores beyond the window *)
    let rec drain () =
      match Queue.peek_opt iter_stores with
      | Some (it, a) when i - it >= window ->
          (match Hashtbl.find_opt recent_stores a with
          | Some it' when it' = it -> Hashtbl.remove recent_stores a
          | _ -> ());
          ignore (Queue.pop iter_stores);
          drain ()
      | _ -> ()
    in
    drain ()
  in
  let on_stmt id =
    if List.mem id update_stmts then incr deps
    else if has_break && List.mem id break_ids then incr deps
  in
  let on_branch ~id:_ ~taken:t =
    incr branches;
    if t then incr taken
  in
  (* the micro-op mix, counted by class without recording the trace *)
  let counter = Fv_trace.Sink.create ~record:false () in
  let hk =
    Fv_ir.Interp.hooks ~on_iter ~on_stmt ~on_branch ~on_load ~on_store
      ~emit:counter ()
  in
  (* every profiled invocation clones the same initial [mem]/[env], so
     the interpreter's dynamic behaviour is invocation-invariant:
     interpret once and scale the totals — observably identical to
     looping [invocations] times, at 1/invocations of the cost *)
  Hashtbl.reset recent_stores;
  Queue.clear iter_stores;
  let m = Fv_mem.Memory.clone mem in
  let e = Fv_ir.Interp.env_of_list env in
  ignore (Fv_ir.Interp.run ~hk m e l);
  let mem_uops = ref 0 and compute_uops = ref 0 in
  List.iter
    (fun (cls, n) ->
      if Latency.is_mem cls then mem_uops := !mem_uops + n
      else if not (Latency.is_branch cls) then compute_uops := !compute_uops + n)
    (Fv_trace.Sink.histogram counter);
  let total_uops = ref (Fv_trace.Sink.length counter) in
  List.iter
    (fun r -> r := !r * invocations)
    [ trips; deps; mem_uops; compute_uops; total_uops; branches; taken ];
  let fi = float_of_int in
  let avg_trip = fi !trips /. fi (max 1 invocations) in
  let deps_per_inv = fi !deps /. fi (max 1 invocations) in
  let effective_vl =
    if deps_per_inv <= 0. then avg_trip else avg_trip /. deps_per_inv
  in
  {
    invocations;
    trips = !trips;
    avg_trip;
    dep_events = !deps;
    effective_vl;
    hot_uops = !total_uops;
    mem_uops = !mem_uops;
    compute_uops = !compute_uops;
    mem_ratio = fi !mem_uops /. fi (max 1 !compute_uops);
    branches = !branches;
    branch_taken_ratio = fi !taken /. fi (max 1 !branches);
    coverage = fi !total_uops /. fi (max 1 !total_uops);
  }
