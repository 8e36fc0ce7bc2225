(** RTM-based execution of FlexVec vector code (paper §3.3.2 / §4.1,
    Figs. 3 and 5f).

    Instead of first-faulting loads, the original loop is strip-mined
    into tiles of [tile] scalar iterations; the vectorized inner loop of
    each tile runs inside a hardware transaction using {e plain} loads
    and gathers. A speculative fault aborts the transaction; the abort
    handler rolls the tile back and re-executes it with the scalar
    interpreter. XBEGIN/XEND/XABORT costs appear in the micro-op trace,
    which is what makes the tile size a real tuning knob: "with smaller
    regions the RTM overhead cancels out the vectorization benefit"
    (§4.1). *)

open Fv_vir.Inst
module Memory = Fv_mem.Memory
module Sink = Fv_trace.Sink

(** Rewrite first-faulting accesses into their plain (trapping)
    counterparts and drop the fault checks: inside a transaction the
    abort path subsumes them. *)
let strip_ff (vl : vloop) : vloop =
  let rec stmt (s : vstmt) : vstmt option =
    match s with
    | I (Load_ff (d, k, arr, off)) -> Some (I (Load (d, k, arr, off)))
    | I (Gather_ff (d, k, arr, idx)) -> Some (I (Gather (d, k, arr, idx)))
    | Fault_check _ -> None
    | I _ | Set_break _ | Scalar_run _ -> Some s
    | Vpl v -> Some (Vpl { v with body = List.filter_map stmt v.body })
    | If_any i ->
        Some
          (If_any
             {
               i with
               then_ = List.filter_map stmt i.then_;
               else_ = List.filter_map stmt i.else_;
             })
  in
  { vl with strip = List.filter_map stmt vl.strip }

type rtm_stats = {
  tiles : int;
  commits : int;
  aborts : int;  (** every aborted attempt, whatever the cause *)
  capacity_aborts : int;
      (** aborts whose tile footprint exceeded the read/write-set
          capacity — never retried *)
  retries : int;  (** transactional re-attempts after injected-fault aborts *)
  retried_commits : int;  (** tiles that committed on a retry attempt *)
  scalar_iters : int;  (** iterations re-executed scalar after aborts *)
  exec : Exec.stats;  (** accumulated vector-execution statistics *)
}

let pp_rtm_stats ppf (s : rtm_stats) =
  Fmt.pf ppf
    "tiles=%d commits=%d aborts=%d capacity_aborts=%d retries=%d \
     retried_commits=%d scalar_iters=%d"
    s.tiles s.commits s.aborts s.capacity_aborts s.retries s.retried_commits
    s.scalar_iters

(** Field-wise sum — accumulate per-invocation statistics over a hot
    run. [exec.broke] is or-ed. *)
let combine (a : rtm_stats) (b : rtm_stats) : rtm_stats =
  { tiles = a.tiles + b.tiles; commits = a.commits + b.commits;
    aborts = a.aborts + b.aborts;
    capacity_aborts = a.capacity_aborts + b.capacity_aborts;
    retries = a.retries + b.retries;
    retried_commits = a.retried_commits + b.retried_commits;
    scalar_iters = a.scalar_iters + b.scalar_iters;
    exec = Exec.sum a.exec b.exec }

(** Transactional re-attempts of a tile after an injected-fault abort
    before it falls back to scalar re-execution. A persistent fault
    thus costs three aborted attempts at most. *)
let retries = 2

(** Execute [vloop] in strip-mined transactional tiles of [tile] scalar
    iterations. Semantically equivalent to the scalar loop.

    Abort policy: a fault inside the transaction rolls the tile back to
    its checkpoint ({!Fv_rtm.Rtm.checkpoint}). If the fault was
    {e injected} (transient — Intel's abort status would set the
    retry-is-worthwhile hint) and the tile's footprint stayed within the
    read/write-set capacity, the tile is re-attempted transactionally up
    to {!retries} more times before falling back to scalar re-execution.
    Genuine faults and capacity overflows go straight to scalar: a
    genuine fault is deterministic, and an overflowing tile would only
    overflow again. With no injection plan attached the retry machinery
    is never entered, so the uop trace is identical to the no-retry
    model. *)
let run ?budget ?emit ?annot ?(capacity_elems = 6144) ~(tile : int)
    (vloop : vloop) (mem : Memory.t) (env : Fv_ir.Interp.env) : rtm_stats =
  if tile < vloop.vl then invalid_arg "Rtm_run.run: tile smaller than VL";
  let vloop = strip_ff vloop in
  (* the XBEGIN / XEND / XABORT chain through reserved register rtm *)
  let rtm_uop cls ~reads ~writes =
    match emit with
    | Some s ->
        let r = Sink.internal s Sink.r_rtm in
        if reads then Sink.src s r;
        Sink.uop s cls ~dst:(if writes then r else -1)
    | None -> ()
  in
  let note kind = match annot with Some f -> f kind | None -> () in
  let lo = Fv_ir.Interp.eval_int mem env vloop.source.lo in
  let hi = Fv_ir.Interp.eval_int mem env vloop.source.hi in
  (* the scalar interpreter over the source loop, set up once per run:
     the scalar tiles call it once per iteration *)
  let scalar_iter =
    lazy
      (Fv_ir.Interp.run_iteration ~hk:(Fv_ir.Interp.hooks ?emit ()) mem env
         vloop.source)
  in
  let total = ref (Exec.fresh_stats ()) in
  let tiles = ref 0 and commits = ref 0 and aborts = ref 0 in
  let capacity_aborts = ref 0 and retry_count = ref 0 in
  let retried_commits = ref 0 in
  let scalar_iters = ref 0 in
  let broke = ref false in
  let t0 = ref lo in
  let const i = Fv_ir.Ast.Const (Fv_isa.Value.Int i) in
  while !t0 < hi && not !broke do
    (* poll per tile, never inside one: a transaction either commits or
       aborts whole, so cancellation lands only at tile boundaries and
       memory is left at a consistent checkpoint *)
    Fv_parallel.Budget.check_opt budget;
    incr tiles;
    let th = min (!t0 + tile) hi in
    let tile_loop =
      { vloop with source = { vloop.source with lo = const !t0; hi = const th } }
    in
    (* scalar re-execution of the whole tile — shared abort handler *)
    let scalar_tile () =
      let scalar_iter = Lazy.force scalar_iter in
      for i = !t0 to th - 1 do
        if not !broke then begin
          incr scalar_iters;
          match scalar_iter i with
          | `Ok -> ()
          | `Break -> broke := true
        end
      done
    in
    (* [attempt n]: transactional attempt number [n] (0 = first try) of
       this tile, from a fresh checkpoint each time; bounded recursion
       by [retries]. *)
    let rec attempt n =
      let ck = Fv_rtm.Rtm.checkpoint mem env in
      let l0 = mem.Memory.loads and s0 = mem.Memory.stores in
      rtm_uop Fv_isa.Latency.Xbegin ~reads:false ~writes:true;
      match Exec.run ?emit ?annot ~injected_trap:true tile_loop mem env with
      | stats
        when mem.Memory.loads - l0 + (mem.Memory.stores - s0) > capacity_elems
        ->
          (* resource overflow: the transaction's footprint exceeds the
             L1 write/read-set capacity and it aborts ("too large of a
             region may cause transactions to abort more frequently due
             to resource overflow", §3.3.2) *)
          ignore stats;
          rtm_uop Fv_isa.Latency.Xabort ~reads:true ~writes:true;
          note "rtm:abort:capacity";
          incr aborts;
          incr capacity_aborts;
          Fv_rtm.Rtm.rollback ck;
          scalar_tile ()
      | stats ->
          rtm_uop Fv_isa.Latency.Xend ~reads:true ~writes:false;
          incr commits;
          if n > 0 then incr retried_commits;
          total := Exec.sum !total stats;
          if stats.Exec.broke then broke := true
      | exception Memory.Fault f ->
          rtm_uop Fv_isa.Latency.Xabort ~reads:true ~writes:true;
          note "rtm:abort";
          incr aborts;
          (* footprint accumulated before the fault: a tile that blew
             the capacity *and* faulted is a capacity abort — it must
             not be retried, it would only overflow again *)
          let over_capacity =
            mem.Memory.loads - l0 + (mem.Memory.stores - s0) > capacity_elems
          in
          Fv_rtm.Rtm.rollback ck;
          if over_capacity then begin
            incr capacity_aborts;
            scalar_tile ()
          end
          else if f.Memory.injected && n < retries then begin
            incr retry_count;
            note "rtm:retry";
            attempt (n + 1)
          end
          else scalar_tile ()
    in
    attempt 0;
    t0 := !t0 + tile
  done;
  (* a zero-trip loop starts no tile; its one pass through the vector
     code records the bounds check a first-faulting run records *)
  if lo >= hi then total := Exec.run ?budget ?emit ?annot vloop mem env;
  { tiles = !tiles; commits = !commits; aborts = !aborts;
    capacity_aborts = !capacity_aborts; retries = !retry_count;
    retried_commits = !retried_commits; scalar_iters = !scalar_iters;
    exec = { !total with Exec.broke = !broke } }
