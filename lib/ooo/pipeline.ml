(** Trace-driven out-of-order pipeline model.

    Replays a micro-op trace against the Table 1 machine: in-order
    dispatch into a ROB/RS (renaming via last-writer tracking),
    dataflow-driven issue limited by issue width and port counts
    (2 load / 1 store / N ALU), execution latencies from
    {!Fv_isa.Latency} plus the cache hierarchy for memory ops,
    store-to-load forwarding bounded by the store-queue window, gshare
    branch prediction with front-end redirect on mispredicts, and
    in-order commit.

    This is the paper's methodology (§5) with our IR/VIR traces standing
    in for LIT x86 traces. The model is intentionally simple where
    simplicity is conservative for FlexVec: e.g. every VPL back edge and
    fault check costs a real branch micro-op.

    Two scheduling modes produce bit-identical statistics:

    - [`Event] (the default) keeps a next-event heap (completions) and
      fast-forwards the cycle counter over provably inactive cycles —
      cycles in which no micro-op can complete, commit, dispatch or
      issue — accounting the skipped dispatch-stall cycles
      arithmetically. Simulated time is then proportional to the number
      of *events*, not the number of *cycles*, which matters for
      memory-bound traces (a 200-cycle miss is one event, not 200 loop
      iterations).
    - [`Step] increments the cycle counter by one and re-checks every
      structure each cycle — the original (slow) reference scheduler,
      kept for differential testing.

    The replay loop runs a few million micro-ops per bench section, so
    it reads the trace in the columnar form {!Fv_trace.Sink} records:
    register ids, element addresses and branch-label hashes are flat
    int-array reads, interned once as the emulator pushed each uop, and
    latency, throughput, port class and the branch flag come from
    per-code tables indexed by the class byte. The loop itself
    allocates nothing per micro-op — dependence edges live in a
    preallocated edge pool and completion-calendar buckets are
    intrusive int-array chains — so the GC never runs during a replay.
    The ROB is a ring buffer; the completion calendar is a power-of-two
    ring of cycle buckets (the completion horizon is bounded by the
    worst-case miss latency, and the ring grows if a pathological
    hierarchy exceeds it); and memory disambiguation is a direct-mapped
    [addr -> store id] array. Callers that replay the same trace many
    times memoize through {!Simcache}, keyed on the sink's content
    hash. *)

module Sink = Fv_trace.Sink

type mode = [ `Event  (** event-driven scheduler (default) *) | `Step ]

(** Per-uop stage cycles, filled by {!run} when a log is passed via
    [?record] — the raw material for simulated-time timelines
    ({!Timeline}). Arrays are indexed by uop id; [-1] means the uop
    never reached that stage (truncated run). Recording is off by
    default and adds nothing to the replay loop when off; with it on,
    the statistics are unchanged — the log only {e observes} the
    existing stage transitions. *)
type timing = {
  mutable t_dispatch : int array;
  mutable t_issue : int array;
  mutable t_complete : int array;
  mutable t_commit : int array;
}

let timing () : timing =
  { t_dispatch = [||]; t_issue = [||]; t_complete = [||]; t_commit = [||] }

type stats = {
  cycles : int;
  uops : int;
  ipc : float;
  branch_lookups : int;
  branch_mispredicts : int;
  l1_hit_rate : float;
  stall_rob : int;
  stall_rs : int;
  stall_lq : int;
  stall_sq : int;
  stall_redirect : int;
  loads : int;
  stores : int;
  truncated : bool;
      (** the [max_cycles] watchdog fired before every micro-op
          committed: [cycles]/[ipc] describe an unfinished run and must
          not be compared against completed runs *)
}

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "cycles=%d uops=%d ipc=%.2f br_miss=%d/%d l1=%.1f%% stalls(rob=%d rs=%d \
     lq=%d sq=%d redirect=%d)%s"
    s.cycles s.uops s.ipc s.branch_mispredicts s.branch_lookups
    (100. *. s.l1_hit_rate) s.stall_rob s.stall_rs s.stall_lq s.stall_sq
    s.stall_redirect
    (if s.truncated then " TRUNCATED" else "")

(* a simple binary min-heap of ints (uop ids / cycle numbers, smallest
   first; duplicates allowed). [top]/[drop_min] are only valid when
   [n > 0]; callers check, so no option allocation on the hot path. *)
module Heap = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let push h x =
    if h.n = Array.length h.a then begin
      let b = Array.make (2 * h.n) 0 in
      Array.blit h.a 0 b 0 h.n;
      h.a <- b
    end;
    h.a.(h.n) <- x;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while !i > 0 && h.a.((!i - 1) / 2) > h.a.(!i) do
      let p = (!i - 1) / 2 in
      let t = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- t;
      i := p
    done

  let top h = Array.unsafe_get h.a 0

  let drop_min h =
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.n && h.a.(l) < h.a.(!m) then m := l;
      if r < h.n && h.a.(r) < h.a.(!m) then m := r;
      if !m <> !i then begin
        let t = h.a.(!m) in
        h.a.(!m) <- h.a.(!i);
        h.a.(!i) <- t;
        i := !m
      end
      else continue_ := false
    done
end

type port_class = P_load | P_store | P_alu

(* byte encoding of [port_class] in {!Sink.pcls_of_code} *)
let b_load = Sink.b_load
and b_store = Sink.b_store

let empty_stats =
  {
    cycles = 0; uops = 0; ipc = 0.; branch_lookups = 0; branch_mispredicts = 0;
    l1_hit_rate = 1.0; stall_rob = 0; stall_rs = 0; stall_lq = 0; stall_sq = 0;
    stall_redirect = 0; loads = 0; stores = 0; truncated = false;
  }

(** Replay [trace] against [cfg] and [hier]. [?record] fills a
    stage-cycle log; [?budget] is polled every 4096 scheduler rounds. *)
let run ?budget ?(cfg = Machine.table1)
    ?(hier = Fv_memsys.Hierarchy.table1 ()) ?(mode : mode = `Event)
    ?(max_cycles = 400_000_000) ?(record : timing option) (trace : Sink.t) :
    stats =
  let n = Sink.length trace in
  (match record with
  | Some r ->
      r.t_dispatch <- Array.make n (-1);
      r.t_issue <- Array.make n (-1);
      r.t_complete <- Array.make n (-1);
      r.t_commit <- Array.make n (-1)
  | None -> ());
  if n = 0 then empty_stats
  else begin
    let cls = trace.Sink.cls
    and flags = trace.Sink.flags
    and dst_id = trace.Sink.dst
    and src_off = trace.Sink.src_off
    and src_ids = trace.Sink.srcs
    and addr_of = trace.Sink.addr
    and nelems_of = trace.Sink.nelems
    and lbl_hash = trace.Sink.lbl_hash in
    let no_addr = Sink.no_addr in
    (* per-code facts, looked up through the class byte *)
    let code i = Char.code (Bytes.unsafe_get cls i) in
    let pcls_of i =
      Array.unsafe_get Sink.pcls_of_code (Char.code (Bytes.unsafe_get cls i))
    in
    (* stage-cycle log: one guarded array store per stage transition
       when recording; a single always-false test when not *)
    let rec_on = record <> None in
    let rd, ri, rc, rm =
      match record with
      | Some r -> (r.t_dispatch, r.t_issue, r.t_complete, r.t_commit)
      | None -> ([||], [||], [||], [||])
    in
    (* per-uop state *)
    let pending = Array.make n 0 in
    (* dependence edges as a preallocated pool of intrusive lists:
       [dep_head.(p)] is producer [p]'s newest edge, [dep_to]/[dep_next]
       its consumer and the next edge. Each dispatched uop adds at most
       one edge per source operand plus one store-forwarding edge, so
       the pool never grows. *)
    let dep_head = Array.make n (-1) in
    let dep_to = Array.make (trace.Sink.nsrcs + n) 0 in
    let dep_next = Array.make (trace.Sink.nsrcs + n) (-1) in
    let dep_cnt = ref 0 in
    let completed = Bytes.make n '\000' in
    let is_completed i = Bytes.unsafe_get completed i <> '\000' in
    let in_rs = Bytes.make n '\000' in
    (* renaming: logical register id -> last writer uop id (-1: none) *)
    let last_writer = Array.make (max 1 (Sink.nregs trace)) (-1) in
    (* memory disambiguation: element address -> last *in-flight* store
       uop id (-1: none), direct-mapped since the address space is a
       small bump-allocated range. Entries are pruned when their store
       commits (leaves the SQ), so a load can neither forward from nor
       depend on a store that drained long ago — previously this table
       grew without bound across the concatenated invocations of a
       workload trace and granted forwarding from stores of earlier
       invocations. Negative addresses (unmapped speculative accesses)
       spill to a hashtable. *)
    let ls_arr = ref (Array.make 4096 (-1)) in
    let ls_neg : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let ls_get e =
      if e >= 0 then begin
        let a = !ls_arr in
        if e < Array.length a then Array.unsafe_get a e else -1
      end
      else match Hashtbl.find_opt ls_neg e with Some s -> s | None -> -1
    in
    let ls_set e i =
      if e >= 0 then begin
        (if e >= Array.length !ls_arr then begin
           let ns = ref (2 * Array.length !ls_arr) in
           while e >= !ns do ns := 2 * !ns done;
           let b = Array.make !ns (-1) in
           Array.blit !ls_arr 0 b 0 (Array.length !ls_arr);
           ls_arr := b
         end);
        (!ls_arr).(e) <- i
      end
      else Hashtbl.replace ls_neg e i
    in
    (* drop [e -> i] if still present (the store commits) *)
    let ls_clear e i =
      if e >= 0 then begin
        let a = !ls_arr in
        if e < Array.length a && a.(e) = i then a.(e) <- -1
      end
      else
        match Hashtbl.find_opt ls_neg e with
        | Some s when s = i -> Hashtbl.remove ls_neg e
        | _ -> ()
    in
    let predictor = Predictor.create () in
    (* ROB: ring buffer of uop ids (capacity: rob_size rounded up to a
       power of two so the index wrap is a mask) *)
    let rob_cap =
      let c = ref 1 in
      while !c < cfg.Machine.rob_size do
        c := 2 * !c
      done;
      !c
    in
    let rob = Array.make rob_cap 0 in
    let rob_head = ref 0 and rob_len = ref 0 in
    let rs_used = ref 0 and lq_used = ref 0 and sq_used = ref 0 in
    (* ready heaps per port class *)
    let ready_load = Heap.create ()
    and ready_store = Heap.create ()
    and ready_alu = Heap.create () in
    let heap_of = function
      | P_load -> ready_load
      | P_store -> ready_store
      | P_alu -> ready_alu
    in
    let heap_of_b b =
      if b = b_load then ready_load
      else if b = b_store then ready_store
      else ready_alu
    in
    (* ports: next-free cycle per unit *)
    let load_ports = Array.make cfg.Machine.load_ports 0 in
    let store_ports = Array.make cfg.Machine.store_ports 0 in
    let alu_ports = Array.make cfg.Machine.alu_ports 0 in
    let ports_of = function
      | P_load -> load_ports
      | P_store -> store_ports
      | P_alu -> alu_ports
    in
    (* Completion calendar: a power-of-two ring of cycle buckets plus a
       next-event heap over the live bucket times. A bucket is an
       intrusive chain threaded through [comp_next] — each uop is
       scheduled for completion exactly once, so one next-pointer per
       uop suffices and nothing is allocated. Live completions all lie
       within the worst-case miss latency of the current cycle, far
       below the ring size, so two live times never alias — if an
       exotic hierarchy ever exceeds the horizon the ring doubles. *)
    let cal_size = ref 1024 in
    let cal_time = ref (Array.make !cal_size (-1)) in
    let cal_head = ref (Array.make !cal_size (-1)) in
    let comp_next = Array.make n (-1) in
    let events = Heap.create () in
    let grow_calendar () =
      let old_n = !cal_size and old_t = !cal_time and old_h = !cal_head in
      cal_size := 2 * old_n;
      cal_time := Array.make !cal_size (-1);
      cal_head := Array.make !cal_size (-1);
      for idx = 0 to old_n - 1 do
        let t = old_t.(idx) in
        if t >= 0 then begin
          let j = t land (!cal_size - 1) in
          (!cal_time).(j) <- t;
          (!cal_head).(j) <- old_h.(idx)
        end
      done
    in
    let rec schedule_completion i t =
      let idx = t land (!cal_size - 1) in
      let tm = (!cal_time).(idx) in
      if tm = t then begin
        comp_next.(i) <- (!cal_head).(idx);
        (!cal_head).(idx) <- i
      end
      else if tm < 0 then begin
        (!cal_time).(idx) <- t;
        comp_next.(i) <- -1;
        (!cal_head).(idx) <- i;
        Heap.push events t
      end
      else begin
        grow_calendar ();
        schedule_completion i t
      end
    in
    let next_dispatch = ref 0 in
    let redirect_until = ref (-1) in
    let redirect_waiting_on = ref (-1) in
    let cycle = ref 0 in
    let committed = ref 0 in
    let stall_rob = ref 0 and stall_rs = ref 0 and stall_lq = ref 0
    and stall_sq = ref 0 and stall_redirect = ref 0 in
    let nloads = ref 0 and nstores = ref 0 in
    let forward_lat = Array.make n (-1) in
    (* -1: not a forwarded load *)
    (* producer scratch buffer: the deduplicated producer set of the uop
       being dispatched (order is irrelevant — each distinct producer
       gets one dependence edge) *)
    let pbuf = ref (Array.make 16 0) in
    let pcnt = ref 0 in
    let add_producer p =
      let b = !pbuf in
      let m = !pcnt in
      let dup = ref false in
      for k = 0 to m - 1 do
        if b.(k) = p then dup := true
      done;
      if not !dup then begin
        (if m = Array.length b then begin
           let nb = Array.make (2 * m) 0 in
           Array.blit b 0 nb 0 m;
           pbuf := nb
         end);
        (!pbuf).(m) <- p;
        pcnt := m + 1
      end
    in

    (* One cycle of the machine; identical in both modes. *)
    let do_cycle c =
      (* 1. process completions scheduled for this cycle *)
      let cidx = c land (!cal_size - 1) in
      if (!cal_time).(cidx) = c then begin
        let comps = (!cal_head).(cidx) in
        (!cal_time).(cidx) <- -1;
        (!cal_head).(cidx) <- -1;
        let cur = ref comps in
        while !cur >= 0 do
          let i = !cur in
          cur := comp_next.(i);
          Bytes.unsafe_set completed i '\001';
          if rec_on then rc.(i) <- c;
          if !redirect_waiting_on = i then begin
            redirect_until := c + cfg.Machine.mispredict_penalty;
            redirect_waiting_on := -1
          end;
          let e = ref dep_head.(i) in
          while !e >= 0 do
            let d = Array.unsafe_get dep_to !e in
            e := Array.unsafe_get dep_next !e;
            let p = Array.unsafe_get pending d - 1 in
            Array.unsafe_set pending d p;
            if p = 0 && Bytes.unsafe_get in_rs d <> '\000' then
              Heap.push (heap_of_b (pcls_of d)) d
          done
        done
      end;
      (* 2. commit in order; a committing store leaves the SQ, so its
         disambiguation entries are dropped *)
      let comms = ref 0 in
      let continue_commit = ref true in
      while !continue_commit && !comms < cfg.Machine.commit_width do
        if !rob_len > 0 && is_completed rob.(!rob_head) then begin
          let i = rob.(!rob_head) in
          if rec_on then rm.(i) <- c;
          rob_head := (!rob_head + 1) land (rob_cap - 1);
          decr rob_len;
          let b = pcls_of i in
          if b = b_load then decr lq_used
          else if b = b_store then begin
            decr sq_used;
            let a = Array.unsafe_get addr_of i in
            if a <> no_addr then
              for e = a to a + Array.unsafe_get nelems_of i - 1 do
                ls_clear e i
              done
          end;
          incr committed;
          incr comms
        end
        else continue_commit := false
      done;
      (* 3. dispatch in order *)
      let disp = ref 0 in
      let continue_dispatch = ref true in
      while
        !continue_dispatch
        && !disp < cfg.Machine.dispatch_width
        && !next_dispatch < n
      do
        let i = !next_dispatch in
        let b = pcls_of i in
        if !redirect_waiting_on >= 0 || c < !redirect_until then begin
          incr stall_redirect;
          continue_dispatch := false
        end
        else if !rob_len >= cfg.Machine.rob_size then begin
          incr stall_rob;
          continue_dispatch := false
        end
        else if !rs_used >= cfg.Machine.rs_size then begin
          incr stall_rs;
          continue_dispatch := false
        end
        else if b = b_load && !lq_used >= cfg.Machine.lq_size then begin
          incr stall_lq;
          continue_dispatch := false
        end
        else if b = b_store && !sq_used >= cfg.Machine.sq_size then begin
          incr stall_sq;
          continue_dispatch := false
        end
        else begin
          (* rename: collect producers *)
          pcnt := 0;
          for k = Array.unsafe_get src_off i to Array.unsafe_get src_off (i + 1) - 1 do
            let p = Array.unsafe_get last_writer (Array.unsafe_get src_ids k) in
            if p >= 0 && not (is_completed p) then add_producer p
          done;
          (if b = b_load then begin
             incr nloads;
             (* store forwarding: the youngest in-flight older store
                overlapping any of the load's elements. Full forwarding
                requires that single store's address range to cover the
                load's whole range — a partially-overlapping store,
                however wide, forces the load to wait and then read the
                cache. *)
             let a = Array.unsafe_get addr_of i in
             if a <> no_addr then begin
               let ne = Array.unsafe_get nelems_of i in
               let dep = ref (-1) in
               for e = a to a + ne - 1 do
                 let s = ls_get e in
                 if s > !dep then dep := s
               done;
               if !dep >= 0 then begin
                 let s = !dep in
                 if not (is_completed s) then add_producer s;
                 let da = Array.unsafe_get addr_of s in
                 let covers =
                   da <> no_addr
                   && da <= a
                   && a + ne <= da + Array.unsafe_get nelems_of s
                 in
                 if covers then
                   forward_lat.(i) <- cfg.Machine.store_forward_latency
               end
             end
           end
           else if b = b_store then begin
             incr nstores;
             let a = Array.unsafe_get addr_of i in
             if a <> no_addr then
               for e = a to a + Array.unsafe_get nelems_of i - 1 do
                 ls_set e i
               done
           end);
          pending.(i) <- !pcnt;
          for k = 0 to !pcnt - 1 do
            let p = (!pbuf).(k) in
            let e = !dep_cnt in
            dep_cnt := e + 1;
            Array.unsafe_set dep_to e i;
            Array.unsafe_set dep_next e (Array.unsafe_get dep_head p);
            Array.unsafe_set dep_head p e
          done;
          (let d = Array.unsafe_get dst_id i in
           if d >= 0 then Array.unsafe_set last_writer d i);
          rob.((!rob_head + !rob_len) land (rob_cap - 1)) <- i;
          incr rob_len;
          if b = b_load then incr lq_used
          else if b = b_store then incr sq_used;
          incr rs_used;
          Bytes.unsafe_set in_rs i '\001';
          if !pcnt = 0 then Heap.push (heap_of_b b) i;
          (* branch prediction *)
          if Array.unsafe_get Sink.isbr_of_code (code i) then begin
            let miss =
              Predictor.mispredicted_hash predictor
                ~h:(Array.unsafe_get lbl_hash i)
                ~taken:(Char.code (Bytes.unsafe_get flags i) land Sink.b_taken <> 0)
            in
            if miss then redirect_waiting_on := i
          end;
          if rec_on then rd.(i) <- c;
          incr next_dispatch;
          incr disp
        end
      done;
      (* 4. issue: oldest-first per port class, bounded by issue width *)
      let issued = ref 0 in
      let try_issue pc =
        let h = heap_of pc in
        let ports = ports_of pc in
        let np = Array.length ports in
        let continue_issue = ref true in
        while !continue_issue && !issued < cfg.Machine.issue_width do
          if h.Heap.n = 0 then continue_issue := false
          else begin
            let i = Heap.top h in
            (* find a free port unit *)
            let port = ref (-1) in
            let pi = ref 0 in
            while !port < 0 && !pi < np do
              if Array.unsafe_get ports !pi <= c then port := !pi;
              incr pi
            done;
            if !port < 0 then continue_issue := false
            else begin
              Heap.drop_min h;
              if rec_on then ri.(i) <- c;
              let base_lat = Array.unsafe_get Sink.lat_of_code (code i) in
              let b = pcls_of i in
              let lat =
                if b = b_load then
                  if forward_lat.(i) >= 0 then forward_lat.(i)
                  else begin
                    let a = Array.unsafe_get addr_of i in
                    base_lat
                    + Fv_memsys.Hierarchy.access_range hier
                        (if a = no_addr then 0 else a)
                        (Array.unsafe_get nelems_of i)
                  end
                else if b = b_store then begin
                  let a = Array.unsafe_get addr_of i in
                  if a <> no_addr then
                    ignore
                      (Fv_memsys.Hierarchy.access_range hier a
                         (Array.unsafe_get nelems_of i));
                  base_lat
                end
                else base_lat
              in
              ports.(!port) <- c + Array.unsafe_get Sink.recip_of_code (code i);
              decr rs_used;
              Bytes.unsafe_set in_rs i '\000';
              schedule_completion i (c + max 1 lat);
              incr issued
            end
          end
        done
      in
      try_issue P_load;
      try_issue P_store;
      try_issue P_alu
    in

    (* Event-driven fast-forward: after executing cycle [c], find the
       earliest future cycle at which the stepped model could do
       anything at all. Between [c] and that cycle the machine state is
       provably frozen, so the only stepped-model effect to replicate is
       the one dispatch-stall increment per blocked cycle. *)
    let advance () =
      let c = !cycle in
      let cand = ref max_int in
      let add t = if t > c && t < !cand then cand := t in
      (* next completion event (drop keys already processed) *)
      while events.Heap.n > 0 && Heap.top events <= c do
        Heap.drop_min events
      done;
      if events.Heap.n > 0 then add (Heap.top events);
      (* commit possible next cycle? *)
      if !rob_len > 0 && is_completed rob.(!rob_head) then add (c + 1);
      (* dispatch possible once the redirect window closes? *)
      if !next_dispatch < n then begin
        let b = pcls_of !next_dispatch in
        let blocked =
          !rob_len >= cfg.Machine.rob_size
          || !rs_used >= cfg.Machine.rs_size
          || (b = b_load && !lq_used >= cfg.Machine.lq_size)
          || (b = b_store && !sq_used >= cfg.Machine.sq_size)
        in
        if !redirect_waiting_on < 0 && not blocked then
          add (max (c + 1) !redirect_until)
      end;
      (* issue possible once a port frees up? *)
      let issue_cand pc =
        if (heap_of pc).Heap.n > 0 then begin
          let ports = ports_of pc in
          let earliest = ref max_int in
          for pi = 0 to Array.length ports - 1 do
            let f = Array.unsafe_get ports pi in
            if f < !earliest then earliest := f
          done;
          if !earliest < max_int then add (max (c + 1) !earliest)
        end
      in
      issue_cand P_load;
      issue_cand P_store;
      issue_cand P_alu;
      let target = if !cand = max_int then max_cycles else min !cand max_cycles in
      (* replicate the stepped model's one-stall-per-blocked-cycle
         accounting over the skipped cycles c+1 .. target-1 *)
      let skipped = target - c - 1 in
      if skipped > 0 && !next_dispatch < n then begin
        if !redirect_waiting_on >= 0 then
          stall_redirect := !stall_redirect + skipped
        else begin
          let r = min skipped (max 0 (!redirect_until - (c + 1))) in
          stall_redirect := !stall_redirect + r;
          let rest = skipped - r in
          if rest > 0 then begin
            let b = pcls_of !next_dispatch in
            if !rob_len >= cfg.Machine.rob_size then
              stall_rob := !stall_rob + rest
            else if !rs_used >= cfg.Machine.rs_size then
              stall_rs := !stall_rs + rest
            else if b = b_load && !lq_used >= cfg.Machine.lq_size then
              stall_lq := !stall_lq + rest
            else if b = b_store && !sq_used >= cfg.Machine.sq_size then
              stall_sq := !stall_sq + rest
            (* otherwise dispatch would have been possible inside the
               skipped range, contradicting the candidate set — the
               differential tests guard this invariant *)
          end
        end
      end;
      cycle := target
    in
    (* budget poll, amortized: one clock read every 4096 scheduler
       rounds. The [None] arm costs one closure call per round and
       touches no counter the statistics are computed from, so the
       budget-off run is bit-identical (guarded by the budget-off
       suite). *)
    let poll =
      match budget with
      | None -> fun () -> ()
      | Some b ->
          let tick = ref 0 in
          fun () ->
            incr tick;
            if !tick land 4095 = 0 then Fv_parallel.Budget.check b
    in
    while !committed < n && !cycle < max_cycles do
      poll ();
      do_cycle !cycle;
      match mode with
      | `Step -> incr cycle
      | `Event -> if !committed >= n then incr cycle else advance ()
    done;
    {
      cycles = !cycle;
      uops = n;
      ipc = float_of_int n /. float_of_int (max 1 !cycle);
      branch_lookups = predictor.Predictor.lookups;
      branch_mispredicts = predictor.Predictor.mispredicts;
      l1_hit_rate = Fv_memsys.Cache.hit_rate hier.Fv_memsys.Hierarchy.l1;
      stall_rob = !stall_rob;
      stall_rs = !stall_rs;
      stall_lq = !stall_lq;
      stall_sq = !stall_sq;
      stall_redirect = !stall_redirect;
      loads = !nloads;
      stores = !nstores;
      truncated = !committed < n;
    }
  end
