(** The three-level cache hierarchy of the paper's Table 1:

    {v
    L1 Dcache   32K, 8 way,  4 cycles load-to-use
    L2 unified  256K, 8 way, 12 cycles hit time
    L3          8M, 32 way,  25 cycles hit time
    Memory      200 cycles
    v} *)

type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  l1_lat : int;
  l2_lat : int;
  l3_lat : int;
  mem_lat : int;
  prefetch_streams : int array;  (** stream table: recently seen lines *)
  prefetch_depth : int;
  mutable prefetches : int;
}

let table1 ?(prefetch_depth = 4) () : t =
  {
    l1 = Cache.create ~name:"L1D" ~size_bytes:(32 * 1024) ~ways:8 ();
    l2 = Cache.create ~name:"L2" ~size_bytes:(256 * 1024) ~ways:8 ();
    l3 = Cache.create ~name:"L3" ~size_bytes:(8 * 1024 * 1024) ~ways:32 ();
    l1_lat = 4;
    l2_lat = 12;
    l3_lat = 25;
    mem_lat = 200;
    prefetch_streams = Array.make 16 (-100);
    prefetch_depth;
    prefetches = 0;
  }

let fill_only (h : t) (addr : int) : unit =
  ignore (Cache.access h.l1 addr);
  ignore (Cache.access h.l2 addr);
  ignore (Cache.access h.l3 addr)

(** Next-line stream prefetcher: if this line or its predecessor was
    seen recently, asynchronously fill the next [prefetch_depth] lines.
    Models the L1/L2 streamers every modern x86 core has; gathers to
    scattered lines do not train it, which preserves the paper's point
    that irregular access remains memory bound (§5: prefetchers also do
    not cross page boundaries — irrelevant at our working-set sizes). *)
let prefetch (h : t) (line : int) : unit =
  let slot = line land 15 in
  let prev = h.prefetch_streams.(slot) in
  h.prefetch_streams.((line + 1) land 15) <- line + 1;
  if prev = line || prev = line - 1 || h.prefetch_streams.(line land 15) = line - 1
  then begin
    let le = h.l1.Cache.line_elems in
    for d = 1 to h.prefetch_depth do
      h.prefetches <- h.prefetches + 1;
      fill_only h ((line + d) * le)
    done
  end

(** Latency of accessing one element address, filling lines on the way. *)
let access (h : t) (addr : int) : int =
  let line = Cache.line_of h.l1 addr in
  let lat =
    if Cache.access h.l1 addr then h.l1_lat
    else if Cache.access h.l2 addr then h.l2_lat
    else if Cache.access h.l3 addr then h.l3_lat
    else h.mem_lat
  in
  prefetch h line;
  lat

(** Latency of an access spanning [nelems] consecutive elements (a
    unit-stride vector load/store): worst line wins; all lines fill. *)
let access_range (h : t) (addr : int) (nelems : int) : int =
  let line = h.l1.Cache.line_elems in
  let first = Cache.line_of h.l1 addr
  and last = Cache.line_of h.l1 (addr + max 1 nelems - 1) in
  let lat = ref 0 in
  for l = first to last do
    lat := max !lat (access h (l * line))
  done;
  !lat

(** Restore the state [table1 ~prefetch_depth:h.prefetch_depth ()]
    builds; costs what the last use touched. *)
let reset (h : t) =
  Cache.reset h.l1;
  Cache.reset h.l2;
  Cache.reset h.l3;
  Array.fill h.prefetch_streams 0 (Array.length h.prefetch_streams) (-100);
  h.prefetches <- 0

(* Free hierarchies by prefetch depth, shared by every domain. Not
   [Domain.DLS]: pool workers end with every one-shot map and at every
   idle point of the daemon, so per-domain state would die with them. *)
let free_lock = Mutex.create ()
let free : (int, t list) Hashtbl.t = Hashtbl.create 4

(** [with_cold ~prefetch_depth f] runs [f] on a hierarchy in exactly the
    state [table1 ~prefetch_depth ()] builds, without allocating one: it
    takes a free hierarchy from a process-wide pool (building one only
    when none is free, counted as [sim_hierarchies_built]), resets it,
    and returns it to the pool when [f] returns or raises. A hierarchy
    returned dirty by a canceled replay is cleaned by the next reset,
    and the pool holds at most as many hierarchies per depth as were
    ever in use at once. [f] must not keep the hierarchy. *)
let with_cold ?(prefetch_depth = 4) (f : t -> 'a) : 'a =
  let free_list () =
    Option.value ~default:[] (Hashtbl.find_opt free prefetch_depth)
  in
  let taken =
    Mutex.protect free_lock (fun () ->
        match free_list () with
        | h :: rest ->
            Hashtbl.replace free prefetch_depth rest;
            Some h
        | [] -> None)
  in
  let h =
    match taken with
    | Some h ->
        reset h;
        h
    | None ->
        Fv_obs.Metrics.incr Fv_obs.Metrics.global "sim_hierarchies_built";
        table1 ~prefetch_depth ()
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect free_lock (fun () ->
          Hashtbl.replace free prefetch_depth (h :: free_list ())))
    (fun () -> f h)

let pp ppf (h : t) =
  Fmt.pf ppf "%a@.%a@.%a" Cache.pp h.l1 Cache.pp h.l2 Cache.pp h.l3
