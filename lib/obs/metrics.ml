(** Labeled counter / gauge / histogram registry with per-domain shards.

    Recording writes only the calling domain's shard, so the parallel
    pool's workers never contend on a cell: the one cross-domain lock is
    taken per {e shard lookup} (cheap, uncontended after the first event
    of a domain) and at {!snapshot}, which merges every shard into one
    sorted, deterministic view. Counters and histogram buckets merge by
    summation, so an aggregate over the same events is identical
    whatever the domain count; gauges merge by maximum (the only
    deterministic choice without a cross-domain ordering of writes).

    Recording is cheap (a hashtable hit and an integer bump) but not
    free: instrument per-run / per-row / per-strip events, never the
    per-uop simulation hot path — that is what {!Span} recorders and the
    pipeline's cycle log (both off by default) are for. *)

type kind = Counter | Gauge | Histogram

let show_kind = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(** Histogram bucket upper bounds (seconds-flavoured log scale; the
    last bucket is the +inf overflow). *)
let bucket_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0; 100.0 |]

type cell = {
  kind : kind;
  mutable count : int;  (** counter value / histogram observation count *)
  mutable sum : float;  (** histogram sum / gauge value *)
  buckets : int array;  (** histograms only; length [bucket_bounds]+1 *)
}

type key = { k_name : string; k_labels : (string * string) list }

type shard = (key, cell) Hashtbl.t

type t = {
  lock : Mutex.t;
  mutable shards : (int * shard) list;  (** domain id -> its shard *)
  retired : shard;
      (** events of domains that have terminated, folded in by
          {!retire}; merged into every snapshot exactly like one more
          shard *)
}

let create () : t =
  { lock = Mutex.create (); shards = []; retired = Hashtbl.create 32 }

(** The process-wide registry the built-in instrumentation records
    into; reports snapshot (and usually reset) it per section. *)
let global : t = create ()

let shard_for (t : t) : shard =
  let did = (Domain.self () :> int) in
  Mutex.protect t.lock (fun () ->
      match List.assoc_opt did t.shards with
      | Some s -> s
      | None ->
          let s = Hashtbl.create 32 in
          t.shards <- (did, s) :: t.shards;
          s)

let key name labels =
  { k_name = name; k_labels = List.sort compare labels }

let cell_for (t : t) (kind : kind) name labels : cell =
  let s = shard_for t in
  let k = key name labels in
  match Hashtbl.find_opt s k with
  | Some c -> c
  | None ->
      let c =
        {
          kind;
          count = 0;
          sum = 0.0;
          buckets =
            (match kind with
            | Histogram -> Array.make (Array.length bucket_bounds + 1) 0
            | Counter | Gauge -> [||]);
        }
      in
      Hashtbl.replace s k c;
      c

(** Add [by] (default 1) to a counter. [count] and [sum] advance in
    lockstep so a counter's value round-trips through either field —
    snapshots used to leave [sum] at zero, which serialized as the
    contradictory ["count": 907, "sum": 0]. *)
let incr ?(labels = []) ?(by = 1) (t : t) (name : string) : unit =
  let c = cell_for t Counter name labels in
  c.count <- c.count + by;
  c.sum <- c.sum +. float_of_int by

(** Set a gauge to [v]. *)
let gauge ?(labels = []) (t : t) (name : string) (v : float) : unit =
  let c = cell_for t Gauge name labels in
  c.sum <- v

(** Record one observation [v] into a histogram. *)
let observe ?(labels = []) (t : t) (name : string) (v : float) : unit =
  let c = cell_for t Histogram name labels in
  c.count <- c.count + 1;
  c.sum <- c.sum +. v;
  let n = Array.length bucket_bounds in
  let i = ref 0 in
  while !i < n && v > bucket_bounds.(!i) do
    i := !i + 1
  done;
  c.buckets.(!i) <- c.buckets.(!i) + 1

(* Fold [c] into [into]'s cell for [k]: counters and histogram buckets
   sum, gauges keep the maximum — the same merge {!snapshot} applies
   across shards, so where a cell's events are accumulated (live shard,
   [retired], or the snapshot's scratch table) never changes totals. *)
let merge_cell (into : shard) (k : key) (c : cell) : unit =
  match Hashtbl.find_opt into k with
  | None ->
      Hashtbl.replace into k
        {
          kind = c.kind;
          count = c.count;
          sum = c.sum;
          buckets = Array.copy c.buckets;
        }
  | Some m ->
      m.count <- m.count + c.count;
      (match c.kind with
      | Gauge -> m.sum <- Float.max m.sum c.sum
      | Counter | Histogram -> m.sum <- m.sum +. c.sum);
      Array.iteri (fun i b -> m.buckets.(i) <- m.buckets.(i) + b) c.buckets

(** [retire t ~domain] ends metrics ownership for a terminated domain:
    its shard is folded into the retained [retired] accumulator and
    removed from the live shard list in one critical section. The
    domain pool calls this after every join of a worker — exited,
    released or died — which keeps snapshots taken during a worker
    restart exact (merging a dead domain's shard without removing it
    would double-count its events at the next snapshot) and keeps the
    live list as short as the set of running domains: OCaml 5.1 never
    reuses a domain id, so a shard left live is never reclaimed, and
    every {!shard_for} lookup walks the list. Idempotent; an unknown
    [domain] is a no-op. Must only be called once the domain has
    actually terminated (e.g. after [Domain.join]): retiring a live
    domain's shard loses any increment racing with the fold. *)
let retire (t : t) ~(domain : int) : unit =
  Mutex.protect t.lock (fun () ->
      match List.assoc_opt domain t.shards with
      | None -> ()
      | Some s ->
          t.shards <- List.filter (fun (d, _) -> d <> domain) t.shards;
          Hashtbl.iter (fun k c -> merge_cell t.retired k c) s)

(** Shards of domains that have recorded into [t] and not been retired
    (or reset) since. *)
let live_shards (t : t) : int =
  Mutex.protect t.lock (fun () -> List.length t.shards)

type snap = {
  s_name : string;
  s_labels : (string * string) list;
  s_kind : kind;
  s_count : int;
  s_sum : float;
  s_buckets : (float * int) list;
      (** histogram only: (upper bound, {e cumulative} count) in
          Prometheus semantics — each bucket counts every observation
          [<=] its bound, so counts are monotone along the list and the
          final [+inf] bucket equals [s_count] *)
}

(** Merge every shard into one sorted list. [?reset] (default false)
    clears all shards after merging, making per-section snapshots
    disjoint. Deterministic for counters and histograms: same events ->
    same snapshot, whatever the domain count. *)
let snapshot ?(reset = false) (t : t) : snap list =
  Mutex.protect t.lock (fun () ->
      let merged : (key, cell) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (_, s) -> Hashtbl.iter (fun k c -> merge_cell merged k c) s)
        ((-1, t.retired) :: t.shards);
      if reset then begin
        t.shards <- [];
        Hashtbl.reset t.retired
      end;
      Hashtbl.fold
        (fun k (c : cell) acc ->
          {
            s_name = k.k_name;
            s_labels = k.k_labels;
            s_kind = c.kind;
            s_count = c.count;
            s_sum = c.sum;
            s_buckets =
              (* raw per-bucket counts become cumulative here: bucket i
                 reports all observations <= its bound (Prometheus
                 semantics), so the +inf bucket equals the observation
                 count instead of holding only the overflow *)
              (if c.kind = Histogram then begin
                 let nb = Array.length c.buckets in
                 let rec cumulate i acc =
                   if i >= nb then []
                   else
                     let acc = acc + c.buckets.(i) in
                     ( (if i < Array.length bucket_bounds then
                          bucket_bounds.(i)
                        else infinity),
                       acc )
                     :: cumulate (i + 1) acc
                 in
                 cumulate 0 0
               end
               else []);
          }
          :: acc)
        merged []
      |> List.sort (fun a b ->
             compare (a.s_name, a.s_labels) (b.s_name, b.s_labels)))

let reset (t : t) : unit =
  Mutex.protect t.lock (fun () ->
      t.shards <- [];
      Hashtbl.reset t.retired)

let pp_snap ppf (s : snap) =
  Fmt.pf ppf "%s%a %s count=%d sum=%g" s.s_name
    Fmt.(
      list ~sep:nop (fun ppf (k, v) -> Fmt.pf ppf "{%s=%s}" k v))
    s.s_labels (show_kind s.s_kind) s.s_count s.s_sum
