(** Workloads [serve-replay] and [simulate]: the daemon,
    [flexvec_cli serve --domains 2], driven over its stdin/stdout by a
    single-threaded generator (see {!Server}).

    [serve-replay]: closed loop, 64 requests in flight. Compile requests
    for a pool of 4096 distinct loops, drawn by Zipf(1.1) rank: 85% are
    exact replays of the rank's request line (a response-memo hit once
    seen), 15% carry a fresh id, so they miss the memo and may hit the
    plan cache. Tail ranks miss both, which forces inserts and evictions
    at the default capacity of 1024. Each answer costs the daemon
    microseconds, so its own overhead dominates: framing, batching,
    per-batch pool dispatch and cache eviction. An operation is one
    request; its latency is the round trip.

    [simulate]: the expensive operation, on distinct seeded cases: an
    open loop at 100 requests/s with seeded jitter for three quarters of
    the run, each request timed from the moment it was due, then a
    closed loop with 64 in flight for the last quarter, to measure
    capacity. Service time dominates orchestration here, so
    comparing it with [serve-replay] separates a pool fix from a
    simulator fix. Latency is the open leg's; throughput is the closed
    leg's.

    Set-up covers generating the requests, starting the daemon until its
    first answer, and a warm-up. Checks: every request answered exactly
    once and in order; every answer [ok] (compiles may also be
    [rejected]) and never brownout-degraded; every answer about the same
    loop identical apart from its id and cached flag; for [simulate],
    sampled answers byte-identical to the in-process [Service.handle]. *)

module Gen = Fv_fuzz.Gen
module Loadgen = Fv_serve.Loadgen

let domains = 2
let window = 64

type cfg = { exe : string; seed : int; seconds : float; quick : bool }

(* ---------------- daemon report ---------------- *)

(* a metric of the --stats-json report, summed over its label sets *)
let stat (report : Json.t) (name : string) (field : string) : float =
  List.fold_left
    (fun acc m ->
      if Json.member "name" m = Json.Str name then
        acc +. Json.to_num (Json.member field m)
      else acc)
    0.0
    (Json.to_list (Json.member "metrics" report))

(* per-layer metrics the daemon's own report gives; [client_mean_us] is
   the generator's mean round trip *)
let report_daemon (rep : Report.t) (report : Json.t) ~client_mean_us =
  let st = stat report in
  let requests = st "serve_requests" "count" in
  let busy = st "serve_request_seconds" "sum" in
  let wall = Json.to_num (Json.member "wall_seconds" report) in
  let service_us = busy /. Float.max 1.0 (st "serve_request_seconds" "count") *. 1e6 in
  Report.set rep "response_cache.hit_frac"
    (Stats.hit_frac (st "response_cache_hits" "count") (st "response_cache_misses" "count"));
  Report.set rep "plan_cache.hit_frac"
    (Stats.hit_frac (st "plan_cache_hits" "count") (st "plan_cache_misses" "count"));
  Report.set rep "plan_cache.evictions_per_kreq"
    (st "plan_cache_evictions" "count" /. Float.max 1.0 requests *. 1000.0);
  Report.set rep "sim.cache_hit_frac"
    (Stats.hit_frac (st "sim_cache_hits" "count") (st "sim_cache_misses" "count"));
  Report.set rep "server.mean_batch" (requests /. Float.max 1.0 (st "serve_batches" "count"));
  Report.set rep "server.shed" (st "serve_shed" "count");
  Report.set rep "service.busy_frac" (busy /. (wall *. float_of_int domains));
  Report.set rep "pool.busy_frac"
    (st "pool_task_seconds" "sum" /. (wall *. float_of_int domains));
  Report.set rep "service.mean_us" service_us;
  Report.set rep "server.wait_us" (client_mean_us -. service_us)

(* ---------------- the shared run shape ---------------- *)

(* answer bookkeeping shared by every leg *)
type tally = { mutable sent : int; mutable bad : int }

(* Start the daemon and wait for its answer to [first]. *)
let start (c : cfg) (tl : tally) ~(first : string) ~allow_rejected : Server.t =
  let srv = Server.spawn ~exe:c.exe ~domains in
  let answer = ref None in
  Server.send srv first;
  while !answer = None do
    Server.pump srv ~timeout:1.0 (fun l -> answer := Some l)
  done;
  tl.sent <- tl.sent + 1;
  if not (Wire.answered ~allow_rejected (Option.get !answer)) then tl.bad <- tl.bad + 1;
  srv

(* In a traced run the load legs get half the time; the other half
   replays the same requests in-process, stage by stage. *)
let leg_seconds (rep : Report.t) (c : cfg) =
  if rep.Report.trace then c.seconds /. 2.0 else c.seconds

let stray (rep : Report.t) (tl : tally) line =
  tl.bad <- tl.bad + 1;
  Report.check rep false "answer out of order or for an unknown id: %s"
    (String.sub line 0 (min 80 (String.length line)))

(* end-to-end numbers of a daemon workload *)
let report_e2e (rep : Report.t) (c : cfg) ~pct ~setup_s ~(lat : Stats.samples)
    ~throughput ~daemon_mb =
  let s = Stats.summarize ~pct (Stats.to_array lat) in
  Report.check_tail rep ~quick:c.quick s;
  Report.set rep "setup_s" setup_s;
  Report.set rep "latency_p50_ms" (s.Stats.p50 *. 1e-6);
  Report.set rep "latency_tail_ms" (s.Stats.tail *. 1e-6);
  Report.set rep "throughput_per_s" throughput;
  Report.set rep "peak_rss_mb" (Report.vmhwm_mb "self" +. daemon_mb)

(* ---------------- serve-replay ---------------- *)

let zipf_cdf ~(n : int) ~(s : float) : float array =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* least index whose cumulative weight reaches [u] *)
let draw (cdf : float array) (u : float) : int =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* The request stream of a run: [next ()] gives each request's line, id
   and Zipf rank. A fresh call replays the same stream from its start. *)
let replay_stream ~seed (exact : string array) =
  let ranks = Array.length exact in
  (* what follows the id in a rank's line, for fresh-id requests *)
  let rest =
    Array.map
      (fun l ->
        let i = String.index_from l (String.length "(request (id ") ')' in
        String.sub l (i + 1) (String.length l - i - 1))
      exact
  in
  let cdf = zipf_cdf ~n:ranks ~s:1.1 in
  let rng = Random.State.make [| seed; 0x2e91 |] in
  let fresh = ref 0 in
  fun () ->
    let r = draw cdf (Random.State.float rng 1.0) in
    if Random.State.float rng 1.0 < 0.15 then begin
      incr fresh;
      let id = Printf.sprintf "f%d" !fresh in
      ("(request (id " ^ id ^ ")" ^ rest.(r), Some id, r)
    end
    else (exact.(r), Some (Printf.sprintf "z%d" r), r)

let replay (rep : Report.t) (c : cfg) =
  let ranks = if c.quick then 512 else 4096 in
  let warm = if c.quick then 2000 else 20_000 in
  let t_setup = Stats.now_ns () in
  (* [distinct_cases] draws generator seeds [seed], [seed + 1], ...:
     spread apart, consecutive seeds draw disjoint pools *)
  let exact =
    Array.mapi
      (fun r cs -> Loadgen.loop_request_line ~id:(Printf.sprintf "z%d" r) cs)
      (Array.of_list (Loadgen.distinct_cases ~n:ranks ~seed:(c.seed * 1_000_003)))
  in
  let next = replay_stream ~seed:c.seed exact in
  let answers = Array.make ranks None in
  let tl = { sent = 0; bad = 0 } in
  let lat = Stats.samples () in
  let on_answer (f : int Server.flight) line ns ~measured =
    tl.sent <- tl.sent + 1;
    let r = f.Server.f_meta in
    let h = Wire.answer_hash line in
    let same =
      match answers.(r) with
      | None ->
          answers.(r) <- Some h;
          true
      | Some h0 -> Int64.equal h h0
    in
    Report.check rep same "rank %d: answers differ beyond id and cached flag" r;
    if not (same && Wire.answered ~allow_rejected:true line) then tl.bad <- tl.bad + 1;
    if measured then Stats.add lat ns
  in
  let on_stray = stray rep tl in
  let srv = start c tl ~first:exact.(0) ~allow_rejected:true in
  (* warm-up: a fixed number of requests, so the caches hold the
     stream's working set before anything is timed *)
  ignore
    (Server.closed srv ~window ~until:(`Requests warm) ~next
       ~on_answer:(fun f l ns ~measured:_ -> on_answer f l ns ~measured:false)
       ~on_stray);
  let setup_s = Stats.since_s t_setup in
  let leg =
    Server.closed srv ~window ~until:(`Seconds (leg_seconds rep c)) ~next
      ~on_answer ~on_stray
  in
  let daemon_mb = Server.vmhwm_mb srv in
  let report = Server.finish srv in
  Report.check rep (report <> None) "the daemon wrote no --stats-json report";
  Report.count rep ~n:tl.sent ~bad:tl.bad;
  if rep.Report.trace then begin
    (* the same stream in-process, after the same warm-up *)
    let next = replay_stream ~seed:c.seed exact in
    let run =
      Decompose.interleaved ~stage:Decompose.compile
        ~next:(fun () ->
          let l, _, _ = next () in
          l)
        ~warm ~max:max_int ~seconds:(c.seconds /. 2.0)
    in
    Decompose.report rep run;
    Option.iter
      (report_daemon rep ~client_mean_us:(Stats.mean (Stats.to_array lat) *. 1e-3))
      report;
    Report.set rep "gen.busy_frac" leg.Server.busy_frac
  end
  else
    report_e2e rep c ~pct:99.0 ~setup_s ~lat
      ~throughput:(float_of_int leg.Server.answered /. leg.Server.wall_s)
      ~daemon_mb

(* ---------------- simulate ---------------- *)

(* Far below the daemon's capacity, which is 300 to 650/s on a 2-core
   virtual machine depending on how much CPU time the host steals: at
   300/s its heap outgrew the collector on such a machine and the open
   leg's p99 swung between 25 and 170 ms from run to run. *)
let open_rate = 100.0

(* Simulate cases whose mix of kinds (generator family, trip count,
   vector length) is the same for every seed: case [i] has the kind of
   the [i]th case of one fixed reference stream, and the seed picks which
   case of that kind. A request's service time depends mostly on its
   kind; with the mix left to the seed, the open leg's median moved by a
   fifth from seed to seed, falling between kinds. *)
let matched_cases ~seed ~n : Gen.case array =
  let case s = Gen.case_of_seed ~p_malformed:0.0 s in
  let kind (c : Gen.case) = (c.Gen.label, c.Gen.loop.Fv_ir.Ast.hi, c.Gen.vl) in
  let spare = Hashtbl.create 128 in
  let next = ref (seed * 1_000_003) in
  let rec take want =
    match Hashtbl.find_opt spare want with
    | Some (c :: rest) ->
        Hashtbl.replace spare want rest;
        c
    | _ ->
        let c = case !next in
        incr next;
        if kind c = want then c
        else begin
          Hashtbl.replace spare (kind c)
            (c :: Option.value ~default:[] (Hashtbl.find_opt spare (kind c)));
          take want
        end
  in
  Array.init n (fun i -> take (kind (case (0x5eed0000 + i))))

let simulate (rep : Report.t) (c : cfg) =
  let t_setup = Stats.now_ns () in
  let secs = leg_seconds rep c in
  let open_s = secs *. 0.75 and closed_s = secs *. 0.25 in
  let warm_s = if c.quick then 0.2 else 2.0 in
  let warm_due =
    Stats.open_schedule ~seed:(c.seed + 1) ~rate:open_rate ~seconds:warm_s
  in
  let due = Stats.open_schedule ~seed:c.seed ~rate:open_rate ~seconds:open_s in
  let warm = Array.length warm_due in
  (* request 0 starts the daemon, then come the warm-up, the open leg
     and the closed leg, which runs out of matched cases only above
     1000 answers/s; every line is distinct, so none is answered from
     the response memo *)
  let matched =
    matched_cases ~seed:c.seed
      ~n:(1 + warm + Array.length due + int_of_float (1000.0 *. closed_s))
  in
  let line i =
    let id = Printf.sprintf "s%d" i in
    let case =
      if i < Array.length matched then matched.(i)
      else Gen.case_of_seed ~p_malformed:0.0 ((c.seed * 1_000_003) + 500_000 + i)
    in
    (Loadgen.simulate_request_line ~id case, Some id, i)
  in
  (* the warm-up is the open loop itself, at the same rate, so the
     daemon's heap settles where the measured leg keeps it; the lines of
     both are rendered ahead, so rendering never delays a due request *)
  let warm_lines = Array.init warm (fun i -> line (1 + i)) in
  let open_lines = Array.init (Array.length due) (fun i -> line (warm + 1 + i)) in
  let tl = { sent = 0; bad = 0 } in
  let lat = Stats.samples () in
  let sampled = ref [] in
  let on_answer (f : int Server.flight) l ns ~measured =
    tl.sent <- tl.sent + 1;
    if not (Wire.answered ~allow_rejected:false l) then tl.bad <- tl.bad + 1;
    if f.Server.f_meta mod 97 = 0 then sampled := (f.Server.f_meta, l) :: !sampled;
    if measured then Stats.add lat ns
  in
  let unmeasured f l ns ~measured:_ = on_answer f l ns ~measured:false in
  let on_stray = stray rep tl in
  let first, _, _ = line 0 in
  let srv = start c tl ~first ~allow_rejected:false in
  let late = Stats.samples () in
  let open_leg ~due ~lines ~measured =
    ignore
      (Server.open_loop srv ~due ~line:(fun i -> lines.(i))
         ~on_answer:(fun f l ns -> on_answer f l ns ~measured)
         ~on_stray
         ~late:(if measured then late else Stats.samples ()))
  in
  open_leg ~due:warm_due ~lines:warm_lines ~measured:false;
  let setup_s = Stats.since_s t_setup in
  open_leg ~due ~lines:open_lines ~measured:true;
  let counter = ref (warm + 1 + Array.length due) in
  let next () =
    let l = line !counter in
    incr counter;
    l
  in
  let closed =
    Server.closed srv ~window ~until:(`Seconds closed_s) ~next ~on_answer:unmeasured
      ~on_stray
  in
  let daemon_mb = Server.vmhwm_mb srv in
  let report = Server.finish srv in
  Report.check rep (report <> None) "the daemon wrote no --stats-json report";
  (* the daemon's answers equal the in-process service's, byte for byte *)
  let cfg = Fv_serve.Service.cfg () in
  List.iter
    (fun (i, answer) ->
      let l, _, _ = line i in
      Report.check rep
        (String.equal (Fv_serve.Service.handle cfg l) answer)
        "request s%d: the daemon's answer differs from Service.handle" i)
    !sampled;
  Report.count rep ~n:tl.sent ~bad:tl.bad;
  if rep.Report.trace then begin
    (* the open leg's requests again, in-process *)
    let i = ref 0 in
    let run =
      Decompose.interleaved ~stage:Decompose.simulate
        ~next:(fun () ->
          let l, _, _ = open_lines.(!i mod Array.length open_lines) in
          incr i;
          l)
        ~warm:0 ~max:(min 2000 (Array.length open_lines))
        ~seconds:(c.seconds /. 2.0)
    in
    Decompose.report rep run;
    Option.iter
      (report_daemon rep ~client_mean_us:(Stats.mean (Stats.to_array lat) *. 1e-3))
      report;
    Report.set rep "gen.busy_frac" closed.Server.busy_frac;
    Report.set rep "gen.late_p99_us"
      ((Stats.summarize ~pct:99.0 (Stats.to_array late)).Stats.tail *. 1e-3)
  end
  else
    (* p95, not p99: beyond p99 of an open leg this long lie one or two
       bursts of consecutive requests held up by the same stall of the
       host or the collector, so p99 recorded whether a stall happened
       and swung between 5 and 28 ms from run to run *)
    report_e2e rep c ~pct:95.0 ~setup_s ~lat
      ~throughput:(float_of_int closed.Server.answered /. closed.Server.wall_s)
      ~daemon_mb
