(** Repeat-offender table for poison requests.

    The server's pool ({!Fv_parallel.Pool.run}) answers a wedged or
    worker-killing request and replaces the domain it burned, but
    replacement alone is not enough: a client hot-looping the {e same}
    poison request would cost one
    leaked domain per occurrence and eventually exhaust the machine.
    This table bounds that: every pool-level failure strikes the
    offending request (content-addressed by the FNV-1a64 of its exact
    line bytes), and once a request reaches [max_strikes] the server
    refuses it up front with an [error] response — no domain is ever
    claimed for it again.

    Each first strike also persists the raw request line to
    [dir/cex-<hash>.sexp], the same naming scheme as the fuzz corpus's
    reproducers ({!Fv_fuzz.Corpus.filename_of}): the file content is
    exactly the request line, so [cat quarantine/*.sexp | flexvec serve]
    replays the poison input under a debugger. (Deliberately no comment
    header — a prefixed line would no longer be the frame that failed.)

    Hashing the exact bytes, not the canonical rendering, is the point:
    quarantine exists to stop a {e repeating} input, and a hot-looping
    client repeats bytes. Two spellings of the same plan are two
    entries, each still bounded.

    The table itself is bounded second-chance storage (same policy as
    the plan cache), so an adversarial stream of distinct failing
    requests cannot grow it without bound; an evicted offender starts
    over at zero strikes. Thread-safe via one mutex. *)

type entry = { q_line : string; q_strikes : int }

module Cache = Fv_cache.Second_chance.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash = Int64.to_int
end)

type t = {
  lock : Mutex.t;
  cache : entry Cache.t;
  dir : string option;  (** where first strikes persist a reproducer *)
  max_strikes : int;  (** strikes at which {!blocked} turns true *)
}

let default_capacity = 256

(** Two strikes by default: the first failure is answered and costs a
    (bounded) detached domain; the second proves the request is poison
    rather than unlucky, and every occurrence after that is refused
    without touching the pool. *)
let default_max_strikes = 2

let create ?(cap = default_capacity) ?(max_strikes = default_max_strikes) ?dir
    () : t =
  {
    lock = Mutex.create ();
    cache = Cache.create ~cap ();
    dir;
    max_strikes = max 1 max_strikes;
  }

let hash_line (line : string) : int64 = Fv_obs.Hash.fnv1a64 line

let persist (t : t) (line : string) (h : int64) : unit =
  match t.dir with
  | None -> ()
  | Some dir -> (
      try
        Fv_fuzz.Corpus.ensure_dir dir;
        let path = Filename.concat dir (Printf.sprintf "cex-%016Lx.sexp" h) in
        let oc = open_out path in
        output_string oc line;
        output_char oc '\n';
        close_out oc
      with _ ->
        (* an unwritable quarantine dir (permissions, a file squatting
           on the path, ENOSPC — whatever the filesystem throws) must
           not disturb the response path: count it and move on. The
           in-memory strike was already recorded before persisting, so
           the pool stays protected either way *)
        Fv_obs.Metrics.incr Fv_obs.Metrics.global
          "serve_quarantine_persist_errors")

(** Record one pool-level failure of [line]; returns the new strike
    count. The first strike persists the reproducer. *)
let strike (t : t) ~(line : string) : int =
  let h = hash_line line in
  let n =
    Mutex.protect t.lock (fun () ->
        let n =
          match Cache.find_opt t.cache h with
          | Some e when String.equal e.q_line line -> e.q_strikes + 1
          | Some _ | None -> 1 (* new offender, or 64-bit collision *)
        in
        Cache.put t.cache h { q_line = line; q_strikes = n };
        n)
  in
  Fv_obs.Metrics.incr Fv_obs.Metrics.global "serve_quarantine_strikes";
  if n = 1 then persist t line h;
  n

let strikes (t : t) ~(line : string) : int =
  let h = hash_line line in
  Mutex.protect t.lock (fun () ->
      match Cache.find_opt t.cache h with
      | Some e when String.equal e.q_line line -> e.q_strikes
      | Some _ | None -> 0)

let size (t : t) : int = Mutex.protect t.lock (fun () -> Cache.length t.cache)

(** Should [line] be refused without claiming a pool domain? The server
    asks for every request, so the common case — nothing ever struck —
    answers without hashing the line. *)
let blocked (t : t) ~(line : string) : bool =
  size t > 0 && strikes t ~line >= t.max_strikes
let max_strikes (t : t) : int = t.max_strikes
