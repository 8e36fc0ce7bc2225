(** Crash-safe persistence for the plan cache.

    A restart of the serve daemon used to be a cold-start stampede:
    every plan the process had ever derived evaporated with it, and the
    first seconds after a crash replayed the whole working set through
    the compiler. This module snapshots {!Plancache} to a file
    ([--plan-cache-file]) on graceful shutdown and restores it at
    startup, so a restarted server answers its working set from
    plan-cache hits immediately.

    Durability discipline, in order of paranoia:

    - {b Atomic replace}: {!save} writes to [path ^ ".tmp"] and
      [Sys.rename]s over the target, so a crash mid-save leaves the
      previous snapshot intact — a reader never observes a half-written
      file under [path].
    - {b Whole-file header}: [flexvec-plan-cache v<N> entries=<count>].
      A wrong magic or format version rejects the file outright (a
      future format change must not be guessed at); the declared entry
      count turns silent truncation into counted corruption.
    - {b Per-entry checksum}: each entry carries the FNV-1a64 of its
      canonical string, tail, op and ok-flag. A bit flip anywhere in an
      entry fails its checksum and rejects {e that entry only}.
    - {b Resynchronisation}: every entry header sits on its own line
      starting with ["entry "], and the payload lines it frames are
      s-expressions (they start with ['(']), so after a corrupt entry
      the loader scans forward to the next line starting with
      ["entry "] and continues. One flipped byte costs one entry, not
      the rest of the file.

    Corruption is never fatal: {!load} returns how many entries were
    restored and how many rejected ([plan_cache_restored_entries] /
    [plan_cache_corrupt_entries] count the same), and the server simply
    re-derives what was lost. The format is plain text on purpose —
    inspectable with [less], diffable across restarts.

    Entry layout (three lines):
    {v
    entry <canonical-bytes> <tail-bytes> <ok:0|1> <op> <fnv1a64-hex>
    <canonical line>
    <tail line>
    v} *)

let magic = "flexvec-plan-cache"

(** Bump on any layout change: a loader must never guess at a format it
    does not know. v1: header + 3-line entries as described above. *)
let format_version = 1

type restore_stats = {
  restored : int;  (** entries verified and inserted *)
  corrupt : int;  (** entries rejected (checksum, framing, truncation) *)
}

let empty_stats = { restored = 0; corrupt = 0 }

(* The checksum covers every field that [restore] will trust, with \000
   separators so field boundaries cannot be shifted without changing
   the digest ("ab"+"c" hashes differently from "a"+"bc"). *)
let checksum ~(canonical : string) ~(p : Plancache.plan) : int64 =
  let open Fv_obs.Hash in
  let h = fnv1a64 canonical in
  let h = fold_byte h 0 in
  let h = fold_string h p.Plancache.p_tail in
  let h = fold_byte h 0 in
  let h = fold_string h p.Plancache.p_op in
  fold_byte h (if p.Plancache.p_ok then 1 else 0)

let entry_fits (canonical : string) (p : Plancache.plan) : bool =
  (* all four fields are single-line by construction (canonical via
     Sexp.to_line, tail via render_tail, op an atom); refuse to write
     anything that would break the line framing rather than emit a
     snapshot we cannot read back *)
  let clean s = not (String.contains s '\n') in
  clean canonical && clean p.Plancache.p_tail
  && clean p.Plancache.p_op
  && (not (String.contains p.Plancache.p_op ' '))
  && String.length p.Plancache.p_op > 0

(** Write a point-in-time snapshot of [pc] to [path] (atomically, via
    temp-and-rename). Returns the number of entries written. *)
let save (pc : Plancache.t) ~(path : string) : int =
  let entries =
    List.filter (fun (c, p) -> entry_fits c p) (Plancache.to_alist pc)
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Printf.fprintf oc "%s v%d entries=%d\n" magic format_version
    (List.length entries);
  List.iter
    (fun (canonical, (p : Plancache.plan)) ->
      Printf.fprintf oc "entry %d %d %d %s %016Lx\n%s\n%s\n"
        (String.length canonical)
        (String.length p.p_tail)
        (if p.p_ok then 1 else 0)
        p.p_op
        (checksum ~canonical ~p)
        canonical p.p_tail)
    entries;
  close_out oc;
  Sys.rename tmp path;
  List.length entries

(* index of the next line boundary starting with "entry ", at or after
   [from]; [len] if none. Payload lines cannot false-positive: canonical
   and tail both start with '('. *)
let next_entry (s : string) (from : int) : int =
  let len = String.length s in
  let at_prefix i =
    i + 6 <= len && String.equal (String.sub s i 6) "entry "
  in
  let rec go i =
    if i >= len then len
    else if at_prefix i then i
    else
      match String.index_from_opt s i '\n' with
      | None -> len
      | Some nl -> go (nl + 1)
  in
  go from

type parsed = { next_pos : int; canonical : string; plan : Plancache.plan }

(* Parse one entry whose header starts at [pos] (which does start with
   "entry "). Returns [None] for any malformed, truncated or
   checksum-failing entry. *)
let parse_entry (s : string) (pos : int) : parsed option =
  let len = String.length s in
  match String.index_from_opt s pos '\n' with
  | None -> None (* truncated header *)
  | Some hdr_end -> (
      let header = String.sub s pos (hdr_end - pos) in
      match
        Scanf.sscanf header "entry %d %d %d %s %Lx%!"
          (fun clen tlen ok op sum -> (clen, tlen, ok, op, sum))
      with
      | exception _ -> None
      | clen, tlen, ok, op, sum ->
          if clen < 0 || tlen < 0 || (ok <> 0 && ok <> 1) then None
          else
            let c_start = hdr_end + 1 in
            let t_start = c_start + clen + 1 in
            (* each length is checked against the bytes left before it
               is added: a huge declared length would wrap the sum
               negative and pass a check on the end offset *)
            if
              clen >= len - c_start
              || tlen >= len - t_start
              || s.[c_start + clen] <> '\n'
              || s.[t_start + tlen] <> '\n'
            then None
            else
              let entry_end = t_start + tlen + 1 in
              let canonical = String.sub s c_start clen in
              let tail = String.sub s t_start tlen in
              let p : Plancache.plan =
                { p_tail = tail; p_ok = ok = 1; p_op = op }
              in
              if Int64.equal (checksum ~canonical ~p) sum then
                Some { next_pos = entry_end; canonical; plan = p }
              else None)

(** Restore a snapshot into [pc]. Never raises on a damaged file: bad
    entries are skipped (and counted), a bad header rejects the whole
    file as one corruption, a missing file restores nothing. Restored
    and corrupt totals also land on the [plan_cache_restored_entries] /
    [plan_cache_corrupt_entries] counters. *)
let load (pc : Plancache.t) ~(path : string) : restore_stats =
  let stats =
    match
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with
    | exception Sys_error _ -> empty_stats (* no snapshot yet *)
    | s -> (
        let len = String.length s in
        let header_end =
          match String.index_opt s '\n' with Some i -> i | None -> len
        in
        let header = String.sub s 0 header_end in
        match
          Scanf.sscanf header "%s@ v%d entries=%d%!" (fun m v n -> (m, v, n))
        with
        | exception _ -> { restored = 0; corrupt = 1 }
        | m, v, _ when (not (String.equal m magic)) || v <> format_version ->
            { restored = 0; corrupt = 1 }
        | _, _, declared ->
            let restored = ref 0 in
            let corrupt = ref 0 in
            let pos = ref (next_entry s (header_end + 1)) in
            while !pos < len do
              (match parse_entry s !pos with
              | Some { next_pos; canonical; plan } ->
                  Plancache.put pc ~canonical plan;
                  incr restored;
                  pos := next_entry s next_pos
              | None ->
                  incr corrupt;
                  pos := next_entry s (!pos + 6));
              ()
            done;
            (* entries the header promised but the scan never saw (file
               truncated before their "entry " line) are corruption too *)
            if !restored + !corrupt < declared then
              corrupt := declared - !restored;
            { restored = !restored; corrupt = !corrupt })
  in
  if stats.restored > 0 then
    Fv_obs.Metrics.incr ~by:stats.restored Fv_obs.Metrics.global
      "plan_cache_restored_entries";
  if stats.corrupt > 0 then
    Fv_obs.Metrics.incr ~by:stats.corrupt Fv_obs.Metrics.global
      "plan_cache_corrupt_entries";
  stats
