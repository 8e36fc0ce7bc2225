(** The crash-safe plan-cache snapshot ({!Fv_serve.Snapshot}): entries
    must round-trip exactly, every flavour of damage — flipped bytes,
    mangled headers, truncation, a missing file — must degrade to
    counted corruption instead of an exception, and the save must be
    atomic (temp-and-rename, no droppings). *)

module Plancache = Fv_serve.Plancache
module Snapshot = Fv_serve.Snapshot
module Chaos = Fv_serve.Chaos

let plan ?(ok = true) ?(op = "compile") tail : Plancache.plan =
  { Plancache.p_tail = tail; p_ok = ok; p_op = op }

(* a cache holding [n] representative entries, tails shaped like the
   service's real response tails (s-expressions, parens, quotes) *)
let filled n : Plancache.t =
  let pc = Plancache.create ~cap:(max 8 n) () in
  for i = 0 to n - 1 do
    Plancache.put pc
      ~canonical:(Printf.sprintf "(request (op compile) (key k%d))" i)
      (plan ~ok:(i mod 3 <> 0)
         ~op:(if i mod 2 = 0 then "compile" else "simulate")
         (Printf.sprintf "(status ok) (plan \"p%d (deep (tree)) \\\"q\\\"\")" i))
  done;
  pc

let sorted_alist pc = List.sort compare (Plancache.to_alist pc)

let with_temp f =
  let path = Filename.temp_file "snapshot_test" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () -> f path)

let test_roundtrip () =
  with_temp (fun path ->
      let pc = filled 12 in
      let written = Snapshot.save pc ~path in
      Alcotest.(check int) "every entry written" 12 written;
      let pc2 = Plancache.create ~cap:64 () in
      let stats = Snapshot.load pc2 ~path in
      Alcotest.(check int) "every entry restored" 12 stats.Snapshot.restored;
      Alcotest.(check int) "nothing corrupt" 0 stats.Snapshot.corrupt;
      Alcotest.(check bool) "restored cache is byte-identical" true
        (sorted_alist pc = sorted_alist pc2);
      Alcotest.(check bool) "no temp file left behind" false
        (Sys.file_exists (path ^ ".tmp")))

let test_missing_file () =
  let pc = Plancache.create ~cap:8 () in
  let stats = Snapshot.load pc ~path:"/nonexistent/plan.cache" in
  Alcotest.(check int) "nothing restored" 0 stats.Snapshot.restored;
  Alcotest.(check int) "a missing snapshot is not corruption" 0
    stats.Snapshot.corrupt

(* One flipped byte past the header costs exactly one entry; the loader
   resynchronises on the next "entry " line and restores the rest. *)
let test_one_flipped_byte () =
  with_temp (fun path ->
      let pc = filled 10 in
      ignore (Snapshot.save pc ~path);
      Chaos.corrupt_file ~after:40 ~seed:3 path;
      let pc2 = Plancache.create ~cap:64 () in
      let stats = Snapshot.load pc2 ~path in
      Alcotest.(check int) "all entries accounted for" 10
        (stats.Snapshot.restored + stats.Snapshot.corrupt);
      Alcotest.(check bool) "at most two entries lost" true
        (stats.Snapshot.corrupt >= 1 && stats.Snapshot.corrupt <= 2);
      (* every restored entry verified its checksum, so it must be one
         the original cache really held *)
      let orig = sorted_alist pc in
      List.iter
        (fun e ->
          Alcotest.(check bool) "restored entry is genuine" true
            (List.mem e orig))
        (sorted_alist pc2))

let test_corrupt_header_rejects_file () =
  with_temp (fun path ->
      ignore (Snapshot.save (filled 5) ~path);
      let ic = open_in_bin path in
      let s = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      Bytes.set s 0 'X';
      let oc = open_out_bin path in
      output_bytes oc s;
      close_out oc;
      let pc2 = Plancache.create ~cap:64 () in
      let stats = Snapshot.load pc2 ~path in
      Alcotest.(check int) "bad magic restores nothing" 0
        stats.Snapshot.restored;
      Alcotest.(check int) "counted as one corruption" 1 stats.Snapshot.corrupt)

(* Truncation (a crash mid-write of some future non-atomic writer, or a
   torn disk) is counted against the header's declared entry count. *)
let test_truncated_file () =
  with_temp (fun path ->
      let pc = filled 10 in
      ignore (Snapshot.save pc ~path);
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub s 0 (n * 3 / 5));
      close_out oc;
      let pc2 = Plancache.create ~cap:64 () in
      let stats = Snapshot.load pc2 ~path in
      Alcotest.(check bool) "some entries survived" true
        (stats.Snapshot.restored > 0);
      Alcotest.(check bool) "some entries lost" true
        (stats.Snapshot.restored < 10);
      Alcotest.(check int) "losses counted against the declared total" 10
        (stats.Snapshot.restored + stats.Snapshot.corrupt))

(* A declared length near [max_int] must not wrap the framing offsets
   negative and index out of bounds: the entry is counted corrupt and
   [load] still returns. *)
let test_huge_length_is_corrupt () =
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc
        "flexvec-plan-cache v1 entries=1\n\
         entry 4611686018427387903 0 1 compile 0000000000000000\n\
         (x)\n\
         (y)\n";
      close_out oc;
      let pc = Plancache.create ~cap:8 () in
      let stats = Snapshot.load pc ~path in
      Alcotest.(check int) "nothing restored" 0 stats.Snapshot.restored;
      Alcotest.(check int) "one corrupt entry" 1 stats.Snapshot.corrupt)

(* Saving over an existing snapshot replaces it atomically: the new
   content wins, the old content is gone, no temp file remains. *)
let test_overwrite () =
  with_temp (fun path ->
      ignore (Snapshot.save (filled 3) ~path);
      let pc = Plancache.create ~cap:8 () in
      Plancache.put pc ~canonical:"(only)" (plan "(status ok) fresh");
      Alcotest.(check int) "second save wins" 1 (Snapshot.save pc ~path);
      let pc2 = Plancache.create ~cap:8 () in
      let stats = Snapshot.load pc2 ~path in
      Alcotest.(check int) "only the new entry" 1 stats.Snapshot.restored;
      Alcotest.(check bool) "old entries gone" true
        (sorted_alist pc2 = sorted_alist pc))

(* An entry whose fields would break the line framing (embedded
   newline) is refused at save time rather than written unreadably. *)
let test_unwritable_entry_skipped () =
  with_temp (fun path ->
      let pc = Plancache.create ~cap:8 () in
      Plancache.put pc ~canonical:"(good)" (plan "(status ok)");
      Plancache.put pc ~canonical:"(bad)" (plan "(status\nok)");
      Alcotest.(check int) "only the clean entry written" 1
        (Snapshot.save pc ~path);
      let pc2 = Plancache.create ~cap:8 () in
      let stats = Snapshot.load pc2 ~path in
      Alcotest.(check int) "restores cleanly" 1 stats.Snapshot.restored;
      Alcotest.(check int) "no corruption" 0 stats.Snapshot.corrupt)

let suite =
  [
    Alcotest.test_case "round-trip is byte-exact" `Quick test_roundtrip;
    Alcotest.test_case "missing file restores nothing, quietly" `Quick
      test_missing_file;
    Alcotest.test_case "one flipped byte costs at most its entries" `Quick
      test_one_flipped_byte;
    Alcotest.test_case "corrupt header rejects the file, no crash" `Quick
      test_corrupt_header_rejects_file;
    Alcotest.test_case "truncation is counted corruption" `Quick
      test_truncated_file;
    Alcotest.test_case "save replaces atomically" `Quick test_overwrite;
    Alcotest.test_case "unwritable entries refused at save time" `Quick
      test_unwritable_entry_skipped;
    Alcotest.test_case "a wrapping entry length is counted corruption"
      `Quick test_huge_length_is_corrupt;
  ]
