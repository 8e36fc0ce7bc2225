(** Differential fuzzing driver.

    One case, one verdict: vectorize the loop (the front end must be
    total — any exception here is a {!Crash}), establish scalar ground
    truth with {!Oracle.reference} (a scalar-side exception means the
    program itself is meaningless: {!Invalid}), and check the vector
    program with {!Oracle.against} ({!Divergence} on any disagreement,
    a {!Crash} on an exception the oracle does not classify,
    {!Accepted} otherwise). Structured rejections from
    the front end are {!Degraded} — the expected answer for most
    malformed cases, and an acceptable one for generator corners of the
    well-formed families.

    A campaign ({!run}) generates cases from a seed, classifies each,
    shrinks every failure to a minimal reproducer with {!Shrink}, and
    persists the minimized counterexamples to the corpus. *)

module Ast = Fv_ir.Ast
module Oracle = Fv_core.Oracle

type outcome =
  | Accepted  (** vectorized, matches the scalar interpreter *)
  | Degraded of Fv_ir.Validate.diagnostic
      (** front end declined with a structured diagnostic *)
  | Invalid of string
      (** the scalar reference itself faults — no ground truth *)
  | Divergence of string
      (** vector execution disagrees with the scalar reference *)
  | Crash of string  (** an exception escaped the front end or emulator *)

let outcome_label = function
  | Accepted -> "accepted"
  | Degraded _ -> "degraded"
  | Invalid _ -> "invalid"
  | Divergence _ -> "divergence"
  | Crash _ -> "crash"

let pp_outcome ppf = function
  | Accepted -> Fmt.string ppf "accepted"
  | Degraded d -> Fmt.pf ppf "degraded: %s" (Fv_ir.Validate.describe d)
  | Invalid m -> Fmt.pf ppf "invalid: %s" m
  | Divergence m -> Fmt.pf ppf "DIVERGENCE: %s" m
  | Crash m -> Fmt.pf ppf "CRASH: %s" m

(** The outcomes that constitute a fuzzing failure. [Degraded] and
    [Invalid] are expected business; these two are bugs. *)
let is_failure = function Divergence _ | Crash _ -> true | _ -> false

let run_case (c : Gen.case) : outcome =
  match Fv_vectorizer.Gen.vectorize ~vl:c.vl c.loop with
  | exception exn ->
      Crash ("vectorize raised " ^ Printexc.to_string exn)
  | Error d -> Degraded d
  | Ok vloop -> (
      (* free names without bindings make the program meaningless: the
         scalar loop may still "run" (a zero-trip loop never reads the
         unbound name) while the vector preamble hoists the invariant
         read and faults — that asymmetry is allowed, exactly like a
         speculative first-faulting load. What is NOT allowed is the
         [vectorize] above throwing, which is why this check sits after
         it. *)
      match
        Fv_ir.Validate.(
          errors
            (check
               ~scalars:(c.loop.Ast.index :: List.map fst c.env)
               ~arrays:(List.map fst c.arrays) c.loop))
      with
      | d :: _ -> Invalid (Fv_ir.Validate.describe d)
      | [] -> (
      (* scalar ground truth; number defensively exactly as the
         vectorizer did, so both legs execute the same statements *)
      let scalar_loop =
        if Ast.is_numbered c.loop then c.loop else Ast.number c.loop
      in
      let mem = Gen.memory_of c in
      match Oracle.reference scalar_loop mem c.env with
      | exception exn -> Invalid (Printexc.to_string exn)
      | r -> (
          match
            Oracle.against r scalar_loop mem c.env (Fv_simd.Exec.run vloop)
          with
          | exception exn ->
              Crash ("vector execution raised " ^ Printexc.to_string exn)
          | Error (Oracle.Vector_crash e) ->
              Divergence ("vector execution error: " ^ e)
          | Error f -> Divergence (Oracle.message f)
          | Ok _ -> (
              (* the oracle skips a live-out with no ground truth; here
                 it makes the case itself meaningless *)
              match
                List.find_opt
                  (fun v -> not (Hashtbl.mem r.Oracle.r_env v))
                  scalar_loop.Ast.live_out
              with
              | Some v -> Invalid (Printf.sprintf "live-out %S never bound" v)
              | None -> Accepted))))

(* ---------------- campaign ---------------- *)

type failure = {
  f_case : Gen.case;  (** minimized counterexample *)
  f_outcome : outcome;  (** outcome of the minimized case *)
  f_original_seed : int;  (** seed of the unshrunk case *)
  f_path : string option;  (** corpus file, when a corpus dir was given *)
}

type summary = {
  seed : int;
  total : int;
  accepted : int;
  degraded : int;
  invalid : int;
  failures : failure list;  (** divergences and crashes, minimized *)
}

let failure_count (s : summary) = List.length s.failures

let pp_summary ppf (s : summary) =
  Fmt.pf ppf
    "seed=%d cases=%d accepted=%d degraded=%d invalid=%d failures=%d" s.seed
    s.total s.accepted s.degraded s.invalid (failure_count s)

(** Run a fuzzing campaign. Deterministic in [seed] (and the generator
    code): case [i] is {!Gen.case_of_seed} of {!Rng.case_seed}[ ~seed i].
    Every {!Divergence}/{!Crash} is minimized with {!Shrink.minimize}
    against "still fails in the same class" and, when [corpus_dir] is
    given, saved there. [on_case] is a progress hook. *)
let run ?(p_malformed = 0.5) ?corpus_dir ?(shrink = true) ?max_shrink_evals
    ?(on_case = fun _ _ -> ()) ~seed ~cases () : summary =
  let accepted = ref 0
  and degraded = ref 0
  and invalid = ref 0
  and failures = ref [] in
  for i = 0 to cases - 1 do
    let cseed = Rng.case_seed ~seed i in
    let c = Gen.case_of_seed ~p_malformed cseed in
    let o = run_case c in
    on_case i o;
    match o with
    | Accepted -> incr accepted
    | Degraded _ -> incr degraded
    | Invalid _ -> incr invalid
    | Divergence _ | Crash _ ->
        let same_class o' =
          match (o, o') with
          | Divergence _, Divergence _ | Crash _, Crash _ -> true
          | _ -> false
        in
        let min_case =
          if shrink then
            fst
              (Shrink.minimize ?max_evals:max_shrink_evals
                 ~still_fails:(fun c' -> same_class (run_case c'))
                 c)
          else c
        in
        let path =
          Option.map (fun dir -> Corpus.save ~dir min_case) corpus_dir
        in
        failures :=
          {
            f_case = min_case;
            f_outcome = run_case min_case;
            f_original_seed = cseed;
            f_path = path;
          }
          :: !failures
  done;
  {
    seed;
    total = cases;
    accepted = !accepted;
    degraded = !degraded;
    invalid = !invalid;
    failures = List.rev !failures;
  }

(** Re-run every persisted counterexample under [dir]. Returns one
    [(path, case, outcome)] triple per corpus file, in filename order. *)
let replay ~(dir : string) () : (string * Gen.case * outcome) list =
  List.map (fun (path, c) -> (path, c, run_case c)) (Corpus.load_dir dir)
