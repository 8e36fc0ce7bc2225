(** Seeded chaos injection for the serve stack.

    The same discipline {!Fv_faults.Plan} applies to speculative memory
    — faults as a pure function of [(seed, ordinal)], so a run is
    reproducible from two integers and an observed failure replays
    exactly — applied one layer up, to the service itself. A chaos plan
    decides, per request admission ordinal, whether to perturb that
    request, and per framer refill / response write, whether to
    degrade the transport. Nothing is sampled at runtime: the bench and
    the differential-oracle test recompute the same plan to know which
    requests were hit and therefore which responses must still be
    byte-identical to the fault-free run.

    Channels are decorrelated by salting the seed per channel (the same
    ordinal must not always co-fire a slow request with a short read),
    all driven by {!Fv_faults.Plan}'s splitmix-style mixer.

    What can be injected:
    - {b Slow}: the worker sleeps [slow_s] before handling — with a row
      timeout armed, this exercises detach + replace + quarantine.
    - {b Die}: the worker raises {!Fv_parallel.Pool.Kill_worker} —
      exercises the supervisor's restart path.
    - {b Poison}: requests whose line contains [poison] are always
      Slow, modeling one hot-looping poison input that repeats until
      quarantine blocks it (rate-based injection alone almost never
      hits the same line twice).
    - {b Short reads}: a framer refill is capped at one byte.
    - {b Short writes}: a response is written in two flushes. Both
      transport channels must be invisible in the bytes delivered.
    - {b Snapshot corruption}: {!corrupt_file} flips one deterministic
      byte past the header, for the loader's corruption tests. *)

type action =
  | Pass
  | Slow  (** delay the request by [slow_s] before handling *)
  | Die  (** kill the worker domain handling the request *)

type t = {
  rate : float;  (** per-request injection probability in [0,1] *)
  seed : int;
  slow_s : float;
  poison : string option;
  transport_rate : float;  (** short read / short write probability *)
}

let salt_fire = 0x5EED_0001
let salt_kind = 0x5EED_0002
let salt_read = 0x5EED_0003
let salt_write = 0x5EED_0004

let make ?(rate = 0.0) ?(seed = 1) ?(slow_s = 0.05) ?poison ?transport_rate ()
    : t =
  {
    rate = Float.max 0.0 (Float.min 1.0 rate);
    seed;
    slow_s;
    poison;
    transport_rate =
      (match transport_rate with
      | Some r -> Float.max 0.0 (Float.min 1.0 r)
      | None -> Float.max 0.0 (Float.min 1.0 rate));
  }

let chance (t : t) (salt : int) (rate : float) (n : int) : bool =
  rate > 0.0 && Fv_faults.Plan.uniform (t.seed lxor salt) n < rate

let contains_sub (s : string) (sub : string) : bool =
  let ls = String.length s and lb = String.length sub in
  lb = 0
  ||
  let rec go i =
    i + lb <= ls && (String.equal (String.sub s i lb) sub || go (i + 1))
  in
  go 0

(** The perturbation for request admission ordinal [n] with raw line
    [line]. Pure: the harness calls this again after the run to learn
    which ordinals were injected. *)
let action (t : t) ~(line : string) ~(ordinal : int) : action =
  match t.poison with
  | Some p when contains_sub line p -> Slow
  | _ ->
      if chance t salt_fire t.rate ordinal then
        if Fv_faults.Plan.uniform (t.seed lxor salt_kind) ordinal < 0.5 then
          Slow
        else Die
      else Pass

(** One flag per line of [lines]: whether the plan perturbs the request
    admitted at that ordinal, when they are admitted in this order (as
    they are when nothing sheds). What a harness recomputes after a run
    to know which answers chaos may have failed. *)
let injected (t : t) (lines : string list) : bool list =
  List.mapi (fun i line -> action t ~line ~ordinal:i <> Pass) lines

(** Run in the worker just before handling: sleep or die. *)
let perturb (t : t) ~(line : string) ~(ordinal : int) : unit =
  match action t ~line ~ordinal with
  | Pass -> ()
  | Slow -> Unix.sleepf t.slow_s
  | Die -> raise (Fv_parallel.Pool.Kill_worker "chaos: injected worker death")

(** Byte cap for framer refill number [n]: [Some 1] simulates a short
    read from a dribbling client. *)
let read_cap (t : t) ~(refill : int) : int option =
  if chance t salt_read t.transport_rate refill then Some 1 else None

(** Should response write number [n] be split into two flushes? *)
let short_write (t : t) ~(write : int) : bool =
  chance t salt_write t.transport_rate write

(** Flip one byte of [path] at a deterministic position in
    [\[after, size)] (default [after = 0]); for snapshot-corruption
    drills. No-op on an empty region. *)
let corrupt_file ?(after = 0) ~(seed : int) (path : string) : unit =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = Bytes.of_string (really_input_string ic n) in
  close_in ic;
  let lo = min after n in
  if n > lo then begin
    let pos = lo + (Fv_faults.Plan.mix seed 0 mod (n - lo)) in
    Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0x20));
    let oc = open_out_bin path in
    output_bytes oc s;
    close_out oc
  end
