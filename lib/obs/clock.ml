(** Monotonic clock, in seconds.

    Reads [CLOCK_MONOTONIC], which never steps backwards (NTP slew or
    step, VM migration) and resolves tens of nanoseconds, where
    [Unix.gettimeofday] resolves about a microsecond. Its origin (boot
    time) is arbitrary: readings are only ever subtracted from one
    another or rebased ({!Chrome.of_spans}'s [t_base]), never shown as
    dates. *)

let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(** Seconds elapsed since [since] (a value previously returned by
    {!now}); never negative. *)
let elapsed ~(since : float) : float = Float.max 0.0 (now () -. since)
