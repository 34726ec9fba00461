(** Monotonic time source.

    Every timestamp in the observability layer — trace events, simplex
    phase timings, deadlines — comes from here rather than from
    [Unix.gettimeofday]. The distinction matters for two of its users:

    - {b Deadlines} ([Simplex.set_time_limit]): a wall-clock step
      (NTP slew, manual adjustment) under [gettimeofday] either fires a
      spurious [Time_limit] or disables the budget entirely. The
      monotonic clock is immune by construction.
    - {b Trace ordering}: {!Trace} events are sorted and nested by
      timestamp; a non-monotonic source would produce negative spans.

    Backed by [CLOCK_MONOTONIC] via the zero-dependency
    [bechamel.monotonic_clock] C stub. The epoch is arbitrary (boot
    time on Linux): values are only meaningful as differences. *)

val now_ns : unit -> int64
(** Nanoseconds on the monotonic clock. *)

val now : unit -> float
(** Seconds on the monotonic clock, as a float ([now_ns] scaled by
    1e-9). Resolution is preserved well beyond any span this codebase
    measures: a double holds relative nanoseconds exactly for ~104
    days of uptime. *)
