(** Chrome trace-event export.

    Renders a {!Trace} buffer in the Chrome trace-event JSON format
    ({{:https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU}spec}),
    loadable in Perfetto ([ui.perfetto.dev]) or [chrome://tracing].

    Mapping from the {!Trace} event model:
    - [Span dur] → a complete event ([ph:"X"]) with [ts]/[dur] in
      microseconds;
    - [Instant] → [ph:"i"] with thread scope ([s:"t"]);
    - [Counter] → [ph:"C"] with the sampled series as [args];
    - event args → the [args] object ([Float]s as numbers, the rest
      per their type).

    Each event's [tid] is the recording Domain's id, and the export
    prepends metadata events ([ph:"M"]) naming the process ["lubt"]
    and each thread ["domain N"] — so a [Pool]-parallel run renders
    its workers as separate horizontal tracks. Timestamps are
    rebased to the earliest event so traces start near zero. *)

val to_string : ?pid:int -> ?dropped:int -> Trace.event list -> string
(** [to_string events] is the compact [{"traceEvents": [...]}] object.
    [pid] defaults to the OS process id. When [dropped] (typically
    {!Trace.dropped}[ ()]) is positive, a [trace_dropped_events]
    metadata event carrying the count is appended, so a recording
    whose ring wrapped is visibly truncated instead of silently
    short. *)

val write : ?pid:int -> ?dropped:int -> string -> Trace.event list -> unit
(** [write path events] writes {!to_string} to [path]. *)
