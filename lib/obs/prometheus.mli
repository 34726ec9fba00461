(** Prometheus text-exposition (version 0.0.4) rendering of a
    {!Metrics} snapshot.

    Each distinct metric name gets one [# HELP] and one [# TYPE]
    comment (taken from the first sample carrying that name), followed
    by every labelled sample. Histograms expand into cumulative
    [_bucket] series with [le] upper-bound labels ending in
    [le="+Inf"], plus [_sum] and [_count]. Label values escape
    backslash, double-quote and newline; [# HELP] text escapes
    backslash and newline, per the exposition format spec. Non-finite
    numbers render as Prometheus tokens ([+Inf], [-Inf], [NaN]). *)

val render : Metrics.sample list -> string
(** The full exposition page for a snapshot, typically
    [render (Metrics.snapshot ())]. Ends with a newline. *)
