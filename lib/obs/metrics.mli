(** Process-wide metrics registry: counters, gauges and log-bucketed
    histograms with mergeable per-domain storage.

    The registry follows the same discipline as {!Trace}: each domain
    records into its own cells looked up through domain-local storage
    (no lock, no allocation on the record path), cells are registered
    in a global list so {!snapshot} can merge them after the recording
    domains are gone, and a generation counter invalidates cached
    cells across {!reset} calls. Recording is gated behind a single
    {!Atomic} load — when the registry is disabled (the default) every
    record call is one load and a branch, so instrumented hot loops
    pay ~0% overhead in normal operation.

    Metric handles are registered once (typically at module
    initialisation) and are cheap immutable tokens; registering the
    same [(name, labels)] pair twice returns the original handle, so
    libraries can register independently without coordination.

    Semantics per kind:
    - {b counters} accumulate monotonically; per-domain sums are added
      at snapshot time.
    - {b gauges} are last-writer-wins point-in-time values held in one
      atomic cell (they are set from bookkeeping paths, not hot loops).
    - {b histograms} have a fixed bucket layout chosen at registration
      ({!Buckets.log} by default); each record is an O(log buckets)
      bound search and two unsynchronised per-domain increments.
      Snapshots merge bucket counts across domains and carry the
      running sum and total count, so they compose with further
      merging ({!merge_histogram}) and quantile reads
      ({!Buckets.quantile}). *)

type counter
type gauge
type histogram

(** Bucket-layout helpers: the registry's histograms use them, and a
    reader can take {!quantile} over any bucket counts on a layout. *)
module Buckets : sig
  val log : lo:float -> hi:float -> count:int -> float array
  (** [log ~lo ~hi ~count] is [count] geometrically spaced upper
      bounds from [lo] to [hi] inclusive ([lo], [hi] positive,
      [count >= 2]). Values above [hi] land in the implicit [+inf]
      bucket that every histogram appends. *)

  val index : float array -> float -> int
  (** [index bounds v] is the bucket for [v]: the first [i] with
      [v <= bounds.(i)], or [Array.length bounds] for the overflow
      ([+inf]) bucket. Binary search; [nan] maps to the overflow
      bucket. *)

  val quantile : bounds:float array -> counts:int array -> float -> float
  (** [quantile ~bounds ~counts q] estimates the [q]-quantile
      ([0 <= q <= 1]) by nearest rank over cumulative bucket counts,
      returning the upper bound of the bucket holding that rank
      ([counts] has [Array.length bounds + 1] entries, last =
      overflow; ranks landing in the overflow bucket report the last
      finite bound). Returns [0.0] when all counts are zero. Reads are
      O(buckets) and never sort or copy samples. *)
end

(** {1 Lifecycle} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Clears every recorded value (bumping the generation orphans all
    per-domain cells; registrations survive). Does not change the
    enabled flag. *)

(** {1 Registration} *)

val counter : ?help:string -> ?labels:(string * string) list -> string -> counter
val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  string ->
  histogram
(** [buckets] defaults to {!Buckets.log}[ ~lo:0.01 ~hi:10_000.0
    ~count:28] — a layout sized for millisecond latencies from 10µs
    to 10s at ~1.67x resolution. *)

(** {1 Recording} (no-ops while disabled) *)

val incr : ?by:float -> counter -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type histogram_snapshot = {
  h_bounds : float array;  (** finite upper bounds, ascending *)
  h_counts : int array;  (** per-bucket counts; length [bounds + 1], last = +inf *)
  h_sum : float;  (** sum of observed values *)
  h_count : int;  (** total observations (= sum of [h_counts]) *)
}

type value =
  | Counter of float
  | Gauge of float
  | Histogram of histogram_snapshot

type sample = {
  s_name : string;
  s_help : string;
  s_labels : (string * string) list;
  s_value : value;
}

val snapshot : unit -> sample list
(** Point-in-time merge of every registered metric across all domains
    that recorded since the last {!reset}, in registration order.
    Safe to call concurrently with recording: counter and bucket reads
    are unsynchronised (a snapshot racing a record may miss the very
    latest increments, never corrupt totals). *)

val read_counter : counter -> float
(** One counter merged across domains: the value {!snapshot} reports
    for it, without merging every other metric. *)

val merge_histogram :
  histogram_snapshot -> histogram_snapshot -> histogram_snapshot
(** Pointwise sum of two snapshots with identical bucket layouts.
    @raise Invalid_argument on layout mismatch. *)

val quantile : histogram_snapshot -> float -> float
(** {!Buckets.quantile} over a snapshot's own layout. *)
