(** Content-addressed cross-request warm-basis cache.

    Persists {!Simplex.warm_basis} snapshots of solved LPs so a repeated or
    slightly-edited instance — the classic engineering change order: a
    bound tightened, a sink moved — re-enters the dual simplex from the
    parent optimum instead of from scratch. Two tiers: an in-memory LRU
    (always on) and an optional on-disk store of versioned, checksummed
    snapshot files (survives daemon restarts).

    {b Keying.} The store is content-addressed by two caller-computed
    fingerprints (see {!Fingerprint}):

    - the {e structure} fingerprint covers everything that fixes the LP's
      column space and row semantics — delay model, topology, objective
      weights — but {e not} geometry or bounds (EBF constraint
      coefficients are geometry-independent; geometry only moves row
      bounds);
    - the {e full key} additionally covers geometry and the bounds
      signature, so equal keys mean the identical LP.

    A {!find} therefore distinguishes an {!Exact} hit (same LP solved
    before) from a {!Parent} hit (same structure, edited bounds or
    geometry — the basis stays dual feasible and warm-starts the edited
    LP) and a {!Miss}.

    {b Safety.} The cache is an accelerator, never an oracle: callers must
    validate a served snapshot against the rebuilt LP
    ({!Simplex.install_warm_basis} rejects dimension disagreements with a
    typed {!Simplex.basis_mismatch}) and re-certify the re-solved answer.
    Disk snapshots carry a trailing FNV-1a checksum; torn, truncated or
    bit-flipped files are rejected (counted in {!stats}[.rejects]) and
    treated as misses.

    {b Domain safety.} All operations are serialised by an internal mutex,
    so one cache value may be shared freely across the executor and pool
    worker domains. *)

(** Incremental FNV-1a (64-bit) fingerprinting over a canonical byte
    encoding. Integers hash as 8 little-endian bytes, floats through
    {!Int64.bits_of_float} (so [-0.0] and [0.0] differ, as do NaN
    payloads), strings with a length prefix. *)
module Fingerprint : sig
  type h
  (** Mutable hash accumulator. *)

  val create : unit -> h
  (** Fresh accumulator at the FNV offset basis. *)

  val add_int : h -> int -> unit
  (** Absorbs an integer (8 bytes). *)

  val add_float : h -> float -> unit
  (** Absorbs a float by its IEEE-754 bit pattern (8 bytes). *)

  val add_string : h -> string -> unit
  (** Absorbs a string, length-prefixed (no concatenation ambiguity). *)

  val digest : h -> string
  (** Current digest as 16 lowercase hex characters. The accumulator
      remains usable (the digest is a read). *)
end

type entry = {
  e_structure : string;  (** structure fingerprint (see module docs) *)
  e_key : string;  (** full fingerprint: structure + geometry + bounds *)
  e_basis : Simplex.warm_basis;  (** the optimal basis snapshot *)
  e_delay : int array;
      (** sink indices that contributed delay rows, in row order — the
          warm path must reproduce this exact row layout *)
  e_pairs : (int * int) array;
      (** Steiner rows as terminal-index pairs, in append order (seed rows
          first, then lazily generated rows round by round) *)
  e_objective : float;  (** certified objective of the parent solve *)
}
(** One cached solve: the basis plus the row layout needed to rebuild an
    LP of the identical shape, and the parent objective for diagnostics. *)

type lookup =
  | Exact of entry  (** same full key: the identical LP was solved before *)
  | Parent of entry
      (** same structure, different key: an edited sibling whose basis
          warm-starts the edited LP *)
  | Miss  (** nothing usable cached *)

type stats = {
  hits : int;  (** exact + parent lookups served *)
  misses : int;  (** lookups that found nothing *)
  stores : int;  (** snapshots stored *)
  evictions : int;  (** in-memory LRU evictions *)
  rejects : int;
      (** corrupt disk snapshots, mis-keyed files, and caller-reported
          rejections ({!reject}) — e.g. dimension mismatches *)
}
(** Monotonic counters since {!create}. *)

val hit_rate : stats -> float
(** [hits / (hits + misses)], or [0.] before any lookup. *)

type t
(** A cache handle. *)

val create : ?capacity:int -> ?dir:string -> unit -> t
(** [create ()] builds an in-memory cache of [capacity] snapshots
    (default 128, minimum 1, LRU eviction). With [~dir] every store is
    also published to [dir] (created if missing) as an atomic
    temp-file-plus-rename write, and lookups fall through to disk on a
    memory miss — this is the tier that makes warm starts survive a
    daemon restart. *)

val find : t -> structure:string -> key:string -> lookup
(** Looks up [key], falling back to the latest entry stored under
    [structure] (the ECO-parent path), memory first then disk. Disk hits
    are promoted into the memory tier. Counts one hit or one miss per
    call. *)

val store : t -> entry -> unit
(** Publishes a snapshot under [entry.e_key] and marks it the latest for
    [entry.e_structure]. Only store certified-optimal bases — the cache
    trusts its callers on this. Disk write failures are logged and
    swallowed. *)

val reject : t -> reason:string -> unit
(** Records that a served snapshot was rejected by the caller after
    validation (typed dimension mismatch, unfactorisable basis). Feeds
    {!stats}[.rejects]. *)

val stats : t -> stats
(** Counter snapshot. *)

val capacity : t -> int
(** Configured in-memory capacity. *)

val dir : t -> string option
(** Configured disk tier, if any. *)
