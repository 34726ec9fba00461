(** Deterministic pseudo-random number generator (splitmix64).

    Used for all synthetic benchmark generation so that instances are
    reproducible across runs and platforms without depending on the state of
    [Stdlib.Random]. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator seeded with [seed]. Two
    generators created with the same seed produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val next_int64 : t -> int64
(** Next raw 64-bit output of splitmix64. *)

val float : t -> float -> float
(** [float t bound] is a float drawn uniformly from [\[0, bound)].
    [bound] must be positive. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] is uniform in [\[lo, hi)]. Requires [lo < hi]. *)

val int : t -> int -> int
(** [int t bound] is an int drawn uniformly from [\[0, bound)].
    [bound] must be positive. *)

val bool : t -> bool
(** A uniform boolean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
