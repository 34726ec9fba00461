(** Tilted Rectangular Regions (TRRs).

    A TRR is a rectangle rotated 45 degrees in the Manhattan plane (Section 5
    of the paper). In rotated coordinates [u = x + y], [v = x - y] the
    Manhattan metric becomes Chebyshev and a TRR is an axis-aligned box
    [\[ulo, uhi\] x \[vlo, vhi\]]. Intersections, expansions by a radius, and
    box-to-box distances then reduce to interval arithmetic, and the Helly
    property of Lemma 10.1 holds because boxes are products of intervals.

    Degenerate TRRs (segments and single points) are first-class: the paper
    relies on them (a sink is the point TRR [of_point]). *)

type t = private { ulo : float; uhi : float; vlo : float; vhi : float }

val make : ulo:float -> uhi:float -> vlo:float -> vhi:float -> t
(** Requires [ulo <= uhi] and [vlo <= vhi]. *)

val of_point : Point.t -> t
(** The singleton TRR [{p}]. *)

val of_points : Point.t list -> t
(** Smallest TRR containing all the points. The list must be nonempty. *)

val is_point : ?eps:float -> t -> bool

val width : t -> float
(** Smaller of the two side extents [uhi - ulo] and [vhi - vlo]; [0] for
    segments and points (paper: "the width of a TRR is the length of the
    smaller sides"). *)

val center : t -> Point.t

val contains : ?eps:float -> t -> Point.t -> bool

val subset : ?eps:float -> t -> t -> bool
(** [subset a b] is true when [a] is contained in [b]. *)

val equal : ?eps:float -> t -> t -> bool

val intersect : t -> t -> t option
(** Intersection of two TRRs, which is itself a TRR (Figure 5-(c)); [None]
    when they are disjoint. *)

val intersect_all : t list -> t option
(** Intersection of a nonempty list of TRRs. *)

val expand : t -> float -> t
(** [expand t r] is [TRR(t, r)]: all points within Manhattan distance [r]
    of [t] (Figure 5-(b)). Requires [r >= 0]. *)

val distance : t -> t -> float
(** Minimum Manhattan distance between two TRRs; [0] when they intersect. *)

val dist_to_point : t -> Point.t -> float

val closest_point : t -> Point.t -> Point.t
(** The point of the TRR closest (in Manhattan distance) to the argument.
    When several points qualify, an arbitrary canonical one is returned. *)

val closest_pair : t -> t -> Point.t * Point.t
(** [(p, q)] with [p] in the first TRR, [q] in the second, and
    [Point.dist p q = distance t1 t2]. *)

val corners : t -> Point.t list
(** The four corners in the (x, y) plane (duplicates possible for
    degenerate TRRs). *)

val sample : Lubt_util.Prng.t -> t -> Point.t
(** A uniform random point of the TRR (used by property tests and by the
    randomised placement policies). *)

val pp : Format.formatter -> t -> unit
