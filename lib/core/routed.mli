(** A fully embedded LUBT: topology + edge lengths + node positions.

    [cost] is the LP objective (sum of edge lengths); the straight-line
    distance between an edge's endpoints may be smaller than its length
    (elongated edges are later materialised as snaked wire, see
    {!Snake}). *)

type t = {
  instance : Instance.t;
  tree : Lubt_topo.Tree.t;
  lengths : float array;  (** per edge / node id *)
  positions : Lubt_geom.Point.t array;  (** per node *)
}

val cost : t -> float
(** Total wire length [sum_k e_k]. *)

val sink_delays : t -> float array
(** Linear-model delay per sink, in instance order. *)

val skew : t -> float

val min_max_delay : t -> float * float

val edge_slack : t -> int -> float
(** [e_i - dist(s_i, parent)]: zero when the edge is tight, positive when
    elongated (Section 2 terminology). *)

val num_elongated : ?eps:float -> t -> int

val validate : ?eps:float -> t -> (unit, string list) result
(** Full check of Definition 2.1 on the embedding:
    - every edge at least as long as the distance it spans,
    - forced-zero edges degenerate,
    - sinks (and the source, if fixed) at their prescribed locations,
    - every sink delay within its bounds.
    Returns all violations found. *)

val pp_summary : Format.formatter -> t -> unit
