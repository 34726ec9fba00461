(** Terminal pairs for lazy Steiner-row generation (Section 4.6), shared
    by {!Ebf} and {!Skew_lp}: the set of pairs whose row is in the LP,
    the nearest-neighbour seeding, the violation scan and the choice of
    each round's rows. A terminal is a tree node with its fixed
    location; a pair [(i, j)], [i < j], indexes the terminal array.
    {!Ebf.check_lengths} shares no code with this module on purpose: it
    certifies what the generator produced. *)

type t
(** A set of pairs over [t] terminals: one bit per pair. *)

val create : int -> t
(** [create t] is the empty set over [t] terminals. *)

val mem : t -> int -> int -> bool
(** @raise Invalid_argument unless [0 <= i < j < t]. *)

val add : t -> int -> int -> unit
(** @raise Invalid_argument unless [0 <= i < j < t]. *)

val nearest : (int * Lubt_geom.Point.t) array -> int -> (int -> int -> unit) -> unit
(** [nearest terms k f] calls [f i j] for each terminal [i] in increasing
    order and its [k] nearest terminals [j <> i] by Manhattan distance,
    in the order of sorting the [(dist, j)] pairs; O(t k) per terminal. *)

val violations :
  ?stop:(unit -> bool) ->
  t ->
  (int * Lubt_geom.Point.t) array ->
  Lubt_topo.Tree.t ->
  float array ->
  threshold:float ->
  (float * (int * int)) list * bool
(** [violations s terms tree d ~threshold] scans the pairs of distinct
    locations not in [s], under the root-to-node delays [d], and returns
    those whose path is shorter than their distance by more than
    [threshold], with that shortfall, last scanned first. [stop] is
    polled before each terminal's row of pairs; once it returns [true]
    the scan ends and the flag is [true]. *)

val worst : int -> (float * (int * int)) list -> (int * int) list
(** [worst k vs] is the first [k] pairs of [vs] stably sorted by
    decreasing shortfall, selected in one pass. *)
