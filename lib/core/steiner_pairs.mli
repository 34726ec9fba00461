(** Terminal pairs for lazy Steiner-row generation (Section 4.6), the
    pair machinery of {!Ebf}'s row generator: the set of pairs whose row
    is in the LP, the nearest-neighbour seeding, and the violation scan
    that picks each round's rows. A terminal is a tree node with its fixed
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
  batch:int ->
  int * (int * int) list * bool
(** [violations s terms tree d ~threshold ~batch] scans the pairs of
    distinct locations not in [s], under the root-to-node delays [d], for
    those whose path is shorter than their distance by more than
    [threshold]. It returns how many it found, the round's batch, and
    whether the scan was cut. The batch is the [batch] pairs of largest
    shortfall, largest first, ties going to the later-scanned pair; it
    is selected during the scan, so the violated pairs are never listed.
    [stop] is polled before each terminal's row of pairs; once it returns
    [true] the scan ends and the flag is [true]. *)
