(** Work vectors of the basis solves: a dense array that lists its
    nonzero positions, so a caller can read, update and reset it at the
    cost of its nonzeros rather than its length.

    Invariant: [v.(i)] is [0.0] unless [on.(i)], and [idx.(0 .. nnz-1)]
    lists each [i] with [on.(i)] exactly once, in no particular order
    unless {!sort} was called. A listed entry may hold [0.0] (a sum that
    cancelled). Code outside this module reads the fields directly; it
    may overwrite the value of a listed entry, and anything else it
    writes must keep the invariant (the hottest loops of [Lu] and
    [Basis] list their entries themselves rather than call {!add}). *)

type t = { v : float array; idx : int array; on : bool array; mutable nnz : int }

val create : int -> t
(** [create n] is the zero vector of length [n]. *)

val dim : t -> int

val clear : t -> unit
(** Back to the zero vector, in O(nnz). *)

val set : t -> int -> float -> unit
(** [set t i x] stores [x] at [i] and lists [i]. *)

val add : t -> int -> float -> unit
(** [add t i x] is [v.(i) <- v.(i) +. x], listing [i]. *)

val sort_prefix : int array -> int -> unit
(** [sort_prefix a n] sorts [a.(0 .. n-1)] increasingly. *)

val sort : t -> int -> unit
(** [sort t bound] sorts the listed positions increasingly; all of them
    must be below [bound]. A list longer than a sixteenth of [bound] is
    rebuilt by one pass over the flags below [bound] instead of being
    sorted. *)
