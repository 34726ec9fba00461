(** Immutable sparse vectors (index/value pairs), used for LP constraint rows
    and columns. Indices are strictly increasing and values are nonzero. *)

type t

val empty : t

val of_assoc : (int * float) list -> t
(** Builds a sparse vector from (index, value) pairs. Duplicate indices are
    summed; zero results are dropped. Indices must be nonnegative. *)

val append : t -> (int * float) list -> t
(** [append t entries] is [t] followed by [entries], built by one blit.
    The appended indices must be strictly increasing and above
    [max_index t], and their values nonzero (checked by assertions). *)

val singleton : int -> float -> t
(** [singleton i v] is the vector with the single entry [v] at index [i]
    ({!empty} when [v] is zero). *)

val of_dense : float array -> t
(** Gathers the nonzeros of a dense vector. *)

val nnz : t -> int

val iter : (int -> float -> unit) -> t -> unit

val dot_dense : t -> float array -> float
(** Dot product with a dense vector; indices must be within bounds. *)

val add_scaled_into : float array -> float -> t -> unit
(** [add_scaled_into dst k v] performs [dst.(i) <- dst.(i) +. k *. v_i] for
    every nonzero of [v]. *)

val to_assoc : t -> (int * float) list

val max_index : t -> int
(** Largest index present; [-1] for the empty vector. *)
