(** Sparse LU factorisation with partial pivoting (left-looking,
    Gilbert-Peierls style with a dense accumulator column) of the
    structural kernel of a simplex basis.

    Factors a square matrix given by its sparse columns as [P A Q = L U],
    where Q takes the columns in increasing nonzero count (stable). The
    singleton columns of a simplex basis (its slacks, and any structural
    singletons) therefore pivot first on their own rows R, and only the
    kernel [K = A_{T,S}] of the other columns S on the other rows T is
    eliminated; the block [A_{R,S}] is kept as it is. Provides the two
    solves the revised simplex needs: ftran ([A x = b]) and btran
    ([A^T x = c]), each a pair of triangular passes over the kernel
    positions plus one scatter through [A_{R,S}]. The vectors are
    {!Hvec.t}s, so the singleton positions cost only where they are
    nonzero. Basis matrices of EBF programs are extremely sparse (path
    incidence structure), and about a quarter of the rows of a basis are
    kernel rows. *)

type t

exception Singular of int
(** Raised by {!factor} with the offending column (the caller's index)
    when the matrix is numerically singular (pivot below the
    tolerance). *)

val factor : ?pivot_tol:float -> Sparse.t array -> t
(** [factor cols] factors the square matrix whose [j]-th column is
    [cols.(j)] (row indices must be < [Array.length cols]). *)

val dim : t -> int
(** Dimension of the factored (square) matrix. *)

val kernel_dim : t -> int
(** Dimension of the eliminated kernel: {!dim} less the leading
    singleton columns. *)

val nnz : t -> int
(** Fill-in diagnostic: stored nonzeros of the whole representation,
    the diagonal, the kernel's [L] and [U] and the block [A_{R,S}]. A
    matrix that needs no elimination, such as a permutation, has exactly
    [dim] of them. *)

val solve : t -> Hvec.t -> Hvec.t -> unit
(** [solve t b x] stores in [x] the solution of [A x = b]; [b] is indexed
    by rows, [x] by columns. Only the entries of [b] below {!dim} are
    read, and [b] is not modified. [x] must be the zero vector on entry
    and distinct from [b]. The solves share a workspace held by [t], so
    one factorisation must not be solved with from two domains at
    once. *)

val solve_transpose : t -> Hvec.t -> Hvec.t -> unit
(** [solve_transpose t c x] stores in [x] the solution of [A^T x = c];
    [c] is indexed by columns, [x] by rows. Only the entries of [c] below
    {!dim} are read, and [c] is not modified. [x] must be the zero vector
    on entry and distinct from [c]. *)
