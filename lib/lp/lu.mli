(** Sparse LU factorisation with partial pivoting (left-looking,
    Gilbert-Peierls style with a dense accumulator column).

    Factors a square matrix given by its sparse columns as [P A Q = L U],
    where Q takes the columns in increasing nonzero count (stable). The
    singleton columns of a simplex basis (its slacks) therefore pivot
    first on their own rows, and fill is confined to the structural
    kernel. Provides the two solves the revised simplex needs: ftran
    ([A x = b]) and btran ([A^T x = c]), each a pair of triangular
    passes over dense vectors that skip zero components: the factors
    are kept by column for ftran and by row for btran. Basis matrices of
    EBF programs are extremely sparse (path incidence structure), so
    factorisation and solves run in roughly O(n + nnz) instead of the
    dense O(n^3)/O(n^2). *)

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

val nnz : t -> int
(** Fill-in diagnostic: stored nonzeros of [L] and [U] (the diagonal
    counted once). A matrix that needs no elimination, such as a
    permutation, has exactly [dim] of them. *)

val solve : t -> float array -> float array
(** [solve t b] returns [x] with [A x = b]; [b] is indexed by rows, [x]
    by columns. Only the first {!dim} entries of [b] are read, and [b] is
    not modified. The solves share a workspace held by [t], so one
    factorisation must not be solved with from two domains at once. *)

val solve_transpose : t -> float array -> float array
(** [solve_transpose t c] returns [x] with [A^T x = c]; [c] is indexed by
    columns, [x] by rows. Only the first {!dim} entries of [c] are read,
    and [c] is not modified. *)
