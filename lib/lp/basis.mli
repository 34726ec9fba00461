(** Product-form-update basis representation for the revised simplex:
    a sparse LU factorisation of the basis matrix plus a trail of update
    operators — one sparse eta per pivot since the last refactorisation,
    and one border extension per row appended without refactorising.

    This is the simplex engine's only basis representation: ftran/btran
    cost O(kernel + nnz + trail) and a refactorisation costs one sparse LU
    of the structural kernel. Every solve takes and gives {!Hvec.t}s: it
    reads the right-hand side's listed nonzeros and lists the nonzeros of
    its result, so a caller pays for the result's nonzeros, not for the
    basis dimension. *)

type counters = {
  mutable ftrans : int;
  mutable btrans : int;
  mutable updates : int;
  mutable factorisations : int;
  mutable extensions : int;
      (** rows appended via {!append_row} (warm-started basis growth). *)
  mutable factor_nnz : int;
      (** {!Lu.nnz} summed over every factorisation. *)
  mutable basis_nnz : int;
      (** Nonzeros of the factored basis matrices, summed the same way:
          [factor_nnz / basis_nnz] is the mean LU fill ratio. *)
  mutable factor_dim : int;  (** {!Lu.dim} summed over every factorisation. *)
  mutable kernel_dim : int;
      (** {!Lu.kernel_dim} summed the same way: [kernel_dim / factor_dim]
          is the mean share of the basis that is eliminated. *)
}
(** Cumulative operation counters. A counters record outlives individual
    basis factorisations: pass the same record to successive {!create}
    calls (as the simplex engine does across refactorisations) to
    accumulate a whole solve's linear-algebra traffic; {!Simplex.stats}
    reads it as its one source of truth. *)

val fresh_counters : unit -> counters
(** A zeroed counters record. *)

exception Zero_pivot of { row : int; magnitude : float }
(** Raised by {!update} when the pivot entry is numerically zero. Typed
    (rather than a bare [Failure]) so the simplex recovery ladder can
    catch it and escalate instead of killing the solve. *)

type t

val create : ?counters:counters -> ?pivot_tol:float -> Sparse.t array -> t
(** Factorises the basis given by its columns, counting the factorisation
    (and all later ftran/btran/update traffic) in [counters] when given.
    [pivot_tol] is forwarded to {!Lu.factor}.
    @raise Lu.Singular when the basis is singular. *)

val dim : t -> int
(** Current dimension: LU dimension plus appended rows. *)

val trail_nnz : t -> int
(** Nonzeros stored across the eta/border trail. Applying the trail to a
    vector costs O([trail_nnz]); once it rivals {!lu_nnz} a fresh
    factorisation is cheaper than dragging the trail along, which is the
    classic product-form-inverse refactorisation criterion. *)

val lu_nnz : t -> int
(** Nonzeros of the underlying LU factors. *)

val ftran : t -> Hvec.t -> Hvec.t -> unit
(** [ftran t b x] stores [B^-1 b] in [x], which is cleared first; [b] is
    unchanged and must be distinct from [x]. Both have length >= {!dim}. *)

val ftran_sparse : t -> Sparse.t -> Hvec.t -> unit
(** [ftran_sparse t b x] is {!ftran} for a right-hand side given by its
    nonzeros. *)

val btran : t -> Hvec.t -> Hvec.t -> unit
(** [btran t c x] stores [B^-T c] in [x], which is cleared first: the
    adjoint trail, newest first, then the transposed LU solve. [c] is
    unchanged and must be distinct from [x]. *)

val btran_unit : t -> int -> Hvec.t -> unit
(** [btran_unit t r x] stores row [r] of [B^-1] in [x]. *)

val update : ?tol:float -> t -> int -> Hvec.t -> unit
(** [update t r w] records a pivot: the basic variable at position [r] is
    replaced; [w] must be the ftran of the entering column (its nonzeros
    are copied into a sparse eta, and its list is sorted in place). [tol]
    is the smallest acceptable pivot magnitude (default [1e-12]; the
    simplex engine passes its current — possibly escalated — pivot
    tolerance).
    @raise Zero_pivot if [w.(r)] is (numerically) zero. *)

val append_row : t -> Sparse.t -> unit
(** [append_row t bc] grows the represented basis by one row and one
    column without refactorising: the new basis is
    [[B, 0]; [bc^T, -1]], i.e. the appended row has entries [bc] over the
    existing basis positions and the new diagonal belongs to an auxiliary
    variable with coefficient [-1] (the [A | -I] computational form).
    This is exactly the shape {!Simplex.add_rows} produces, one border
    per row, so EBF lazy row generation can keep a factorised basis
    alive across rounds.
    @raise Invalid_argument if [bc] has entries at or beyond {!dim}. *)
