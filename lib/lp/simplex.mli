(** Revised bounded-variable simplex engine.

    The engine keeps the LP in the GLPK-style computational form: every row
    [i] of the model gets an auxiliary variable [x_aux_i] tied by
    [a_i^T x_struct - x_aux_i = 0], so the equality system is
    [\[A | -I\] x = 0] and all row bounds become bounds on auxiliary
    variables. The initial all-auxiliary basis is always nonsingular
    ([B = -I]).

    The one algorithm is the dual simplex. Every LP the program builds
    starts dual feasible (the EBF LPs, whose costs are [>= 0] on finite
    lower bounds, and their warm restarts after rows are added), so the
    dual simplex optimises from the start. Any other start runs a dual
    phase 1 first: the subproblem approach of Koberstein and Suhl (2007),
    which swaps every bound for a box around 0 and runs the same dual
    simplex to a dual feasible basis. When none exists, one more dual
    simplex run under zero costs decides between {!Status.Unbounded} and
    {!Status.Infeasible}.

    The basis has one representation: a sparse LU factorisation plus a
    trail of eta updates and border rows ({!Basis}), refactorised every
    [refactor_every] pivots.

    Rows can be appended between solves ([add_rows]); the live
    factorisation is extended by a border row and stays dual feasible, so
    re-optimisation is a short dual-simplex run. This implements the
    paper's Section 4.6 constraint-reduction strategy as exact lazy row
    generation.

    {b Domain safety.} The engine keeps no global mutable state: every
    working array, the basis factorisation, the {!Basis.counters} record
    and the {!stats} mirror are owned by the [t] value returned by
    {!of_problem}. Concurrent [solve] calls on {e distinct} engines from
    different domains are therefore safe and produce the same results as
    sequential calls (the batch layer {!Lubt_util.Pool} relies on this;
    cross-checked in [test/test_pool.ml]). A single [t] must not be
    shared between domains without external synchronisation. *)

type t
(** A loaded LP engine: problem snapshot, current basis and its
    factorisation, and cumulative telemetry. Create with {!of_problem};
    all mutation goes through {!solve}, {!add_rows} and
    {!set_time_limit}. *)

(** Where a deterministic fault is injected (testing only). *)
type fault_kind =
  | Fault_singular_refactor
      (** a basis refactorisation raises as if the basis were singular *)
  | Fault_perturb_ftran
      (** one component of an ftran result gets a large relative error,
          corrupting subsequent pivots until validation catches it *)
  | Fault_zero_pivot
      (** a basis update raises {!Basis.Zero_pivot} as if the pivot
          entry were numerically zero *)

type fault = {
  fault_seed : int;  (** seed of the private splitmix64 fault stream *)
  fault_kinds : fault_kind list;  (** which sites may fire *)
  fault_rate : float;  (** firing probability per eligible call site *)
  max_faults : int;
      (** lifetime cap per engine, so recovery retries eventually run
          clean *)
}

val fault_plan :
  ?kinds:fault_kind list -> ?rate:float -> ?max_faults:int -> int -> fault
(** [fault_plan seed] is a fault configuration with all kinds enabled,
    [rate = 0.25] and [max_faults = 3]. Faults fire only during [solve],
    never while loading or adding rows, and identically for identical
    (problem, seed) pairs. *)

(** One rung of the numerical-recovery ladder. *)
type recovery_stage =
  | Refactor_retry  (** rebuild the basis factorisation and retry *)
  | Tighten_pivot_tol
      (** escalate the pivot tolerance by 100x (capped at 1e-5), making
          the ratio tests refuse the near-zero pivots that broke the
          factorisation *)
  | Perturb_and_resolve
      (** relax all finite bounds outward by a seeded relative ~1e-7
          noise, drive to optimality on the perturbed problem to escape
          the degenerate vertex, then restore the exact bounds and
          re-solve cleanly *)

type params = {
  max_iters : int;  (** 0 means choose automatically from the size *)
  refactor_every : int;  (** pivots between basis refactorisations *)
  recovery : recovery_stage list;
      (** the numerical-recovery ladder, consumed left to right: each
          numerical failure (singular factorisation, zero pivot,
          post-solve validation reject) applies the next stage and
          retries the solve; an exhausted (or empty) ladder yields
          {!Status.Numerical_failure}. Default: all three stages in the
          order above. *)
  fault : fault option;  (** deterministic fault injection (default [None]) *)
}

val default_params : params
(** [refactor_every = 100], automatic iteration cap,
    full recovery ladder, no fault injection.

    The algorithm itself is not configurable. The leaving row is the
    most violated one, and the dual ratio test is the long-step
    (bound-flipping) rule: boxed nonbasic columns whose breakpoint cannot
    absorb the remaining primal violation flip to their opposite bound
    without a basis change. {!add_rows} extends the live factorisation by
    a border row. The tolerances are fixed: primal feasibility [1e-7] and
    reduced-cost optimality [1e-9], both relative to [1 + |value|], and
    pivot magnitude [1e-9] (escalated only by the {!Tighten_pivot_tol}
    recovery stage). *)

type recoveries = {
  refactor_retries : int;
  tolerance_escalations : int;
  perturbed_resolves : int;
  faults_injected : int;  (** faults actually fired (testing) *)
  validations_rejected : int;
      (** optimal bases rejected by the post-solve check, which reads the
          column data and never the factorisation *)
}
(** Recovery-ladder telemetry; all zero on a numerically clean solve. *)

val recovery_attempts : recoveries -> int
(** Total ladder stages applied (sum of the three stage counters;
    excludes [faults_injected] and [validations_rejected]). *)

type stats = {
  iterations : int;
      (** total dual simplex pivots over the engine's lifetime, dual
          phase 1 included *)
  bound_flips : int;
      (** nonbasic bound flips performed by the long-step dual ratio
          test (not counted as iterations — no basis change) *)
  ftran_count : int;  (** forward solves [B^-1 a] *)
  btran_count : int;  (** transpose solves [B^-T c] *)
  basis_updates : int;  (** eta updates applied *)
  basis_extensions : int;
      (** rows appended to a live factorisation by warm-started
          {!add_rows} *)
  refactorisations : int;  (** basis factorisations from scratch *)
  factor_nnz : int;
      (** nonzeros of the LU factors, summed over the factorisations *)
  basis_nnz : int;
      (** nonzeros of the factored basis matrices, summed the same way;
          [factor_nnz / basis_nnz] is the mean LU fill ratio *)
  factor_dim : int;
      (** dimensions of the factored bases, summed the same way *)
  kernel_dim : int;
      (** dimensions of their eliminated kernels (the basis less its
          leading singleton columns), summed the same way;
          [kernel_dim / factor_dim] is the mean kernel share *)
  dual_seconds : float;  (** wall time of the dual simplex runs *)
  recoveries : recoveries;  (** numerical-recovery telemetry *)
}
(** Cumulative solver counters, preserved across warm restarts ([add_rows] +
    re-[solve]); read them with {!stats} at any point. Counter fields are
    valid from engine creation onwards (all zero before the first
    [solve]); [dual_seconds] only covers completed runs, so it
    undercounts while a [solve] is in flight. The [recoveries] field
    is only meaningful after [solve] has returned — a recovery in
    progress is not yet counted. *)

val zero_stats : stats
(** All-zero counters: the identity of {!merge_stats} and the natural
    accumulator seed for batch aggregation. *)

val merge_stats : stats -> stats -> stats
(** [merge_stats a b] sums every counter and the run time (and the nested
    {!recoveries}) component-wise. Commutative and associative with
    {!zero_stats} as identity, so per-worker telemetry from a
    domain-parallel sweep can be folded in any order into one
    whole-corpus record, as [Lubt_experiments.Batch] does. *)

val of_problem : ?params:params -> Problem.t -> t
(** Loads a model. The engine takes a snapshot: later changes to the
    [Problem.t] are not seen (use [add_rows] to grow the engine itself). *)

val solve : t -> Status.t
(** Runs the dual simplex from the current basis, after a dual phase 1
    when that basis is not dual feasible, and returns the final status. A
    limit hit in phase 1 is returned as the status. Idempotent once
    optimal.

    Numerical failures (singular refactorisation, zero pivots, a rejected
    post-solve validation) do not escape: they walk the
    {!params}[.recovery] ladder, and only an exhausted ladder returns
    {!Status.Numerical_failure}. Every optimal claim is validated against
    the original column data before being returned. *)

val set_time_limit : t -> float -> unit
(** Overrides the wall-clock budget (seconds) for subsequent [solve] calls;
    [infinity] disables, a non-positive value makes the next solve return
    {!Status.Time_limit} immediately. Used by callers that spread one
    budget over several warm restarts. *)

val to_problem : t -> Problem.t
(** Reconstructs a standalone model equal to the engine's current one,
    including rows appended with [add_rows] (diagnostics / oracles). *)

val add_rows : t -> (float * float * (int * float) list) list -> unit
(** [add_rows t rows] appends the constraint rows [(lo, up, coeffs)] over
    structural variables, in list order. Every row is validated before
    anything is mutated, so a rejected batch leaves the engine unchanged.
    Each touched column is extended once per batch, and each row appends
    one border to the live factorisation (counted in [basis_extensions]),
    exactly as appending the rows one at a time would: the re-solve
    skips the refactorisation and takes the same pivots. The engine stays
    dual feasible; call [solve] to re-optimise (it will run the dual
    simplex).
    @raise Invalid_argument if a row has [lo > up] or references an
    unknown structural variable. *)

type warm_basis = {
  wb_nvars : int;  (** structural variable count of the source engine *)
  wb_nrows : int;  (** row count of the source engine *)
  wb_basic : int array;
      (** row [r] was occupied by variable [wb_basic.(r)] (auxiliary
          variables use the [nvars + row] convention) *)
  wb_nonbasic : string;
      (** one status marker per variable over [wb_nvars + wb_nrows]:
          ['b'] basic, ['l'] at lower bound, ['u'] at upper bound,
          ['f'] free at zero *)
}
(** A self-contained snapshot of a basis: which variable occupies each row
    and the bound status of every nonbasic variable. Plain data — it holds
    no factorisation and no pointer into the engine, so it can be stored,
    serialised and installed into a {e different} engine of the same shape
    (the cross-request cache {!Basis_cache} does both). *)

type basis_mismatch = {
  bm_expected_vars : int;  (** structural variables of the target engine *)
  bm_expected_rows : int;  (** rows of the target engine *)
  bm_got_vars : int;  (** structural variables recorded in the snapshot *)
  bm_got_rows : int;  (** rows recorded in the snapshot *)
  bm_reason : string;  (** human-readable cause *)
}
(** Why {!install_warm_basis} refused (or failed to factorise) a snapshot.
    Dimension disagreements — the classic stale-cache hazard when an ECO
    edit added or removed a sink — are always rejected through this type,
    never mapped silently. *)

val pp_basis_mismatch : Format.formatter -> basis_mismatch -> unit
(** One-line rendering of a {!basis_mismatch} for logs and error JSON. *)

val warm_basis : t -> warm_basis
(** Snapshots the engine's current basis. Callers that intend to reuse the
    snapshot should take it only after [solve] returned
    {!Status.Optimal}. *)

val install_warm_basis : t -> warm_basis -> (unit, basis_mismatch) result
(** Installs a snapshot taken from an engine of identical shape (same
    variable and row counts; typically the same model with edited bounds).
    The snapshot is validated first — dimensions, index ranges, duplicate
    basic variables, status consistency — and rejected with [Error] before
    any engine state changes. Statuses resting on bounds that are no longer
    finite are coerced to a valid nonbasic state. On success the basis is
    factorised immediately and the next [solve] warm-starts from it (for
    bound-only edits the basis stays dual feasible, so re-optimisation is a
    short dual-simplex run). A snapshot that passes validation but proves
    singular to factorise also returns [Error], after the engine has been
    restored to its all-slack cold-start basis — an [Error] therefore
    always leaves the engine in a valid, solvable state. *)

val nrows : t -> int
(** Number of constraint rows currently loaded (including rows appended
    with {!add_rows}). *)

val objective : t -> float
(** Objective value of the current basis. Only a certified optimum after
    [solve] returned {!Status.Optimal}; mid-ladder or after a time limit
    it is simply the value of the basis reached. *)

val primal : t -> float array
(** Structural variable values of the current basis. *)

val row_activity : t -> float array
(** [a_i^T x] per row for the current basis (length {!nrows}). *)

val dual : t -> float array
(** Simplex multipliers [y] (one per row) of the current basis. *)

val iterations : t -> int
(** Total simplex pivots over the engine's lifetime (equals
    [(stats t).iterations]). *)

val stats : t -> stats
(** Snapshot of the cumulative solver counters. *)

val pp_stats : Format.formatter -> stats -> unit
(** Multi-line human-readable rendering of a counters snapshot, including
    the [bound_flips] counter and the nested {!recoveries} record (the
    recovery line is always printed, zeros included, so [--stats]
    consumers see a stable shape). *)

type probe_event = {
  pr_iteration : int;  (** {!iterations} after the pivot (or at the
                           recovery event) *)
  pr_phase : string;
      (** ["dual_phase1"] (the boxed subproblem, or the zero-cost run
          that tells an unbounded LP from an infeasible one), ["dual"],
          or ["recovery"] *)
  pr_objective : float;  (** objective of the current (possibly
                             infeasible) point *)
  pr_primal_infeas : float;  (** total bound violation of basic variables *)
  pr_dual_infeas : float;
      (** worst reduced-cost violation over nonbasic columns; [nan] on
          recovery events, where the factorisation is not trusted *)
  pr_entering : int;
      (** entering variable index (auxiliary of row [i] is [nvars + i]);
          [-1] when none (pure bound flip, recovery event) *)
  pr_leaving : int;  (** leaving variable index; [-1] when none *)
  pr_eta_count : int;  (** basis updates since the last refactorisation *)
  pr_bound_flips : int;  (** cumulative long-step bound flips *)
  pr_recovery : string option;
      (** recovery-ladder stage name when this event marks a stage
          engaging, [None] on ordinary pivots *)
}
(** One observation of the per-iteration convergence probe. *)

type probe = probe_event -> unit

val set_probe : t -> probe option -> unit
(** Installs (or removes) a per-iteration probe. The probe fires after
    every pivot and when a recovery stage engages; dump the
    events as JSON lines with [Lubt_obs.Convergence].

    The probe is {e observational but not free}: computing the dual
    infeasibility costs one extra BTRAN plus a column scan per pivot, and
    those solves are counted in the shared {!stats} counters — so an
    engine with a probe installed reports more [btran_count] than the
    same solve unobserved. With no probe installed ([None], the default)
    the engine's counters, pivots and results are bit-identical to an
    uninstrumented build. *)

val solution : t -> Status.solution
(** Packages the current state (status as of the last [solve]). *)
