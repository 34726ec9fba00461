(** Independent a-posteriori certification of LP solutions.

    [check] takes the original {!Problem.t} and a claimed
    {!Status.solution} and re-derives everything from raw problem data:
    primal feasibility of every row and bound, agreement of the reported
    objective and row activities with the primal vector, dual sign
    feasibility, complementary slackness, and the weak-duality gap.

    It deliberately shares no state with the solvers — a corrupted basis
    factorisation (or a corrupted solution vector) cannot certify itself.
    Paired with the test suite's dense tableau oracle ([test/tableau.ml])
    it gives end-to-end confidence in results produced through the
    recovery ladder. *)

type level =
  | Off  (** no checking; [check] returns a trivially-ok report *)
  | Primal
      (** primal feasibility + objective agreement only. The right level
          when the dual vector is unavailable or meaningless (e.g. a
          solution of the test suite's tableau oracle, whose duals are
          zeros). *)
  | Full
      (** [Primal] plus dual sign feasibility, complementary slackness
          and the weak-duality gap: an [ok] report at this level is an
          optimality certificate up to the tolerance. *)

type report = {
  level : level;
  rows_checked : int;  (** rows whose bounds and activity were verified *)
  primal_residual : float;
      (** worst relative violation of any row/variable bound, including
          disagreement between the reported and recomputed activities *)
  dual_residual : float;
      (** worst relative dual sign violation (a multiplier pushing
          against an infinite bound) *)
  complementarity : float;
      (** worst relative slack x multiplier product of a nominally
          active constraint *)
  duality_gap : float;  (** relative gap between primal and dual objectives *)
  objective_error : float;
      (** relative disagreement between the reported objective and
          [c^T x] recomputed from the primal vector *)
  ok : bool;
  failure : string option;  (** first check that failed, human-readable *)
}

val check : ?tol:float -> ?level:level -> Problem.t -> Status.solution -> report
(** [check prob sol] certifies [sol] against [prob]. [tol] (default
    [1e-6]) is the relative tolerance for primal feasibility and
    objective agreement; dual activation, complementarity and the gap use
    [100 x tol] so that honest degenerate optima are not rejected.
    Never raises; inconsistent dimensions yield [ok = false]. *)

val pp : Format.formatter -> report -> unit
(** One-line human rendering: level, verdict, and the residuals (plus
    the failing check when [ok = false]). *)

val level_to_string : level -> string
(** ["off"], ["primal"] or ["full"] — the spelling the CLI's
    [--certify] flag accepts. *)
