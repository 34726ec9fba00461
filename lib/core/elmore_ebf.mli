(** EBF under the Elmore delay model (Section 7).

    The delay constraints become quadratic in the edge lengths, so the
    problem is no longer an LP; the paper notes it is convex when all lower
    bounds are zero and proposes general nonlinear programming otherwise.
    This module implements a sequential linear programming (SLP) heuristic:
    linearise the Elmore delays around the current point, add a trust
    region, solve the LP, and accept/shrink based on an exact-penalty merit
    function. With [l_i = 0] the feasible set is convex and SLP converges
    to the optimum; with positive lower bounds it is a local method, as in
    the paper. *)

val max_outer : int
(** SLP iterations before the loop stops: 60. *)

val initial_trust : float
(** Starting trust-region radius, relative to the instance radius: 0.5.
    The radius grows by 1.5x on an accepted step, up to this value, and
    halves on a rejected one. *)

val tol : float
(** Relative convergence tolerance: 1e-7 of the instance radius for the
    step length and the trust radius, ten times that for the residual
    bound violation. *)

val penalty : float
(** Merit-function weight on the bound violation: 1e4. *)

type status = Converged | Stalled | Lp_failure of Lubt_lp.Status.t

type result = {
  status : status;
  lengths : float array;
  cost : float;
  sink_delays : float array;  (** Elmore delays at [lengths] *)
  max_violation : float;  (** residual bound violation (absolute) *)
  outer_iterations : int;
}

val solve :
  wire:Lubt_delay.Elmore.wire ->
  loads:float array ->
  Instance.t ->
  Lubt_topo.Tree.t ->
  result
(** [loads] are the sink load capacitances in instance sink order. The
    instance bounds are interpreted as Elmore-delay bounds (absolute, in
    the wire's time units). *)
