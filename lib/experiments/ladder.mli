(** Request-scoped graceful degradation for a single solve.

    Under deadline pressure or partial solver failure, a serving stack
    wants the best tree it can still get, not an error: this module
    steps down a ladder of progressively cheaper answers —

    + {e certified} EBF ({!Lubt_core.Lubt.solve} with the configured
      {!Lubt_lp.Certify} level),
    + {e uncertified} EBF (same solve, certification off),
    + {e reduced} EBF (row generation capped at 2 rounds; the
      possibly-suboptimal lengths are accepted whenever
      {!Lubt_core.Embed.place} and {!Lubt_core.Embed.verify} accept
      them),
    + the {!Lubt_bst.Brbc} {e heuristic} (no LP at all; needs a
      source; [epsilon = 1]) —

    and reports which rung answered. It is the service-level mirror of
    the in-solver recovery ladder (PR 2): there a failing factorisation
    steps down through cheaper engines, here a failing solve steps down
    through cheaper answers.

    Every returned tree is re-checked with {!Lubt_core.Embed.verify}
    ({!outcome.verified}); delay-bound satisfaction is {e not} required
    of the lower rungs — a degraded answer trades bound certification
    for latency, which is the point. An {!Lubt_lp.Status.Infeasible} LP
    stops the ladder immediately: no rung can outrun a proof that no
    LUBT exists. *)

type rung = Certified | Uncertified | Reduced | Heuristic

val rung_to_string : rung -> string
(** ["certified" | "uncertified" | "reduced" | "heuristic"]; stable, so
    machine-readable output may key on it. *)

type outcome = {
  report : Lubt_core.Lubt.report option;
      (** the full solve report for the LP rungs; [None] for
          [Heuristic] *)
  routed : Lubt_core.Routed.t;  (** the tree the winning rung produced *)
  rung : rung;  (** the rung that answered *)
  degraded : bool;
      (** [rung] is below the top rung of this request (the top rung is
          [Certified] when [base.check <> Off], else [Uncertified]) *)
  attempts : (rung * string) list;
      (** failed rungs above the winner, in attempt order, with
          reasons *)
  verified : bool;
      (** the returned tree passed {!Lubt_core.Embed.verify} *)
}

type error =
  | Infeasible
      (** the LP certified that no LUBT exists for this topology and
          bounds; degradation cannot help and was not attempted *)
  | Exhausted of (rung * string) list
      (** every rung failed; carries all attempts with reasons *)

val error_to_string : error -> string

type options = {
  base : Lubt_core.Ebf.options;
      (** options for the full-quality rungs; [base.check] decides
          whether a [Certified] rung exists, [base.time_limit] still
          caps every individual rung *)
  deadline : float option;
      (** absolute deadline on the {!Lubt_obs.Clock.now} axis. Each LP
          rung gets a fraction of the budget remaining when it starts
          (half for the full rungs, 0.8 for the reduced rung), so one
          slow rung cannot starve the ladder below it; an LP rung with
          less than a millisecond left is skipped. [None] = no
          deadline. *)
  tweak : rung -> Lubt_core.Ebf.options -> Lubt_core.Ebf.options;
      (** final hook over each LP rung's options, applied after the
          ladder's own adjustments; identity by default. Tests use it
          to force specific rungs to fail. *)
}

val default_options : options

val solve :
  options ->
  Lubt_core.Instance.t ->
  Lubt_topo.Tree.t ->
  (outcome, error) result
(** Runs the ladder top to bottom and returns the first accepted
    answer. The [Heuristic] rung ignores [tree] (BRBC builds its own
    topology) and is only available when the instance has a source. *)

val heuristic : Lubt_core.Instance.t -> (outcome, error) result
(** The floor rung alone: a BRBC tree, no LP, no topology needed. This
    is what a server answers with when the worker pool is saturated and
    the client opted into degradation — cheap enough to run on the
    session thread. Always [degraded = true]; [Error] only when the
    instance has no source. *)
