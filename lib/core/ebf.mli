(** Edge-Based Formulation (Section 4).

    Builds and solves the linear program

    {v
    min   sum_k w_k e_k
    s.t.  sum_{e_k in path(s_i,s_j)} e_k >= dist(s_i,s_j)   (Steiner, 4.1)
          l_i <= sum_{e_k in path(s_0,s_i)} e_k <= u_i      (delay, 4.2)
          e_k >= 0,   e_k = 0 for split edges
    v}

    over all terminal pairs (sinks, plus the source when its location is
    given). Two modes:

    - [lazy_steiner = false]: all [\binom{m}{2}] Steiner rows upfront;
    - [lazy_steiner = true] (default): row generation — start from the
      k-nearest-neighbour pairs plus all source-sink rows, solve, scan all
      pairs for violations in O(m^2) using LCA path lengths, add the worst
      offenders, and re-optimise with the warm-started dual simplex. This
      is the exact-optimal realisation of the paper's Section 4.6
      constraint reduction. *)

type options = {
  lazy_steiner : bool;
  knn : int;  (** nearest-neighbour pairs seeded per terminal (default 3) *)
  batch : int;  (** violated rows added per round (default 64) *)
  violation_tol : float;  (** relative violation tolerance (default 1e-9) *)
  max_rounds : int;
  time_limit : float;
      (** wall-clock budget in seconds over ALL row-generation rounds
          (default [infinity]), kept as one monotonic deadline
          ({!Lubt_obs.Clock}). The remaining budget is handed to the LP
          engine before every (re-)solve, and the deadline is also
          polled at round entry and once per outer row of the
          [O(t^2)] violation scan, so a run whose scans dominate cannot
          overshoot by a full scan per round. On expiry the result
          carries status {!Lubt_lp.Status.Time_limit}, partial
          [round_stats] for the rounds that ran, and the best lengths
          reached so far. *)
  check : Lubt_lp.Certify.level;
      (** a-posteriori certification of an optimal claim (default [Off]):
          the materialised LP is certified by {!Lubt_lp.Certify.check} and
          the geometric check covers every [binom(m,2)] Steiner constraint
          and both delay bounds per sink — including rows the lazy
          generator never materialised. A rejected certificate degrades
          the status to [Numerical_failure]. *)
  cache : Lubt_lp.Basis_cache.t option;
      (** cross-request warm-start cache (default [None]). When given, the
          solve first consults the cache under the instance's content
          fingerprints: an exact hit (identical LP solved before) or a
          parent hit (same structure, edited bounds/geometry — the ECO
          case) reproduces the cached row layout and warm-restarts the
          dual simplex from the cached basis; the final certified optimum
          is stored back. Unusable snapshots (changed delay-row layout,
          dimension disagreement, unfactorisable basis) are rejected with
          a typed reason — never mapped silently — and the solve proceeds
          cold. The outcome is reported in {!result}[.cache_outcome]. *)
  probe : Lubt_lp.Simplex.probe option;
      (** per-iteration convergence probe installed on the LP engine
          ({!Lubt_lp.Simplex.set_probe}) for the whole row-generation run
          (default [None]). Dump the events as JSON lines with
          [Lubt_obs.Convergence]; note the probe perturbs the solver's
          BTRAN counters (see {!Lubt_lp.Simplex.set_probe}). *)
  lp_params : Lubt_lp.Simplex.params;
}

val default_options : options

(** What the cross-request cache contributed to a solve. *)
type cache_outcome =
  | Cache_off  (** no cache configured ([options.cache = None]) *)
  | Cache_miss  (** cache consulted, nothing usable found *)
  | Cache_hit_exact  (** identical LP: warm-started from its own optimum *)
  | Cache_hit_parent
      (** same structure, edited bounds/geometry: warm-started from the
          ECO parent's optimum *)
  | Cache_rejected of string
      (** a served snapshot failed validation (row layout changed,
          dimension mismatch, singular basis) and the solve ran cold; the
          payload is the human-readable reason *)

val cache_outcome_name : cache_outcome -> string
(** Wire name: ["off"], ["miss"], ["exact"], ["parent"] or ["rejected"]. *)

type round_stat = {
  round : int;  (** 1-based row-generation round *)
  rows_added : int;  (** violated Steiner rows appended after this round *)
  violations_found : int;  (** violated pairs seen by the scan (>= rows_added) *)
  scan_seconds : float;  (** wall time of the all-pairs violation scan *)
  solve_seconds : float;  (** wall time of this round's LP (re-)solve *)
  solve_pivots : int;
      (** simplex pivots of this round's solve; from round 2 on these are
          the warm-restart dual pivots *)
}

type result = {
  status : Lubt_lp.Status.t;
  lengths : float array;  (** edge lengths indexed by node id; entry 0 = 0 *)
  objective : float;
  lp_rows : int;  (** rows in the final LP *)
  full_rows : int;  (** rows the full formulation would have had *)
  lp_iterations : int;
  rounds : int;  (** row-generation rounds (1 when eager) *)
  round_stats : round_stat list;  (** per-round telemetry, in round order *)
  lp_stats : Lubt_lp.Simplex.stats;
      (** cumulative solver counters, summed over every row-generation
          round. Valid for every status (they describe work done, not the
          solution); totals from independent solves can be combined with
          {!Lubt_lp.Simplex.merge_stats}. *)
  certificate : Lubt_lp.Certify.report option;
      (** certification outcome; [None] when [options.check = Off] or the
          solve did not claim optimality *)
  cache_outcome : cache_outcome;
      (** what the cross-request cache contributed ({!Cache_off} when no
          cache was configured) *)
}

val formulate : ?weights:float array -> Instance.t -> Lubt_topo.Tree.t -> Lubt_lp.Problem.t
(** The complete (eager) LP of Section 4.3, e.g. for inspection; variable
    [i-1] is edge [e_i]. [weights] (indexed by edge/node id, entry 0
    ignored) implement the weighted objective of Section 7. *)

val solve :
  ?options:options ->
  ?weights:float array ->
  Instance.t ->
  Lubt_topo.Tree.t ->
  result
(** Solves the EBF for the instance under the given topology. The [k]-th
    sink of the instance corresponds to node [(Tree.sinks tree).(k)].
    An [Infeasible] status certifies that no LUBT exists for this topology
    and these bounds (Theorem 4.2 discussion).

    Each call builds its own LP engine and touches no global mutable
    state, so concurrent [solve] calls on distinct (or even shared,
    since neither is mutated) instances and trees are safe — this is
    what {!Lubt_util.Pool}-based sweeps rely on.

    @raise Invalid_argument when the tree's sink count differs from the
    instance's. *)

val check_lengths :
  ?tol:float -> Instance.t -> Lubt_topo.Tree.t -> float array -> (unit, string) Stdlib.result
(** Verifies that edge lengths satisfy every Steiner and delay constraint
    (all pairs, no laziness). Used by tests and by [validate] paths. *)
