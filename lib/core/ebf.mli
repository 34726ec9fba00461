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
      {!knn}-nearest-neighbour pairs plus all source-sink rows, solve,
      scan all pairs for violations in O(m^2) using LCA path lengths, add
      the {!batch} worst offenders, and re-optimise with the warm-started
      dual simplex. This is the exact-optimal realisation of the paper's
      Section 4.6 constraint reduction, and the one row generator:
      {!generate} runs it under other delay rows. *)

val knn : int
(** Nearest-neighbour pairs seeded per terminal by lazy generation: 3. *)

val batch : int
(** Violated Steiner rows appended per round: 64, the largest shortfalls
    of the round's scan. *)

val violation_tol : float
(** Relative violation tolerance: 1e-9. A pair is violated when its
    path is shorter than its distance by more than [violation_tol]
    times [max 1 (diameter + radius)]. *)

type options = {
  lazy_steiner : bool;
      (** generate Steiner rows lazily (default); [false], or at most 12
          terminals, seeds every pair *)
  max_rounds : int;  (** rounds before [Iteration_limit] (default 10,000) *)
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
  scan_seconds : float;
      (** wall time of the all-pairs violation scan, which also selects
          the round's rows *)
  append_seconds : float;
      (** wall time of appending the round's rows: the row build and
          {!Lubt_lp.Simplex.add_rows}. The rows of {!result}[.lp] are
          built later, only when it is forced. *)
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
  lp : Lubt_lp.Problem.t Lazy.t;
      (** the LP the engine solved: the columns and delay rows of
          {!formulate}, then the Steiner rows the generator materialised,
          in row order, each named [steiner_a_b] after its terminal nodes
          by {!add_steiner_rows}. It is rebuilt from the instance and the
          generator's pair log, never copied out of the engine, so
          certification shares no state with the solver and a corrupted
          engine cannot certify itself. Forcing it builds each Steiner
          row appended by a round once more; certification forces it,
          an uncertified solve never does.

          It is a relaxation of {!formulate}: a status of [Infeasible]
          on it proves the full LP infeasible, and its optimum, when it
          satisfies every Steiner row ({!check_lengths}), is the full
          optimum. *)
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

(** {2 The row generator}

    {!solve} is one formulation over the lazy Steiner-row generator;
    {!Skew_lp} is another, with different delay rows. *)

type run = {
  lp : Lubt_lp.Problem.t Lazy.t;
      (** the LP the engine solved, as {!result}[.lp]: every column, then
          every Steiner row in row order *)
  engine : Lubt_lp.Simplex.t;  (** the engine after the last round *)
  run_status : Lubt_lp.Status.t;
  run_rounds : int;
  run_round_stats : round_stat list;
  run_lengths : float array;  (** edge lengths indexed by node id *)
  run_pairs : (int * int) list;
      (** the terminal pair (indices into {!terminals}) of every Steiner
          row, in row order: the layout a cached basis refers to *)
  run_installed : (unit, Lubt_lp.Simplex.basis_mismatch) Stdlib.result;
      (** whether the cached basis installed; [Ok ()] on a cold run *)
}

val generate :
  ?weights:float array ->
  Instance.t ->
  Lubt_topo.Tree.t ->
  (Lubt_lp.Problem.t -> unit) ->
  run
(** [generate inst tree delay_rows] runs {!solve}'s row generation
    under {!default_options} with the delay rows of another formulation.
    The LP gets the edge columns (variable [i-1] is edge [e_i], weighted
    as in {!formulate}), then [delay_rows] adds its own columns and
    rows, then the generator seeds Steiner rows and runs the rounds of
    solve, scan and append until no Steiner row is violated. The cache
    is never consulted.

    @raise Invalid_argument when the tree's sink count differs from the
    instance's. *)

val terminals : Instance.t -> Lubt_topo.Tree.t -> (int * Lubt_geom.Point.t) array
(** The terminals, as (node, location): the source first when its location
    is given (node 0), then the [k]-th sink at [(Tree.sinks tree).(k)]. *)

val path_coeffs : Lubt_topo.Tree.t -> int -> int -> (int * float) list
(** [path_coeffs tree a b] is the row "sum of the edge lengths on the
    path from node [a] to node [b]" over the edge columns. *)

val add_steiner_rows :
  Lubt_topo.Tree.t ->
  (int * Lubt_geom.Point.t) array ->
  (int * int) list ->
  Lubt_lp.Problem.t ->
  unit
(** [add_steiner_rows tree terms pairs prob] adds, for each pair [(i, j)]
    of indices into [terms], in the given order and unfiltered, the
    Steiner row [path(a, b) >= dist(a, b)] of terminals [a] and [b],
    named [steiner_a_b] by their node ids. It is the one place a Steiner
    row enters a model: {!formulate}, the generator's seed and
    {!result}[.lp] all call it. *)

val distinct_pairs : (int * Lubt_geom.Point.t) array -> (int * int) list
(** The pairs [(i, j)], [i < j], of terminals at distinct locations, in
    pair order: the Steiner rows of {!formulate}. *)

val check_lengths :
  ?tol:float -> Instance.t -> Lubt_topo.Tree.t -> float array -> (unit, string) Stdlib.result
(** Verifies that edge lengths satisfy every Steiner and delay constraint
    (all pairs, no laziness). Used by tests and by [validate] paths. *)
