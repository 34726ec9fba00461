(** Bounded-skew clock routing baseline in the style of Huang, Kahng and
    Tsao ("On the Bounded-Skew Clock and Steiner Routing Problems", DAC'95,
    reference [9] of the paper).

    The paper adopts its topology generator from [9]: clusters are merged
    nearest-neighbour first, with merge costs that account for the wire
    elongation needed to keep the skew within the bound, so the topology
    "changes dynamically based on the skew".

    Implementation: beam-search DME. Every cluster keeps a small beam of
    {e candidates} — a TRR of equivalent root placements together with the
    exact [min, max] sink delay below it and the wire spent so far. A
    merge tries several wire splits per candidate pair (the cheapest split
    the skew budget allows, the delay-balancing split, and the two pure
    "attach" moves with one zero-length wire); elongation is applied only
    when the budget's lower end forces it. The skew-feasible split
    interval comes from the tiny closed-form program

    {v
    minimise  w_a + w_b
    s.t.      w_a + w_b >= dist(region_a, region_b)
              (tmax_a + w_a) - (tmin_b + w_b) <= B
              (tmax_b + w_b) - (tmin_a + w_a) <= B
              w_a, w_b >= 0
    v}

    With [B = 0] only the balance split survives and the candidate regions
    are the classic zero-skew merging segments, so the router degenerates
    to exact ZST-DME under the linear delay model; with [B = infinity] the
    attach moves dominate and it behaves like a nearest-region Steiner
    heuristic. Unlike the LUBT LP, the merge order and the wire splits are
    greedy, so the result is a heuristic upper bound on cost — exactly the
    baseline role [9] plays in Tables 1-2.

    The nearest-partner search evaluates a merge cost only for partners
    that can still win: every split costs at least the distance of the
    two regions, so a partner whose cluster box (over its estimation
    prefix) lies farther than the best cost found so far is skipped. The
    skip is exact — the tree is the one the full scan builds — and cuts
    the evaluations from about 2m{^2} to a few per cluster (4,178 for
    the scaled r3s field at skew 0.5, m = 220).

    Each route records a [bst.route] trace span (args [sinks],
    [merge_evals]) and adds its evaluations to the
    [lubt_bst_merge_evals_total] counter of {!Lubt_obs.Metrics}. *)

type options = {
  beam_width : int;  (** candidates kept per cluster (default 8) *)
  estimation_candidates : int;
      (** beam prefix used when estimating merge costs during
          nearest-neighbour selection (default 3) *)
}

val default_options : options

type result = {
  routed : Lubt_core.Routed.t;
      (** embedded tree over an instance with trivial bounds [0, inf) *)
  topology : Lubt_topo.Tree.t;
  lengths : float array;
  cost : float;
  dmin : float;  (** shortest achieved source-to-sink delay *)
  dmax : float;  (** longest achieved source-to-sink delay *)
}

val route :
  ?options:options ->
  ?skew_bound:float ->
  ?source:Lubt_geom.Point.t ->
  Lubt_geom.Point.t array ->
  result
(** [route ?skew_bound ?source sinks] builds and embeds a bounded-skew tree
    over the sinks. [skew_bound] is absolute (wire-length units; default
    [infinity]). The achieved skew [dmax - dmin] never exceeds the bound
    (up to roundoff). Requires at least one sink (two when no source is
    given). *)

val extract_instance :
  result -> Lubt_core.Instance.t
(** The experimental protocol of Section 8: takes the baseline's achieved
    shortest/longest delays and packages them as the LUBT bounds
    [l = dmin, u = dmax] over the same sinks and source, ready to run
    {!Lubt_core.Ebf.solve} on [result.topology]. *)
