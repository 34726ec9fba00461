(** Optimal bounded-skew embedding for a fixed topology, as an LP.

    Section 4.3 notes that LUBT with [l_i > 0, u_i < inf] "is equivalent to
    a bounded skew clock routing tree problem with a specific upper
    bound". When only the skew bound matters (no prescribed window), the
    window position itself can be left to the optimiser by introducing a
    variable [t]:

    {v
    min   sum e_k
    s.t.  Steiner constraints (as in EBF)
          t <= delay(s_i) <= t + B        for every sink
          e_k >= 0,  t >= 0
    v}

    The bound [t >= 0] keeps the optimum, because every delay is [>= 0]
    and so [t = min_i delay(s_i)] is feasible; it keeps the reported
    window from starting below 0 on a degenerate optimum.

    This is the per-topology *optimum* that the greedy baseline
    ({!Lubt_bst.Bst_dme}) approximates, so it quantifies the baseline's
    greedy gap; it is also the cheapest LUBT over all windows of width
    [B] (the envelope of the paper's Table 2 rows). *)

type result = {
  status : Lubt_lp.Status.t;
  lengths : float array;
  objective : float;
  window : float * float;
      (** the delay window [t, t+B] the optimiser settled on; [t >= 0] *)
  lp_rows : int;
  lp_iterations : int;
  rounds : int;
}

val solve :
  ?weights:float array ->
  skew_bound:float ->
  Instance.t ->
  Lubt_topo.Tree.t ->
  result
(** The instance's own bounds are ignored except for sink/source
    locations; [skew_bound] is absolute. The window rows are a
    formulation over {!Ebf.generate}, so the Steiner rows are generated
    lazily exactly as in {!Ebf.solve} under its default options. *)
