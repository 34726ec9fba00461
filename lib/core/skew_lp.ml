module Tree = Lubt_topo.Tree
module Problem = Lubt_lp.Problem
module Simplex = Lubt_lp.Simplex
module Status = Lubt_lp.Status

type result = {
  status : Status.t;
  lengths : float array;
  objective : float;
  window : float * float;
  lp_rows : int;
  lp_iterations : int;
  rounds : int;
}

(* A formulation over Ebf's row generator: one variable t >= 0 after the
   edge columns, and the window rows 0 <= path(s_0, s_i) - t <= B. The
   bound keeps the optimum: every delay is >= 0, so t = min_i delay(s_i)
   is always feasible, and it makes the reported window start at 0 or
   later on a degenerate optimum too. *)
let solve ?weights ~skew_bound (inst : Instance.t) tree =
  if Tree.num_sinks tree <> Instance.num_sinks inst then
    invalid_arg "Skew_lp: tree sink count differs from instance";
  if skew_bound < 0.0 then invalid_arg "Skew_lp: negative skew bound";
  let t_var = Tree.num_nodes tree - 1 in
  let window_rows prob =
    let j = Problem.add_var ~lo:0.0 ~up:infinity ~obj:0.0 ~name:"t" prob in
    assert (j = t_var);
    Array.iter
      (fun node ->
        ignore
          (Problem.add_row prob ~lo:0.0 ~up:skew_bound
             ((t_var, -1.0) :: Ebf.path_coeffs tree Tree.root node)))
      (Tree.sinks tree)
  in
  let run = Ebf.generate ?weights inst tree window_rows in
  let eng = run.Ebf.engine in
  let t = (Simplex.primal eng).(t_var) in
  {
    status = run.Ebf.run_status;
    lengths = run.Ebf.run_lengths;
    objective = Simplex.objective eng;
    window = (t, t +. skew_bound);
    lp_rows = Simplex.nrows eng;
    lp_iterations = Simplex.iterations eng;
    rounds = run.Ebf.run_rounds;
  }
