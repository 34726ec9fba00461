module Point = Lubt_geom.Point
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

(* Mirrors Ebf.solve's lazy row generation, with one extra free variable t
   and the delay rows 0 <= path(s_0, s_i) - t <= B. The Steiner-pair
   machinery is shared (Steiner_pairs); the loop is kept separate because
   the variable layout differs. *)
let solve ?(options = Ebf.default_options) ?weights ~skew_bound
    (inst : Instance.t) tree =
  if Tree.num_sinks tree <> Instance.num_sinks inst then
    invalid_arg "Skew_lp: tree sink count differs from instance";
  if skew_bound < 0.0 then invalid_arg "Skew_lp: negative skew bound";
  let n = Tree.num_nodes tree in
  let edge_var i = i - 1 in
  let prob = Problem.create () in
  for i = 1 to n - 1 do
    let w = match weights with None -> 1.0 | Some ws -> ws.(i) in
    let up = if Tree.forced_zero tree i then 0.0 else infinity in
    ignore (Problem.add_var ~lo:0.0 ~up ~obj:w prob)
  done;
  let t_var =
    Problem.add_var ~lo:neg_infinity ~up:infinity ~obj:0.0 ~name:"t" prob
  in
  let path_coeffs a b = List.map (fun e -> (edge_var e, 1.0)) (Tree.path tree a b) in
  (* delay rows: t <= delay_i <= t + B *)
  Array.iter
    (fun node ->
      ignore
        (Problem.add_row prob ~lo:0.0 ~up:skew_bound
           ((t_var, -1.0) :: path_coeffs Tree.root node)))
    (Tree.sinks tree);
  let terms = Ebf.terminals inst tree in
  let nt = Array.length terms in
  let added = Steiner_pairs.create nt in
  let scale = max 1.0 (Instance.diameter inst +. Instance.radius inst) in
  let eager = (not options.Ebf.lazy_steiner) || nt <= 12 in
  let pair_row i j =
    Steiner_pairs.add added i j;
    let a, pa = terms.(i) and b, pb = terms.(j) in
    (Point.dist pa pb, path_coeffs a b)
  in
  let add_pair_row i j =
    let d, coeffs = pair_row i j in
    if d > 0.0 then ignore (Problem.add_row prob ~lo:d ~up:infinity coeffs)
  in
  let add_new i j = if not (Steiner_pairs.mem added i j) then add_pair_row i j in
  if eager then
    for i = 0 to nt - 1 do
      for j = i + 1 to nt - 1 do
        add_pair_row i j
      done
    done
  else begin
    (* nearest-neighbour seeding as in Ebf *)
    Steiner_pairs.nearest terms options.Ebf.knn (fun i j ->
        add_new (min i j) (max i j));
    match inst.Instance.source with
    | Some _ ->
      for j = 1 to nt - 1 do
        add_new 0 j
      done
    | None -> ()
  end;
  let eng = Simplex.of_problem ~params:options.Ebf.lp_params prob in
  let lengths_of_primal primal =
    let lengths = Array.make n 0.0 in
    for i = 1 to n - 1 do
      lengths.(i) <- max 0.0 primal.(edge_var i)
    done;
    lengths
  in
  let rec loop rounds =
    let status = Simplex.solve eng in
    if status <> Status.Optimal then (status, rounds)
    else begin
      let lengths = lengths_of_primal (Simplex.primal eng) in
      let d = Tree.delays tree lengths in
      match
        fst
          (Steiner_pairs.violations added terms tree d
             ~threshold:(options.Ebf.violation_tol *. scale))
      with
      | [] -> (Status.Optimal, rounds)
      | vs ->
        if rounds >= options.Ebf.max_rounds then (Status.Iteration_limit, rounds)
        else begin
          Steiner_pairs.worst options.Ebf.batch vs
          |> List.map (fun (i, j) ->
                 let dist, coeffs = pair_row i j in
                 (dist, infinity, coeffs))
          |> Simplex.add_rows eng;
          loop (rounds + 1)
        end
    end
  in
  let status, rounds = loop 1 in
  let primal = Simplex.primal eng in
  let lengths = lengths_of_primal primal in
  let t = primal.(t_var) in
  {
    status;
    lengths;
    objective = Simplex.objective eng;
    window = (t, t +. skew_bound);
    lp_rows = Simplex.nrows eng;
    lp_iterations = Simplex.iterations eng;
    rounds;
  }
