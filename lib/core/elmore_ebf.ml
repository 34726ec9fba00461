module Tree = Lubt_topo.Tree
module Elmore = Lubt_delay.Elmore
module Problem = Lubt_lp.Problem
module Solver = Lubt_lp.Solver
module Status = Lubt_lp.Status

let max_outer = 60
let initial_trust = 0.5
let tol = 1e-7
let penalty = 1e4

type status = Converged | Stalled | Lp_failure of Status.t

type result = {
  status : status;
  lengths : float array;
  cost : float;
  sink_delays : float array;
  max_violation : float;
  outer_iterations : int;
}

let edge_var i = i - 1

let cost_of lengths =
  Lubt_util.Stats.sum (Array.sub lengths 1 (Array.length lengths - 1))

let violation (inst : Instance.t) tree wire loads lengths =
  let delays = Elmore.sink_delays tree wire loads lengths in
  let worst = ref 0.0 in
  Array.iteri
    (fun k d ->
      worst := max !worst (inst.Instance.lower.(k) -. d);
      worst := max !worst (d -. inst.Instance.upper.(k)))
    delays;
  max 0.0 !worst

(* Starting point: the shortest-path-tree-like solution of the pure Steiner
   LP (all delay bounds dropped), which is feasible for the Steiner
   constraints and cheap. *)
let initial_lengths inst tree =
  let relaxed =
    Instance.create ?source:inst.Instance.source ~sinks:inst.Instance.sinks
      ~lower:(Array.map (fun _ -> 0.0) inst.Instance.lower)
      ~upper:(Array.map (fun _ -> infinity) inst.Instance.upper)
      ()
  in
  let r = Ebf.solve relaxed tree in
  (r.Ebf.status, r.Ebf.lengths)

let solve ~wire ~loads (inst : Instance.t) tree =
  if Array.length loads <> Instance.num_sinks inst then
    invalid_arg "Elmore_ebf.solve: loads length mismatch";
  let n = Tree.num_nodes tree in
  let radius = max 1.0 (Instance.radius inst) in
  let terms = Ebf.terminals inst tree in
  let pairs = Ebf.distinct_pairs terms in
  let sink_nodes = Tree.sinks tree in
  let status0, start = initial_lengths inst tree in
  match status0 with
  | Status.Optimal ->
    let current = ref start in
    let trust = ref (initial_trust *. radius) in
    let merit lengths =
      cost_of lengths +. (penalty *. violation inst tree wire loads lengths)
    in
    let finished = ref None in
    let outer = ref 0 in
    while !finished = None && !outer < max_outer do
      incr outer;
      let e0 = !current in
      (* linearised subproblem around e0 *)
      let prob = Problem.create () in
      for i = 1 to n - 1 do
        let lo = max 0.0 (e0.(i) -. !trust) in
        let up =
          if Tree.forced_zero tree i then 0.0 else e0.(i) +. !trust
        in
        ignore (Problem.add_var ~lo ~up:(max lo up) ~obj:1.0 prob)
      done;
      (* Steiner rows over all terminal pairs (these are exact, not
         linearised) *)
      Ebf.add_steiner_rows tree terms pairs prob;
      (* linearised Elmore rows: delay(e) ~ delay(e0) + g.(e - e0) *)
      Array.iteri
        (fun k node ->
          let l = inst.Instance.lower.(k) and u = inst.Instance.upper.(k) in
          if l > 0.0 || u < infinity then begin
            let g = Elmore.gradient tree wire loads e0 node in
            let d0 = (Elmore.node_delays tree wire loads e0).(node) in
            let g_dot_e0 = ref 0.0 in
            let coeffs = ref [] in
            for i = 1 to n - 1 do
              if g.(i) <> 0.0 then begin
                coeffs := (edge_var i, g.(i)) :: !coeffs;
                g_dot_e0 := !g_dot_e0 +. (g.(i) *. e0.(i))
              end
            done;
            let shift = d0 -. !g_dot_e0 in
            ignore
              (Problem.add_row prob ~lo:(l -. shift)
                 ~up:(if u < infinity then u -. shift else infinity)
                 !coeffs)
          end)
        sink_nodes;
      let sol = Solver.solve prob in
      (match sol.Status.status with
      | Status.Optimal ->
        let cand = Array.make n 0.0 in
        for i = 1 to n - 1 do
          cand.(i) <- max 0.0 sol.Status.primal.(edge_var i)
        done;
        let step =
          let worst = ref 0.0 in
          for i = 1 to n - 1 do
            worst := max !worst (abs_float (cand.(i) -. e0.(i)))
          done;
          !worst
        in
        if merit cand < merit e0 -. (tol *. radius) then begin
          current := cand;
          trust := min (!trust *. 1.5) (initial_trust *. radius)
        end
        else begin
          trust := !trust /. 2.0;
          if !trust < tol *. radius then
            finished :=
              Some
                (if
                   violation inst tree wire loads e0
                   <= tol *. radius *. 10.0
                 then Converged
                 else Stalled)
        end;
        if
          step <= tol *. radius
          && violation inst tree wire loads !current <= tol *. radius *. 10.0
        then finished := Some Converged
      | Status.Infeasible ->
        (* trust region too tight around an infeasible point: widen *)
        trust := !trust *. 2.0;
        if !trust > 1e6 *. radius then finished := Some Stalled
      | other -> finished := Some (Lp_failure other))
    done;
    let lengths = !current in
    let status =
      match !finished with
      | Some s -> s
      | None ->
        if violation inst tree wire loads lengths <= tol *. radius *. 10.0
        then Converged
        else Stalled
    in
    {
      status;
      lengths;
      cost = cost_of lengths;
      sink_delays = Elmore.sink_delays tree wire loads lengths;
      max_violation = violation inst tree wire loads lengths;
      outer_iterations = !outer;
    }
  | other ->
    {
      status = Lp_failure other;
      lengths = start;
      cost = cost_of start;
      sink_delays = Elmore.sink_delays tree wire loads start;
      max_violation = violation inst tree wire loads start;
      outer_iterations = 0;
    }
