module Point = Lubt_geom.Point
module Tree = Lubt_topo.Tree

type t = {
  instance : Instance.t;
  tree : Tree.t;
  lengths : float array;
  positions : Point.t array;
}

let cost t =
  Lubt_util.Stats.sum (Array.sub t.lengths 1 (Array.length t.lengths - 1))

let sink_delays t = Lubt_delay.Linear.sink_delays t.tree t.lengths

let skew t = Lubt_delay.Linear.skew t.tree t.lengths

let min_max_delay t = Lubt_delay.Linear.min_max_delay t.tree t.lengths

let edge_slack t i =
  assert (i > 0);
  t.lengths.(i) -. Point.dist t.positions.(i) t.positions.(Tree.parent t.tree i)

let num_elongated ?(eps = 1e-9) t =
  let count = ref 0 in
  for i = 1 to Tree.num_nodes t.tree - 1 do
    let scale = 1.0 +. t.lengths.(i) in
    if edge_slack t i > eps *. scale then incr count
  done;
  !count

let validate ?(eps = 1e-6) t =
  let errors = ref [] in
  let fail msg = errors := msg :: !errors in
  let scale = max 1.0 (Instance.diameter t.instance +. Instance.radius t.instance) in
  let tol = eps *. scale in
  for i = 1 to Tree.num_nodes t.tree - 1 do
    if edge_slack t i < -.tol then
      fail
        (Printf.sprintf "edge %d: length %g shorter than spanned distance %g" i
           t.lengths.(i)
           (Point.dist t.positions.(i) t.positions.(Tree.parent t.tree i)));
    if Tree.forced_zero t.tree i && abs_float t.lengths.(i) > tol then
      fail (Printf.sprintf "edge %d: forced-zero edge has length %g" i t.lengths.(i))
  done;
  Array.iteri
    (fun k node ->
      if not (Point.equal ~eps:tol t.positions.(node) t.instance.Instance.sinks.(k))
      then
        fail
          (Printf.sprintf "sink %d not at its prescribed location (%s vs %s)"
             node
             (Point.to_string t.positions.(node))
             (Point.to_string t.instance.Instance.sinks.(k))))
    (Tree.sinks t.tree);
  (match t.instance.Instance.source with
  | Some src ->
    if not (Point.equal ~eps:tol t.positions.(Tree.root) src) then
      fail "source not at its prescribed location"
  | None -> ());
  let delays = sink_delays t in
  Array.iteri
    (fun k d ->
      if d < t.instance.Instance.lower.(k) -. tol then
        fail
          (Printf.sprintf "sink %d: delay %g below lower bound %g" k d
             t.instance.Instance.lower.(k));
      if d > t.instance.Instance.upper.(k) +. tol then
        fail
          (Printf.sprintf "sink %d: delay %g above upper bound %g" k d
             t.instance.Instance.upper.(k)))
    delays;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp_summary fmt t =
  let lo, hi = min_max_delay t in
  Format.fprintf fmt
    "routed tree: %d nodes, cost %.2f, delays [%.2f, %.2f], skew %.2f, %d \
     elongated edges"
    (Tree.num_nodes t.tree) (cost t) lo hi (hi -. lo) (num_elongated t)
