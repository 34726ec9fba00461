(* Tests for the rectilinear Steiner heuristic and the optimal bounded-skew
   LP (Skew_lp). *)

module Point = Lubt_geom.Point
module Tree = Lubt_topo.Tree
module Instance = Lubt_core.Instance
module Routed = Lubt_core.Routed
module Ebf = Lubt_core.Ebf
module Embed = Lubt_core.Embed
module Skew_lp = Lubt_core.Skew_lp
module Zeroskew = Lubt_core.Zeroskew
module Steiner = Lubt_bst.Steiner
module Bst = Lubt_bst.Bst_dme
module Status = Lubt_lp.Status
module Prng = Lubt_util.Prng

let pt = Point.make

let random_points rng n extent =
  Array.init n (fun _ -> pt (Prng.float rng extent) (Prng.float rng extent))

(* ------------------------------------------------------------------ *)
(* Rectilinear MST                                                      *)
(* ------------------------------------------------------------------ *)

(* Disjoint sets over [0, n) for the MST checks: [union] joins the sets
   of a and b, false when they were already one. *)
let rec find parent i = if parent.(i) = i then i else find parent parent.(i)

let union parent a b =
  let ra = find parent a and rb = find parent b in
  ra <> rb
  && begin
       parent.(ra) <- rb;
       true
     end

let brute_force_mst_length points =
  (* Kruskal over all pairs *)
  let n = Array.length points in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (Point.dist points.(i) points.(j), i, j) :: !edges
    done
  done;
  let sorted = List.sort compare !edges in
  let uf = Array.init n Fun.id in
  List.fold_left
    (fun acc (d, i, j) -> if union uf i j then acc +. d else acc)
    0.0 sorted

let test_rmst_is_spanning_tree () =
  let rng = Prng.create 12 in
  for _ = 1 to 20 do
    let n = 2 + Prng.int rng 20 in
    let points = random_points rng n 100.0 in
    let edges = Steiner.rmst points in
    Alcotest.(check int) "n-1 edges" (n - 1) (List.length edges);
    let uf = Array.init n Fun.id in
    List.iter
      (fun (a, b) -> Alcotest.(check bool) "acyclic" true (union uf a b))
      edges;
    let roots = List.filter (fun i -> uf.(i) = i) (List.init n Fun.id) in
    Alcotest.(check int) "connected" 1 (List.length roots)
  done

let test_rmst_matches_kruskal () =
  let rng = Prng.create 34 in
  for _ = 1 to 20 do
    let n = 2 + Prng.int rng 12 in
    let points = random_points rng n 50.0 in
    let prim = Steiner.rmst_length points in
    let kruskal = brute_force_mst_length points in
    Alcotest.(check (float 1e-6)) "same MST length" kruskal prim
  done

(* ------------------------------------------------------------------ *)
(* Steiner heuristic                                                    *)
(* ------------------------------------------------------------------ *)

let test_steiner_improves_on_mst () =
  let rng = Prng.create 56 in
  for _ = 1 to 10 do
    let n = 10 + Prng.int rng 40 in
    let sinks = random_points rng n 100.0 in
    let src = pt 50.0 50.0 in
    let all = Array.append sinks [| src |] in
    let mst = Steiner.rmst_length all in
    let b = Steiner.build ~source:src sinks in
    Alcotest.(check bool) "no worse than MST" true (b.Steiner.cost <= mst +. 1e-6);
    (* Hwang's bound: the optimal RSMT is at least 2/3 of the RMST, so no
       correct heuristic can go below that *)
    Alcotest.(check bool) "above the RSMT lower bound" true
      (b.Steiner.cost >= (2.0 /. 3.0 *. mst) -. 1e-6)
  done

let test_steiner_exact_small_cases () =
  (* four corners of a square + centre source: the optimal tree is a cross
     through the centre of total length 4 * half-diagonal-manhattan *)
  let sinks = [| pt 0.0 0.0; pt 10.0 0.0; pt 0.0 10.0; pt 10.0 10.0 |] in
  let b = Steiner.build ~source:(pt 5.0 5.0) sinks in
  Alcotest.(check bool) "within 10% of the optimal 40" true
    (b.Steiner.cost <= 44.0 +. 1e-9);
  (* three collinear points: tree = the segment *)
  let line = [| pt 0.0 0.0; pt 5.0 0.0; pt 10.0 0.0 |] in
  let b2 = Steiner.build line in
  Alcotest.(check (float 1e-6)) "collinear cost" 10.0 b2.Steiner.cost

let test_steiner_topology_wellformed () =
  let rng = Prng.create 78 in
  for case = 1 to 10 do
    let n = 3 + Prng.int rng 30 in
    let sinks = random_points rng n 100.0 in
    let with_source = Prng.bool rng in
    let source = if with_source then Some (pt 50.0 50.0) else None in
    let b = Steiner.build ?source sinks in
    let tree = b.Steiner.tree in
    Alcotest.(check bool) "sinks are leaves" true (Tree.all_sinks_are_leaves tree);
    Alcotest.(check int) "sink count" n (Tree.num_sinks tree);
    for v = 0 to Tree.num_nodes tree - 1 do
      Alcotest.(check bool) "binary" true (List.length (Tree.children tree v) <= 2)
    done;
    (* lengths equal spanned distances: the embedding is tight *)
    for v = 1 to Tree.num_nodes tree - 1 do
      let d =
        Point.dist b.Steiner.positions.(v)
          b.Steiner.positions.(Tree.parent tree v)
      in
      if not (Lubt_util.Stats.approx_eq ~eps:1e-9 d b.Steiner.lengths.(v)) then
        Alcotest.failf "case %d: edge %d length %g vs distance %g" case v
          b.Steiner.lengths.(v) d
    done;
    (* the routed tree passes full validation *)
    let inst = Instance.uniform_bounds ?source ~sinks ~lower:0.0 ~upper:infinity () in
    let routed =
      { Routed.instance = inst; tree; lengths = b.Steiner.lengths;
        positions = b.Steiner.positions }
    in
    match Routed.validate routed with
    | Ok () -> ()
    | Error es -> Alcotest.failf "case %d: %s" case (String.concat "; " es)
  done

let test_steiner_lp_cannot_improve () =
  (* the LP re-embedding of a Steiner topology with trivial bounds can
     never beat the tight heuristic embedding by much — and never exceed
     it (Theorem 4.2) *)
  let rng = Prng.create 90 in
  let sinks = random_points rng 20 100.0 in
  let src = pt 50.0 50.0 in
  let b = Steiner.build ~source:src sinks in
  let inst = Instance.uniform_bounds ~source:src ~sinks ~lower:0.0 ~upper:infinity () in
  let lp = Ebf.solve inst b.Steiner.tree in
  Alcotest.(check bool) "lp optimal" true (lp.Ebf.status = Status.Optimal);
  Alcotest.(check bool) "lp <= heuristic cost" true
    (lp.Ebf.objective <= b.Steiner.cost +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Skew_lp (optimal bounded-skew embedding)                             *)
(* ------------------------------------------------------------------ *)

let test_skew_lp_beats_greedy_baseline () =
  let rng = Prng.create 135 in
  for case = 1 to 8 do
    let m = 5 + Prng.int rng 15 in
    let sinks = random_points rng m 100.0 in
    let source = pt 50.0 50.0 in
    let bound = 10.0 +. Prng.float rng 40.0 in
    let bst = Bst.route ~skew_bound:bound ~source sinks in
    let inst = Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:infinity () in
    let opt = Skew_lp.solve ~skew_bound:bound inst bst.Bst.topology in
    Alcotest.(check bool) "optimal" true (opt.Skew_lp.status = Status.Optimal);
    if opt.Skew_lp.objective > bst.Bst.cost +. (1e-6 *. bst.Bst.cost) then
      Alcotest.failf "case %d: LP %.8g above greedy %.8g" case
        opt.Skew_lp.objective bst.Bst.cost;
    (* the optimised lengths respect the skew bound *)
    let d = Lubt_delay.Linear.sink_delays bst.Bst.topology opt.Skew_lp.lengths in
    let lo, hi = Lubt_util.Stats.min_max d in
    Alcotest.(check bool) "skew within bound" true (hi -. lo <= bound +. 1e-6);
    (* and land inside the reported window *)
    let wlo, whi = opt.Skew_lp.window in
    Alcotest.(check bool) "inside window" true
      (lo >= wlo -. 1e-6 && hi <= whi +. 1e-6)
  done

let test_skew_lp_zero_bound_is_zeroskew () =
  let rng = Prng.create 246 in
  for _ = 1 to 6 do
    let m = 4 + Prng.int rng 10 in
    let sinks = random_points rng m 100.0 in
    let bst = Bst.route ~skew_bound:0.0 sinks in
    let inst = Instance.uniform_bounds ~sinks ~lower:0.0 ~upper:infinity () in
    let opt = Skew_lp.solve ~skew_bound:0.0 inst bst.Bst.topology in
    let zs = Zeroskew.balance inst bst.Bst.topology in
    let zs_cost =
      Lubt_util.Stats.sum
        (Array.sub zs.Zeroskew.lengths 1 (Tree.num_edges bst.Bst.topology))
    in
    Alcotest.(check bool) "optimal" true (opt.Skew_lp.status = Status.Optimal);
    if not (Lubt_util.Stats.approx_eq ~eps:1e-6 zs_cost opt.Skew_lp.objective) then
      Alcotest.failf "skew-0 LP %.9g vs closed form %.9g" opt.Skew_lp.objective
        zs_cost
  done

(* the free-window LP is the lower envelope of fixed-window LUBT costs:
   solving LUBT at the window the LP chose returns the same cost. The
   10-sink case seeds every Steiner pair up front; the 13-60-sink cases
   (more than 12 terminals) generate them lazily, so they compare
   Skew_lp's lazy rounds with Ebf.solve's. *)
let check_window_envelope ~seed ~m ~bound =
  let rng = Prng.create seed in
  let sinks = random_points rng m 100.0 in
  let source = pt 50.0 50.0 in
  let bst = Bst.route ~skew_bound:bound ~source sinks in
  let inst0 = Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:infinity () in
  let opt = Skew_lp.solve ~skew_bound:bound inst0 bst.Bst.topology in
  let wlo, whi = opt.Skew_lp.window in
  let inst = Instance.uniform_bounds ~source ~sinks ~lower:wlo ~upper:whi () in
  let fixed = Ebf.solve inst bst.Bst.topology in
  Alcotest.(check bool) "both optimal" true
    (opt.Skew_lp.status = Status.Optimal && fixed.Ebf.status = Status.Optimal);
  if not (Lubt_util.Stats.approx_eq ~eps:1e-6 opt.Skew_lp.objective fixed.Ebf.objective)
  then
    Alcotest.failf "seed %d, %d sinks: envelope %.9g vs fixed window %.9g" seed m
      opt.Skew_lp.objective fixed.Ebf.objective;
  (* shifting the window away from the optimum cannot be cheaper *)
  let shifted =
    Instance.uniform_bounds ~source ~sinks ~lower:(wlo +. 15.0)
      ~upper:(whi +. 15.0) ()
  in
  let worse = Ebf.solve shifted bst.Bst.topology in
  Alcotest.(check bool) "shifted window no cheaper" true
    (worse.Ebf.objective >= opt.Skew_lp.objective -. 1e-6)

let test_skew_lp_window_envelope () =
  check_window_envelope ~seed:777 ~m:10 ~bound:30.0;
  let rng = Prng.create 778 in
  for seed = 1 to 6 do
    let m = 13 + Prng.int rng 48 in
    let bound = 10.0 +. Prng.float rng 40.0 in
    check_window_envelope ~seed:(778 + seed) ~m ~bound
  done

(* the bound t >= 0 keeps every reported window at 0 or later, on the
   paper benchmarks' tiny and scaled fields, uniform and clustered, where
   a free t once read -3.6e-12 on a degenerate optimum *)
let test_skew_lp_window_nonnegative () =
  let module Benchmarks = Lubt_data.Benchmarks in
  let module Protocol = Lubt_experiments.Protocol in
  List.iter
    (fun size ->
      List.iter
        (fun spec ->
          List.iter
            (fun skew_rel ->
              let b = Protocol.run_baseline spec ~skew_rel in
              let opt =
                Skew_lp.solve ~skew_bound:(skew_rel *. b.Protocol.radius)
                  (Benchmarks.instance spec) b.Protocol.bst.Bst.topology
              in
              Alcotest.(check bool) "optimal" true
                (opt.Skew_lp.status = Status.Optimal);
              let wlo = fst opt.Skew_lp.window in
              if not (wlo >= 0.0) then
                Alcotest.failf "%s at skew %g: window starts at %g"
                  spec.Benchmarks.name skew_rel wlo)
            [ 0.1; 0.5; 1.0 ])
        (Benchmarks.specs size @ Benchmarks.clustered size))
    [ Benchmarks.Tiny; Benchmarks.Scaled ]

let test_skew_lp_embeddable () =
  let rng = Prng.create 888 in
  let m = 12 in
  let sinks = random_points rng m 100.0 in
  let source = pt 50.0 50.0 in
  let bound = 25.0 in
  let bst = Bst.route ~skew_bound:bound ~source sinks in
  let inst0 = Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:infinity () in
  let opt = Skew_lp.solve ~skew_bound:bound inst0 bst.Bst.topology in
  match Embed.place inst0 bst.Bst.topology opt.Skew_lp.lengths with
  | Error msg -> Alcotest.fail msg
  | Ok emb ->
    let routed =
      { Routed.instance = inst0; tree = bst.Bst.topology;
        lengths = opt.Skew_lp.lengths; positions = emb.Embed.positions }
    in
    (match Routed.validate routed with
    | Ok () -> ()
    | Error es -> Alcotest.fail (String.concat "; " es))

(* ------------------------------------------------------------------ *)
(* BRBC global routing (reference [1])                                  *)
(* ------------------------------------------------------------------ *)

module Brbc = Lubt_bst.Brbc

let test_brbc_radius_guarantee () =
  let rng = Prng.create 404 in
  for case = 1 to 15 do
    let m = 3 + Prng.int rng 30 in
    let sinks = random_points rng m 100.0 in
    let source = pt (Prng.float rng 100.0) (Prng.float rng 100.0) in
    let epsilon = 0.1 +. Prng.float rng 2.0 in
    let r = Brbc.route ~epsilon ~source sinks in
    if r.Brbc.max_path > (1.0 +. epsilon) *. r.Brbc.radius +. 1e-6 then
      Alcotest.failf "case %d: max path %.6g exceeds (1+%.3g) x radius %.6g"
        case r.Brbc.max_path epsilon r.Brbc.radius
  done

let test_brbc_cost_guarantee () =
  let rng = Prng.create 505 in
  for case = 1 to 10 do
    let m = 3 + Prng.int rng 25 in
    let sinks = random_points rng m 100.0 in
    let source = pt 50.0 50.0 in
    let mst = Steiner.rmst_length (Array.append sinks [| source |]) in
    let epsilon = 0.2 +. Prng.float rng 1.5 in
    let r = Brbc.route ~epsilon ~source sinks in
    let bound = (1.0 +. (2.0 /. epsilon)) *. mst in
    if r.Brbc.cost > bound +. 1e-6 then
      Alcotest.failf "case %d: cost %.6g exceeds the (1+2/eps) MST bound %.6g"
        case r.Brbc.cost bound
  done

let test_brbc_large_epsilon_is_mst () =
  let rng = Prng.create 606 in
  let sinks = random_points rng 20 100.0 in
  let source = pt 50.0 50.0 in
  let mst = Steiner.rmst_length (Array.append sinks [| source |]) in
  let r = Brbc.route ~epsilon:1e9 ~source sinks in
  Alcotest.(check (float 1e-6)) "cost equals MST" mst r.Brbc.cost

let test_brbc_valid_and_lp_improvable () =
  let rng = Prng.create 707 in
  let sinks = random_points rng 18 100.0 in
  let source = pt 10.0 90.0 in
  let epsilon = 0.4 in
  let r = Brbc.route ~epsilon ~source sinks in
  (match Routed.validate r.Brbc.routed with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  Alcotest.(check bool) "sinks are leaves" true
    (Tree.all_sinks_are_leaves r.Brbc.topology);
  (* LUBT with the matched cap on the same topology can only improve *)
  let cap = (1.0 +. epsilon) *. r.Brbc.radius in
  let inst = Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:cap () in
  let lubt = Ebf.solve inst r.Brbc.topology in
  Alcotest.(check bool) "lubt optimal" true (lubt.Ebf.status = Status.Optimal);
  Alcotest.(check bool) "lubt <= brbc" true
    (lubt.Ebf.objective <= r.Brbc.cost +. 1e-6);
  (* and its paths also satisfy the cap *)
  let d = Lubt_delay.Linear.sink_delays r.Brbc.topology lubt.Ebf.lengths in
  Array.iter
    (fun x -> Alcotest.(check bool) "path within cap" true (x <= cap +. 1e-6))
    d

let test_brbc_single_sink () =
  let r = Brbc.route ~source:(pt 0.0 0.0) [| pt 3.0 4.0 |] in
  Alcotest.(check (float 1e-9)) "single sink cost" 7.0 r.Brbc.cost

(* Wire cost is NOT monotone in epsilon for this heuristic (a looser cap
   changes which MST edges trigger detours, occasionally for the worse),
   so the property checked here is the one the algorithm actually
   guarantees: on the same input, every epsilon honours its own radius
   cap — and in particular the tight run's paths also fit under the
   loose run's cap. *)
let prop_brbc_monotone_epsilon =
  QCheck.Test.make ~name:"smaller epsilon never lengthens max path bound"
    ~count:30
    QCheck.(pair small_int (int_range 3 15))
    (fun (seed, m) ->
      let rng = Prng.create seed in
      let sinks = random_points rng m 80.0 in
      let source = pt 40.0 40.0 in
      let tight = Brbc.route ~epsilon:0.2 ~source sinks in
      let loose = Brbc.route ~epsilon:2.0 ~source sinks in
      tight.Brbc.max_path <= (1.2 *. tight.Brbc.radius) +. 1e-6
      && loose.Brbc.max_path <= (3.0 *. loose.Brbc.radius) +. 1e-6
      && tight.Brbc.max_path <= (3.0 *. loose.Brbc.radius) +. 1e-6)

let () =
  Alcotest.run "bst-extra"
    [
      ( "rmst",
        [
          Alcotest.test_case "spanning tree" `Quick test_rmst_is_spanning_tree;
          Alcotest.test_case "matches kruskal" `Quick test_rmst_matches_kruskal;
        ] );
      ( "steiner",
        [
          Alcotest.test_case "improves on MST" `Quick test_steiner_improves_on_mst;
          Alcotest.test_case "small exact cases" `Quick
            test_steiner_exact_small_cases;
          Alcotest.test_case "topology well-formed" `Quick
            test_steiner_topology_wellformed;
          Alcotest.test_case "LP cannot improve" `Quick
            test_steiner_lp_cannot_improve;
        ] );
      ( "brbc",
        [
          Alcotest.test_case "radius guarantee" `Quick test_brbc_radius_guarantee;
          Alcotest.test_case "cost guarantee" `Quick test_brbc_cost_guarantee;
          Alcotest.test_case "huge epsilon = MST" `Quick
            test_brbc_large_epsilon_is_mst;
          Alcotest.test_case "valid + LP improvable" `Quick
            test_brbc_valid_and_lp_improvable;
          Alcotest.test_case "single sink" `Quick test_brbc_single_sink;
          QCheck_alcotest.to_alcotest prop_brbc_monotone_epsilon;
        ] );
      ( "skew-lp",
        [
          Alcotest.test_case "beats greedy baseline" `Slow
            test_skew_lp_beats_greedy_baseline;
          Alcotest.test_case "zero bound = zero skew" `Slow
            test_skew_lp_zero_bound_is_zeroskew;
          Alcotest.test_case "window envelope" `Quick test_skew_lp_window_envelope;
          Alcotest.test_case "window starts at 0 or later" `Slow
            test_skew_lp_window_nonnegative;
          Alcotest.test_case "embeddable lengths" `Quick test_skew_lp_embeddable;
        ] );
    ]
