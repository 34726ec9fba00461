(* Tests for the core extensions: topology optimisation (the paper's
   future work) and SVG rendering. *)

module Point = Lubt_geom.Point
module Tree = Lubt_topo.Tree
module Instance = Lubt_core.Instance
module Ebf = Lubt_core.Ebf
module Routed = Lubt_core.Routed
module Lubt = Lubt_core.Lubt
module Topo_opt = Lubt_core.Topo_opt
module Svg = Lubt_core.Svg
module Bst = Lubt_bst.Bst_dme
module Status = Lubt_lp.Status
module Prng = Lubt_util.Prng

let pt = Point.make

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Topology optimisation                                                *)
(* ------------------------------------------------------------------ *)

let random_instance rng m =
  let sinks =
    Array.init m (fun _ -> pt (Prng.float rng 100.0) (Prng.float rng 100.0))
  in
  let source = pt 50.0 50.0 in
  let base = Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:infinity () in
  let r = Instance.radius base in
  (Instance.uniform_bounds ~source ~sinks ~lower:(0.5 *. r) ~upper:(1.2 *. r) (),
   sinks, source)

let test_never_worsens () =
  let rng = Prng.create 2024 in
  for case = 1 to 8 do
    let m = 6 + Prng.int rng 10 in
    let inst, _, _ = random_instance rng m in
    let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:true in
    let r = Topo_opt.improve inst tree in
    if r.Topo_opt.cost > r.Topo_opt.initial_cost +. 1e-6 then
      Alcotest.failf "case %d: optimiser worsened %.6g -> %.6g" case
        r.Topo_opt.initial_cost r.Topo_opt.cost
  done

let test_improves_bad_topology () =
  (* a deliberately unlucky random topology over clustered sinks leaves a
     lot on the table; the optimiser must claw a good chunk back *)
  let rng = Prng.create 4 in
  let m = 16 in
  let inst, _, _ = random_instance rng m in
  let tree = Topogen.random_binary (Prng.create 1) ~num_sinks:m ~source_edge:true in
  let r = Topo_opt.improve inst tree in
  Alcotest.(check bool) "accepted some moves" true (r.Topo_opt.accepted > 0);
  let gain =
    (r.Topo_opt.initial_cost -. r.Topo_opt.cost) /. r.Topo_opt.initial_cost
  in
  if gain < 0.02 then
    Alcotest.failf "expected >2%% improvement on a random topology, got %.2f%%"
      (gain *. 100.0)

let test_result_remains_valid () =
  let rng = Prng.create 77 in
  let m = 12 in
  let inst, _, _ = random_instance rng m in
  let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:true in
  let r = Topo_opt.improve inst tree in
  (* sinks stay leaves, structure stays binary, LUBT solves and embeds *)
  Alcotest.(check bool) "sinks are leaves" true
    (Tree.all_sinks_are_leaves r.Topo_opt.tree);
  Alcotest.(check int) "same sink set" m (Tree.num_sinks r.Topo_opt.tree);
  match Lubt.solve inst r.Topo_opt.tree with
  | Error e -> Alcotest.fail (Lubt.error_to_string e)
  | Ok { routed; ebf } ->
    Alcotest.(check bool) "cost matches optimiser" true
      (Lubt_util.Stats.approx_eq ~eps:1e-6 ebf.Ebf.objective r.Topo_opt.cost);
    (match Routed.validate routed with
    | Ok () -> ()
    | Error es -> Alcotest.fail (String.concat "; " es))

let test_respects_evaluation_budget () =
  let rng = Prng.create 31 in
  let m = 14 in
  let inst, _, _ = random_instance rng m in
  let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:true in
  let options = { Topo_opt.default_options with Topo_opt.max_evaluations = 5 } in
  let r = Topo_opt.improve ~options inst tree in
  Alcotest.(check bool) "budget respected" true (r.Topo_opt.evaluations <= 5)

let test_infeasible_input () =
  (* bounds nobody can meet: the optimiser reports infinity untouched *)
  let sinks = [| pt 10.0 0.0; pt 0.0 10.0 |] in
  let inst =
    Instance.uniform_bounds ~source:(pt 0.0 0.0) ~sinks ~lower:0.0 ~upper:5.0 ()
  in
  let tree = Topogen.balanced_binary ~num_sinks:2 ~source_edge:true in
  let r = Topo_opt.improve inst tree in
  Alcotest.(check bool) "cost infinite" true (r.Topo_opt.cost = infinity);
  Alcotest.(check int) "no moves" 0 r.Topo_opt.accepted

let test_beats_baseline_topology_sometimes () =
  (* starting from the baseline's own topology, optimisation should still
     find at least a small improvement on a clustered instance *)
  let rng = Prng.create 5 in
  let cluster cx cy =
    Array.init 6 (fun _ ->
        pt (cx +. Prng.float rng 10.0) (cy +. Prng.float rng 10.0))
  in
  let sinks = Array.concat [ cluster 0.0 0.0; cluster 80.0 0.0; cluster 40.0 80.0 ] in
  let source = pt 45.0 30.0 in
  let base = Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:infinity () in
  let r = Instance.radius base in
  let inst = Instance.uniform_bounds ~source ~sinks ~lower:(0.6 *. r) ~upper:(1.1 *. r) () in
  let bst = Bst.route ~skew_bound:(0.5 *. r) ~source sinks in
  let res = Topo_opt.improve inst bst.Bst.topology in
  Alcotest.(check bool) "not worse than baseline topology" true
    (res.Topo_opt.cost <= res.Topo_opt.initial_cost +. 1e-9)

(* ------------------------------------------------------------------ *)
(* SVG rendering                                                        *)
(* ------------------------------------------------------------------ *)

let routed_fixture () =
  let inst, tree = Lubt_data.Examples.five_point () in
  (Lubt.solve_exn inst tree).Lubt.routed

let test_svg_well_formed () =
  let routed = routed_fixture () in
  let svg = Svg.of_routed routed in
  Alcotest.(check bool) "starts with <svg" true (contains svg "<svg ");
  Alcotest.(check bool) "closes" true (contains svg "</svg>");
  (* one polyline per edge *)
  Alcotest.(check int) "polylines" (Tree.num_edges routed.Routed.tree)
    (count_substring svg "<polyline")

let test_svg_markers () =
  let routed = routed_fixture () in
  let svg = Svg.of_routed routed in
  (* sinks (squares) + background rect *)
  Alcotest.(check int) "rect count = sinks + background"
    (Instance.num_sinks routed.Routed.instance + 1)
    (count_substring svg "<rect");
  (* at least source circle + steiner dots *)
  Alcotest.(check bool) "has circles" true (count_substring svg "<circle" >= 1);
  Alcotest.(check bool) "has legend" true (contains svg "cost ")

let test_svg_labels_toggle () =
  let routed = routed_fixture () in
  let plain = Svg.of_routed routed in
  let labelled = Svg.of_routed ~show_labels:true routed in
  Alcotest.(check int) "no labels by default" 1 (count_substring plain "<text");
  Alcotest.(check bool) "labels add text elements" true
    (count_substring labelled "<text" > Tree.num_nodes routed.Routed.tree)

let test_svg_elongated_marked () =
  (* force elongation via a tight equal-bounds instance *)
  let sinks = [| pt 0.0 0.0; pt 30.0 0.0 |] in
  let source = pt 15.0 10.0 in
  let base = Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:infinity () in
  let r = Instance.radius base in
  let inst = Instance.uniform_bounds ~source ~sinks ~lower:(1.5 *. r) ~upper:(1.5 *. r) () in
  let tree = Topogen.balanced_binary ~num_sinks:2 ~source_edge:true in
  let routed = (Lubt.solve_exn inst tree).Lubt.routed in
  Alcotest.(check bool) "has elongated edges" true (Routed.num_elongated routed > 0);
  let svg = Svg.of_routed routed in
  Alcotest.(check bool) "dashes mark elongation" true
    (contains svg "stroke-dasharray")

let test_svg_write_file () =
  let routed = routed_fixture () in
  let path = Filename.temp_file "lubt" ".svg" in
  Svg.write path routed;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "nonempty file" true (len > 200)

(* ------------------------------------------------------------------ *)
(* Steiner pairs: seeding, pair set, violation scan                      *)
(* ------------------------------------------------------------------ *)

module Pairs = Lubt_core.Steiner_pairs

(* Terminals on a coarse grid, so duplicate points and equal distances
   are common. With a source, the root is terminal 0, as in Ebf. *)
let grid_terminals rng =
  let m = 1 + Prng.int rng 30 in
  let with_source = m = 1 || Prng.bool rng in
  let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:with_source in
  let cell () = float_of_int (10 * Prng.int rng 6) in
  let point () = pt (cell ()) (cell ()) in
  let sinks = Array.map (fun node -> (node, point ())) (Tree.sinks tree) in
  let terms =
    if with_source then Array.append [| (Tree.root, point ()) |] sinks else sinks
  in
  (tree, terms)

(* the sort-based seeding the selection replaced *)
let reference_nearest terms k =
  let t = Array.length terms in
  let calls = ref [] in
  for i = 0 to t - 1 do
    let _, pi = terms.(i) in
    let dists = Array.init t (fun j -> (Point.dist pi (snd terms.(j)), j)) in
    Array.sort compare dists;
    let added = ref 0 and idx = ref 0 in
    while !added < k && !idx < t do
      let _, j = dists.(!idx) in
      incr idx;
      if j <> i then begin
        calls := (i, j) :: !calls;
        incr added
      end
    done
  done;
  List.rev !calls

let test_nearest_matches_sort () =
  let rng = Prng.create 404 in
  for case = 1 to 200 do
    let _, terms = grid_terminals rng in
    let k = Prng.int rng 8 in
    let calls = ref [] in
    Pairs.nearest terms k (fun i j -> calls := (i, j) :: !calls);
    if List.rev !calls <> reference_nearest terms k then
      Alcotest.failf "case %d (t = %d, k = %d): neighbours differ" case
        (Array.length terms) k
  done

(* the Hashtbl scan the bitset replaced, with the same deadline poll *)
let reference_scan ~stop added terms tree d ~threshold =
  let t = Array.length terms in
  let found = ref [] and cut = ref false in
  (try
     for i = 0 to t - 1 do
       if stop () then begin
         cut := true;
         raise Exit
       end;
       for j = i + 1 to t - 1 do
         if not (Hashtbl.mem added (i, j)) then begin
           let a, pa = terms.(i) and b, pb = terms.(j) in
           let need = Point.dist pa pb in
           if need > 0.0 then begin
             let have = d.(a) +. d.(b) -. (2.0 *. d.(Tree.lca tree a b)) in
             let viol = need -. have in
             if viol > threshold then found := (viol, (i, j)) :: !found
           end
         end
       done
     done
   with Exit -> ());
  (!found, !cut)

(* the reference scan's list, last scanned first, stably sorted by
   decreasing shortfall and cut to the batch: the rows the list-based
   rounds appended *)
let reference_batch k found =
  List.stable_sort (fun (a, _) (b, _) -> compare b a) found
  |> List.filteri (fun q _ -> q < k)
  |> List.map snd

let test_scan_matches_hashtbl () =
  let rng = Prng.create 405 in
  for case = 1 to 300 do
    let tree, terms = grid_terminals rng in
    let t = Array.length terms in
    (* every other case puts the lengths on a grid too, so equal
       shortfalls (ties in the batch) are common *)
    let coarse = case mod 2 = 1 in
    let lengths =
      Array.init (Tree.num_nodes tree) (fun i ->
          if i = Tree.root || Prng.int rng 4 = 0 then 0.0
          else if coarse then float_of_int (5 * Prng.int rng 6)
          else Prng.float rng 30.0)
    in
    let d = Tree.delays tree lengths in
    let set = Pairs.create t and table = Hashtbl.create 16 in
    for i = 0 to t - 1 do
      for j = i + 1 to t - 1 do
        if Prng.int rng 3 = 0 then begin
          Pairs.add set i j;
          Hashtbl.replace table (i, j) ()
        end
      done
    done;
    for i = 0 to t - 1 do
      for j = i + 1 to t - 1 do
        if Pairs.mem set i j <> Hashtbl.mem table (i, j) then
          Alcotest.failf "case %d: membership of (%d, %d) differs" case i j
      done
    done;
    (* every fourth case stops after a random number of rows *)
    let budget = if case mod 4 = 0 then Prng.int rng (t + 1) else max_int in
    let stopper () =
      let polls = ref 0 in
      fun () ->
        incr polls;
        !polls > budget
    in
    let threshold = if case mod 3 = 0 then 5.0 else 0.0 in
    let batch = Prng.int rng 40 in
    let count, worst, cut =
      Pairs.violations ~stop:(stopper ()) set terms tree d ~threshold ~batch
    in
    let found, want_cut =
      reference_scan ~stop:(stopper ()) table terms tree d ~threshold
    in
    if count <> List.length found then
      Alcotest.failf "case %d (t = %d): %d violations, want %d" case t count
        (List.length found);
    if cut <> want_cut then Alcotest.failf "case %d (t = %d): cut flags differ" case t;
    if worst <> reference_batch batch found then
      Alcotest.failf "case %d (t = %d, batch %d): batches differ" case t batch
  done

let test_pair_bounds () =
  let s = Pairs.create 4 in
  List.iter
    (fun (i, j) ->
      match Pairs.add s i j with
      | () -> Alcotest.failf "pair (%d, %d) accepted" i j
      | exception Invalid_argument _ -> ())
    [ (1, 1); (2, 1); (-1, 2); (0, 4) ];
  Pairs.add s 2 3;
  Alcotest.(check bool) "last pair" true (Pairs.mem s 2 3);
  Alcotest.(check bool) "other pair" false (Pairs.mem s 1 3)

let () =
  Alcotest.run "core-extra"
    [
      ( "topo-opt",
        [
          Alcotest.test_case "never worsens" `Slow test_never_worsens;
          Alcotest.test_case "improves a bad topology" `Slow
            test_improves_bad_topology;
          Alcotest.test_case "result remains valid" `Slow
            test_result_remains_valid;
          Alcotest.test_case "respects evaluation budget" `Quick
            test_respects_evaluation_budget;
          Alcotest.test_case "infeasible input" `Quick test_infeasible_input;
          Alcotest.test_case "baseline topology as start" `Slow
            test_beats_baseline_topology_sometimes;
        ] );
      ( "svg",
        [
          Alcotest.test_case "well-formed" `Quick test_svg_well_formed;
          Alcotest.test_case "markers" `Quick test_svg_markers;
          Alcotest.test_case "labels toggle" `Quick test_svg_labels_toggle;
          Alcotest.test_case "elongation marked" `Quick test_svg_elongated_marked;
          Alcotest.test_case "write file" `Quick test_svg_write_file;
        ] );
      ( "steiner-pairs",
        [
          Alcotest.test_case "nearest = sort reference" `Quick
            test_nearest_matches_sort;
          Alcotest.test_case "bitset scan = Hashtbl scan" `Quick
            test_scan_matches_hashtbl;
          Alcotest.test_case "pair bounds" `Quick test_pair_bounds;
        ] );
    ]
