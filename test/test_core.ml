(* End-to-end tests of the paper's core contribution: the EBF linear
   program, constraint generation (lazy vs eager), the zero-skew closed
   form, Steiner-point embedding, validation, snaking, and the Elmore
   extension. Includes the paper's own examples (Figures 1, 3, 4). *)

module Point = Lubt_geom.Point
module Trr = Lubt_geom.Trr
module Tree = Lubt_topo.Tree
module Instance = Lubt_core.Instance
module Ebf = Lubt_core.Ebf
module Embed = Lubt_core.Embed
module Routed = Lubt_core.Routed
module Zeroskew = Lubt_core.Zeroskew
module Snake = Lubt_core.Snake
module Lubt = Lubt_core.Lubt
module Elmore_ebf = Lubt_core.Elmore_ebf
module Elmore = Lubt_delay.Elmore
module Status = Lubt_lp.Status
module Prng = Lubt_util.Prng

let pt = Point.make

let check_float = Alcotest.(check (float 1e-5))

(* ------------------------------------------------------------------ *)
(* Paper examples                                                      *)
(* ------------------------------------------------------------------ *)

(* Figure 1: source at (0,0), two sinks at distance 3 on opposite sides.
   With upper bounds 6: the chain topology source->s1->s2 is infeasible
   (path to s2 at least dist(0,s1)+dist(s1,s2) = 3+6 = 9 > 6), while the
   star topology is feasible. *)
let test_figure1_topology_feasibility () =
  let sinks = [| pt 3.0 0.0; pt (-3.0) 0.0 |] in
  let inst =
    Instance.uniform_bounds ~source:(pt 0.0 0.0) ~sinks ~lower:0.0 ~upper:6.0 ()
  in
  (* (a) chain: s2's parent is s1 (both sinks internal is fine for EBF) *)
  let chain = Tree.create ~parents:[| -1; 0; 1 |] ~sinks:[| 1; 2 |] () in
  (match Lubt.solve inst chain with
  | Error Lubt.No_solution -> ()
  | Ok _ -> Alcotest.fail "chain topology should be infeasible"
  | Error e -> Alcotest.failf "unexpected error: %s" (Lubt.error_to_string e));
  (* (b) star via a steiner point *)
  let star = Tree.create ~parents:[| -1; 3; 3; 0 |] ~sinks:[| 1; 2 |] () in
  match Lubt.solve inst star with
  | Ok r ->
    (match Routed.validate r.Lubt.routed with
    | Ok () -> ()
    | Error es -> Alcotest.failf "invalid embedding: %s" (String.concat "; " es));
    check_float "star cost is just the two spokes" 6.0 (Routed.cost r.Lubt.routed)
  | Error e -> Alcotest.failf "star should be feasible: %s" (Lubt.error_to_string e)

(* Section 4.5 / Figure 3: the 5-sink, 8-edge example with bounds [4, 6].
   The figure's exact coordinates are not printed in the paper, so we use a
   reconstructed layout with the same topology and check every claimed
   structural property instead of the (coordinate-dependent) numbers. *)
let five_point_instance () =
  let sinks = [| pt 0.0 4.0; pt 3.0 6.0; pt 6.0 5.0; pt 6.0 3.0; pt 1.0 0.0 |] in
  Instance.uniform_bounds ~sinks ~lower:4.0 ~upper:6.0 ()

let five_point_tree () =
  Tree.create ~parents:[| -1; 6; 8; 7; 7; 6; 0; 8; 0 |] ~sinks:[| 1; 2; 3; 4; 5 |] ()

let test_five_point_example () =
  let inst = five_point_instance () and tree = five_point_tree () in
  Alcotest.(check bool) "bounds admissible" true (Instance.bounds_admissible inst);
  let r = Lubt.solve_exn inst tree in
  (match Routed.validate r.Lubt.routed with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es));
  let delays = Routed.sink_delays r.Lubt.routed in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "delay within [4,6]" true (d >= 4.0 -. 1e-6 && d <= 6.0 +. 1e-6))
    delays;
  (* the LP objective equals the routed cost *)
  check_float "objective = cost" r.Lubt.ebf.Ebf.objective (Routed.cost r.Lubt.routed);
  (* and matches the independent tableau solver on the eager formulation *)
  let full = Ebf.formulate inst tree in
  let oracle = Tableau.solve full in
  Alcotest.(check bool) "oracle optimal" true (oracle.Status.status = Status.Optimal);
  check_float "matches tableau oracle" oracle.Status.objective r.Lubt.ebf.Ebf.objective

(* Section 4.7 / Figure 4: in the Euclidean metric the edge lengths
   e1 = e2 = e3 = 1/2 satisfy all pairwise constraints for a unit
   equilateral triangle, yet no placement exists (the circumradius is
   1/sqrt(3) > 1/2). In the Manhattan metric the same construction does
   embed. *)
let test_euclidean_counterexample () =
  let sinks = [| pt 0.0 0.0; pt 1.0 0.0; pt 0.5 (sqrt 3.0 /. 2.0) |] in
  (* pairwise Euclidean distances are 1; e_i = 1/2 satisfies e_i + e_j >= 1 *)
  let e = 0.5 in
  Array.iteri
    (fun i p ->
      Array.iteri
        (fun j q ->
          if i < j then
            Alcotest.(check bool) "pairwise satisfied" true
              (e +. e >= Point.dist_euclid p q -. 1e-9))
        sinks)
    sinks;
  (* ... but the Euclidean 1/2-balls have empty common intersection *)
  let circumradius = 1.0 /. sqrt 3.0 in
  Alcotest.(check bool) "no euclidean placement" true (circumradius > e +. 1e-9);
  (* the Manhattan version embeds fine *)
  let inst = Instance.uniform_bounds ~sinks ~lower:0.0 ~upper:2.0 () in
  let tree = Tree.create ~parents:[| -1; 0; 0; 0 |] ~sinks:[| 1; 2; 3 |] () in
  let r = Lubt.solve_exn inst tree in
  match Routed.validate r.Lubt.routed with
  | Ok () -> ()
  | Error es -> Alcotest.failf "manhattan embed failed: %s" (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Randomised end-to-end properties                                    *)
(* ------------------------------------------------------------------ *)

let random_instance rng m ~with_source =
  let coord () = Prng.float rng 100.0 in
  let sinks = Array.init m (fun _ -> pt (coord ()) (coord ())) in
  let source = if with_source then Some (pt (coord ()) (coord ())) else None in
  let base = Instance.uniform_bounds ?source ~sinks ~lower:0.0 ~upper:infinity () in
  let r = Instance.radius base in
  (* admissible bounds: u >= radius guarantees (3)/(4) *)
  let u = r *. (1.0 +. Prng.float rng 1.0) in
  let l = Prng.float rng u in
  (Instance.uniform_bounds ?source ~sinks ~lower:l ~upper:u (), l, u)

(* Lemma 3.1: topologies whose sinks are all leaves admit a LUBT for any
   admissible bounds; the solver must find it and the embedding must pass
   full validation. *)
let test_lemma31_always_feasible () =
  let rng = Prng.create 314 in
  for case = 1 to 25 do
    let m = 2 + Prng.int rng 14 in
    let with_source = Prng.bool rng in
    let inst, _, _ = random_instance rng m ~with_source in
    let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:with_source in
    match Lubt.solve inst tree with
    | Ok r -> (
      match Routed.validate r.Lubt.routed with
      | Ok () -> ()
      | Error es ->
        Alcotest.failf "case %d: invalid embedding: %s" case
          (String.concat "; " es))
    | Error e ->
      Alcotest.failf "case %d: expected feasible (Lemma 3.1): %s" case
        (Lubt.error_to_string e)
  done

let test_lazy_equals_eager () =
  let rng = Prng.create 2718 in
  for case = 1 to 12 do
    let m = 6 + Prng.int rng 14 in
    let with_source = Prng.bool rng in
    let inst, _, _ = random_instance rng m ~with_source in
    let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:with_source in
    let lazy_r =
      Ebf.solve ~options:{ Ebf.default_options with lazy_steiner = true } inst tree
    in
    let eager_r =
      Ebf.solve ~options:{ Ebf.default_options with lazy_steiner = false } inst tree
    in
    Alcotest.(check bool) "both optimal" true
      (lazy_r.Ebf.status = Status.Optimal && eager_r.Ebf.status = Status.Optimal);
    if not (Lubt_util.Stats.approx_eq ~eps:1e-6 lazy_r.Ebf.objective eager_r.Ebf.objective)
    then
      Alcotest.failf "case %d: lazy %.9g vs eager %.9g" case lazy_r.Ebf.objective
        eager_r.Ebf.objective;
    (* the lazy solution must satisfy every constraint exhaustively *)
    (match Ebf.check_lengths inst tree lazy_r.Ebf.lengths with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "case %d: %s" case msg);
    (* and use no more rows than the full formulation *)
    Alcotest.(check bool) "row reduction" true
      (lazy_r.Ebf.lp_rows <= eager_r.Ebf.lp_rows)
  done

let test_matches_tableau_oracle () =
  let rng = Prng.create 99 in
  for case = 1 to 10 do
    let m = 3 + Prng.int rng 6 in
    let with_source = Prng.bool rng in
    let inst, _, _ = random_instance rng m ~with_source in
    let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:with_source in
    let mine = Ebf.solve inst tree in
    let oracle = Tableau.solve (Ebf.formulate inst tree) in
    Alcotest.(check bool) "statuses optimal" true
      (mine.Ebf.status = Status.Optimal && oracle.Status.status = Status.Optimal);
    if not (Lubt_util.Stats.approx_eq ~eps:1e-6 mine.Ebf.objective oracle.Status.objective)
    then
      Alcotest.failf "case %d: ebf %.9g vs tableau %.9g" case mine.Ebf.objective
        oracle.Status.objective
  done

let test_infeasible_bounds_detected () =
  (* upper bound below the source-sink distance: no tree can exist *)
  let sinks = [| pt 10.0 0.0; pt 0.0 10.0 |] in
  let inst =
    Instance.uniform_bounds ~source:(pt 0.0 0.0) ~sinks ~lower:0.0 ~upper:5.0 ()
  in
  Alcotest.(check bool) "not admissible" false (Instance.bounds_admissible inst);
  let tree = Topogen.balanced_binary ~num_sinks:2 ~source_edge:true in
  match Lubt.solve inst tree with
  | Error Lubt.No_solution -> ()
  | Ok _ -> Alcotest.fail "expected infeasible"
  | Error e -> Alcotest.failf "unexpected error: %s" (Lubt.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Zero skew                                                           *)
(* ------------------------------------------------------------------ *)

let test_zeroskew_matches_lp () =
  let rng = Prng.create 555 in
  for case = 1 to 12 do
    let m = 2 + Prng.int rng 10 in
    let with_source = Prng.bool rng in
    let coord () = Prng.float rng 50.0 in
    let sinks = Array.init m (fun _ -> pt (coord ()) (coord ())) in
    let source = if with_source then Some (pt (coord ()) (coord ())) else None in
    let relaxed = Instance.uniform_bounds ?source ~sinks ~lower:0.0 ~upper:infinity () in
    let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:with_source in
    let zs = Zeroskew.balance relaxed tree in
    let c = zs.Zeroskew.root_delay in
    (* LP with l = u = c must be feasible with the same minimal cost *)
    let inst = Instance.uniform_bounds ?source ~sinks ~lower:c ~upper:c () in
    let lp = Ebf.solve inst tree in
    Alcotest.(check bool) "lp optimal" true (lp.Ebf.status = Status.Optimal);
    let zs_cost = Lubt_util.Stats.sum (Array.sub zs.Zeroskew.lengths 1 (Tree.num_edges tree)) in
    if not (Lubt_util.Stats.approx_eq ~eps:1e-6 zs_cost lp.Ebf.objective) then
      Alcotest.failf "case %d (m=%d src=%b): closed form %.9g vs LP %.9g" case m
        with_source zs_cost lp.Ebf.objective;
    (* the closed-form lengths satisfy every constraint *)
    match Ebf.check_lengths inst tree zs.Zeroskew.lengths with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "case %d: closed form invalid: %s" case msg
  done

let test_zeroskew_target_below_minimum () =
  let sinks = [| pt 0.0 0.0; pt 10.0 0.0 |] in
  let inst = Instance.uniform_bounds ~sinks ~lower:0.0 ~upper:infinity () in
  let tree = Topogen.balanced_binary ~num_sinks:2 ~source_edge:false in
  match Zeroskew.solve ~target:1.0 inst tree with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "target below minimum must fail"

let test_zeroskew_elongated_target () =
  let sinks = [| pt 0.0 0.0; pt 10.0 0.0; pt 0.0 10.0; pt 10.0 10.0 |] in
  let inst = Instance.uniform_bounds ~sinks ~lower:0.0 ~upper:infinity () in
  let tree = Topogen.balanced_binary ~num_sinks:4 ~source_edge:false in
  let base = Zeroskew.balance inst tree in
  let target = base.Zeroskew.root_delay +. 3.0 in
  match Zeroskew.solve ~target inst tree with
  | Error msg -> Alcotest.fail msg
  | Ok zs ->
    let d = Lubt_delay.Linear.sink_delays tree zs.Zeroskew.lengths in
    Array.iter (fun x -> check_float "uniform delay" target x) d

(* ------------------------------------------------------------------ *)
(* Embedding details                                                   *)
(* ------------------------------------------------------------------ *)

let test_embedding_policies () =
  let rng = Prng.create 4242 in
  let m = 9 in
  let inst, _, _ = random_instance rng m ~with_source:true in
  let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:true in
  let ebf = Ebf.solve inst tree in
  Alcotest.(check bool) "optimal" true (ebf.Ebf.status = Status.Optimal);
  List.iter
    (fun policy ->
      match Embed.place ~policy inst tree ebf.Ebf.lengths with
      | Error msg -> Alcotest.fail msg
      | Ok emb ->
        let routed =
          { Routed.instance = inst; tree; lengths = ebf.Ebf.lengths;
            positions = emb.Embed.positions }
        in
        (match Routed.validate routed with
        | Ok () -> ()
        | Error es -> Alcotest.failf "policy invalid: %s" (String.concat "; " es)))
    [ Embed.Center; Embed.Closest_to_parent; Embed.Sampled (Prng.create 1) ]

let test_embedding_rejects_bad_lengths () =
  (* shrink one edge below the required distance: some feasible region
     must become empty *)
  let sinks = [| pt 0.0 0.0; pt 10.0 0.0 |] in
  let inst = Instance.uniform_bounds ~sinks ~lower:0.0 ~upper:infinity () in
  let tree = Topogen.balanced_binary ~num_sinks:2 ~source_edge:false in
  let lengths = Array.make (Tree.num_nodes tree) 1.0 in
  lengths.(0) <- 0.0;
  (* total available 2.0 < dist 10 *)
  match Embed.place inst tree lengths with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected embedding failure"

let test_snake_lengths () =
  let rng = Prng.create 808 in
  for _ = 1 to 200 do
    let p = pt (Prng.float rng 20.0) (Prng.float rng 20.0) in
    let q = pt (Prng.float rng 20.0) (Prng.float rng 20.0) in
    let extra = Prng.float rng 10.0 in
    let len = Point.dist p q +. extra in
    let poly = Snake.route p q len in
    (match poly with
    | first :: _ ->
      Alcotest.(check bool) "starts at p" true (Point.equal first p)
    | [] -> Alcotest.fail "empty polyline");
    let last = List.nth poly (List.length poly - 1) in
    Alcotest.(check bool) "ends at q" true (Point.equal last q);
    Alcotest.(check (float 1e-9)) "exact length" len (Snake.length poly)
  done

let test_snake_whole_tree () =
  let rng = Prng.create 4711 in
  let m = 8 in
  let inst, _, _ = random_instance rng m ~with_source:false in
  let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:false in
  let r = Lubt.solve_exn inst tree in
  let polys = Snake.route_tree r.Lubt.routed in
  Alcotest.(check int) "one polyline per edge" (Tree.num_edges tree)
    (Array.length polys);
  let total =
    Array.fold_left (fun acc (_, poly) -> acc +. Snake.length poly) 0.0 polys
  in
  check_float "snaked wire total = LP cost" (Routed.cost r.Lubt.routed) total

(* ------------------------------------------------------------------ *)
(* Weighted objective (Section 7)                                      *)
(* ------------------------------------------------------------------ *)

let test_weighted_objective () =
  let sinks = [| pt 0.0 0.0; pt 10.0 0.0 |] in
  let inst =
    Instance.uniform_bounds ~source:(pt 5.0 5.0) ~sinks ~lower:0.0 ~upper:30.0 ()
  in
  let tree = Topogen.balanced_binary ~num_sinks:2 ~source_edge:true in
  let n = Tree.num_nodes tree in
  let flat = Ebf.solve inst tree in
  (* weight one sink's edge heavily: total unweighted wire may grow but the
     weighted objective must not exceed the flat solution's weighted cost *)
  let weights = Array.make n 1.0 in
  weights.(1) <- 10.0;
  let weighted = Ebf.solve ~weights inst tree in
  Alcotest.(check bool) "both optimal" true
    (flat.Ebf.status = Status.Optimal && weighted.Ebf.status = Status.Optimal);
  let weighted_cost_of lengths =
    let acc = ref 0.0 in
    for i = 1 to n - 1 do
      acc := !acc +. (weights.(i) *. lengths.(i))
    done;
    !acc
  in
  Alcotest.(check bool) "weighted optimum no worse" true
    (weighted.Ebf.objective <= weighted_cost_of flat.Ebf.lengths +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Elmore extension (Section 7)                                        *)
(* ------------------------------------------------------------------ *)

let elmore_setup rng m =
  let coord () = Prng.float rng 10.0 in
  let sinks = Array.init m (fun _ -> pt (coord ()) (coord ())) in
  let source = pt (coord ()) (coord ()) in
  let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:true in
  let wire = { Elmore.r_w = 0.1; c_w = 0.2 } in
  let loads = Array.make m 1.0 in
  (sinks, source, tree, wire, loads)

let test_elmore_upper_bound_only () =
  let rng = Prng.create 31337 in
  let m = 6 in
  let sinks, source, tree, wire, loads = elmore_setup rng m in
  (* find the Elmore delays of the relaxed optimum, then tighten *)
  let relaxed = Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:infinity () in
  let r0 = Ebf.solve relaxed tree in
  let d0 = Elmore.sink_delays tree wire loads r0.Ebf.lengths in
  let u = 1.5 *. Array.fold_left max 0.0 d0 in
  let inst = Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:u () in
  let res = Elmore_ebf.solve ~wire ~loads inst tree in
  (match res.Elmore_ebf.status with
  | Elmore_ebf.Converged -> ()
  | Elmore_ebf.Stalled -> Alcotest.fail "SLP stalled"
  | Elmore_ebf.Lp_failure st -> Alcotest.failf "LP failure: %s" (Status.to_string st));
  Array.iter
    (fun d -> Alcotest.(check bool) "elmore delay within bound" true (d <= u +. 1e-6))
    res.Elmore_ebf.sink_delays;
  Alcotest.(check bool) "violation small" true (res.Elmore_ebf.max_violation <= 1e-5)

let test_elmore_with_lower_bound () =
  let rng = Prng.create 9001 in
  let m = 5 in
  let sinks, source, tree, wire, loads = elmore_setup rng m in
  let relaxed = Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:infinity () in
  let r0 = Ebf.solve relaxed tree in
  let d0 = Elmore.sink_delays tree wire loads r0.Ebf.lengths in
  let dmax = Array.fold_left max 0.0 d0 in
  let l = 1.1 *. dmax and u = 3.0 *. dmax in
  let inst = Instance.uniform_bounds ~source ~sinks ~lower:l ~upper:u () in
  let res = Elmore_ebf.solve ~wire ~loads inst tree in
  Alcotest.(check bool) "found feasible point" true
    (res.Elmore_ebf.max_violation <= 1e-4 *. dmax);
  Array.iter
    (fun d ->
      Alcotest.(check bool) "delay in window" true
        (d >= l -. (1e-4 *. dmax) && d <= u +. (1e-4 *. dmax)))
    res.Elmore_ebf.sink_delays

(* ------------------------------------------------------------------ *)
(* LP scaling behaviour of the row generation                           *)
(* ------------------------------------------------------------------ *)

let test_row_generation_economy () =
  let rng = Prng.create 60 in
  let m = 40 in
  let inst, _, _ = random_instance rng m ~with_source:true in
  let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:true in
  let r = Ebf.solve inst tree in
  Alcotest.(check bool) "optimal" true (r.Ebf.status = Status.Optimal);
  (* the lazy LP should stay well below the full (m+1 choose 2) + 2m rows *)
  Alcotest.(check bool) "lazy rows below full" true (r.Ebf.lp_rows < r.Ebf.full_rows);
  match Ebf.check_lengths inst tree r.Ebf.lengths with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* A result carries the LP its engine solved: built only when forced,
   with the engine's row count and optimum, and every Steiner row named
   steiner_a_b after its terminal nodes with bound dist(a, b). Eager, it
   holds the rows of the full formulation. *)
let test_result_lp () =
  let module Problem = Lubt_lp.Problem in
  let rng = Prng.create 60 in
  let m = 40 in
  let inst, _, _ = random_instance rng m ~with_source:true in
  let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:true in
  let r = Ebf.solve inst tree in
  Alcotest.(check bool) "unforced without certification" false
    (Lazy.is_val r.Ebf.lp);
  let lp = Lazy.force r.Ebf.lp in
  Alcotest.(check int) "engine's rows" r.Ebf.lp_rows (Problem.nrows lp);
  let sol = Lubt_lp.Solver.solve lp in
  Alcotest.(check bool) "optimal" true (sol.Status.status = Status.Optimal);
  check_float "engine's optimum" r.Ebf.objective sol.Status.objective;
  let where = Hashtbl.create 64 in
  Array.iter (fun (node, p) -> Hashtbl.replace where node p) (Ebf.terminals inst tree);
  let steiner = ref 0 in
  for i = 0 to Problem.nrows lp - 1 do
    let name = Problem.row_name lp i in
    match String.split_on_char '_' name with
    | [ "steiner"; a; b ] ->
      let a = int_of_string a and b = int_of_string b in
      incr steiner;
      let row = Problem.row lp i in
      check_float name
        (Point.dist (Hashtbl.find where a) (Hashtbl.find where b))
        row.Problem.rlo;
      Alcotest.(check bool) (name ^ " has no upper bound") true
        (row.Problem.rup = infinity)
    | _ ->
      if not (String.starts_with ~prefix:"delay_s" name) then
        Alcotest.failf "row %d is named %S" i name
  done;
  Alcotest.(check bool) "lazy: some Steiner rows" true
    (!steiner > 0 && Problem.nrows lp < r.Ebf.full_rows);
  let names p =
    List.sort compare (List.init (Problem.nrows p) (Problem.row_name p))
  in
  let eager =
    Ebf.solve ~options:{ Ebf.default_options with lazy_steiner = false } inst tree
  in
  Alcotest.(check (list string)) "eager: the full formulation's rows"
    (names (Ebf.formulate inst tree)) (names (Lazy.force eager.Ebf.lp))

(* ------------------------------------------------------------------ *)
(* Metamorphic properties (QCheck)                                     *)
(* ------------------------------------------------------------------ *)

(* A tiny random case from a seed: 2-7 sinks on an integer grid (so
   that the isometries below move them exactly), a source half of the
   time, integral per-sink bounds with uppers from 0.8 to 1.6 radii (so
   some cases are infeasible), and a fixed random topology. *)
let metamorphic_case seed =
  let rng = Prng.create seed in
  let m = 2 + Prng.int rng 6 in
  let with_source = Prng.bool rng in
  let coord () = float_of_int (Prng.int rng 101) in
  let sinks = Array.init m (fun _ -> pt (coord ()) (coord ())) in
  let source = if with_source then Some (pt (coord ()) (coord ())) else None in
  let r =
    Instance.radius
      (Instance.uniform_bounds ?source ~sinks ~lower:0.0 ~upper:infinity ())
  in
  let upper =
    Array.init m (fun _ -> Float.round (r *. (0.8 +. Prng.float rng 0.8)))
  in
  let lower =
    Array.map (fun u -> Float.round (u *. Prng.float rng 1.0)) upper
  in
  let inst = Instance.create ?source ~sinks ~lower ~upper () in
  (inst, Topogen.random_binary rng ~num_sinks:m ~source_edge:with_source, rng)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

(* [inst] with every point (source included) mapped by [f] and every
   bound scaled by [k]. *)
let transform ?(k = 1.0) f (inst : Instance.t) =
  Instance.create
    ?source:(Option.map f inst.Instance.source)
    ~sinks:(Array.map f inst.Instance.sinks)
    ~lower:(Array.map (fun l -> k *. l) inst.Instance.lower)
    ~upper:(Array.map (fun u -> k *. u) inst.Instance.upper)
    ()

(* The same answer up to a factor: both infeasible, or both optimal with
   [b] = [k a] to within 1e-9 relative. *)
let same_answer ?(k = 1.0) (a : Ebf.result) (b : Ebf.result) =
  match (a.Ebf.status, b.Ebf.status) with
  | Status.Optimal, Status.Optimal ->
    let want = k *. a.Ebf.objective in
    Float.abs (b.Ebf.objective -. want) <= 1e-9 *. (1.0 +. Float.abs want)
  | sa, sb -> sa = sb && sa = Status.Infeasible

let prop_isometries =
  QCheck.Test.make ~name:"translation, rotation, mirroring keep the cost"
    ~count:200 seed_arb (fun seed ->
      let inst, tree, rng = metamorphic_case seed in
      let dx = float_of_int (Prng.int rng 2001 - 1000)
      and dy = float_of_int (Prng.int rng 2001 - 1000) in
      let base = Ebf.solve inst tree in
      List.for_all
        (fun f -> same_answer base (Ebf.solve (transform f inst) tree))
        [
          (fun p -> pt (p.Point.x +. dx) (p.Point.y +. dy));
          (fun p -> pt (-.p.Point.y) p.Point.x);
          (fun p -> pt (-.p.Point.x) p.Point.y);
        ])

let prop_scaling =
  QCheck.Test.make ~name:"scaling by 2^k scales the cost by 2^k" ~count:200
    seed_arb (fun seed ->
      let inst, tree, rng = metamorphic_case seed in
      let k = Float.ldexp 1.0 (Prng.int rng 9 - 4) in
      same_answer ~k (Ebf.solve inst tree)
        (Ebf.solve
           (transform ~k (fun p -> pt (k *. p.Point.x) (k *. p.Point.y)) inst)
           tree))

let prop_tightening =
  QCheck.Test.make ~name:"tightening one window never lowers the cost"
    ~count:200 seed_arb (fun seed ->
      let inst, tree, rng = metamorphic_case seed in
      let i = Prng.int rng (Instance.num_sinks inst) in
      let l = inst.Instance.lower.(i) and u = inst.Instance.upper.(i) in
      let l' = l +. ((u -. l) *. Prng.float rng 1.0) in
      let u' = u -. ((u -. l') *. Prng.float rng 1.0) in
      let lower = Array.copy inst.Instance.lower
      and upper = Array.copy inst.Instance.upper in
      lower.(i) <- l';
      upper.(i) <- u';
      let base = Ebf.solve inst tree
      and tight = Ebf.solve (Instance.with_bounds inst ~lower ~upper) tree in
      match (base.Ebf.status, tight.Ebf.status) with
      | _, Status.Infeasible -> true
      | Status.Optimal, Status.Optimal ->
        tight.Ebf.objective
        >= base.Ebf.objective -. (1e-9 *. (1.0 +. Float.abs base.Ebf.objective))
      | _ -> false)

let () =
  Alcotest.run "core"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "figure 1 feasibility" `Quick
            test_figure1_topology_feasibility;
          Alcotest.test_case "section 4.5 five-point" `Quick
            test_five_point_example;
          Alcotest.test_case "figure 4 euclidean counterexample" `Quick
            test_euclidean_counterexample;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "lemma 3.1 always feasible" `Slow
            test_lemma31_always_feasible;
          Alcotest.test_case "lazy = eager" `Slow test_lazy_equals_eager;
          Alcotest.test_case "matches tableau oracle" `Quick
            test_matches_tableau_oracle;
          Alcotest.test_case "infeasible bounds detected" `Quick
            test_infeasible_bounds_detected;
          Alcotest.test_case "result carries its LP" `Quick test_result_lp;
          Alcotest.test_case "row generation economy" `Quick
            test_row_generation_economy;
        ] );
      ( "metamorphic",
        [
          QCheck_alcotest.to_alcotest prop_isometries;
          QCheck_alcotest.to_alcotest prop_scaling;
          QCheck_alcotest.to_alcotest prop_tightening;
        ] );
      ( "zero-skew",
        [
          Alcotest.test_case "closed form = LP" `Slow test_zeroskew_matches_lp;
          Alcotest.test_case "target below minimum" `Quick
            test_zeroskew_target_below_minimum;
          Alcotest.test_case "elongated target" `Quick
            test_zeroskew_elongated_target;
        ] );
      ( "embedding",
        [
          Alcotest.test_case "all policies validate" `Quick
            test_embedding_policies;
          Alcotest.test_case "rejects bad lengths" `Quick
            test_embedding_rejects_bad_lengths;
          Alcotest.test_case "snake segment lengths" `Quick test_snake_lengths;
          Alcotest.test_case "snake whole tree" `Quick test_snake_whole_tree;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "weighted objective" `Quick test_weighted_objective;
          Alcotest.test_case "elmore upper bound" `Slow
            test_elmore_upper_bound_only;
          Alcotest.test_case "elmore with lower bound" `Slow
            test_elmore_with_lower_bound;
        ] );
    ]
