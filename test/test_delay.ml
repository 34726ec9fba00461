(* Tests for the delay models: linear prefix sums, Elmore recursion vs a
   direct brute-force evaluation, and analytic gradients vs finite
   differences. *)

module Tree = Lubt_topo.Tree
module Linear = Lubt_delay.Linear
module Elmore = Lubt_delay.Elmore
module Prng = Lubt_util.Prng

let paper_tree () =
  let parents = [| -1; 6; 8; 7; 7; 6; 0; 8; 0 |] in
  Tree.create ~parents ~sinks:[| 1; 2; 3; 4; 5 |] ()

let lengths8 = [| 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0 |]

let test_linear_delays () =
  let t = paper_tree () in
  let d = Linear.sink_delays t lengths8 in
  Alcotest.(check (float 1e-9)) "s1" 7.0 d.(0);
  Alcotest.(check (float 1e-9)) "s2" 10.0 d.(1);
  Alcotest.(check (float 1e-9)) "s3" 18.0 d.(2);
  Alcotest.(check (float 1e-9)) "s4" 19.0 d.(3);
  Alcotest.(check (float 1e-9)) "s5" 11.0 d.(4);
  Alcotest.(check (float 1e-9)) "skew" 12.0 (Linear.skew t lengths8);
  let lo, hi = Linear.min_max_delay t lengths8 in
  Alcotest.(check (float 1e-9)) "min" 7.0 lo;
  Alcotest.(check (float 1e-9)) "max" 19.0 hi

(* Brute-force Elmore: for each sink walk the path and recompute subtree
   capacitances by explicit set scans. *)
let brute_elmore tree (wire : Elmore.wire) loads lengths sink =
  let n = Tree.num_nodes tree in
  let in_subtree = Array.make n [||] in
  let subtree k =
    let mark = Array.make n false in
    let rec go v =
      mark.(v) <- true;
      List.iter go (Tree.children tree v)
    in
    go k;
    mark
  in
  for k = 0 to n - 1 do
    in_subtree.(k) <- [||]
  done;
  let cap k =
    let mark = subtree k in
    let total = ref 0.0 in
    for v = 0 to n - 1 do
      if mark.(v) then begin
        if Tree.is_sink tree v then
          total := !total +. loads.(Tree.sink_index tree v);
        if v <> k && mark.(Tree.parent tree v) then
          total := !total +. (wire.Elmore.c_w *. lengths.(v))
      end
    done;
    !total
  in
  let rec walk v acc =
    if v = Tree.root then acc
    else
      let e = lengths.(v) in
      let stage = wire.Elmore.r_w *. e *. ((wire.Elmore.c_w *. e /. 2.0) +. cap v) in
      walk (Tree.parent tree v) (acc +. stage)
  in
  walk sink 0.0

let random_setup seed m =
  let rng = Prng.create seed in
  let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:(Prng.bool rng) in
  let n = Tree.num_nodes tree in
  let lengths = Array.init n (fun i -> if i = 0 then 0.0 else Prng.float rng 10.0) in
  let loads = Array.init m (fun _ -> Prng.float rng 2.0) in
  let wire = { Elmore.r_w = 0.1; c_w = 0.2 } in
  (rng, tree, lengths, loads, wire)

let test_elmore_vs_brute_force () =
  for seed = 1 to 10 do
    let _, tree, lengths, loads, wire = random_setup seed 8 in
    let fast = Elmore.node_delays tree wire loads lengths in
    Array.iter
      (fun s ->
        let slow = brute_elmore tree wire loads lengths s in
        if not (Lubt_util.Stats.approx_eq ~eps:1e-9 fast.(s) slow) then
          Alcotest.failf "seed %d sink %d: fast %.12g brute %.12g" seed s
            fast.(s) slow)
      (Tree.sinks tree)
  done

let test_elmore_caps () =
  let t = paper_tree () in
  let wire = { Elmore.r_w = 1.0; c_w = 1.0 } in
  let loads = [| 1.0; 1.0; 1.0; 1.0; 1.0 |] in
  let caps = Elmore.subtree_caps t wire loads lengths8 in
  (* leaf sink: just its load *)
  Alcotest.(check (float 1e-9)) "leaf cap" 1.0 caps.(1);
  (* node 7 = {s3, s4} + wire e3 + e4 *)
  Alcotest.(check (float 1e-9)) "node 7 cap" (2.0 +. 3.0 +. 4.0) caps.(7);
  (* node 8 = s2 + e2 + node7 subtree + e7 *)
  Alcotest.(check (float 1e-9)) "node 8 cap" (1.0 +. 2.0 +. 9.0 +. 7.0) caps.(8);
  (* root = everything *)
  let total_wire = Lubt_util.Stats.sum (Array.sub lengths8 1 8) in
  Alcotest.(check (float 1e-9)) "root cap" (5.0 +. total_wire) caps.(0)

let test_gradient_finite_difference () =
  for seed = 20 to 26 do
    let _, tree, lengths, loads, wire = random_setup seed 6 in
    let n = Tree.num_nodes tree in
    Array.iter
      (fun s ->
        let g = Elmore.gradient tree wire loads lengths s in
        let h = 1e-6 in
        for a = 1 to n - 1 do
          let bumped = Array.copy lengths in
          bumped.(a) <- bumped.(a) +. h;
          let d1 = (Elmore.node_delays tree wire loads bumped).(s) in
          let d0 = (Elmore.node_delays tree wire loads lengths).(s) in
          let fd = (d1 -. d0) /. h in
          if not (Lubt_util.Stats.approx_eq ~eps:1e-4 g.(a) fd) then
            Alcotest.failf "seed %d sink %d edge %d: grad %.9g fd %.9g" seed s
              a g.(a) fd
        done)
      (Tree.sinks tree)
  done

let test_elmore_zero_wire_cap () =
  (* with c_w = 0 the Elmore delay is r_w * sum e_k * C_k with constant
     subtree caps: monotone and easy to sanity check on a 2-sink tree *)
  let parents = [| -1; 2; 0 |] in
  let t = Tree.create ~parents ~sinks:[| 1 |] () in
  let wire = { Elmore.r_w = 2.0; c_w = 0.0 } in
  let loads = [| 3.0 |] in
  let lengths = [| 0.0; 4.0; 5.0 |] in
  let d = Elmore.node_delays t wire loads lengths in
  (* both edges drive cap 3: delay = 2*(4*3) + 2*(5*3) *)
  Alcotest.(check (float 1e-9)) "delay" 54.0 d.(1)

let prop_elmore_monotone =
  QCheck.Test.make ~name:"elmore delay increases with any edge length"
    ~count:100
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, m) ->
      let _, tree, lengths, loads, wire = random_setup (seed + 1000) m in
      let s = (Tree.sinks tree).(0) in
      let d0 = (Elmore.node_delays tree wire loads lengths).(s) in
      let bumped = Array.copy lengths in
      let n = Tree.num_nodes tree in
      let a = 1 + (seed mod (n - 1)) in
      bumped.(a) <- bumped.(a) +. 1.0;
      let d1 = (Elmore.node_delays tree wire loads bumped).(s) in
      d1 >= d0 -. 1e-12)

let prop_linear_delay_additive =
  QCheck.Test.make ~name:"linear delay is sum of path edges" ~count:100
    QCheck.(pair small_int (int_range 2 15))
    (fun (seed, m) ->
      let rng = Prng.create seed in
      let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:false in
      let n = Tree.num_nodes tree in
      let lengths = Array.init n (fun i -> if i = 0 then 0.0 else Prng.float rng 5.0) in
      let d = Linear.node_delays tree lengths in
      Array.for_all
        (fun s ->
          let manual =
            List.fold_left (fun acc e -> acc +. lengths.(e)) 0.0
              (Tree.path_to_root tree s)
          in
          Lubt_util.Stats.approx_eq d.(s) manual)
        (Tree.sinks tree))

let () =
  Alcotest.run "delay"
    [
      ( "linear",
        [ Alcotest.test_case "paper tree delays" `Quick test_linear_delays ] );
      ( "elmore",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_elmore_vs_brute_force;
          Alcotest.test_case "subtree caps" `Quick test_elmore_caps;
          Alcotest.test_case "gradient vs finite differences" `Quick
            test_gradient_finite_difference;
          Alcotest.test_case "zero wire capacitance" `Quick
            test_elmore_zero_wire_cap;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_elmore_monotone; prop_linear_delay_additive ] );
    ]
