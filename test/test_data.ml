(* Tests for the benchmark substrate: deterministic generation, sane
   geometry, the paper-example fixtures, and the instance/topology file
   round-trips. *)

module Point = Lubt_geom.Point
module Tree = Lubt_topo.Tree
module Instance = Lubt_core.Instance
module Benchmarks = Lubt_data.Benchmarks
module Examples = Lubt_data.Examples
module Io = Lubt_data.Io
module Prng = Lubt_util.Prng

let test_specs_present () =
  List.iter
    (fun size ->
      let specs = Benchmarks.specs size in
      Alcotest.(check int) "four benchmarks" 4 (List.length specs);
      Alcotest.(check (list string)) "names"
        [ "prim1s"; "prim2s"; "r1s"; "r3s" ]
        (List.map (fun s -> s.Benchmarks.name) specs))
    [ Benchmarks.Tiny; Benchmarks.Scaled; Benchmarks.Full ]

let test_full_sizes_match_paper () =
  let expected = [ ("prim1s", 269); ("prim2s", 603); ("r1s", 267); ("r3s", 862) ] in
  List.iter
    (fun (name, n) ->
      let spec = Benchmarks.find Benchmarks.Full name in
      Alcotest.(check int) name n spec.Benchmarks.num_sinks)
    expected

let test_generation_deterministic () =
  let spec = Benchmarks.find Benchmarks.Tiny "prim1s" in
  let a = Benchmarks.sinks spec and b = Benchmarks.sinks spec in
  Alcotest.(check int) "same count" (Array.length a) (Array.length b);
  Array.iteri
    (fun i p -> Alcotest.(check bool) "same point" true (Point.equal p b.(i)))
    a

let test_sinks_within_extent () =
  List.iter
    (fun spec ->
      Array.iter
        (fun p ->
          Alcotest.(check bool) "in chip" true
            (p.Point.x >= 0.0
            && p.Point.x <= spec.Benchmarks.extent
            && p.Point.y >= 0.0
            && p.Point.y <= spec.Benchmarks.extent))
        (Benchmarks.sinks spec))
    (Benchmarks.specs Benchmarks.Scaled)

let test_instance_normalised_bounds () =
  let spec = Benchmarks.find Benchmarks.Tiny "r1s" in
  let inst = Benchmarks.instance ~lower:0.5 ~upper:1.5 spec in
  let r = Instance.radius inst in
  Alcotest.(check (float 1e-9)) "lower" (0.5 *. r) inst.Instance.lower.(0);
  Alcotest.(check (float 1e-9)) "upper" (1.5 *. r) inst.Instance.upper.(0);
  Alcotest.(check bool) "admissible" true (Instance.bounds_admissible inst)

let test_five_point_fixture () =
  let inst, tree = Examples.five_point () in
  Alcotest.(check int) "five sinks" 5 (Instance.num_sinks inst);
  Alcotest.(check int) "nine nodes" 9 (Tree.num_nodes tree);
  Alcotest.(check bool) "admissible bounds" true (Instance.bounds_admissible inst);
  Alcotest.(check bool) "all sinks leaves" true (Tree.all_sinks_are_leaves tree)

let test_figure1_fixture () =
  let inst = Examples.figure1_instance () in
  Alcotest.(check int) "two sinks" 2 (Instance.num_sinks inst);
  let chain = Examples.figure1_chain () and star = Examples.figure1_star () in
  Alcotest.(check bool) "chain has internal sink" false
    (Tree.all_sinks_are_leaves chain);
  Alcotest.(check bool) "star sinks are leaves" true
    (Tree.all_sinks_are_leaves star)

let test_instance_roundtrip () =
  let rng = Prng.create 5150 in
  for _ = 1 to 20 do
    let m = 1 + Prng.int rng 10 in
    let sinks =
      Array.init m (fun _ -> Point.make (Prng.float rng 50.0) (Prng.float rng 50.0))
    in
    let source =
      if Prng.bool rng then Some (Point.make (Prng.float rng 50.0) (Prng.float rng 50.0))
      else None
    in
    let lower = Array.init m (fun _ -> Prng.float rng 5.0) in
    let upper =
      Array.mapi
        (fun i l -> if Prng.bool rng then infinity else l +. Prng.float rng 50.0 +. float_of_int i)
        lower
    in
    let inst = Instance.create ?source ~sinks ~lower ~upper () in
    match Io.instance_of_string (Io.instance_to_string inst) with
    | Error msg -> Alcotest.fail msg
    | Ok back ->
      Alcotest.(check int) "sink count" m (Instance.num_sinks back);
      Array.iteri
        (fun i p ->
          Alcotest.(check bool) "sink pos" true
            (Point.equal p back.Instance.sinks.(i));
          Alcotest.(check (float 1e-12)) "lower" inst.Instance.lower.(i)
            back.Instance.lower.(i);
          Alcotest.(check bool) "upper" true
            (inst.Instance.upper.(i) = back.Instance.upper.(i)
            || abs_float (inst.Instance.upper.(i) -. back.Instance.upper.(i)) < 1e-9))
        inst.Instance.sinks;
      Alcotest.(check bool) "source presence" true
        ((inst.Instance.source = None) = (back.Instance.source = None))
  done

let test_tree_roundtrip () =
  let rng = Prng.create 31415 in
  for _ = 1 to 20 do
    let m = 2 + Prng.int rng 12 in
    let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:(Prng.bool rng) in
    match Io.tree_of_string (Io.tree_to_string tree) with
    | Error msg -> Alcotest.fail msg
    | Ok back ->
      Alcotest.(check int) "nodes" (Tree.num_nodes tree) (Tree.num_nodes back);
      for v = 1 to Tree.num_nodes tree - 1 do
        Alcotest.(check int) "parent" (Tree.parent tree v) (Tree.parent back v);
        Alcotest.(check bool) "zero flag" (Tree.forced_zero tree v)
          (Tree.forced_zero back v)
      done;
      Alcotest.(check bool) "sinks" true (Tree.sinks tree = Tree.sinks back)
  done

let test_io_error_handling () =
  let cases =
    [
      ("", "no sinks");
      ("sink 1 2", "bad sink arity");
      ("sink a b 0 1", "bad coords");
      ("bogus 1 2", "unknown record");
      ("source 0 0\nsource 1 1\nsink 0 0 0 1", "duplicate source");
      ("sink 0 0 5 1", "lower above upper");
      ("sink 0 0 inf inf", "infinite lower bound");
      ("sink 0 0 0 inf\nsink nan 5 0 inf\nsink 3 4 0 inf", "nan sink");
      ("sink inf 0 0 inf\nsink 3 4 0 inf", "infinite sink");
      ("source 0 -inf\nsink 3 4 0 inf", "infinite source");
    ]
  in
  List.iter
    (fun (text, why) ->
      match Io.instance_of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse failure: %s" why)
    cases;
  List.iter
    (fun (text, why) ->
      match Io.tree_of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected tree parse failure: %s" why)
    [
      ("", "missing nodes");
      ("nodes 3\nedge 1 0\nsink 1", "node 2 has no edge");
      ("nodes 2\nedge 1 0", "no sinks");
      ("nodes 2\nedge 5 0\nsink 1", "edge out of range");
      (* rejected before an array of that size is allocated *)
      ("nodes 4000000000000\nedge 1 0\nsink 1", "more nodes than edges");
    ]

let test_file_roundtrip () =
  let inst, tree = Examples.five_point () in
  let dir = Filename.temp_file "lubt" "" in
  Sys.remove dir;
  let ipath = dir ^ ".inst" and tpath = dir ^ ".tree" in
  Io.write_instance ipath inst;
  Io.write_tree tpath tree;
  (match Io.read_instance ipath with
  | Ok back -> Alcotest.(check int) "sinks" 5 (Instance.num_sinks back)
  | Error msg -> Alcotest.fail msg);
  (match Io.read_tree tpath with
  | Ok back -> Alcotest.(check int) "nodes" 9 (Tree.num_nodes back)
  | Error msg -> Alcotest.fail msg);
  Sys.remove ipath;
  Sys.remove tpath;
  match Io.read_instance "/nonexistent/path.inst" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must error"

let () =
  Alcotest.run "data"
    [
      ( "benchmarks",
        [
          Alcotest.test_case "specs present" `Quick test_specs_present;
          Alcotest.test_case "full sizes match paper" `Quick
            test_full_sizes_match_paper;
          Alcotest.test_case "deterministic" `Quick test_generation_deterministic;
          Alcotest.test_case "within extent" `Quick test_sinks_within_extent;
          Alcotest.test_case "normalised bounds" `Quick
            test_instance_normalised_bounds;
        ] );
      ( "examples",
        [
          Alcotest.test_case "five point" `Quick test_five_point_fixture;
          Alcotest.test_case "figure 1" `Quick test_figure1_fixture;
        ] );
      ( "io",
        [
          Alcotest.test_case "instance roundtrip" `Quick test_instance_roundtrip;
          Alcotest.test_case "tree roundtrip" `Quick test_tree_roundtrip;
          Alcotest.test_case "error handling" `Quick test_io_error_handling;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
        ] );
    ]
