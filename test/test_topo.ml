(* Tests for rooted topologies: construction validation, LCA/path queries
   against brute force, traversal invariants, degree-4 splitting, and the
   structural topology generators. *)

module Tree = Lubt_topo.Tree
module Prng = Lubt_util.Prng

(* the 9-node topology of the paper's Section 4.5 example:
   root s0 with children s6, s8; s6 -> {s1, s5}; s8 -> {s2, s7};
   s7 -> {s3, s4} *)
let paper_tree () =
  let parents = [| -1; 6; 8; 7; 7; 6; 0; 8; 0 |] in
  Tree.create ~parents ~sinks:[| 1; 2; 3; 4; 5 |] ()

let test_basic_structure () =
  let t = paper_tree () in
  Alcotest.(check int) "nodes" 9 (Tree.num_nodes t);
  Alcotest.(check int) "edges" 8 (Tree.num_edges t);
  Alcotest.(check int) "sinks" 5 (Tree.num_sinks t);
  Alcotest.(check int) "parent of 3" 7 (Tree.parent t 3);
  Alcotest.(check int) "parent of root" (-1) (Tree.parent t 0);
  Alcotest.(check (list int)) "children of 8" [ 2; 7 ] (List.sort compare (Tree.children t 8));
  Alcotest.(check bool) "sink" true (Tree.is_sink t 4);
  Alcotest.(check bool) "not sink" false (Tree.is_sink t 7);
  Alcotest.(check bool) "leaf" true (Tree.is_leaf t 1);
  Alcotest.(check bool) "not leaf" false (Tree.is_leaf t 6);
  Alcotest.(check int) "depth" 2 (Tree.depth t 7);
  Alcotest.(check int) "depth sink" 3 (Tree.depth t 3);
  Alcotest.(check bool) "all sinks leaves" true (Tree.all_sinks_are_leaves t);
  Alcotest.(check int) "sink index" 2 (Tree.sink_index t 3)

let test_paths () =
  let t = paper_tree () in
  let sort = List.sort compare in
  Alcotest.(check (list int)) "path to root" [ 3; 7; 8 ] (sort (Tree.path_to_root t 3));
  Alcotest.(check (list int)) "path s1 s3" [ 1; 3; 6; 7; 8 ] (sort (Tree.path t 1 3));
  Alcotest.(check (list int)) "path s3 s4" [ 3; 4 ] (sort (Tree.path t 3 4));
  Alcotest.(check (list int)) "path s1 s5" [ 1; 5 ] (sort (Tree.path t 1 5));
  Alcotest.(check (list int)) "path to itself" [] (Tree.path t 3 3);
  Alcotest.(check (list int)) "path root to sink" [ 2; 8 ] (sort (Tree.path t 0 2))

let test_lca () =
  let t = paper_tree () in
  Alcotest.(check int) "lca s3 s4" 7 (Tree.lca t 3 4);
  Alcotest.(check int) "lca s1 s5" 6 (Tree.lca t 1 5);
  Alcotest.(check int) "lca s1 s3" 0 (Tree.lca t 1 3);
  Alcotest.(check int) "lca with ancestor" 8 (Tree.lca t 2 3);
  Alcotest.(check int) "lca self" 4 (Tree.lca t 4 4)

let test_invalid_trees () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "root not -1" (fun () ->
      Tree.create ~parents:[| 0; 0 |] ~sinks:[| 1 |] ());
  expect_invalid "cycle" (fun () ->
      Tree.create ~parents:[| -1; 2; 1 |] ~sinks:[| 1 |] ());
  expect_invalid "self parent" (fun () ->
      Tree.create ~parents:[| -1; 1 |] ~sinks:[| 1 |] ());
  expect_invalid "out of range parent" (fun () ->
      Tree.create ~parents:[| -1; 5 |] ~sinks:[| 1 |] ());
  expect_invalid "duplicate sink" (fun () ->
      Tree.create ~parents:[| -1; 0; 0 |] ~sinks:[| 1; 1 |] ());
  expect_invalid "root as sink" (fun () ->
      Tree.create ~parents:[| -1; 0 |] ~sinks:[| 0 |] ());
  expect_invalid "no sinks" (fun () ->
      Tree.create ~parents:[| -1; 0 |] ~sinks:[||] ())

let test_traversal_orders () =
  let t = paper_tree () in
  let post = Tree.postorder t and pre = Tree.preorder t in
  Alcotest.(check int) "post length" 9 (Array.length post);
  Alcotest.(check int) "pre length" 9 (Array.length pre);
  Alcotest.(check int) "root last in post" 0 post.(8);
  Alcotest.(check int) "root first in pre" 0 pre.(0);
  (* every child appears before its parent in postorder *)
  let pos = Array.make 9 0 in
  Array.iteri (fun i v -> pos.(v) <- i) post;
  for v = 1 to 8 do
    Alcotest.(check bool) "post child<parent" true (pos.(v) < pos.(Tree.parent t v))
  done;
  let pos_pre = Array.make 9 0 in
  Array.iteri (fun i v -> pos_pre.(v) <- i) pre;
  for v = 1 to 8 do
    Alcotest.(check bool) "pre parent<child" true
      (pos_pre.(Tree.parent t v) < pos_pre.(v))
  done

let test_delays_and_path_length () =
  let t = paper_tree () in
  let lengths = [| 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0 |] in
  let d = Tree.delays t lengths in
  Alcotest.(check (float 1e-9)) "delay s1" 7.0 d.(1);
  (* e1 + e6 *)
  Alcotest.(check (float 1e-9)) "delay s3" 18.0 d.(3);
  (* e3 + e7 + e8 *)
  Alcotest.(check (float 1e-9)) "path length s1 s3" 25.0
    (Tree.path_length t lengths 1 3);
  Alcotest.(check (float 1e-9)) "path length consistent"
    (d.(1) +. d.(3) -. (2.0 *. d.(Tree.lca t 1 3)))
    (Tree.path_length t lengths 1 3)

(* brute-force LCA: climb both paths *)
let brute_lca t a b =
  let rec ancestors i = if i = -1 then [] else i :: ancestors (Tree.parent t i) in
  let aa = ancestors a in
  let rec find = function
    | [] -> assert false
    | x :: rest -> if List.mem x aa then x else find rest
  in
  find (ancestors b)

let test_lca_random () =
  let rng = Prng.create 123 in
  for _ = 1 to 20 do
    let m = 2 + Prng.int rng 30 in
    let t = Topogen.random_binary rng ~num_sinks:m ~source_edge:(Prng.bool rng) in
    let n = Tree.num_nodes t in
    for _ = 1 to 50 do
      let a = Prng.int rng n and b = Prng.int rng n in
      Alcotest.(check int) "lca matches brute force" (brute_lca t a b)
        (Tree.lca t a b)
    done
  done

let test_random_binary_shape () =
  let rng = Prng.create 9 in
  for _ = 1 to 30 do
    let m = 2 + Prng.int rng 40 in
    let source_edge = Prng.bool rng in
    let t = Topogen.random_binary rng ~num_sinks:m ~source_edge in
    Alcotest.(check int) "sink count" m (Tree.num_sinks t);
    Alcotest.(check bool) "sinks are leaves" true (Tree.all_sinks_are_leaves t);
    let expected_nodes = if source_edge then 2 * m else (2 * m) - 1 in
    Alcotest.(check int) "node count" expected_nodes (Tree.num_nodes t);
    (* every steiner node has exactly two children; root per mode *)
    for v = 0 to Tree.num_nodes t - 1 do
      let c = List.length (Tree.children t v) in
      if v = 0 then
        Alcotest.(check int) "root children" (if source_edge then 1 else 2) c
      else if not (Tree.is_sink t v) then
        Alcotest.(check int) "steiner has 2 children" 2 c
    done
  done

let test_balanced_depth () =
  let t = Topogen.balanced_binary ~num_sinks:64 ~source_edge:false in
  let max_depth = ref 0 in
  for v = 0 to Tree.num_nodes t - 1 do
    if Tree.is_leaf t v then max_depth := max !max_depth (Tree.depth t v)
  done;
  Alcotest.(check int) "depth of perfect 64-leaf tree" 6 !max_depth

let test_binarise () =
  (* root with 4 children, one internal node with 3 children *)
  let parents = [| -1; 0; 0; 0; 0; 1; 1; 1 |] in
  let t = Tree.create ~parents ~sinks:[| 2; 3; 4; 5; 6; 7 |] () in
  let b = Tree.binarise t in
  Alcotest.(check int) "sinks preserved" 6 (Tree.num_sinks b);
  Alcotest.(check bool) "sinks still leaves" true (Tree.all_sinks_are_leaves b);
  for v = 0 to Tree.num_nodes b - 1 do
    Alcotest.(check bool) "at most 2 children" true
      (List.length (Tree.children b v) <= 2)
  done;
  (* new edges are forced-zero *)
  let zero_edges = ref 0 in
  for v = 1 to Tree.num_nodes b - 1 do
    if Tree.forced_zero b v then incr zero_edges
  done;
  Alcotest.(check bool) "some forced-zero edges" true (!zero_edges > 0);
  (* old sink ancestry preserved: path from each sink reaches the root *)
  Array.iter
    (fun s -> Alcotest.(check bool) "path exists" true (Tree.path_to_root b s <> []))
    (Tree.sinks b)

let test_binarise_noop () =
  let t = paper_tree () in
  let b = Tree.binarise t in
  Alcotest.(check int) "unchanged node count" (Tree.num_nodes t) (Tree.num_nodes b)

let prop_random_tree_paths =
  QCheck.Test.make ~name:"path endpoints and symmetry" ~count:50
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, m) ->
      let rng = Prng.create seed in
      let t = Topogen.random_binary rng ~num_sinks:m ~source_edge:false in
      let n = Tree.num_nodes t in
      let a = Prng.int rng n and b = Prng.int rng n in
      let p1 = List.sort compare (Tree.path t a b) in
      let p2 = List.sort compare (Tree.path t b a) in
      p1 = p2)

let () =
  Alcotest.run "topo"
    [
      ( "tree",
        [
          Alcotest.test_case "structure" `Quick test_basic_structure;
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "lca" `Quick test_lca;
          Alcotest.test_case "invalid input" `Quick test_invalid_trees;
          Alcotest.test_case "traversals" `Quick test_traversal_orders;
          Alcotest.test_case "delays/path length" `Quick test_delays_and_path_length;
          Alcotest.test_case "lca random vs brute force" `Quick test_lca_random;
        ] );
      ( "topogen",
        [
          Alcotest.test_case "random binary shape" `Quick test_random_binary_shape;
          Alcotest.test_case "balanced depth" `Quick test_balanced_depth;
        ] );
      ( "binarise",
        [
          Alcotest.test_case "degree-4 split" `Quick test_binarise;
          Alcotest.test_case "noop when binary" `Quick test_binarise_noop;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_tree_paths ]);
    ]
