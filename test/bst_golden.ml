(* Golden digests of the baseline router. Each case routes one benchmark
   field the way the Section 8 protocol does (source at the chip centre,
   skew bound [skew_rel] x the radius) and digests the tree bit for bit:
   the parent array (which fixes the merge order), the bits of every edge
   length and node position (which fix the chosen candidates and wire
   splits), and the bits of the cost and the delay window. The fixture
   lines read [<size> <bench> <seed> <skew_rel> <md5 hex>], where <seed>
   is [spec] for the benchmark's own seed. Size [lattice] holds 40 sinks
   drawn with repeats from an 8 x 8 grid of pitch 10, where equal merge
   costs are common, so the lines also pin how ties break. *)

module Benchmarks = Lubt_data.Benchmarks
module Bst = Lubt_bst.Bst_dme
module Instance = Lubt_core.Instance
module Tree = Lubt_topo.Tree

let skews = [ 0.0; 0.05; 0.1; 0.25; 0.5; 1.0; 2.0 ]

let seeds = [ None; Some 0; Some 1; Some 2 ]

let specs () =
  List.concat_map
    (fun (label, size) ->
      List.map (fun spec -> (label, spec))
        (Benchmarks.specs size @ Benchmarks.clustered size))
    [ ("tiny", Benchmarks.Tiny); ("scaled", Benchmarks.Scaled) ]

let seed_label = function None -> "spec" | Some s -> string_of_int s

let with_seed spec = function
  | None -> spec
  | Some seed -> { spec with Benchmarks.seed }

let route_points ~source sinks ~skew_rel =
  let radius =
    Instance.radius
      (Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:infinity ())
  in
  Bst.route ~skew_bound:(skew_rel *. radius) ~source sinks

let route spec ~skew_rel =
  route_points ~source:(Benchmarks.source spec) (Benchmarks.sinks spec)
    ~skew_rel

let lattice seed =
  let rng = Lubt_util.Prng.create seed in
  let pitch () = 10.0 *. float_of_int (Lubt_util.Prng.int rng 8) in
  Array.init 40 (fun _ -> Lubt_geom.Point.make (pitch ()) (pitch ()))

let digest (r : Bst.result) =
  let b = Buffer.create 4096 in
  let bits f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  let t = r.Bst.topology in
  for v = 0 to Tree.num_nodes t - 1 do
    Buffer.add_int32_le b (Int32.of_int (Tree.parent t v))
  done;
  Array.iter bits r.Bst.lengths;
  Array.iter
    (fun p -> bits p.Lubt_geom.Point.x; bits p.Lubt_geom.Point.y)
    r.Bst.routed.Lubt_core.Routed.positions;
  List.iter bits [ r.Bst.cost; r.Bst.dmin; r.Bst.dmax ];
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every case as its fixture line, in a fixed order. *)
let lines () =
  let lattice_lines =
    List.concat_map
      (fun seed ->
        List.map
          (fun skew_rel ->
            Printf.sprintf "lattice grid8 %d %g %s" seed skew_rel
              (digest
                 (route_points ~source:(Lubt_geom.Point.make 35.0 35.0)
                    (lattice seed) ~skew_rel)))
          skews)
      [ 0; 1; 2; 3 ]
  in
  lattice_lines
  @ List.concat_map
    (fun (size, spec) ->
      List.concat_map
        (fun seed ->
          let s = with_seed spec seed in
          List.map
            (fun skew_rel ->
              Printf.sprintf "%s %s %s %g %s" size spec.Benchmarks.name
                (seed_label seed) skew_rel
                (digest (route s ~skew_rel)))
            skews)
        seeds)
    (specs ())
