(* Structural topology generators for tests (no geometry): uniformly
   random and balanced binary merge trees. Geometry-guided generation
   lives in [lubt.bst]. *)

module Prng = Lubt_util.Prng
module Tree = Lubt_topo.Tree

(* Builds the parent array for a merge forest: start from the sink leaves
   and repeatedly merge two roots under a fresh Steiner node, chosen either
   randomly or by a deterministic pairing. *)
let build ~num_sinks ~source_edge ~pick =
  if num_sinks < 1 then invalid_arg "Topogen: need at least one sink";
  if num_sinks = 1 && not source_edge then
    invalid_arg "Topogen: a single sink needs a source edge";
  let total =
    (* root + sinks + (num_sinks - 1) merge nodes; without a source edge the
       top merge node is the root itself *)
    if source_edge then 1 + num_sinks + (num_sinks - 1)
    else num_sinks + num_sinks - 1
  in
  let parents = Array.make total (-1) in
  let sinks = Array.init num_sinks (fun k -> k + 1) in
  let roots = ref (Array.to_list sinks) in
  let next = ref (num_sinks + 1) in
  let remove_nth lst n =
    let rec go acc i = function
      | [] -> invalid_arg "remove_nth"
      | x :: rest ->
        if i = n then (x, List.rev_append acc rest) else go (x :: acc) (i + 1) rest
    in
    go [] 0 lst
  in
  while List.length !roots > 1 do
    let count = List.length !roots in
    let ia = pick count in
    let a, rest = remove_nth !roots ia in
    let ib = pick (count - 1) in
    let b, rest = remove_nth rest ib in
    let merged =
      if (not source_edge) && count = 2 then 0  (* top merge node is the root *)
      else begin
        let id = !next in
        incr next;
        id
      end
    in
    parents.(a) <- merged;
    parents.(b) <- merged;
    (* append at the back: with the deterministic front pick this queue
       discipline produces a balanced tree *)
    roots := rest @ [ merged ]
  done;
  (match !roots with
  | [ r ] when r <> 0 -> parents.(r) <- 0
  | [ _ ] -> ()
  | _ -> assert false);
  Tree.create ~parents ~sinks ()

(* A uniformly random binary merge tree over [num_sinks] sinks (all
   sinks are leaves, every Steiner node has two children). With
   [source_edge] the root has a single child; otherwise the root is the
   top merge node. Sinks get node ids [1..num_sinks] in order. *)
let random_binary rng ~num_sinks ~source_edge =
  build ~num_sinks ~source_edge ~pick:(fun n -> Prng.int rng n)

let balanced_binary ~num_sinks ~source_edge =
  (* always merge the two oldest roots: a queue discipline yields a
     balanced tree *)
  build ~num_sinks ~source_edge ~pick:(fun _ -> 0)
