(* Tests for the bounded-skew baseline router: skew-bound compliance,
   embedding validity, degenerate inputs, ZST behaviour at bound 0,
   monotone trends, the Table-1 protocol glue (extract_instance), and the
   router's output and work pinned on the benchmark fields. *)

module Point = Lubt_geom.Point
module Tree = Lubt_topo.Tree
module Instance = Lubt_core.Instance
module Routed = Lubt_core.Routed
module Ebf = Lubt_core.Ebf
module Zeroskew = Lubt_core.Zeroskew
module Bst = Lubt_bst.Bst_dme
module Status = Lubt_lp.Status
module Prng = Lubt_util.Prng
module Benchmarks = Lubt_data.Benchmarks
module Metrics = Lubt_obs.Metrics

let pt = Point.make

let random_sinks rng m extent =
  Array.init m (fun _ -> pt (Prng.float rng extent) (Prng.float rng extent))

let test_two_sinks_zero_skew () =
  let sinks = [| pt 0.0 0.0; pt 10.0 0.0 |] in
  let r = Bst.route ~skew_bound:0.0 sinks in
  Alcotest.(check (float 1e-9)) "skew zero" 0.0 (r.Bst.dmax -. r.Bst.dmin);
  Alcotest.(check (float 1e-6)) "cost is the distance" 10.0 r.Bst.cost;
  Alcotest.(check (float 1e-6)) "balanced delay" 5.0 r.Bst.dmax

let test_single_sink_with_source () =
  let r = Bst.route ~source:(pt 0.0 0.0) [| pt 3.0 4.0 |] in
  Alcotest.(check (float 1e-9)) "cost" 7.0 r.Bst.cost;
  Alcotest.(check (float 1e-9)) "delay" 7.0 r.Bst.dmax

let test_rejects_empty () =
  (match Bst.route [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty sink set must be rejected");
  match Bst.route [| pt 0.0 0.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single sink without source must be rejected"

let check_embedding name r =
  match Routed.validate r.Bst.routed with
  | Ok () -> ()
  | Error es -> Alcotest.failf "%s: invalid embedding: %s" name (String.concat "; " es)

let test_skew_bound_respected () =
  let rng = Prng.create 17 in
  for case = 1 to 20 do
    let m = 2 + Prng.int rng 30 in
    let sinks = random_sinks rng m 100.0 in
    let with_source = Prng.bool rng in
    let source = if with_source then Some (pt 50.0 50.0) else None in
    let bound = Prng.float rng 80.0 in
    let r = Bst.route ~skew_bound:bound ?source sinks in
    let name = Printf.sprintf "case %d" case in
    check_embedding name r;
    let skew = r.Bst.dmax -. r.Bst.dmin in
    if skew > bound +. 1e-6 then
      Alcotest.failf "%s: skew %g exceeds bound %g" name skew bound;
    (* every sink is a leaf of the produced topology *)
    Alcotest.(check bool) "sinks are leaves" true
      (Tree.all_sinks_are_leaves r.Bst.topology)
  done

let test_zero_bound_matches_zst_dme () =
  (* at bound 0 the baseline must produce an exact zero-skew tree whose
     cost is within a few percent of the closed-form optimum for its own
     topology *)
  let rng = Prng.create 23 in
  for case = 1 to 10 do
    let m = 3 + Prng.int rng 20 in
    let sinks = random_sinks rng m 100.0 in
    let r = Bst.route ~skew_bound:0.0 sinks in
    Alcotest.(check (float 1e-6)) "exact zero skew" 0.0 (r.Bst.dmax -. r.Bst.dmin);
    let inst = Instance.uniform_bounds ~sinks ~lower:0.0 ~upper:infinity () in
    let zs = Zeroskew.balance inst r.Bst.topology in
    let optimal =
      Lubt_util.Stats.sum
        (Array.sub zs.Zeroskew.lengths 1 (Tree.num_edges r.Bst.topology))
    in
    if r.Bst.cost < optimal -. 1e-6 then
      Alcotest.failf "case %d: baseline beat the per-topology optimum?!" case;
    if r.Bst.cost > optimal *. 1.05 +. 1e-6 then
      Alcotest.failf "case %d: baseline ZST %.6g too far above optimum %.6g"
        case r.Bst.cost optimal
  done

let test_looser_bound_never_much_worse () =
  (* the infinite-skew tree should be cheaper than the zero-skew tree on
     any nontrivial instance *)
  let rng = Prng.create 31 in
  for _ = 1 to 5 do
    let sinks = random_sinks rng 40 100.0 in
    let zst = Bst.route ~skew_bound:0.0 sinks in
    let free = Bst.route sinks in
    Alcotest.(check bool) "unbounded cheaper than zero skew" true
      (free.Bst.cost <= zst.Bst.cost +. 1e-6)
  done

let test_extract_instance_protocol () =
  (* the Table-1 protocol: the baseline's own solution is feasible for the
     extracted instance, so the LUBT LP can only improve the cost *)
  let rng = Prng.create 47 in
  for case = 1 to 8 do
    let m = 4 + Prng.int rng 16 in
    let sinks = random_sinks rng m 100.0 in
    let source = pt (Prng.float rng 100.0) (Prng.float rng 100.0) in
    let bound = 5.0 +. Prng.float rng 50.0 in
    let b = Bst.route ~skew_bound:bound ~source sinks in
    let inst = Bst.extract_instance b in
    Alcotest.(check bool) "bounds admissible" true (Instance.bounds_admissible inst);
    let lp = Ebf.solve inst b.Bst.topology in
    if lp.Ebf.status <> Status.Optimal then
      Alcotest.failf "case %d: LP status %s" case (Status.to_string lp.Ebf.status);
    if lp.Ebf.objective > b.Bst.cost +. 1e-6 *. b.Bst.cost then
      Alcotest.failf "case %d: LUBT %.8g above baseline %.8g" case
        lp.Ebf.objective b.Bst.cost;
    (* and the baseline's length vector satisfies the LP constraints *)
    match Ebf.check_lengths inst b.Bst.topology b.Bst.lengths with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "case %d: baseline infeasible: %s" case msg
  done

let test_collinear_and_duplicate_sinks () =
  let sinks = [| pt 0.0 0.0; pt 5.0 0.0; pt 10.0 0.0; pt 5.0 0.0 |] in
  let r = Bst.route ~skew_bound:2.0 sinks in
  check_embedding "collinear" r;
  Alcotest.(check bool) "skew within bound" true (r.Bst.dmax -. r.Bst.dmin <= 2.0 +. 1e-9)

let test_grid_instance () =
  let sinks =
    Array.init 16 (fun i -> pt (float_of_int (i mod 4) *. 10.0) (float_of_int (i / 4) *. 10.0))
  in
  let r = Bst.route ~skew_bound:0.0 ~source:(pt 15.0 15.0) sinks in
  check_embedding "grid" r;
  Alcotest.(check (float 1e-6)) "grid zero skew" 0.0 (r.Bst.dmax -. r.Bst.dmin);
  (* a 4x4 grid with the source at the centre: a perfect H-tree costs
     8 * 2 * 10 = ... just sanity-check the cost is in a plausible window *)
  Alcotest.(check bool) "plausible cost" true (r.Bst.cost >= 150.0 && r.Bst.cost <= 400.0)

(* dune runtest runs the exe next to fixtures/; a manual dune exec runs
   from the project root *)
let fixtures_dir =
  if Sys.file_exists "fixtures" then "fixtures"
  else Filename.concat "test" "fixtures"

(* The nearest-partner search skips a partner j whose box gap exceeds the
   best merge cost bc found so far, by more than 1e-9 (1 + bc). That skip
   never changes the tree:
   - every wire split (w_a, w_b) of two candidates has w_a + w_b >= d, the
     distance of their regions: the balance and cheapest splits total
     s = max(d, |x|), and each attach move puts max(d, .) on one side;
   - merge_cost adds c.cost - cands.(0).cost >= 0 per side (beams are
     sorted by cost), so merge_cost >= the least d over the estimation
     prefixes >= the gap between the rotated boxes of those prefixes;
   - in floats, a box gap never exceeds a real pair's d (subtraction and
     max are monotone), and (s + x)/2 + (s - x)/2 falls at most a few ulps
     below s, which the 1e-9 relative margin covers;
   - a skipped j therefore costs more than bc and would fail the scan's
     strict [<]; the scan stays ascending, so the first of equal minima
     still wins and every merge, candidate and length is unchanged.
   The fixture holds the digests of the router before the pruning: the
   tiny and scaled fields, uniform and clustered, at their own seed and
   seeds 0-2, at skew 0, 0.05, 0.1, 0.25, 0.5, 1 and 2 x the radius. *)
let test_golden_router () =
  let expected =
    In_channel.with_open_text
      (Filename.concat fixtures_dir "bst_router.golden")
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let got = Bst_golden.lines () in
  Alcotest.(check int) "cases" (List.length expected) (List.length got);
  let changed = List.filter (fun (e, g) -> e <> g) (List.combine expected got) in
  match changed with
  | [] -> ()
  | (e, g) :: _ ->
    Alcotest.failf "%d of %d routes changed; first: expected %s, got %s"
      (List.length changed) (List.length got) e g

(* The pruned search on scaled r3s at skew 0.5 does at most m^2 / 4
   merge-cost evaluations (12,100 for m = 220; the unpruned scan did
   103,808), read off the registry counter the router adds to once per
   route. *)
let test_merge_evals_bound () =
  let spec = Benchmarks.find Benchmarks.Scaled "r3s" in
  let m = spec.Benchmarks.num_sinks in
  let was_enabled = Metrics.enabled () in
  Metrics.enable ();
  let evals =
    Fun.protect
      ~finally:(fun () -> if not was_enabled then Metrics.disable ())
      (fun () ->
        let c = Metrics.counter "lubt_bst_merge_evals_total" in
        let before = Metrics.read_counter c in
        ignore (Bst_golden.route spec ~skew_rel:0.5);
        Metrics.read_counter c -. before)
  in
  if evals > float_of_int (m * m / 4) then
    Alcotest.failf "%.0f merge-cost evaluations for %d sinks > m^2 / 4" evals m;
  Alcotest.(check bool) "the counter saw the route" true (evals > 0.0)

let prop_skew_bound =
  QCheck.Test.make ~name:"achieved skew within requested bound" ~count:60
    QCheck.(triple small_int (int_range 2 15) (float_range 0.0 50.0))
    (fun (seed, m, bound) ->
      let rng = Prng.create seed in
      let sinks = random_sinks rng m 60.0 in
      let r = Bst.route ~skew_bound:bound sinks in
      r.Bst.dmax -. r.Bst.dmin <= bound +. 1e-6)

let () =
  Alcotest.run "bst"
    [
      ( "basics",
        [
          Alcotest.test_case "two sinks zero skew" `Quick test_two_sinks_zero_skew;
          Alcotest.test_case "single sink" `Quick test_single_sink_with_source;
          Alcotest.test_case "rejects degenerate input" `Quick test_rejects_empty;
          Alcotest.test_case "collinear/duplicate sinks" `Quick
            test_collinear_and_duplicate_sinks;
          Alcotest.test_case "grid with central source" `Quick test_grid_instance;
        ] );
      ( "bounded-skew",
        [
          Alcotest.test_case "skew bound respected" `Slow test_skew_bound_respected;
          Alcotest.test_case "bound 0 ~ ZST-DME optimum" `Slow
            test_zero_bound_matches_zst_dme;
          Alcotest.test_case "unbounded cheaper than ZST" `Slow
            test_looser_bound_never_much_worse;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "extract_instance feasibility" `Slow
            test_extract_instance_protocol;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "golden router digests" `Slow test_golden_router;
          Alcotest.test_case "merge-cost evaluations <= m^2/4" `Quick
            test_merge_evals_bound;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_skew_bound ]);
    ]
