(* Tests for the utility substrate: PRNG determinism and numerical
   helpers. *)

module Prng = Lubt_util.Prng
module Stats = Lubt_util.Stats

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_copy_independent () =
  let a = Prng.create 7 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues" (Prng.next_int64 a) (Prng.next_int64 b)

let test_prng_ranges () =
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    let f = Prng.float rng 10.0 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 10.0);
    let i = Prng.int rng 7 in
    Alcotest.(check bool) "int in range" true (i >= 0 && i < 7);
    let g = Prng.float_range rng (-3.0) 5.0 in
    Alcotest.(check bool) "range" true (g >= -3.0 && g < 5.0)
  done

let test_prng_distribution () =
  (* crude uniformity check: each of 10 buckets gets 5-15% of draws *)
  let rng = Prng.create 99 in
  let buckets = Array.make 10 0 in
  let draws = 20000 in
  for _ = 1 to draws do
    let b = Prng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int draws in
      Alcotest.(check bool) "bucket reasonable" true (frac > 0.05 && frac < 0.15))
    buckets

let test_stats () =
  Alcotest.(check (float 1e-12)) "sum" 6.0 (Stats.sum [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-12)) "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  let lo, hi = Stats.min_max [| 3.0; -1.0; 2.0 |] in
  Alcotest.(check (float 0.0)) "min" (-1.0) lo;
  Alcotest.(check (float 0.0)) "max" 3.0 hi;
  Alcotest.(check bool) "approx_eq close" true (Stats.approx_eq 1.0 (1.0 +. 1e-9));
  Alcotest.(check bool) "approx_eq far" false (Stats.approx_eq 1.0 1.1);
  Alcotest.(check (float 0.0)) "clamp low" 0.0 (Stats.clamp 0.0 1.0 (-5.0));
  Alcotest.(check (float 0.0)) "clamp high" 1.0 (Stats.clamp 0.0 1.0 5.0);
  Alcotest.(check (float 0.0)) "clamp mid" 0.5 (Stats.clamp 0.0 1.0 0.5)

let test_kahan_precision () =
  (* 10^8 + many tiny values: naive summation loses them entirely *)
  let n = 10_000 in
  let arr = Array.make (n + 1) 1e-8 in
  arr.(0) <- 1e8;
  let s = Stats.sum arr in
  Alcotest.(check (float 1e-7)) "kahan keeps tiny terms" (1e8 +. (float_of_int n *. 1e-8)) s

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:100
    QCheck.(pair small_int (array small_int))
    (fun (seed, arr) ->
      let rng = Prng.create seed in
      let copy = Array.copy arr in
      Prng.shuffle rng copy;
      List.sort compare (Array.to_list copy)
      = List.sort compare (Array.to_list arr))

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "distribution" `Quick test_prng_distribution;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats;
          Alcotest.test_case "kahan" `Quick test_kahan_precision;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_shuffle_is_permutation ] );
    ]
