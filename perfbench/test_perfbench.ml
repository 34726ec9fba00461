(* Tests for the benchmark's own code: the due-time latency rule, the
   tail percentile with ten samples beyond it, the correctness checks
   (a wrong reference objective must fail the run), span accounting,
   and the summary line the run ends with. *)

module B = Perfbench_core
module Json = Lubt_obs.Json

let close = Alcotest.float 1e-9

let exact = Alcotest.float 0.0

let test_due_time_latency () =
  (* the generator stalled: the request went out 30 ms late, and its
     latency still counts from when it was due *)
  let t = { B.due = 10.0; sent = 10.030; replied = 10.050 } in
  Alcotest.check close "latency from the due time" 50.0 (B.latency_ms t);
  Alcotest.check close "send lag" 30.0 (B.lag_ms t);
  let lags stalls = Array.init 100 (fun i -> if i < stalls then 40.0 else 0.2) in
  Alcotest.(check bool)
    "one stall in 100 stays below the p99" false
    (B.fell_behind ~interval_s:0.05 (lags 1));
  Alcotest.(check bool)
    "two stalls in 100: the generator fell behind" true
    (B.fell_behind ~interval_s:0.05 (lags 2))

let test_tail_rule () =
  let run n = Array.init n (fun i -> float_of_int (n - i)) in
  let t = B.tail (run 200) in
  Alcotest.check close "p95 from 200 samples" 95.0 t.B.tl_percentile;
  Alcotest.check close "p95 value" 190.0 t.B.tl_value;
  Alcotest.(check int) "ten beyond the p95" 10 t.B.tl_beyond;
  let t = B.tail (run 100) in
  Alcotest.check close "100 samples: the p90" 90.0 t.B.tl_percentile;
  Alcotest.check close "p90 value" 90.0 t.B.tl_value;
  Alcotest.(check int) "ten beyond the p90" 10 t.B.tl_beyond;
  let t = B.tail (run 12) in
  Alcotest.check close "12 samples: the median" 50.0 t.B.tl_percentile;
  Alcotest.check close "median value" 6.0 t.B.tl_value;
  Alcotest.(check int) "an empty run has no tail" 0 (B.tail [||]).B.tl_count

let test_reference_objectives () =
  match B.reference_of_string "# comment\nprim1s 1069 97173.125\n\nr1s 3070 1.5\n" with
  | Error e -> Alcotest.fail e
  | Ok tbl ->
    let reference = Hashtbl.find tbl ("prim1s", 1069) in
    Alcotest.(check bool)
      "the recorded objective passes" true
      (Result.is_ok (B.check_objective ~reference 97173.125));
    Alcotest.(check bool)
      "a wrong reference objective fails the run" true
      (Result.is_error
         (B.check_objective ~reference:(reference *. (1.0 +. 1e-6)) 97173.125));
    Alcotest.(check bool)
      "a malformed line is rejected" true
      (Result.is_error (B.reference_of_string "prim1s x 1.0\n"));
    (match B.reference_of_string (B.reference_to_string [ (("r3s", 4070), 0.1 +. 0.2) ]) with
    | Ok t ->
      Alcotest.check exact "a recorded value reads back exactly" (0.1 +. 0.2)
        (Hashtbl.find t ("r3s", 4070))
    | Error e -> Alcotest.fail e)

let reply ?(cost = "1234.5") ?(certified = "true") ?(cache = "miss") () =
  Printf.sprintf
    {|{"id": "c7", "ok": true, "status": "optimal", "wall_ms": 3.5, "degraded": false, "cost": %s, "validated": true, "certified": %s, "ebf": {"status": "optimal", "objective": %s, "lp_rows": 40, "full_rows": 80, "lp_iterations": 12, "rounds": 2, "cache": "%s", "round_stats": [{"round": 1, "rows_added": 3, "violations_found": 3, "warm_rows": 3, "scan_ms": 0.25, "solve_ms": 1.5, "solve_pivots": 10}, {"round": 2, "rows_added": 0, "violations_found": 0, "warm_rows": 0, "scan_ms": 0.5, "solve_ms": 0.5, "solve_pivots": 2}]}, "solver": {"iterations": 12, "refactorisations": 1, "ftran_count": 30, "btran_count": 20, "recoveries": {"refactor_retries": 0, "backend_switches": 1, "tolerance_escalations": 0, "perturbed_resolves": 0, "tableau_fallbacks": 0, "faults_injected": 0, "validations_rejected": 0}}}|}
    cost certified cost cache

let test_reply_checks () =
  let parse s = match B.parse_reply s with Ok r -> r | Error e -> Alcotest.fail e in
  Alcotest.(check (option string)) "id read from the line" (Some "c7") (B.reply_id (reply ()));
  let r = parse (reply ()) in
  Alcotest.check close "scan time summed over rounds" 0.75 r.B.r_counts.B.scan_ms;
  Alcotest.check close "solve time summed over rounds" 2.0 r.B.r_counts.B.solve_ms;
  Alcotest.check close "recovery stages summed" 1.0 r.B.r_counts.B.recoveries;
  let check ?(cache_ok = [ "miss" ]) s =
    B.check_reply ~cache_ok ~expect_cost:1234.5 (parse s)
  in
  Alcotest.(check bool) "a matching reply passes" true (Result.is_ok (check (reply ())));
  Alcotest.(check bool)
    "a cost that differs from the in-process replay fails" true
    (Result.is_error (check (reply ~cost:"1234.6" ())));
  Alcotest.(check bool)
    "an uncertified reply fails" true
    (Result.is_error (check (reply ~certified:"false" ())));
  Alcotest.(check bool)
    "a cache hit fails serve-cold" true
    (Result.is_error (check (reply ~cache:"exact" ())));
  Alcotest.(check bool)
    "a parent hit passes serve-eco" true
    (Result.is_ok (check ~cache_ok:[ "parent"; "exact" ] (reply ~cache:"parent" ())));
  Alcotest.(check bool)
    "an error reply fails" true
    (Result.is_error
       (check {|{"id": "c7", "ok": false, "error": {"code": "overloaded", "message": "queue full"}}|}))

let test_span_accounting () =
  let span ?parent name t0 t1 =
    { B.sp_name = name; sp_item = 0; sp_track = 1; sp_parent = parent;
      sp_t0 = t0; sp_t1 = t1 }
  in
  let spans =
    [ span "item" 0.0 10.0; span ~parent:"item" "bst" 1.0 3.0;
      span ~parent:"item" "ebf" 2.0 5.0; span ~parent:"item" "embed" 7.0 8.0;
      span ~parent:"ebf" "scan" 3.0 4.0 ]
  in
  let self = B.self_times spans in
  Alcotest.check close "the item's self time is what no child covers" 5.0
    (List.assoc "item" self);
  Alcotest.check close "a child's own children are not its self time" 2.0
    (List.assoc "ebf" self);
  Alcotest.check close "residual share" 0.5 (B.residual_frac spans);
  Alcotest.check close "modelled work leaves the residual" 0.3
    (B.residual_frac ~modelled:2.0 spans)

let test_summary_line () =
  let metrics =
    B.end_to_end_metrics ~setup_s:0.8125 ~throughput:19.5 ~p50:37.25 ~tail:140.0
  in
  let line = B.summary_line ~correct:true ~attempted:200 ~failed:0 metrics in
  let keys j = List.map fst (Option.value ~default:[] (Json.obj j)) in
  match Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Alcotest.(check (list string))
      "exactly the four keys" [ "correct"; "attempted"; "failed"; "metrics" ] (keys j);
    let m = Option.get (Json.member "metrics" j) in
    Alcotest.(check (list string))
      "every end-to-end metric"
      [ "setup_s"; "throughput_per_s"; "latency_ms_p50"; "latency_ms_tail" ]
      (keys m);
    let setup = Option.get (Json.member "setup_s" m) in
    Alcotest.check (Alcotest.option exact)
      "the value keeps all its digits" (Some 0.8125)
      (Option.bind (Json.member "value" setup) Json.num);
    Alcotest.(check (option string))
      "with its unit" (Some "s") (Option.bind (Json.member "unit" setup) Json.str);
    let names = List.map (fun x -> x.B.m_name) (B.layer_metrics B.no_layers) in
    Alcotest.(check int)
      "per-layer names are unique" (List.length names)
      (List.length (List.sort_uniq compare names));
    Alcotest.(check bool)
      "an unmeasured metric still renders as JSON" true
      (Result.is_ok
         (Json.parse (B.summary_line ~correct:false ~attempted:1 ~failed:1 [ B.metric "x" "ms" nan ])))

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "due-time latency and generator lag" `Quick
            test_due_time_latency;
          Alcotest.test_case "tail percentile with ten beyond" `Quick
            test_tail_rule;
          Alcotest.test_case "reference objectives" `Quick
            test_reference_objectives;
          Alcotest.test_case "reply checks" `Quick test_reply_checks;
          Alcotest.test_case "span accounting" `Quick test_span_accounting;
          Alcotest.test_case "summary line" `Quick test_summary_line;
        ] );
    ]
