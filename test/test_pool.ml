(* Tests for the domain pool: result ordering, exception capture,
   jobs-count invariance, the batch engine's
   jobs=1 vs jobs=N agreement, and JSON well-formedness of every
   machine-readable record the sweeps emit (including the CLI's
   solve --json stdout). *)

module Pool = Lubt_util.Pool
module Batch = Lubt_experiments.Batch
module Protocol = Lubt_experiments.Protocol
module Benchmarks = Lubt_data.Benchmarks

(* ------------------------------------------------------------------ *)
(* JSON syntax checking (shared with test_obs; see json_check.ml)      *)
(* ------------------------------------------------------------------ *)

let json_valid = Json_check.json_valid

let test_json_checker () =
  List.iter
    (fun s -> Alcotest.(check bool) ("accepts " ^ s) true (json_valid s))
    [
      "{}";
      "[]";
      "null";
      "-1.5e+10";
      "{\"a\": [1, 2.0, true, \"x\\\"y\"], \"b\": {\"c\": null}}";
    ];
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) false (json_valid s))
    [ ""; "{"; "{\"a\": }"; "[1,]"; "{'a': 1}"; "nan"; "1.2.3"; "{} {}" ]

(* ------------------------------------------------------------------ *)
(* pool semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_map_ordering () =
  (* enough tasks that work stealing certainly interleaves workers *)
  let inputs = List.init 500 Fun.id in
  let f x = (x * x) + 1 in
  let expected = List.map f inputs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d equals sequential" jobs)
        expected
        (Pool.map ~jobs f inputs))
    [ 1; 2; 4; 8 ]

let test_jobs_exceed_tasks () =
  Alcotest.(check (list int))
    "more workers than tasks" [ 10; 20 ]
    (Pool.map ~jobs:16 (fun x -> 10 * x) [ 1; 2 ]);
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~jobs:4 succ []);
  Alcotest.(check (list int))
    "single task" [ 42 ]
    (Pool.map ~jobs:8 Fun.id [ 42 ])

let test_jobs1_bit_identical () =
  (* float pipeline: any reordering of operations would change bits *)
  let inputs = List.init 200 (fun i -> 1.0 +. (float_of_int i /. 7.0)) in
  let f x = sqrt x +. (sin x *. 1e-3) in
  let seq = List.map f inputs in
  let pooled = Pool.map ~jobs:1 f inputs in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        "bit-for-bit" true
        (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)))
    seq pooled

let test_exception_lowest_index () =
  let f x = if x mod 3 = 0 then failwith (string_of_int x) else x in
  List.iter
    (fun jobs ->
      match Pool.map ~jobs f [ 1; 2; 3; 4; 6; 7 ] with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Pool.Task_failed fl ->
        (* index 2 (value 3) is the lowest-index failure at any jobs *)
        Alcotest.(check int) "lowest index wins" 2 fl.Pool.index;
        Alcotest.(check bool)
          "carries the exception" true
          (fl.Pool.exn = Failure "3"))
    [ 1; 4 ]

let test_map_result_positions () =
  let f x = if x < 0 then failwith "neg" else 2 * x in
  let results = Pool.map_result ~jobs:3 f [ 1; -1; 2; -2; 3 ] in
  let render = function
    | Ok v -> Printf.sprintf "ok:%d" v
    | Error (fl : Pool.failure) -> Printf.sprintf "err:%d" fl.Pool.index
  in
  Alcotest.(check (list string))
    "errors sit at their input positions"
    [ "ok:2"; "err:1"; "ok:4"; "err:3"; "ok:6" ]
    (List.map render results)

(* ------------------------------------------------------------------ *)
(* batch engine: jobs-count invariance on real EBF solves              *)
(* ------------------------------------------------------------------ *)

let check_batch_invariant ~per_bench () =
  let specs = Batch.corpus ~size:Benchmarks.Tiny ~per_bench ~seed:11 () in
  let s1 = Batch.run ~jobs:1 specs in
  let s4 = Batch.run ~jobs:4 specs in
  Alcotest.(check int) "no failures at jobs=1" 0 s1.Batch.failures;
  Alcotest.(check int) "no failures at jobs=4" 0 s4.Batch.failures;
  List.iter2
    (fun (a : Batch.outcome) (b : Batch.outcome) ->
      Alcotest.(check string) "same id order" a.Batch.spec.Batch.id
        b.Batch.spec.Batch.id;
      Alcotest.(check bool)
        ("objective identical for " ^ a.Batch.spec.Batch.id)
        true
        (Int64.equal
           (Int64.bits_of_float a.Batch.objective)
           (Int64.bits_of_float b.Batch.objective));
      Alcotest.(check int) "same iteration count" a.Batch.lp_iterations
        b.Batch.lp_iterations;
      Alcotest.(check bool) "certified" true a.Batch.certified)
    s1.Batch.outcomes s4.Batch.outcomes;
  (* merged solver stats are order-independent sums *)
  Alcotest.(check int)
    "merged iterations agree" s1.Batch.merged.Lubt_lp.Simplex.iterations
    s4.Batch.merged.Lubt_lp.Simplex.iterations

let test_batch_small () = check_batch_invariant ~per_bench:1 ()
let test_batch_corpus () = check_batch_invariant ~per_bench:5 ()

let test_batch_error_isolation () =
  (* an unknown benchmark name raises inside the worker; the pool must
     convert it into a per-instance error without poisoning the rest *)
  let specs = Batch.corpus ~size:Benchmarks.Tiny ~per_bench:1 ~seed:0 () in
  let broken =
    {
      Batch.id = "bogus/s0";
      bench = "no-such-bench";
      size = Benchmarks.Tiny;
      seed = 0;
      skew_rel = 0.5;
    }
  in
  let s = Batch.run ~jobs:2 (broken :: specs) in
  Alcotest.(check int) "exactly one failure" 1 s.Batch.failures;
  (match s.Batch.outcomes with
  | first :: rest ->
    Alcotest.(check bool) "error recorded" true (first.Batch.error <> None);
    Alcotest.(check string) "error status" "error" first.Batch.status;
    List.iter
      (fun (o : Batch.outcome) ->
        Alcotest.(check bool)
          ("instance " ^ o.Batch.spec.Batch.id ^ " unaffected")
          true o.Batch.certified)
      rest
  | [] -> Alcotest.fail "no outcomes");
  Alcotest.(check bool) "summary JSON still valid" true
    (json_valid (Batch.summary_json s))

(* ------------------------------------------------------------------ *)
(* JSON well-formedness of the machine-readable surfaces               *)
(* ------------------------------------------------------------------ *)

let test_batch_json () =
  let specs = Batch.corpus ~size:Benchmarks.Tiny ~per_bench:1 ~seed:3 () in
  let s = Batch.run ~jobs:2 specs in
  List.iter
    (fun o ->
      let line = Batch.outcome_json o in
      Alcotest.(check bool) "outcome is one line" false
        (String.contains line '\n');
      Alcotest.(check bool) "outcome JSON valid" true (json_valid line))
    s.Batch.outcomes;
  Alcotest.(check bool) "summary JSON valid" true
    (json_valid (Batch.summary_json s))

let test_bench_json () =
  let scaling =
    [
      {
        Protocol.sc_jobs = 1;
        sc_wall_s = 2.0;
        sc_speedup = 1.0;
        sc_instances = 20;
      };
      {
        Protocol.sc_jobs = 4;
        sc_wall_s = 1.9;
        sc_speedup = 2.0 /. 1.9;
        sc_instances = 20;
      };
    ]
  in
  let j =
    Protocol.bench_json ~jobs:4 ~scaling ~size:"tiny"
      [
        {
          Protocol.bench_name = "unit \"test\"";
          ms_per_run = 1.25e-3;
          solver = None;
          ebf_result = None;
        };
      ]
  in
  Alcotest.(check bool) "bench_json valid" true (json_valid j);
  let contains re j =
    let rec find i =
      i + String.length re <= String.length j
      && (String.sub j i (String.length re) = re || find (i + 1))
    in
    find 0
  in
  Alcotest.(check bool) "schema v4 stamped" true
    (contains "\"schema\": \"lubt-bench/4\"" j);
  (* a --no-scaling run records the skip explicitly instead of omitting
     the field *)
  let skipped =
    Protocol.bench_json ~scaling_skipped:true ~size:"tiny"
      [
        {
          Protocol.bench_name = "unit";
          ms_per_run = 1.0;
          solver = None;
          ebf_result = None;
        };
      ]
  in
  Alcotest.(check bool) "skipped run still valid JSON" true
    (json_valid skipped);
  Alcotest.(check bool) "empty scaling recorded" true
    (contains "\"scaling\": []" skipped);
  Alcotest.(check bool) "skip marker recorded" true
    (contains "\"scaling_skipped\": true" skipped);
  Alcotest.(check bool) "normal run has no skip marker" false
    (contains "scaling_skipped" j)

let test_cli_solve_json () =
  (* satellite check: `lubt solve --json --stats` must keep stdout pure
     JSON with all telemetry on stderr *)
  let dir = Filename.temp_file "lubt_pool" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let inst = Filename.concat dir "inst.lubt" in
  let out = Filename.concat dir "stdout.json" in
  (* the CLI sits next to this binary in the build tree regardless of
     whether we were started by `dune runtest` or `dune exec` *)
  let cli =
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) "..")
      (Filename.concat "bin" "lubt_cli.exe")
  in
  let run cmd =
    let code = Sys.command cmd in
    Alcotest.(check int) ("exit 0: " ^ cmd) 0 code
  in
  run
    (Printf.sprintf
       "%s gen --bench prim1s --size tiny --upper 1.5 -o %s >/dev/null 2>&1"
       (Filename.quote cli) (Filename.quote inst));
  run
    (Printf.sprintf "%s solve %s --stats --certify --json > %s 2>/dev/null"
       (Filename.quote cli) (Filename.quote inst) (Filename.quote out));
  let ic = open_in out in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  let lines =
    String.split_on_char '\n' contents |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "stdout is exactly one line" 1 (List.length lines);
  Alcotest.(check bool) "stdout parses as JSON" true
    (json_valid (List.hd lines));
  Sys.remove inst;
  Sys.remove out;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* executor supervision                                                *)
(* ------------------------------------------------------------------ *)

module Executor = Pool.Executor

let wait_for ?(timeout = 10.0) what pred =
  let t0 = Unix.gettimeofday () in
  while (not (pred ())) && Unix.gettimeofday () -. t0 < timeout do
    Unix.sleepf 0.005
  done;
  Alcotest.(check bool) (what ^ " (before timeout)") true (pred ())

let test_exec_claim () =
  let ex = Executor.create ~jobs:1 () in
  let inner = Atomic.make None in
  let cell = Atomic.make None in
  let tk =
    match
      Executor.submit ex (fun () ->
          wait_for "ticket visible to task" (fun () ->
              Atomic.get cell <> None);
          match Atomic.get cell with
          | Some tk ->
            Atomic.set inner (Some (Executor.claim tk));
            (* a second claim of the same ticket must lose *)
            Alcotest.(check bool) "reclaim inside task" false
              (Executor.claim tk)
          | None -> ())
    with
    | Ok tk ->
      Atomic.set cell (Some tk);
      tk
    | Error _ -> Alcotest.fail "submit refused"
  in
  wait_for "task claimed" (fun () -> Atomic.get inner <> None);
  Alcotest.(check (option bool)) "first claim wins" (Some true)
    (Atomic.get inner);
  Alcotest.(check bool) "claim after completion" false (Executor.claim tk);
  Alcotest.(check bool) "not abandoned" false (Executor.abandoned tk);
  Executor.shutdown ex

(* the submit/shutdown race contract: every ticket accepted concurrently
   with a draining shutdown either runs or gets its on_abandon — none
   may vanish *)
let test_exec_drain_race () =
  for _round = 1 to 8 do
    let ex = Executor.create ~jobs:2 ~max_pending:4096 () in
    let executed = Atomic.make 0 in
    let abandoned = Atomic.make 0 in
    let accepted = Atomic.make 0 in
    let stop = Atomic.make false in
    let racers =
      List.init 4 (fun _ ->
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                match
                  Executor.submit
                    ~on_abandon:(fun _ -> Atomic.incr abandoned)
                    ex
                    (fun () -> Atomic.incr executed)
                with
                | Ok _ -> Atomic.incr accepted
                | Error _ -> Atomic.set stop true
              done))
    in
    (* shut down while the racers are mid-burst *)
    Unix.sleepf 0.002;
    Executor.shutdown ~drain:true ex;
    Atomic.set stop true;
    List.iter Domain.join racers;
    Alcotest.(check int)
      "accepted = executed + abandoned"
      (Atomic.get accepted)
      (Atomic.get executed + Atomic.get abandoned);
    Alcotest.(check int) "drain shutdown abandons nothing" 0
      (Atomic.get abandoned)
  done

let test_exec_no_drain_drops () =
  let ex = Executor.create ~jobs:1 ~max_pending:64 () in
  let started = Atomic.make false in
  let executed = Atomic.make 0 in
  let dropped = Atomic.make 0 in
  let ok = function Ok _ -> () | Error _ -> Alcotest.fail "submit refused" in
  ok
    (Executor.submit ex (fun () ->
         Atomic.set started true;
         Unix.sleepf 0.15;
         Atomic.incr executed));
  wait_for "head task running" (fun () -> Atomic.get started);
  for _ = 1 to 5 do
    ok
      (Executor.submit
         ~on_abandon:(fun reason ->
           match reason with
           | Executor.Dropped -> Atomic.incr dropped
           | _ -> ())
         ex
         (fun () -> Atomic.incr executed))
  done;
  Executor.shutdown ~drain:false ex;
  Alcotest.(check int) "running task finished" 1 (Atomic.get executed);
  Alcotest.(check int) "queued tasks told they were dropped" 5
    (Atomic.get dropped)

let test_exec_chaos_kill () =
  (* kill_rate 1: every accepted task dies with its worker; the
     supervisor must contain each crash, respawn, and fail only that
     ticket *)
  let chaos = Executor.chaos_plan ~kill_rate:1.0 ~delay_rate:0.0 17 in
  let ex = Executor.create ~jobs:2 ~chaos () in
  let crashed = Atomic.make 0 in
  let executed = Atomic.make 0 in
  let n = 6 in
  let tickets =
    List.init n (fun _ ->
        match
          Executor.submit
            ~on_abandon:(fun reason ->
              match reason with
              | Executor.Crashed _ -> Atomic.incr crashed
              | _ -> ())
            ex
            (fun () -> Atomic.incr executed)
        with
        | Ok tk -> tk
        | Error _ -> Alcotest.fail "submit refused")
  in
  wait_for "every ticket abandoned as crashed" (fun () ->
      Atomic.get crashed = n);
  Alcotest.(check int) "no task body ever ran" 0 (Atomic.get executed);
  List.iter
    (fun tk ->
      Alcotest.(check bool) "abandoned ticket" true (Executor.abandoned tk);
      Alcotest.(check bool) "claim lost" false (Executor.claim tk))
    tickets;
  Alcotest.(check bool)
    (Printf.sprintf "restarts >= %d (got %d)" n (Executor.restarts ex))
    true
    (Executor.restarts ex >= n);
  Alcotest.(check int) "pool kept its worker count" 2 (Executor.workers ex);
  Executor.shutdown ex

let test_exec_watchdog () =
  let ex = Executor.create ~jobs:1 ~watchdog:0.05 () in
  let cell = Atomic.make None in
  let timed_out = Atomic.make nan in
  let zombie_claim = Atomic.make None in
  (match
     Executor.submit
       ~on_abandon:(fun reason ->
         match reason with
         | Executor.Timed_out elapsed -> Atomic.set timed_out elapsed
         | _ -> ())
       ex
       (fun () ->
         Unix.sleepf 0.3;
         match Atomic.get cell with
         | Some tk -> Atomic.set zombie_claim (Some (Executor.claim tk))
         | None -> ())
   with
  | Ok tk -> Atomic.set cell (Some tk)
  | Error _ -> Alcotest.fail "submit refused");
  wait_for "watchdog fired" (fun () ->
      not (Float.is_nan (Atomic.get timed_out)));
  Alcotest.(check bool) "elapsed at deposal >= deadline" true
    (Atomic.get timed_out >= 0.05);
  Alcotest.(check int) "watchdog_fires" 1 (Executor.watchdog_fires ex);
  Alcotest.(check bool) "restart counted" true (Executor.restarts ex >= 1);
  (* the replacement worker serves new tasks while the zombie sleeps *)
  let served = Atomic.make false in
  (match Executor.submit ex (fun () -> Atomic.set served true) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "replacement refused work");
  wait_for "replacement worker serves" (fun () -> Atomic.get served);
  (* the deposed task finishes eventually and must lose its claim *)
  wait_for "zombie finished" (fun () -> Atomic.get zombie_claim <> None);
  Alcotest.(check (option bool)) "zombie's claim lost" (Some false)
    (Atomic.get zombie_claim);
  Executor.shutdown ex

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "ordering across jobs" `Quick test_map_ordering;
          Alcotest.test_case "jobs > tasks" `Quick test_jobs_exceed_tasks;
          Alcotest.test_case "jobs=1 bit-identical" `Quick
            test_jobs1_bit_identical;
          Alcotest.test_case "lowest-index failure" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "map_result positions" `Quick
            test_map_result_positions;
        ] );
      ( "batch",
        [
          Alcotest.test_case "jobs invariance (small)" `Quick test_batch_small;
          Alcotest.test_case "jobs invariance (20-instance corpus)" `Slow
            test_batch_corpus;
          Alcotest.test_case "error isolation" `Quick test_batch_error_isolation;
        ] );
      ( "executor",
        [
          Alcotest.test_case "claim exactly once" `Quick test_exec_claim;
          Alcotest.test_case "submit/shutdown drain race" `Quick
            test_exec_drain_race;
          Alcotest.test_case "no-drain drops queued" `Quick
            test_exec_no_drain_drops;
          Alcotest.test_case "chaos kill supervision" `Quick
            test_exec_chaos_kill;
          Alcotest.test_case "watchdog deposal" `Quick test_exec_watchdog;
        ] );
      ( "json",
        [
          Alcotest.test_case "checker sanity" `Quick test_json_checker;
          Alcotest.test_case "batch records" `Quick test_batch_json;
          Alcotest.test_case "bench schema" `Quick test_bench_json;
          Alcotest.test_case "cli solve --json stdout" `Quick
            test_cli_solve_json;
        ] );
    ]
