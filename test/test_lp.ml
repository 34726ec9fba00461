(* Tests for the LP substrate: hand-checked small programs, cross-checks of
   the revised simplex against the independent dense tableau oracle, duality
   checks, and warm-restart row generation. *)

module Problem = Lubt_lp.Problem
module Solver = Lubt_lp.Solver
module Simplex = Lubt_lp.Simplex
module Status = Lubt_lp.Status
module Prng = Lubt_util.Prng

let check_float = Alcotest.(check (float 1e-6))

let status_testable = Alcotest.testable Status.pp ( = )

(* ------------------------------------------------------------------ *)
(* Hand-checked problems                                               *)
(* ------------------------------------------------------------------ *)

(* max 3x + 5y st x<=4, 2y<=12, 3x+2y<=18  (Dantzig's classic); opt 36. *)
let test_textbook () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:(-3.0) p in
  let y = Problem.add_var ~obj:(-5.0) p in
  ignore (Problem.add_row p ~lo:neg_infinity ~up:4.0 [ (x, 1.0) ]);
  ignore (Problem.add_row p ~lo:neg_infinity ~up:12.0 [ (y, 2.0) ]);
  ignore (Problem.add_row p ~lo:neg_infinity ~up:18.0 [ (x, 3.0); (y, 2.0) ]);
  let sol = Solver.solve p in
  Alcotest.check status_testable "status" Status.Optimal sol.status;
  check_float "objective" (-36.0) sol.objective;
  check_float "x" 2.0 sol.primal.(x);
  check_float "y" 6.0 sol.primal.(y)

(* min x + y st x + y >= 2, x - y = 0 -> x = y = 1 *)
let test_equality () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:1.0 p in
  let y = Problem.add_var ~obj:1.0 p in
  ignore (Problem.add_row p ~lo:2.0 ~up:infinity [ (x, 1.0); (y, 1.0) ]);
  ignore (Problem.add_row p ~lo:0.0 ~up:0.0 [ (x, 1.0); (y, -1.0) ]);
  let sol = Solver.solve p in
  Alcotest.check status_testable "status" Status.Optimal sol.status;
  check_float "objective" 2.0 sol.objective;
  check_float "x" 1.0 sol.primal.(x)

let test_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var p in
  ignore (Problem.add_row p ~lo:2.0 ~up:infinity [ (x, 1.0) ]);
  ignore (Problem.add_row p ~lo:neg_infinity ~up:1.0 [ (x, 1.0) ]);
  let sol = Solver.solve p in
  Alcotest.check status_testable "status" Status.Infeasible sol.status

let test_unbounded () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:(-1.0) p in
  let y = Problem.add_var p in
  ignore (Problem.add_row p ~lo:neg_infinity ~up:4.0 [ (x, 1.0); (y, -1.0) ]);
  let sol = Solver.solve p in
  Alcotest.check status_testable "status" Status.Unbounded sol.status

(* boxed variables only, no rows: each sits at the favourable bound *)
let test_boxed_no_rows () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:1.0 ~up:3.0 ~obj:2.0 p in
  let y = Problem.add_var ~lo:(-2.0) ~up:5.0 ~obj:(-1.0) p in
  let sol = Solver.solve p in
  Alcotest.check status_testable "status" Status.Optimal sol.status;
  check_float "objective" ((2.0 *. 1.0) +. (-1.0 *. 5.0)) sol.objective;
  check_float "x" 1.0 sol.primal.(x);
  check_float "y" 5.0 sol.primal.(y)

(* range row: 1 <= x + y <= 2 with min x + 2y, x,y >= 0 -> x=1,y=0 *)
let test_range_row () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:1.0 p in
  let y = Problem.add_var ~obj:2.0 p in
  ignore (Problem.add_row p ~lo:1.0 ~up:2.0 [ (x, 1.0); (y, 1.0) ]);
  let sol = Solver.solve p in
  Alcotest.check status_testable "status" Status.Optimal sol.status;
  check_float "objective" 1.0 sol.objective

(* free variable: min x st x >= -5 handled through a row *)
let test_free_var () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:neg_infinity ~up:infinity ~obj:1.0 p in
  ignore (Problem.add_row p ~lo:(-5.0) ~up:infinity [ (x, 1.0) ]);
  let sol = Solver.solve p in
  Alcotest.check status_testable "status" Status.Optimal sol.status;
  check_float "objective" (-5.0) sol.objective

(* fixed variable participates as a constant *)
let test_fixed_var () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:2.0 ~up:2.0 p in
  let y = Problem.add_var ~obj:1.0 p in
  ignore (Problem.add_row p ~lo:5.0 ~up:infinity [ (x, 1.0); (y, 1.0) ]);
  let sol = Solver.solve p in
  Alcotest.check status_testable "status" Status.Optimal sol.status;
  check_float "objective" 3.0 sol.objective

(* Degenerate LP (Beale-like) must still terminate. *)
let test_degenerate () =
  let p = Problem.create () in
  let x1 = Problem.add_var ~obj:(-0.75) p in
  let x2 = Problem.add_var ~obj:150.0 p in
  let x3 = Problem.add_var ~obj:(-0.02) p in
  let x4 = Problem.add_var ~obj:6.0 p in
  ignore
    (Problem.add_row p ~lo:neg_infinity ~up:0.0
       [ (x1, 0.25); (x2, -60.0); (x3, -0.04); (x4, 9.0) ]);
  ignore
    (Problem.add_row p ~lo:neg_infinity ~up:0.0
       [ (x1, 0.5); (x2, -90.0); (x3, -0.02); (x4, 3.0) ]);
  ignore (Problem.add_row p ~lo:neg_infinity ~up:1.0 [ (x3, 1.0) ]);
  let sol = Solver.solve p in
  Alcotest.check status_testable "status" Status.Optimal sol.status;
  check_float "objective" (-0.05) sol.objective

(* ------------------------------------------------------------------ *)
(* Dual phase 1                                                        *)
(* ------------------------------------------------------------------ *)

(* min -(x_1 + ... + x_k) over free x_i with rows x_i <= i: no bound of
   its own stops a free variable, so the start is dual infeasible, and
   dual phase 1 pivots once per row *)
let free_vars_bounded_by_rows k =
  let p = Problem.create () in
  for i = 1 to k do
    let x = Problem.add_var ~lo:neg_infinity ~up:infinity ~obj:(-1.0) p in
    ignore
      (Problem.add_row p ~lo:neg_infinity ~up:(float_of_int i) [ (x, 1.0) ])
  done;
  p

(* the status of one solve, its engine and the probe phase of each pivot *)
let solve_phases ?params p =
  let eng = Simplex.of_problem ?params p in
  let phases = ref [] in
  Simplex.set_probe eng
    (Some (fun e -> phases := e.Simplex.pr_phase :: !phases));
  let status = Simplex.solve eng in
  (status, eng, List.rev !phases)

let test_phase1_free_var () =
  let status, eng, phases = solve_phases (free_vars_bounded_by_rows 5) in
  Alcotest.check status_testable "status" Status.Optimal status;
  check_float "objective" (-15.0) (Simplex.objective eng);
  Alcotest.(check bool) "phase 1 pivoted" true (List.mem "dual_phase1" phases)

(* x >= 0 with cost -1 is in no row, so no basis is dual feasible; the
   two rows on y decide whether the LP is feasible *)
let dual_infeasible_lp ~y_lo ~y_up =
  let p = Problem.create () in
  ignore (Problem.add_var ~obj:(-1.0) p);
  let y = Problem.add_var p in
  ignore (Problem.add_row p ~lo:y_lo ~up:infinity [ (y, 1.0) ]);
  ignore (Problem.add_row p ~lo:neg_infinity ~up:y_up [ (y, 1.0) ]);
  p

let test_phase1_dual_infeasible () =
  let verdict p = (Solver.solve p).Status.status in
  Alcotest.check status_testable "feasible" Status.Unbounded
    (verdict (dual_infeasible_lp ~y_lo:1.0 ~y_up:2.0));
  Alcotest.check status_testable "infeasible" Status.Infeasible
    (verdict (dual_infeasible_lp ~y_lo:2.0 ~y_up:1.0))

(* a limit hit inside phase 1 is the solve's status, not a verdict on
   dual feasibility *)
let test_phase1_limits () =
  let p = free_vars_bounded_by_rows 5 in
  let status, _, phases =
    solve_phases ~params:{ Simplex.default_params with Simplex.max_iters = 2 } p
  in
  Alcotest.check status_testable "iteration limit" Status.Iteration_limit
    status;
  Alcotest.(check (list string)) "stopped in phase 1"
    [ "dual_phase1"; "dual_phase1"; "dual_phase1" ] phases;
  let eng = Simplex.of_problem p in
  Simplex.set_time_limit eng (-1.0);
  Alcotest.check status_testable "time limit" Status.Time_limit
    (Simplex.solve eng)

(* ------------------------------------------------------------------ *)
(* Warm restart / row generation                                       *)
(* ------------------------------------------------------------------ *)

let test_add_row_reoptimise () =
  (* min x + y, x + y >= 1; then add x >= 0.8 and y >= 0.5 *)
  let p = Problem.create () in
  let x = Problem.add_var ~obj:1.0 p in
  let y = Problem.add_var ~obj:1.0 p in
  ignore (Problem.add_row p ~lo:1.0 ~up:infinity [ (x, 1.0); (y, 1.0) ]);
  let eng = Simplex.of_problem p in
  Alcotest.check status_testable "first" Status.Optimal (Simplex.solve eng);
  check_float "obj1" 1.0 (Simplex.objective eng);
  Simplex.add_rows eng [ (0.8, infinity, [ (x, 1.0) ]) ];
  Simplex.add_rows eng [ (0.5, infinity, [ (y, 1.0) ]) ];
  Alcotest.check status_testable "second" Status.Optimal (Simplex.solve eng);
  check_float "obj2" 1.3 (Simplex.objective eng);
  let xs = Simplex.primal eng in
  check_float "x" 0.8 xs.(x);
  check_float "y" 0.5 xs.(y)

let test_add_row_makes_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:1.0 ~up:1.0 p in
  ignore (Problem.add_row p ~lo:0.0 ~up:infinity [ (x, 1.0) ]);
  let eng = Simplex.of_problem p in
  Alcotest.check status_testable "first" Status.Optimal (Simplex.solve eng);
  Simplex.add_rows eng [ (2.0, infinity, [ (x, 1.0) ]) ];
  Alcotest.check status_testable "now infeasible" Status.Infeasible
    (Simplex.solve eng)

let test_many_incremental_rows () =
  (* min sum x_i subject to incrementally revealed x_i + x_{i+1} >= i *)
  let p = Problem.create () in
  let n = 30 in
  let vars = Array.init n (fun _ -> Problem.add_var ~obj:1.0 p) in
  ignore (Problem.add_row p ~lo:1.0 ~up:infinity [ (vars.(0), 1.0) ]);
  let eng = Simplex.of_problem p in
  Alcotest.check status_testable "first" Status.Optimal (Simplex.solve eng);
  for i = 0 to n - 2 do
    Simplex.add_rows eng
      [ (float_of_int i, infinity, [ (vars.(i), 1.0); (vars.(i + 1), 1.0) ]) ];
    Alcotest.check status_testable "step" Status.Optimal (Simplex.solve eng)
  done;
  (* compare against solving the complete model from scratch *)
  let q = Problem.create () in
  let qvars = Array.init n (fun _ -> Problem.add_var ~obj:1.0 q) in
  ignore (Problem.add_row q ~lo:1.0 ~up:infinity [ (qvars.(0), 1.0) ]);
  for i = 0 to n - 2 do
    ignore
      (Problem.add_row q ~lo:(float_of_int i) ~up:infinity
         [ (qvars.(i), 1.0); (qvars.(i + 1), 1.0) ])
  done;
  let fresh = Solver.solve q in
  check_float "same objective" fresh.objective (Simplex.objective eng)

(* ------------------------------------------------------------------ *)
(* Randomised cross-check against the tableau oracle                   *)
(* ------------------------------------------------------------------ *)

(* shared generator (see lp_gen.ml); the draw sequence matches the
   original local copy, so seeded case streams are unchanged *)
let random_problem rng = Lp_gen.random_problem rng

let same_outcome id p a =
  let b = Tableau.solve p in
  let ctx = Printf.sprintf "case %d" id in
  (match (a.Status.status, b.Status.status) with
  | Status.Optimal, Status.Optimal ->
    if not (Lubt_util.Stats.approx_eq ~eps:1e-5 a.objective b.objective) then
      Alcotest.failf "%s: objective mismatch revised=%.9g tableau=%.9g" ctx
        a.objective b.objective;
    if not (Problem.is_feasible ~tol:1e-5 p a.primal) then
      Alcotest.failf "%s: revised simplex solution infeasible" ctx;
    if not (Problem.is_feasible ~tol:1e-5 p b.primal) then
      Alcotest.failf "%s: tableau solution infeasible" ctx
  | sa, sb when sa = sb -> ()
  | sa, sb ->
    Alcotest.failf "%s: status mismatch revised=%s tableau=%s" ctx
      (Status.to_string sa) (Status.to_string sb));
  ()

let test_random_cross_check () =
  let rng = Prng.create 20260706 in
  (* the verdicts of the cases on which dual phase 1 pivoted *)
  let phase1 = ref [] in
  for id = 1 to 400 do
    let p = random_problem rng in
    let status, eng, phases = solve_phases p in
    same_outcome id p (Simplex.solution eng);
    if List.mem "dual_phase1" phases then phase1 := status :: !phase1
  done;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Status.to_string s ^ " reached through phase 1")
        true (List.mem s !phase1))
    [ Status.Optimal; Status.Infeasible; Status.Unbounded ]

(* Duality spot check: complementary slackness-free weak duality via the
   reported multipliers on a problem with >= rows. *)
let test_dual_values () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:2.0 p in
  let y = Problem.add_var ~obj:3.0 p in
  ignore (Problem.add_row p ~lo:4.0 ~up:infinity [ (x, 1.0); (y, 1.0) ]);
  ignore (Problem.add_row p ~lo:2.0 ~up:infinity [ (y, 1.0) ]);
  let sol = Solver.solve p in
  Alcotest.check status_testable "status" Status.Optimal sol.status;
  (* optimum: y can cover both rows; x=2,y=2 -> 10 vs x=0,y=4 -> 12; pick 10 *)
  check_float "objective" 10.0 sol.objective;
  (* b^T y must equal the objective at optimality (strong duality) *)
  let dual_obj = (4.0 *. sol.dual.(0)) +. (2.0 *. sol.dual.(1)) in
  check_float "strong duality" sol.objective dual_obj


(* A second, independently seeded stream of 300 LPs against the oracle. *)
let test_random_cross_check_second_seed () =
  let rng = Prng.create 321 in
  for id = 1 to 300 do
    let p = random_problem rng in
    same_outcome id p (Solver.solve p)
  done

let test_warm_row_appends () =
  (* warm-restart row generation: every appended row extends the live
     factorisation by a border, and the result matches the oracle on the
     complete model *)
  let p = Problem.create () in
  let n = 30 in
  let vars = Array.init n (fun _ -> Problem.add_var ~obj:1.0 p) in
  ignore (Problem.add_row p ~lo:1.0 ~up:infinity [ (vars.(0), 1.0) ]);
  let eng = Simplex.of_problem p in
  Alcotest.check status_testable "first" Status.Optimal (Simplex.solve eng);
  for i = 0 to n - 2 do
    Simplex.add_rows eng
      [ (float_of_int i, infinity, [ (vars.(i), 1.0); (vars.(i + 1), 1.0) ]) ];
    Alcotest.check status_testable "step" Status.Optimal (Simplex.solve eng)
  done;
  let q = Problem.create () in
  let qvars = Array.init n (fun _ -> Problem.add_var ~obj:1.0 q) in
  ignore (Problem.add_row q ~lo:1.0 ~up:infinity [ (qvars.(0), 1.0) ]);
  for i = 0 to n - 2 do
    ignore
      (Problem.add_row q ~lo:(float_of_int i) ~up:infinity
         [ (qvars.(i), 1.0); (qvars.(i + 1), 1.0) ])
  done;
  let oracle = Tableau.solve q in
  check_float "oracle objective" oracle.objective (Simplex.objective eng);
  Alcotest.(check bool) "rows absorbed warm" true
    ((Simplex.stats eng).Simplex.basis_extensions > 0)


(* Parameter fuzz: aggressive refactorisation must not change any
   outcome. refactor_every = 1 exercises the LU refactor path on every
   single pivot. *)
let test_param_fuzz () =
  let rng = Prng.create 777 in
  let param_sets =
    [
      { Simplex.default_params with Simplex.refactor_every = 1 };
      { Simplex.default_params with Simplex.refactor_every = 3 };
      { Simplex.default_params with Simplex.max_iters = 100_000 };
    ]
  in
  for id = 1 to 80 do
    let p = random_problem rng in
    let reference = Solver.solve p in
    List.iteri
      (fun pi params ->
        let sol = Solver.solve ~params p in
        match (reference.Status.status, sol.Status.status) with
        | Status.Optimal, Status.Optimal ->
          if
            not
              (Lubt_util.Stats.approx_eq ~eps:1e-5 reference.objective
                 sol.objective)
          then
            Alcotest.failf "case %d params %d: %.9g vs %.9g" id pi
              reference.objective sol.objective
        | a, b when a = b -> ()
        | a, b ->
          Alcotest.failf "case %d params %d: %s vs %s" id pi
            (Status.to_string a) (Status.to_string b))
      param_sets
  done

let () =
  Alcotest.run "lp"
    [
      ( "hand-checked",
        [
          Alcotest.test_case "textbook max" `Quick test_textbook;
          Alcotest.test_case "equality row" `Quick test_equality;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "boxed no rows" `Quick test_boxed_no_rows;
          Alcotest.test_case "range row" `Quick test_range_row;
          Alcotest.test_case "free variable" `Quick test_free_var;
          Alcotest.test_case "fixed variable" `Quick test_fixed_var;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
        ] );
      ( "dual phase 1",
        [
          Alcotest.test_case "free variable, negative cost" `Quick
            test_phase1_free_var;
          Alcotest.test_case "dual infeasible: unbounded or infeasible" `Quick
            test_phase1_dual_infeasible;
          Alcotest.test_case "limits stop phase 1" `Quick test_phase1_limits;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "add rows + dual simplex" `Quick
            test_add_row_reoptimise;
          Alcotest.test_case "row makes infeasible" `Quick
            test_add_row_makes_infeasible;
          Alcotest.test_case "many incremental rows" `Quick
            test_many_incremental_rows;
        ] );
      ( "cross-check",
        [
          Alcotest.test_case "400 random LPs vs tableau" `Slow
            test_random_cross_check;
          Alcotest.test_case "second 300 random LPs vs tableau" `Slow
            test_random_cross_check_second_seed;
          Alcotest.test_case "sparse backend incremental" `Quick
            test_warm_row_appends;
          Alcotest.test_case "parameter fuzz" `Slow test_param_fuzz;
          Alcotest.test_case "dual values" `Quick test_dual_values;
        ] );
    ]
