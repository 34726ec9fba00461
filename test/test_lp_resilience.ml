(* Tests for the numerical-resilience layer: the recovery ladder and
   deterministic fault injection in the simplex engine, a-posteriori
   certification (Certify), and wall-clock budgets. *)

module Problem = Lubt_lp.Problem
module Solver = Lubt_lp.Solver
module Simplex = Lubt_lp.Simplex
module Certify = Lubt_lp.Certify
module Status = Lubt_lp.Status
module Ebf = Lubt_core.Ebf
module Instance = Lubt_core.Instance
module Point = Lubt_geom.Point
module Prng = Lubt_util.Prng

let approx = Lubt_util.Stats.approx_eq

(* min x + y  s.t.  x + y >= 2,  x, y >= 0: optimum 2 at a non-degenerate
   vertex, with a strictly positive row multiplier *)
let tiny_lp () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:1.0 p in
  let y = Problem.add_var ~obj:1.0 p in
  ignore (Problem.add_row p ~lo:2.0 ~up:infinity [ (x, 1.0); (y, 1.0) ]);
  p

(* ------------------------------------------------------------------ *)
(* Certification                                                        *)
(* ------------------------------------------------------------------ *)

let test_certify_accepts_honest_solution () =
  let p = tiny_lp () in
  let sol = Solver.solve p in
  Alcotest.(check bool) "optimal" true (sol.Status.status = Status.Optimal);
  let r = Certify.check p sol in
  Alcotest.(check bool) "certified" true r.Certify.ok;
  Alcotest.(check bool) "no failure message" true (r.Certify.failure = None);
  Alcotest.(check int) "rows checked" (Problem.nrows p) r.Certify.rows_checked;
  Alcotest.(check bool) "level recorded" true (r.Certify.level = Certify.Full)

let test_certify_off_is_trivial () =
  let p = tiny_lp () in
  let sol = Solver.solve p in
  (* even a corrupted solution passes at level Off *)
  let bad = { sol with Status.objective = sol.Status.objective +. 100.0 } in
  let r = Certify.check ~level:Certify.Off p bad in
  Alcotest.(check bool) "trivially ok" true r.Certify.ok

let test_certify_rejects_corrupt_primal () =
  let p = tiny_lp () in
  let sol = Solver.solve p in
  let primal = Array.copy sol.Status.primal in
  primal.(0) <- -0.5;
  (* clearly below the lower bound 0 *)
  let r = Certify.check p { sol with Status.primal } in
  Alcotest.(check bool) "rejected" true (not r.Certify.ok);
  Alcotest.(check bool) "has failure message" true (r.Certify.failure <> None);
  Alcotest.(check bool) "primal residual visible" true
    (r.Certify.primal_residual > 1e-3)

let test_certify_rejects_corrupt_dual () =
  let p = tiny_lp () in
  let sol = Solver.solve p in
  let dual = Array.copy sol.Status.dual in
  (* a negative multiplier on a [2, +inf) row prices the infinite upper
     bound: dual-infeasible *)
  dual.(0) <- -1.0;
  let bad = { sol with Status.dual } in
  let full = Certify.check ~level:Certify.Full p bad in
  Alcotest.(check bool) "Full rejects" true (not full.Certify.ok);
  let primal_only = Certify.check ~level:Certify.Primal p bad in
  Alcotest.(check bool) "Primal level ignores duals" true
    primal_only.Certify.ok

let test_certify_rejects_corrupt_objective () =
  let p = tiny_lp () in
  let sol = Solver.solve p in
  let bad = { sol with Status.objective = sol.Status.objective +. 1.0 } in
  let r = Certify.check ~level:Certify.Primal p bad in
  Alcotest.(check bool) "rejected" true (not r.Certify.ok);
  Alcotest.(check bool) "objective error visible" true
    (r.Certify.objective_error > 1e-3)

let test_certify_rejects_dimension_mismatch () =
  let p = tiny_lp () in
  let sol = Solver.solve p in
  let r = Certify.check p { sol with Status.primal = [| 0.0 |] } in
  Alcotest.(check bool) "short primal rejected" true (not r.Certify.ok)

(* seeded corruption sweep: every optimal solve certifies, and pushing a
   variable past a finite bound is always caught.  The guaranteed-
   feasible covering-LP generator is shared (lp_gen.ml). *)
let random_bounded_problem rng = Lp_gen.random_bounded_problem rng

let test_certify_corruption_sweep () =
  let rng = Prng.create 515 in
  for case = 1 to 100 do
    let p = random_bounded_problem rng in
    let sol = Solver.solve p in
    if sol.Status.status = Status.Optimal then begin
      let honest = Certify.check p sol in
      if not honest.Certify.ok then
        Alcotest.failf "case %d: honest solution rejected: %s" case
          (match honest.Certify.failure with Some m -> m | None -> "?");
      (* corrupt one primal entry past its (finite) lower bound *)
      let j = Prng.int rng (Array.length sol.Status.primal) in
      let primal = Array.copy sol.Status.primal in
      primal.(j) <- -1.0 -. Prng.float rng 5.0;
      let r = Certify.check ~level:Certify.Primal p { sol with Status.primal } in
      if r.Certify.ok then
        Alcotest.failf "case %d: bound violation on var %d not caught" case j
    end
  done

(* ------------------------------------------------------------------ *)
(* Recovery ladder and fault injection                                  *)
(* ------------------------------------------------------------------ *)

let ebf_problem () =
  let inst, tree = Lubt_data.Examples.five_point () in
  Ebf.formulate inst tree

let test_fault_recovery_deterministic () =
  (* a guaranteed zero-pivot fault on the first basis update: the ladder's
     first rung (refactorise-and-retry) must absorb it *)
  let params =
    {
      Simplex.default_params with
      Simplex.fault =
        Some
          (Simplex.fault_plan ~kinds:[ Simplex.Fault_zero_pivot ] ~rate:1.0
             ~max_faults:1 42);
    }
  in
  let clean = Solver.solve (ebf_problem ()) in
  let eng = Simplex.of_problem ~params (ebf_problem ()) in
  let status = Simplex.solve eng in
  Alcotest.(check bool) "recovers to optimal" true (status = Status.Optimal);
  let recov = (Simplex.stats eng).Simplex.recoveries in
  Alcotest.(check int) "one fault fired" 1 recov.Simplex.faults_injected;
  Alcotest.(check bool) "ladder engaged" true
    (Simplex.recovery_attempts recov >= 1);
  if not (approx ~eps:1e-6 (Simplex.objective eng) clean.Status.objective) then
    Alcotest.failf "recovered objective %.9g vs clean %.9g"
      (Simplex.objective eng) clean.Status.objective

let test_empty_ladder_fails_hard () =
  let params =
    {
      Simplex.default_params with
      Simplex.recovery = [];
      fault =
        Some
          (Simplex.fault_plan ~kinds:[ Simplex.Fault_zero_pivot ] ~rate:1.0
             ~max_faults:1 7);
    }
  in
  let eng = Simplex.of_problem ~params (ebf_problem ()) in
  Alcotest.(check bool) "numerical failure" true
    (Simplex.solve eng = Status.Numerical_failure)

let test_no_faults_no_recoveries () =
  let eng = Simplex.of_problem (ebf_problem ()) in
  Alcotest.(check bool) "optimal" true (Simplex.solve eng = Status.Optimal);
  let recov = (Simplex.stats eng).Simplex.recoveries in
  Alcotest.(check int) "no ladder activity" 0
    (Simplex.recovery_attempts recov);
  Alcotest.(check int) "no faults" 0 recov.Simplex.faults_injected;
  Alcotest.(check int) "no rejections" 0 recov.Simplex.validations_rejected

let test_solver_check_levels () =
  let p = tiny_lp () in
  List.iter
    (fun level ->
      let sol = Solver.solve ~check:level p in
      Alcotest.(check bool)
        (Printf.sprintf "optimal at %s" (Certify.level_to_string level))
        true
        (sol.Status.status = Status.Optimal))
    [ Certify.Off; Certify.Primal; Certify.Full ]

(* ------------------------------------------------------------------ *)
(* Time budgets                                                         *)
(* ------------------------------------------------------------------ *)

let test_engine_time_limit () =
  let eng = Simplex.of_problem (ebf_problem ()) in
  Simplex.set_time_limit eng (-1.0);
  Alcotest.(check bool) "expired budget" true
    (Simplex.solve eng = Status.Time_limit);
  (* the budget is per solve configuration, not a latched failure *)
  Simplex.set_time_limit eng infinity;
  Alcotest.(check bool) "recovers once budget lifted" true
    (Simplex.solve eng = Status.Optimal)

let test_ebf_time_limit () =
  let inst, tree = Lubt_data.Examples.five_point () in
  let r =
    Ebf.solve
      ~options:{ Ebf.default_options with Ebf.time_limit = 0.0 }
      inst tree
  in
  Alcotest.(check bool) "ebf returns Time_limit" true
    (r.Ebf.status = Status.Time_limit);
  Alcotest.(check bool) "no certificate for a timed-out solve" true
    (r.Ebf.certificate = None);
  (* and a generous budget changes nothing *)
  let ok =
    Ebf.solve
      ~options:
        {
          Ebf.default_options with
          Ebf.time_limit = 3600.0;
          check = Certify.Full;
        }
      inst tree
  in
  Alcotest.(check bool) "optimal within budget" true
    (ok.Ebf.status = Status.Optimal);
  (match ok.Ebf.certificate with
  | Some c -> Alcotest.(check bool) "certified" true c.Certify.ok
  | None -> Alcotest.fail "expected a certificate")

(* ------------------------------------------------------------------ *)
(* Fault matrix: every kind on the cross-check corpus                   *)
(* ------------------------------------------------------------------ *)

let random_ebf_instance rng =
  let m = 3 + Prng.int rng 8 in
  let with_source = Prng.bool rng in
  let coord () = Prng.float rng 100.0 in
  let sinks = Array.init m (fun _ -> Point.make (coord ()) (coord ())) in
  let source =
    if with_source then Some (Point.make (coord ()) (coord ())) else None
  in
  let base =
    Instance.uniform_bounds ?source ~sinks ~lower:0.0 ~upper:infinity ()
  in
  (m, with_source, sinks, source, Instance.radius base)

(* Mirrors the engine-vs-oracle cross-check corpus: 50 seeded instances, a
   fifth of them provably infeasible, each solved by the lazy
   row-generation pipeline with [check = Full] under every fault kind.
   Yields (label, oracle solution, EBF result) per run; computed once and
   shared by the tests below. *)
let fault_matrix =
  lazy
    (let rng = Prng.create 8086 in
     let kinds =
       [
         ("singular-refactor", Simplex.Fault_singular_refactor);
         ("perturb-ftran", Simplex.Fault_perturb_ftran);
         ("zero-pivot", Simplex.Fault_zero_pivot);
       ]
     in
     List.concat_map
       (fun case ->
         let m, with_source, sinks, source, r = random_ebf_instance rng in
         let l, u =
           if case mod 5 = 0 then (0.0, r *. (0.1 +. Prng.float rng 0.8))
           else
             let u = r *. (1.0 +. Prng.float rng 1.0) in
             (Prng.float rng u, u)
         in
         let inst = Instance.uniform_bounds ?source ~sinks ~lower:l ~upper:u () in
         let tree =
           Topogen.random_binary rng ~num_sinks:m ~source_edge:with_source
         in
         let oracle = Tableau.solve (Ebf.formulate inst tree) in
         List.mapi
           (fun ki (klabel, kind) ->
             let params =
               {
                 Simplex.default_params with
                 Simplex.fault =
                   Some
                     (Simplex.fault_plan ~kinds:[ kind ] ~rate:1.0
                        ~max_faults:2
                        ((case * 31) + ki));
               }
             in
             let res =
               Ebf.solve
                 ~options:
                   {
                     Ebf.default_options with
                     Ebf.lp_params = params;
                     check = Certify.Full;
                   }
                 inst tree
             in
             (Printf.sprintf "case %d (%s)" case klabel, oracle, res))
           kinds)
       (List.init 50 (fun i -> i + 1)))

(* Under forced faults the recovery ladder must still reach the tableau
   oracle's verdict, and optimal answers must carry an [ok] certificate. *)
let test_fault_matrix_crosscheck () =
  let total_faults = ref 0 and total_recoveries = ref 0 in
  List.iter
    (fun (label, oracle, res) ->
      if res.Ebf.status <> oracle.Status.status then
        Alcotest.failf "%s: status %s vs oracle %s" label
          (Status.to_string res.Ebf.status)
          (Status.to_string oracle.Status.status);
      if oracle.Status.status = Status.Optimal then begin
        if not (approx ~eps:1e-6 res.Ebf.objective oracle.Status.objective)
        then
          Alcotest.failf "%s: objective %.9g vs oracle %.9g" label
            res.Ebf.objective oracle.Status.objective;
        match res.Ebf.certificate with
        | None -> Alcotest.failf "%s: missing certificate" label
        | Some c ->
          if not c.Certify.ok then
            Alcotest.failf "%s: certificate rejected: %s" label
              (match c.Certify.failure with Some e -> e | None -> "?")
      end;
      let recov = res.Ebf.lp_stats.Simplex.recoveries in
      total_faults := !total_faults + recov.Simplex.faults_injected;
      total_recoveries := !total_recoveries + Simplex.recovery_attempts recov)
    (Lazy.force fault_matrix);
  (* the sweep must actually have exercised the ladder *)
  Alcotest.(check bool) "faults fired across the sweep" true
    (!total_faults > 0);
  Alcotest.(check bool) "recoveries happened across the sweep" true
    (!total_recoveries > 0)

(* The ladder's second rung is exercised by the sweep, and every optimal
   answer is certified at [Full] level: duals included, never demoted to
   a primal-only check. *)
let test_fault_matrix_full_certificates () =
  let escalations = ref 0 in
  List.iter
    (fun (label, _, res) ->
      let recov = res.Ebf.lp_stats.Simplex.recoveries in
      escalations := !escalations + recov.Simplex.tolerance_escalations;
      if res.Ebf.status = Status.Optimal then
        match res.Ebf.certificate with
        | Some { Certify.ok = true; level = Certify.Full; _ } -> ()
        | Some c ->
          Alcotest.failf "%s: certificate at %s, ok=%b" label
            (Certify.level_to_string c.Certify.level)
            c.Certify.ok
        | None -> Alcotest.failf "%s: optimal without a certificate" label)
    (Lazy.force fault_matrix);
  Alcotest.(check bool) "tolerance escalations across the sweep" true
    (!escalations > 0)

(* control: the identical corpus with no fault plan shows a silent ladder
   and certified-optimal answers *)
let test_zero_fault_control () =
  let rng = Prng.create 8086 in
  for case = 1 to 15 do
    let m, with_source, sinks, source, r = random_ebf_instance rng in
    let l, u =
      if case mod 5 = 0 then (0.0, r *. (0.1 +. Prng.float rng 0.8))
      else
        let u = r *. (1.0 +. Prng.float rng 1.0) in
        (Prng.float rng u, u)
    in
    let inst = Instance.uniform_bounds ?source ~sinks ~lower:l ~upper:u () in
    let tree = Topogen.random_binary rng ~num_sinks:m ~source_edge:with_source in
    let res =
      Ebf.solve
        ~options:{ Ebf.default_options with Ebf.check = Certify.Full }
        inst tree
    in
    let recov = res.Ebf.lp_stats.Simplex.recoveries in
    if Simplex.recovery_attempts recov <> 0 then
      Alcotest.failf "case %d: unexpected recoveries on a clean run" case;
    if recov.Simplex.faults_injected <> 0 then
      Alcotest.failf "case %d: faults with no fault plan" case;
    match (res.Ebf.status, res.Ebf.certificate) with
    | Status.Optimal, Some c ->
      if not c.Certify.ok then
        Alcotest.failf "case %d: clean run not certified: %s" case
          (match c.Certify.failure with Some e -> e | None -> "?")
    | Status.Optimal, None -> Alcotest.failf "case %d: missing certificate" case
    | _ -> ()
  done

let () =
  Alcotest.run "lp-resilience"
    [
      ( "certify",
        [
          Alcotest.test_case "accepts honest solution" `Quick
            test_certify_accepts_honest_solution;
          Alcotest.test_case "Off level is trivial" `Quick
            test_certify_off_is_trivial;
          Alcotest.test_case "rejects corrupt primal" `Quick
            test_certify_rejects_corrupt_primal;
          Alcotest.test_case "rejects corrupt dual" `Quick
            test_certify_rejects_corrupt_dual;
          Alcotest.test_case "rejects corrupt objective" `Quick
            test_certify_rejects_corrupt_objective;
          Alcotest.test_case "rejects dimension mismatch" `Quick
            test_certify_rejects_dimension_mismatch;
          Alcotest.test_case "100-case corruption sweep" `Slow
            test_certify_corruption_sweep;
        ] );
      ( "recovery-ladder",
        [
          Alcotest.test_case "deterministic fault recovery" `Quick
            test_fault_recovery_deterministic;
          Alcotest.test_case "empty ladder fails hard" `Quick
            test_empty_ladder_fails_hard;
          Alcotest.test_case "clean run has silent ladder" `Quick
            test_no_faults_no_recoveries;
          Alcotest.test_case "Solver.solve check levels" `Quick
            test_solver_check_levels;
        ] );
      ( "time-budgets",
        [
          Alcotest.test_case "engine set_time_limit" `Quick
            test_engine_time_limit;
          Alcotest.test_case "ebf time_limit" `Quick test_ebf_time_limit;
        ] );
      ( "fault-matrix",
        [
          Alcotest.test_case "kind sweep, 50 instances" `Slow
            test_fault_matrix_crosscheck;
          Alcotest.test_case "zero-fault control, 15 instances" `Slow
            test_zero_fault_control;
          Alcotest.test_case "escalation + Full certificates" `Slow
            test_fault_matrix_full_certificates;
        ] );
    ]
