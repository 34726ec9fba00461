(* Fast-path equivalence layer: partial pricing, the bound-flipping dual
   ratio test and the EBF warm start are pure accelerations — they may
   change no verdict or optimal value.
   Each instance gets five verdicts that must agree: the engine with its
   eta file and the engine refactorising at every pivot, the independent
   two-phase tableau oracle (to 1e-7), the a-posteriori certifier, and a
   primal feasibility check.
   They run on a fixed 50-instance corpus, on fresh QCheck-generated
   instances, on LPs whose optimum is known exactly by construction, and
   under injected numerical faults driven through the recovery ladder. *)

module Problem = Lubt_lp.Problem
module Solver = Lubt_lp.Solver
module Simplex = Lubt_lp.Simplex
module Status = Lubt_lp.Status
module Certify = Lubt_lp.Certify
module Ebf = Lubt_core.Ebf
module Prng = Lubt_util.Prng

let approx = Lubt_util.Stats.approx_eq

(* The engine's one algorithm, with the eta file that carries the basis
   between refactorisations and without it (a fresh LU at every pivot). *)
let configs =
  [
    ("eta file", Simplex.default_params);
    ("refactor every pivot", { Simplex.default_params with Simplex.refactor_every = 1 });
  ]

(* Solve [p] in both configurations and compare with the tableau
   oracle: identical status; optimal objectives within 1e-7; primal
   point feasible; the packaged solution accepted by the certifier. *)
let check_all_configs ctx p =
  let oracle = Tableau.solve p in
  List.iter
    (fun (label, params) ->
      let sol = Solver.solve ~params p in
      (match (oracle.Status.status, sol.Status.status) with
      | Status.Optimal, Status.Optimal ->
        if not (approx ~eps:1e-7 sol.Status.objective oracle.Status.objective)
        then
          Alcotest.failf "%s (%s): objective %.12g vs oracle %.12g" ctx label
            sol.Status.objective oracle.Status.objective;
        if not (Problem.is_feasible ~tol:1e-6 p sol.Status.primal) then
          Alcotest.failf "%s (%s): solution infeasible" ctx label;
        let report = Certify.check p sol in
        if not report.Certify.ok then
          Alcotest.failf "%s (%s): certifier rejected: %s" ctx label
            (match report.Certify.failure with Some m -> m | None -> "?")
      | sa, sb when sa = sb -> ()
      | sa, sb ->
        Alcotest.failf "%s (%s): status %s vs oracle %s" ctx label
          (Status.to_string sb) (Status.to_string sa)))
    configs

(* ------------------------------------------------------------------ *)
(* Fixed 50-instance corpus                                            *)
(* ------------------------------------------------------------------ *)

let test_corpus_equivalence () =
  let rng = Prng.create 20260806 in
  for case = 1 to 50 do
    check_all_configs (Printf.sprintf "corpus %d" case)
      (Lp_gen.random_problem rng)
  done

(* ------------------------------------------------------------------ *)
(* Fresh instances every run (QCheck)                                  *)
(* ------------------------------------------------------------------ *)

let qcheck_fresh_equivalence =
  QCheck.Test.make ~count:50 ~name:"five-way equivalence (fresh instances)"
    Lp_gen.arbitrary_spec (fun spec ->
      check_all_configs "fresh" (Lp_gen.problem_of_spec spec);
      true)

(* ------------------------------------------------------------------ *)
(* Constructed-optimum instances                                       *)
(* ------------------------------------------------------------------ *)

let test_certified_optimum () =
  let rng = Prng.create 7106 in
  for case = 1 to 50 do
    let cert = Lp_gen.certified_problem rng in
    let p = cert.Lp_gen.c_problem in
    (* generator self-check: the witness must be feasible *)
    if not (Problem.is_feasible ~tol:1e-9 p cert.Lp_gen.c_primal) then
      Alcotest.failf "case %d: constructed witness infeasible" case;
    List.iter
      (fun (label, params) ->
        let sol = Solver.solve ~params p in
        if sol.Status.status <> Status.Optimal then
          Alcotest.failf "case %d (%s): status %s on a feasible bounded LP"
            case label
            (Status.to_string sol.Status.status);
        if not (approx ~eps:1e-7 sol.Status.objective cert.Lp_gen.c_optimum)
        then
          Alcotest.failf
            "case %d (%s): objective %.12g, constructed optimum %.12g" case
            label sol.Status.objective cert.Lp_gen.c_optimum)
      configs
  done

let qcheck_certified_fresh =
  QCheck.Test.make ~count:50 ~name:"constructed optimum (fresh instances)"
    QCheck.(make Gen.(int_bound max_int))
    (fun seed ->
      let cert = Lp_gen.certified_problem (Prng.create seed) in
      let sol = Solver.solve cert.Lp_gen.c_problem in
      sol.Status.status = Status.Optimal
      && approx ~eps:1e-7 sol.Status.objective cert.Lp_gen.c_optimum)

(* ------------------------------------------------------------------ *)
(* Bound-flip ratio test actually fires                                *)
(* ------------------------------------------------------------------ *)

(* A dual solve where the best-ratio breakpoints are boxed variables
   whose flip gain is below the row infeasibility: the long-step ratio
   test must pass them by flipping, and only the unbounded variable
   enters.  The corpus above checks answers against the oracle; this
   pins that the flip path runs at all, with the exact expected optimum. *)
let test_bound_flips_fire () =
  let p = Problem.create () in
  (* cheapest reduced costs on the tightly boxed variables *)
  let _ = Problem.add_var ~lo:0.0 ~up:1.0 ~obj:0.5 p in
  let _ = Problem.add_var ~lo:0.0 ~up:1.0 ~obj:0.6 p in
  let _ = Problem.add_var ~lo:0.0 ~up:1.0 ~obj:0.7 p in
  let _ = Problem.add_var ~lo:0.0 ~up:infinity ~obj:1.0 p in
  let eng = Simplex.of_problem p in
  Alcotest.(check bool) "initial optimal" true (Simplex.solve eng = Status.Optimal);
  (* covering row far beyond the boxed ranges: x0..x2 flip to their
     upper bounds (gain 1 each < infeasibility 50), x3 enters *)
  Simplex.add_rows eng
    [ (50.0, infinity, [ (0, 1.0); (1, 1.0); (2, 1.0); (3, 1.0) ]) ];
  Alcotest.(check bool) "reoptimised" true (Simplex.solve eng = Status.Optimal);
  if not (approx ~eps:1e-9 (Simplex.objective eng) 48.8) then
    Alcotest.failf "objective %.12g, expected 48.8" (Simplex.objective eng);
  let flips = (Simplex.stats eng).Simplex.bound_flips in
  if flips = 0 then Alcotest.fail "no dual bound flip fired"

(* ------------------------------------------------------------------ *)
(* EBF warm start: equivalence and uptake                             *)
(* ------------------------------------------------------------------ *)

(* Warm lazy EBF (the default: appended rows extend the live
   factorisation) against the tableau oracle on the LP it solved
   ([r.Ebf.lp]), certified a posteriori.

   Why the lazy LP is enough. It has the columns, bounds, objective and
   delay rows of the full formulation and a subset of its Steiner rows,
   so it is a relaxation: its feasible set contains the full one.
   - Lazy infeasible implies full infeasible.
   - Let x be the lazy optimum. If x also satisfies every Steiner and
     delay row of the full LP ([Ebf.check_lengths] checks all
     binom(t,2) pairs), then x is full feasible, and no full-feasible
     point costs less than the lazy optimum. So c x is the full optimum.
   The oracle pins the lazy verdict and optimum; [check_lengths] lifts
   them to the full LP. Case 5 (27 sinks) keeps the oracle on the
   complete formulation as well, as an anchor for the argument. *)
let test_ebf_warm_start_equivalence () =
  let rng = Prng.create 61803 in
  let extensions = ref 0 in
  for case = 1 to 10 do
    (* 25+ sinks: small instances converge in one round (the seeded
       rows already cover them), so no border extension would happen *)
    let inst, tree =
      Lp_gen.random_ebf ~infeasible:(case mod 6 = 0) ~min_sinks:25
        ~sink_span:30 rng
    in
    let warm =
      Ebf.solve
        ~options:{ Ebf.default_options with Ebf.check = Certify.Full }
        inst tree
    in
    let check_oracle what (oracle : Status.solution) =
      if warm.Ebf.status <> oracle.Status.status then
        Alcotest.failf "case %d: status %s vs %s oracle %s" case
          (Status.to_string warm.Ebf.status)
          what
          (Status.to_string oracle.Status.status);
      if
        oracle.Status.status = Status.Optimal
        && not (approx ~eps:1e-7 warm.Ebf.objective oracle.Status.objective)
      then
        Alcotest.failf "case %d: %.12g vs %s oracle %.12g" case
          warm.Ebf.objective what oracle.Status.objective
    in
    let lp = Lazy.force warm.Ebf.lp in
    if Problem.nrows lp <> warm.Ebf.lp_rows then
      Alcotest.failf "case %d: lazy LP has %d rows, the engine %d" case
        (Problem.nrows lp) warm.Ebf.lp_rows;
    check_oracle "lazy" (Tableau.solve lp);
    if case = 5 then check_oracle "full" (Tableau.solve (Ebf.formulate inst tree));
    if warm.Ebf.status = Status.Optimal then begin
      (match Ebf.check_lengths inst tree warm.Ebf.lengths with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "case %d: lazy optimum not full feasible: %s" case msg);
      match warm.Ebf.certificate with
      | Some r when r.Certify.ok -> ()
      | Some r ->
        Alcotest.failf "case %d: certifier rejected: %s" case
          (match r.Certify.failure with Some m -> m | None -> "?")
      | None -> Alcotest.failf "case %d: optimal solve without a certificate" case
    end;
    extensions :=
      !extensions + warm.Ebf.lp_stats.Simplex.basis_extensions
  done;
  if !extensions = 0 then
    Alcotest.fail "warm start absorbed no rows across the sweep"

(* ------------------------------------------------------------------ *)
(* Fault injection through the recovery ladder                         *)
(* ------------------------------------------------------------------ *)

(* The fast path must coexist with the resilience layer: with
   deterministic faults injected into the sparse engine, the recovery
   ladder still produces the oracle's verdict. *)
let test_fastpath_under_faults () =
  let rng = Prng.create 8087 in
  for case = 1 to 25 do
    let p = Lp_gen.random_problem rng in
    let oracle = Tableau.solve p in
    let params =
      {
        Simplex.default_params with
        Simplex.fault = Some (Simplex.fault_plan (1000 + case));
      }
    in
    let sol = Solver.solve ~params p in
    (match (oracle.Status.status, sol.Status.status) with
    | Status.Optimal, Status.Optimal ->
      if not (approx ~eps:1e-7 sol.Status.objective oracle.Status.objective)
      then
        Alcotest.failf "case %d: objective %.12g vs oracle %.12g under faults"
          case sol.Status.objective oracle.Status.objective
    | sa, sb when sa = sb -> ()
    | sa, sb ->
      Alcotest.failf "case %d: status %s vs oracle %s under faults" case
        (Status.to_string sb) (Status.to_string sa))
  done

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "lp_fastpath"
    [
      ( "equivalence",
        [
          ("corpus 50-instance five-way sweep", `Slow, test_corpus_equivalence);
          qt ~long:false qcheck_fresh_equivalence;
        ] );
      ( "certified",
        [
          ("constructed optimum, all configs", `Slow, test_certified_optimum);
          qt ~long:false qcheck_certified_fresh;
        ] );
      ( "fastpath",
        [
          ("bound flips fire", `Quick, test_bound_flips_fire);
          ( "EBF warm start equivalence + uptake",
            `Slow,
            test_ebf_warm_start_equivalence );
          ("sparse engine under injected faults", `Quick, test_fastpath_under_faults);
        ] );
    ]
