module Benchmarks = Lubt_data.Benchmarks
module Bst_dme = Lubt_bst.Bst_dme
module Instance = Lubt_core.Instance
module Ebf = Lubt_core.Ebf
module Simplex = Lubt_lp.Simplex
module Status = Lubt_lp.Status
module Json = Lubt_obs.Json

type baseline_run = {
  spec : Benchmarks.spec;
  radius : float;
  skew_rel : float;
  bst : Bst_dme.result;
  shortest_rel : float;
  longest_rel : float;
  bst_seconds : float;
}

type lubt_run = {
  lower_rel : float;
  upper_rel : float;
  cost : float;
  ebf : Ebf.result;
  lubt_seconds : float;
}

let time f =
  let t0 = Lubt_obs.Clock.now () in
  let v = f () in
  (v, Lubt_obs.Clock.now () -. t0)

let run_baseline spec ~skew_rel =
  let sinks = Benchmarks.sinks spec in
  let source = Benchmarks.source spec in
  let inst0 =
    Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:infinity ()
  in
  let radius = Instance.radius inst0 in
  let bound = if skew_rel = infinity then infinity else skew_rel *. radius in
  let bst, bst_seconds =
    time (fun () -> Bst_dme.route ~skew_bound:bound ~source sinks)
  in
  {
    spec;
    radius;
    skew_rel;
    bst;
    shortest_rel = bst.Bst_dme.dmin /. radius;
    longest_rel = bst.Bst_dme.dmax /. radius;
    bst_seconds;
  }

let baseline_topology (inst : Instance.t) =
  let lo, _ = Lubt_util.Stats.min_max inst.Instance.lower in
  let _, hi = Lubt_util.Stats.min_max inst.Instance.upper in
  let bound = if hi = infinity then infinity else max 0.0 (hi -. lo) in
  (Bst_dme.route ~skew_bound:bound ?source:inst.Instance.source
     inst.Instance.sinks)
    .Bst_dme.topology

let achieved_window (b : baseline_run) =
  if b.skew_rel = infinity then (0.0, infinity)
  else (b.shortest_rel, b.longest_rel)

let window_instance (b : baseline_run) ~lower_rel ~upper_rel =
  let inst0 = b.bst.Bst_dme.routed.Lubt_core.Routed.instance in
  let m = Instance.num_sinks inst0 in
  let lower = Array.make m (lower_rel *. b.radius) in
  let upper =
    Array.make m
      (if upper_rel = infinity then infinity else upper_rel *. b.radius)
  in
  Instance.with_bounds inst0 ~lower ~upper

let run_lubt ?options (b : baseline_run) ~lower_rel ~upper_rel =
  let inst = window_instance b ~lower_rel ~upper_rel in
  let ebf, lubt_seconds =
    time (fun () -> Ebf.solve ?options inst b.bst.Bst_dme.topology)
  in
  if ebf.Ebf.status <> Status.Optimal then
    failwith
      (Printf.sprintf "LUBT LP on %s [%g, %g] returned %s" b.spec.Benchmarks.name
         lower_rel upper_rel
         (Status.to_string ebf.Ebf.status));
  {
    lower_rel;
    upper_rel;
    cost = ebf.Ebf.objective;
    ebf;
    lubt_seconds;
  }

let run_lubt_from_baseline ?options (b : baseline_run) =
  let lower_rel, upper_rel = achieved_window b in
  run_lubt ?options b ~lower_rel ~upper_rel

(* ------------------------------------------------------------------ *)
(* Machine-readable benchmark records (BENCH_lp.json)                   *)
(* ------------------------------------------------------------------ *)

type bench_entry = {
  bench_name : string;
  ms_per_run : float;
  solver : Simplex.stats option;
  ebf_result : Ebf.result option;
}

let recoveries_json (r : Simplex.recoveries) =
  Json.Obj
    [ ("refactor_retries", Json.int r.Simplex.refactor_retries);
      ("tolerance_escalations", Json.int r.Simplex.tolerance_escalations);
      ("perturbed_resolves", Json.int r.Simplex.perturbed_resolves);
      ("faults_injected", Json.int r.Simplex.faults_injected);
      ("validations_rejected", Json.int r.Simplex.validations_rejected) ]

let solver_stats_json (s : Simplex.stats) =
  Json.Obj
    [ ("iterations", Json.int s.Simplex.iterations);
      ("bound_flips", Json.int s.Simplex.bound_flips);
      ("ftran_count", Json.int s.Simplex.ftran_count);
      ("btran_count", Json.int s.Simplex.btran_count);
      ("basis_updates", Json.int s.Simplex.basis_updates);
      ("basis_extensions", Json.int s.Simplex.basis_extensions);
      ("refactorisations", Json.int s.Simplex.refactorisations);
      ("factor_nnz", Json.int s.Simplex.factor_nnz);
      ("basis_nnz", Json.int s.Simplex.basis_nnz);
      ("dual_ms", Json.Num (s.Simplex.dual_seconds *. 1e3));
      ("recoveries", recoveries_json s.Simplex.recoveries) ]

let round_stat_json (r : Ebf.round_stat) =
  let ms seconds = Json.Num (seconds *. 1e3) in
  Json.Obj
    [ ("round", Json.int r.Ebf.round);
      ("rows_added", Json.int r.Ebf.rows_added);
      ("violations_found", Json.int r.Ebf.violations_found);
      ("scan_ms", ms r.Ebf.scan_seconds);
      ("append_ms", ms r.Ebf.append_seconds);
      ("solve_ms", ms r.Ebf.solve_seconds);
      ("solve_pivots", Json.int r.Ebf.solve_pivots) ]

let ebf_result_json (e : Ebf.result) =
  Json.Obj
    [ ("status", Json.Str (Status.to_string e.Ebf.status));
      ("objective", Json.Num e.Ebf.objective);
      ("lp_rows", Json.int e.Ebf.lp_rows);
      ("full_rows", Json.int e.Ebf.full_rows);
      ("lp_iterations", Json.int e.Ebf.lp_iterations);
      ("rounds", Json.int e.Ebf.rounds);
      ("cache", Json.Str (Ebf.cache_outcome_name e.Ebf.cache_outcome));
      ("round_stats", Json.Arr (List.map round_stat_json e.Ebf.round_stats)) ]

let bench_entry_json e =
  let some name json =
    Option.fold ~none:[] ~some:(fun v -> [ (name, json v) ])
  in
  Json.Obj
    ([ ("name", Json.Str e.bench_name); ("ms_per_run", Json.Num e.ms_per_run) ]
    @ some "solver" solver_stats_json e.solver
    @ some "ebf" ebf_result_json e.ebf_result)

type scaling_point = {
  sc_jobs : int;
  sc_wall_s : float;
  sc_speedup : float;
  sc_instances : int;
}

let scaling_point_json p =
  Json.Obj
    [ ("jobs", Json.int p.sc_jobs); ("wall_s", Json.Num p.sc_wall_s);
      ("speedup", Json.Num p.sc_speedup);
      ("instances", Json.int p.sc_instances) ]

let bench_json ?(jobs = 1) ?(scaling = []) ?(scaling_skipped = false) ~size
    entries =
  let scaling_members =
    (* an explicitly-skipped sweep is recorded, not omitted, so a
       consumer can tell "not measured" from "measured empty" *)
    if scaling_skipped then
      [ ("scaling", Json.Arr []); ("scaling_skipped", Json.Bool true) ]
    else if scaling = [] then []
    else [ ("scaling", Json.Arr (List.map scaling_point_json scaling)) ]
  in
  Json.to_string
    (Json.Obj
       ([ ("schema", Json.Str "lubt-bench/4"); ("size", Json.Str size);
          ("jobs", Json.int jobs);
          ("cores", Json.int (Lubt_util.Pool.default_jobs ()));
          ("benchmarks", Json.Arr (List.map bench_entry_json entries)) ]
       @ scaling_members))
  ^ "\n"
