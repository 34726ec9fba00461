module Benchmarks = Lubt_data.Benchmarks
module Bst_dme = Lubt_bst.Bst_dme
module Instance = Lubt_core.Instance
module Ebf = Lubt_core.Ebf
module Simplex = Lubt_lp.Simplex
module Status = Lubt_lp.Status

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

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no inf/nan literals *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let recoveries_json (r : Simplex.recoveries) =
  Printf.sprintf
    "{\"refactor_retries\": %d, \"tolerance_escalations\": %d, \
     \"perturbed_resolves\": %d, \"faults_injected\": %d, \
     \"validations_rejected\": %d}"
    r.Simplex.refactor_retries r.Simplex.tolerance_escalations
    r.Simplex.perturbed_resolves r.Simplex.faults_injected
    r.Simplex.validations_rejected

let solver_stats_json (s : Simplex.stats) =
  Printf.sprintf
    "{\"iterations\": %d, \"bound_flips\": %d, \"ftran_count\": %d, \
     \"btran_count\": %d, \"basis_updates\": %d, \
     \"basis_extensions\": %d, \"refactorisations\": %d, \
     \"factor_nnz\": %d, \"basis_nnz\": %d, \"dual_ms\": %s, \
     \"recoveries\": %s}"
    s.Simplex.iterations s.Simplex.bound_flips
    s.Simplex.ftran_count s.Simplex.btran_count s.Simplex.basis_updates
    s.Simplex.basis_extensions s.Simplex.refactorisations
    s.Simplex.factor_nnz s.Simplex.basis_nnz
    (json_float (s.Simplex.dual_seconds *. 1e3))
    (recoveries_json s.Simplex.recoveries)

let round_stat_json (r : Ebf.round_stat) =
  Printf.sprintf
    "{\"round\": %d, \"rows_added\": %d, \"violations_found\": %d, \
     \"scan_ms\": %s, \"append_ms\": %s, \"solve_ms\": %s, \
     \"solve_pivots\": %d}"
    r.Ebf.round r.Ebf.rows_added r.Ebf.violations_found
    (json_float (r.Ebf.scan_seconds *. 1e3))
    (json_float (r.Ebf.append_seconds *. 1e3))
    (json_float (r.Ebf.solve_seconds *. 1e3))
    r.Ebf.solve_pivots

let ebf_result_json (e : Ebf.result) =
  Printf.sprintf
    "{\"status\": \"%s\", \"objective\": %s, \"lp_rows\": %d, \
     \"full_rows\": %d, \"lp_iterations\": %d, \"rounds\": %d, \
     \"cache\": \"%s\", \"round_stats\": [%s]}"
    (json_escape (Status.to_string e.Ebf.status))
    (json_float e.Ebf.objective) e.Ebf.lp_rows e.Ebf.full_rows
    e.Ebf.lp_iterations e.Ebf.rounds
    (json_escape (Ebf.cache_outcome_name e.Ebf.cache_outcome))
    (String.concat ", " (List.map round_stat_json e.Ebf.round_stats))

let bench_entry_json e =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\": \"%s\", \"ms_per_run\": %s"
       (json_escape e.bench_name)
       (json_float e.ms_per_run));
  (match e.solver with
  | Some s -> Buffer.add_string buf (", \"solver\": " ^ solver_stats_json s)
  | None -> ());
  (match e.ebf_result with
  | Some r -> Buffer.add_string buf (", \"ebf\": " ^ ebf_result_json r)
  | None -> ());
  Buffer.add_char buf '}';
  Buffer.contents buf

type scaling_point = {
  sc_jobs : int;
  sc_wall_s : float;
  sc_speedup : float;
  sc_instances : int;
}

let scaling_point_json p =
  Printf.sprintf
    "{\"jobs\": %d, \"wall_s\": %s, \"speedup\": %s, \"instances\": %d}"
    p.sc_jobs (json_float p.sc_wall_s) (json_float p.sc_speedup) p.sc_instances

let bench_json ?(jobs = 1) ?(scaling = []) ?(scaling_skipped = false) ~size
    entries =
  let scaling_field =
    (* an explicitly-skipped sweep is recorded, not omitted, so a
       consumer can tell "not measured" from "measured empty" *)
    if scaling_skipped then ",\n  \"scaling\": [],\n  \"scaling_skipped\": true"
    else
      match scaling with
      | [] -> ""
      | points ->
        Printf.sprintf ",\n  \"scaling\": [\n    %s\n  ]"
          (String.concat ",\n    " (List.map scaling_point_json points))
  in
  Printf.sprintf
    "{\n  \"schema\": \"lubt-bench/4\",\n  \"size\": \"%s\",\n  \
     \"jobs\": %d,\n  \"cores\": %d,\n  \
     \"benchmarks\": [\n    %s\n  ]%s\n}\n"
    (json_escape size) jobs
    (Lubt_util.Pool.default_jobs ())
    (String.concat ",\n    " (List.map bench_entry_json entries))
    scaling_field
