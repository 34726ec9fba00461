module Json = Lubt_obs.Json

type verdict = Regression | Improvement | Unchanged

type entry_delta = {
  d_name : string;
  d_old_ms : float;
  d_new_ms : float;
  d_ratio : float;
  d_verdict : verdict;
  d_counters : (string * float * float) list;
}

type report = {
  r_threshold : float;
  r_abs_floor_ms : float;
  r_slo_threshold : float;
  r_slo_floor_ms : float;
  r_deltas : entry_delta list;
  r_only_old : string list;
  r_only_new : string list;
}

(* the solver's run time is wall-clock noise; every other solver member
   is a deterministic pivot-trajectory counter *)
let noisy_counter name = name = "dual_ms"

let has_suffix name s =
  let nl = String.length name and sl = String.length s in
  nl >= sl && String.sub name (nl - sl) sl = s

(* Count- and rate-valued benchmarks (serve_retries_count,
   serve_cache_hit_rate, ...) ride in the [ms_per_run] slot but are
   workload statistics, not timings: their drift is worth reporting,
   but gating on them would fail CI whenever the load mix shifts —
   e.g. a cold CI cache lowering the hit rate. *)
let counter_entry name = has_suffix name "_count" || has_suffix name "_rate"

(* Latency-quantile entries (serve_latency_p95, ...) are SLO entries:
   tail latencies are real service contracts but far noisier than
   steady-state ms/run, so they gate under their own wider threshold
   and higher absolute floor. *)
let slo_entry name =
  has_suffix name "_p50" || has_suffix name "_p95" || has_suffix name "_p99"

let ( let* ) = Result.bind

let err_ctx file = Result.map_error (fun e -> file ^ ": " ^ e)

let get file what conv j =
  match Option.bind (Json.member what j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or mistyped %S member" file what)

(* The writer serialises non-finite floats as [null] (JSON has no
   inf/nan literals), and rate entries are legitimately nan when the
   statistic is unobservable — e.g. the warm-start hit rate against an
   external daemon. Read them back as nan; the non-finite-delta guard
   in [compare] keeps them out of every verdict. *)
let num_or_null j =
  match Json.num j with
  | Some _ as v -> v
  | None -> if j = Json.Null then Some nan else None

(* one benchmark entry -> (name, ms_per_run, flat counter list) *)
let parse_entry file j =
  let* name = get file "name" Json.str j in
  let* ms = get file "ms_per_run" num_or_null j in
  let counters =
    match Json.member "solver" j with
    | Some (Json.Obj fields) ->
      List.concat_map
        (fun (k, v) ->
          match v with
          | Json.Num n when not (noisy_counter k) -> [ (k, n) ]
          | Json.Obj nested ->
            List.filter_map
              (fun (nk, nv) ->
                match nv with
                | Json.Num n -> Some (k ^ "." ^ nk, n)
                | _ -> None)
              nested
          | _ -> [])
        fields
    | _ -> []
  in
  Ok (name, ms, counters)

let parse_bench file s =
  let* j = err_ctx file (Json.parse s) in
  let* schema = get file "schema" Json.str j in
  if not (String.length schema >= 11 && String.sub schema 0 11 = "lubt-bench/")
  then Error (file ^ ": not a lubt-bench file (schema " ^ schema ^ ")")
  else
    let* entries = get file "benchmarks" Json.arr j in
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | e :: rest ->
        let* p = parse_entry file e in
        collect (p :: acc) rest
    in
    collect [] entries

let diff_counters old_cs new_cs =
  List.filter_map
    (fun (k, ov) ->
      match List.assoc_opt k new_cs with
      | Some nv when nv <> ov -> Some (k, ov, nv)
      | _ -> None)
    old_cs

let compare ?(threshold = 0.10) ?(abs_floor_ms = 0.05) ?(slo_threshold = 0.50)
    ?(slo_floor_ms = 1.0) old_json new_json =
  let* old_entries = parse_bench "old" old_json in
  let* new_entries = parse_bench "new" new_json in
  let find name entries =
    List.find_opt (fun (n, _, _) -> n = name) entries
  in
  let deltas =
    List.filter_map
      (fun (name, old_ms, old_cs) ->
        match find name new_entries with
        | None -> None
        | Some (_, new_ms, new_cs) ->
          let ratio = new_ms /. old_ms in
          let delta = new_ms -. old_ms in
          (* The ratio gate alone misfires on degenerate baselines: a
             zero or sub-microsecond old entry (fast machine, tiny
             instance, failed OLS fit) turns picosecond jitter into an
             inf/nan or a huge finite ratio. The absolute-delta floor
             clamps those: a change smaller than [abs_floor_ms] is
             never a verdict, and when the baseline is zero (ratio
             meaningless) the sign of the delta alone decides. *)
          let verdict =
            (* SLO entries gate like timings, under their own wider
               threshold and higher floor *)
            let threshold, abs_floor_ms =
              if slo_entry name then (slo_threshold, slo_floor_ms)
              else (threshold, abs_floor_ms)
            in
            if counter_entry name then Unchanged
            else if not (Float.is_finite delta) then Unchanged
            else if Float.abs delta <= abs_floor_ms then Unchanged
            else if old_ms <= 0.0 || not (Float.is_finite ratio) then
              if delta > 0.0 then Regression else Improvement
            else if ratio > 1.0 +. threshold then Regression
            else if ratio < 1.0 -. threshold then Improvement
            else Unchanged
          in
          Some
            {
              d_name = name;
              d_old_ms = old_ms;
              d_new_ms = new_ms;
              d_ratio = ratio;
              d_verdict = verdict;
              d_counters = diff_counters old_cs new_cs;
            })
      old_entries
  in
  let names entries = List.map (fun (n, _, _) -> n) entries in
  let only_old =
    List.filter (fun n -> find n new_entries = None) (names old_entries)
  in
  let only_new =
    List.filter (fun n -> find n old_entries = None) (names new_entries)
  in
  Ok
    {
      r_threshold = threshold;
      r_abs_floor_ms = abs_floor_ms;
      r_slo_threshold = slo_threshold;
      r_slo_floor_ms = slo_floor_ms;
      r_deltas = deltas;
      r_only_old = only_old;
      r_only_new = only_new;
    }

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error e -> Error e

let compare_files ?threshold ?abs_floor_ms ?slo_threshold ?slo_floor_ms
    old_path new_path =
  let* old_json = read_file old_path in
  let* new_json = read_file new_path in
  compare ?threshold ?abs_floor_ms ?slo_threshold ?slo_floor_ms old_json
    new_json

let regressions r =
  List.filter (fun d -> d.d_verdict = Regression) r.r_deltas

let has_regression r = regressions r <> [] || r.r_only_old <> []

let verdict_tag = function
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | Unchanged -> ""

let print oc r =
  Printf.fprintf oc
    "bench diff (threshold %.1f%%, floor %.3f ms; SLO threshold %.1f%%, \
     floor %.3f ms): %d benchmarks compared\n"
    (r.r_threshold *. 100.0) r.r_abs_floor_ms
    (r.r_slo_threshold *. 100.0) r.r_slo_floor_ms
    (List.length r.r_deltas);
  List.iter
    (fun d ->
      let pct =
        if Float.is_finite d.d_ratio then
          Printf.sprintf "%+7.1f%%" ((d.d_ratio -. 1.0) *. 100.0)
        else Printf.sprintf "%+.3f ms" (d.d_new_ms -. d.d_old_ms)
      in
      let tag =
        if counter_entry d.d_name then
          if
            d.d_old_ms <> d.d_new_ms
            && not (Float.is_nan d.d_old_ms && Float.is_nan d.d_new_ms)
          then "drift (not gated)"
          else ""
        else if slo_entry d.d_name then
          match d.d_verdict with
          | Regression -> "SLO REGRESSION"
          | Improvement -> "SLO improvement"
          | Unchanged -> ""
        else verdict_tag d.d_verdict
      in
      Printf.fprintf oc "%-40s %10.3f -> %10.3f ms/run  %s  %s\n"
        d.d_name d.d_old_ms d.d_new_ms pct tag;
      List.iter
        (fun (k, ov, nv) ->
          Printf.fprintf oc "    counter %-32s %.0f -> %.0f\n" k ov nv)
        d.d_counters)
    r.r_deltas;
  List.iter
    (fun n -> Printf.fprintf oc "%-40s MISSING from new run\n" n)
    r.r_only_old;
  List.iter
    (fun n -> Printf.fprintf oc "%-40s only in new run\n" n)
    r.r_only_new;
  let regs = List.length (regressions r) in
  if has_regression r then
    Printf.fprintf oc "verdict: %d regression(s)%s\n" regs
      (if r.r_only_old <> [] then
         Printf.sprintf ", %d benchmark(s) lost" (List.length r.r_only_old)
       else "")
  else Printf.fprintf oc "verdict: ok\n"
