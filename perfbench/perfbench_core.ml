(* Pure pieces of the LUBT benchmark: run statistics, the due-time
   latency rule, reply parsing and the correctness checks, span
   accounting, and the summary line every run ends with. Nothing here
   reads a clock or runs a solver, so the test suite pins it directly. *)

module Json = Lubt_obs.Json
module Trace = Lubt_obs.Trace

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* nearest rank, the definition the rest of the repository uses *)
let percentile a p = Lubt_util.Stats.percentile (sorted a) p

let median a = percentile a 50.0

let mean a =
  if Array.length a = 0 then 0.0
  else Lubt_util.Stats.sum a /. float_of_int (Array.length a)

type tail = {
  tl_percentile : float;  (** which percentile [tl_value] is *)
  tl_value : float;
  tl_beyond : int;  (** samples above it *)
  tl_count : int;  (** samples in the run *)
}

(* The tail a run of [n] samples supports: p95 from 200 samples on;
   below that, the highest nearest-rank percentile that still leaves
   ten samples above it, but never less than the median. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  let at rank p =
    { tl_percentile = p; tl_value = s.(rank - 1); tl_beyond = n - rank;
      tl_count = n }
  in
  if n = 0 then
    { tl_percentile = nan; tl_value = nan; tl_beyond = 0; tl_count = 0 }
  else if n >= 200 then
    at (int_of_float (Float.ceil (0.95 *. float_of_int n))) 95.0
  else if n - 10 > (n + 1) / 2 then
    at (n - 10) (100.0 *. float_of_int (n - 10) /. float_of_int n)
  else at ((n + 1) / 2) 50.0

(* ------------------------------------------------------------------ *)
(* Request timing                                                      *)
(* ------------------------------------------------------------------ *)

type timing = {
  due : float;  (** when the schedule said to send; a closed loop's send *)
  sent : float;
  replied : float;  (** when the reply line was read *)
}

(* Latency counts from the due time, so a generator stall is charged to
   every request it delayed instead of being hidden. *)
let latency_ms t = (t.replied -. t.due) *. 1e3

let lag_ms t = (t.sent -. t.due) *. 1e3

(* The generator fell behind when its p99 send lag exceeds a tenth of
   the interval between requests. *)
let fell_behind ~interval_s lags_ms =
  Array.length lags_ms > 0 && percentile lags_ms 99.0 > 100.0 *. interval_s

(* ------------------------------------------------------------------ *)
(* Correctness checks                                                  *)
(* ------------------------------------------------------------------ *)

(* Objectives are compared to 1e-9 relative: the same code solves the
   same LP bit for bit, and the slack only absorbs the decimal round
   trip of a recorded value and the last bits of a warm re-solve. *)
let same_cost a b =
  Float.is_finite a && Float.is_finite b
  && Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let check_objective ~reference got =
  if same_cost got reference then Ok ()
  else
    Error
      (Printf.sprintf "objective %.17g differs from the reference %.17g" got
         reference)

(* The reference file: "<bench> <sink-field seed> <objective>" per line;
   blank lines and '#' comments are skipped. *)
let reference_of_string text =
  let tbl = Hashtbl.create 64 in
  let rec go lineno = function
    | [] -> Ok tbl
    | line :: rest -> (
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go (lineno + 1) rest
      else
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | [ bench; seed; objective ] -> (
          match (int_of_string_opt seed, float_of_string_opt objective) with
          | Some seed, Some objective ->
            Hashtbl.replace tbl (bench, seed) objective;
            go (lineno + 1) rest
          | _ -> Error (Printf.sprintf "line %d: bad seed or objective" lineno))
        | _ ->
          Error
            (Printf.sprintf "line %d: expected <bench> <seed> <objective>"
               lineno))
  in
  go 1 (String.split_on_char '\n' text)

let reference_to_string entries =
  String.concat ""
    (List.map
       (fun ((bench, seed), objective) ->
         Printf.sprintf "%s %d %.17g\n" bench seed objective)
       entries)

(* Solver work of one answer, summed over its row-generation rounds. *)
type counts = {
  iterations : float;
  solve_ms : float;  (** wall time of the rounds' LP (re-)solves *)
  refactorisations : float;
  ftran : float;
  btran : float;
  recoveries : float;  (** recovery-ladder stages applied *)
  rounds : float;
  lp_rows : float;
  full_rows : float;
  scan_ms : float;  (** wall time of the rounds' violation scans *)
}

let zero_counts =
  { iterations = 0.0; solve_ms = 0.0; refactorisations = 0.0; ftran = 0.0;
    btran = 0.0; recoveries = 0.0; rounds = 0.0; lp_rows = 0.0;
    full_rows = 0.0; scan_ms = 0.0 }

let mean_counts l =
  let n = float_of_int (max 1 (List.length l)) in
  let avg f = List.fold_left (fun acc c -> acc +. f c) 0.0 l /. n in
  {
    iterations = avg (fun c -> c.iterations);
    solve_ms = avg (fun c -> c.solve_ms);
    refactorisations = avg (fun c -> c.refactorisations);
    ftran = avg (fun c -> c.ftran);
    btran = avg (fun c -> c.btran);
    recoveries = avg (fun c -> c.recoveries);
    rounds = avg (fun c -> c.rounds);
    lp_rows = avg (fun c -> c.lp_rows);
    full_rows = avg (fun c -> c.full_rows);
    scan_ms = avg (fun c -> c.scan_ms);
  }

(* One daemon reply, as far as the benchmark reads it. *)
type reply = {
  r_id : string;
  r_ok : bool;
  r_error : string;  (** error code; [""] on success *)
  r_certified : bool;
  r_validated : bool;
  r_cost : float;  (** [nan] when absent *)
  r_cache : string;  (** [ebf.cache]: off, miss, exact, parent or rejected *)
  r_counts : counts;
}

(* The id of a reply line, read without parsing the whole reply: the
   daemon writes the id member first. *)
let reply_id line =
  let prefix = "{\"id\": \"" in
  let n = String.length prefix in
  if String.length line > n && String.sub line 0 n = prefix then
    match String.index_from_opt line n '"' with
    | Some j -> Some (String.sub line n (j - n))
    | None -> None
  else None

let parse_reply line =
  match Json.parse line with
  | Error e -> Error ("reply is not JSON: " ^ e)
  | Ok j ->
    let get path =
      List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j)
        path
    in
    let num ?(default = 0.0) path =
      Option.value ~default (Option.bind (get path) Json.num)
    in
    let str path = Option.value ~default:"" (Option.bind (get path) Json.str) in
    let flag path = get path = Some (Json.Bool true) in
    let over_rounds key =
      match Option.bind (get [ "ebf"; "round_stats" ]) Json.arr with
      | Some rounds ->
        List.fold_left
          (fun acc r ->
            acc
            +. Option.value ~default:0.0 (Option.bind (Json.member key r) Json.num))
          0.0 rounds
      | None -> 0.0
    in
    let recoveries =
      List.fold_left
        (fun acc k -> acc +. num [ "solver"; "recoveries"; k ])
        0.0
        [ "refactor_retries"; "backend_switches"; "tolerance_escalations";
          "perturbed_resolves"; "tableau_fallbacks" ]
    in
    Ok
      {
        r_id =
          (match get [ "id" ] with
          | Some (Json.Str s) -> s
          | Some v -> Json.to_string v
          | None -> "");
        r_ok = flag [ "ok" ];
        r_error = str [ "error"; "code" ];
        r_certified = flag [ "certified" ];
        r_validated = flag [ "validated" ];
        r_cost = num ~default:nan [ "cost" ];
        r_cache = str [ "ebf"; "cache" ];
        r_counts =
          {
            iterations = num [ "solver"; "iterations" ];
            solve_ms = over_rounds "solve_ms";
            refactorisations = num [ "solver"; "refactorisations" ];
            ftran = num [ "solver"; "ftran_count" ];
            btran = num [ "solver"; "btran_count" ];
            recoveries;
            rounds = num [ "ebf"; "rounds" ];
            lp_rows = num [ "ebf"; "lp_rows" ];
            full_rows = num [ "ebf"; "full_rows" ];
            scan_ms = over_rounds "scan_ms";
          };
      }

(* A reply passes when it is ok, certified and validated, its cache
   outcome is one the workload expects, and its cost equals the cost of
   the same line replayed in process. *)
let check_reply ~cache_ok ~expect_cost r =
  if not r.r_ok then Error (Printf.sprintf "%s: error %s" r.r_id r.r_error)
  else if not r.r_certified then Error (r.r_id ^ ": uncertified")
  else if not r.r_validated then Error (r.r_id ^ ": not validated")
  else if not (List.mem r.r_cache cache_ok) then
    Error (Printf.sprintf "%s: cache outcome %S" r.r_id r.r_cache)
  else if not (same_cost r.r_cost expect_cost) then
    Error
      (Printf.sprintf "%s: cost %.17g, in-process replay %.17g" r.r_id r.r_cost
         expect_cost)
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_name : string;
  sp_item : int;  (** spans of one item share this id *)
  sp_track : int;
  sp_parent : string option;  (** the span of the same item that caused it *)
  sp_t0 : float;  (** clock seconds *)
  sp_t1 : float;
}

let duration s = s.sp_t1 -. s.sp_t0

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None)
      (List.sort compare clipped)
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* A span's self time: its duration minus what its children cover.
   [kin] holds the spans of the same item and track. *)
let self_time kin s =
  let kids =
    List.filter_map
      (fun c ->
        if c.sp_parent = Some s.sp_name then Some (c.sp_t0, c.sp_t1) else None)
      kin
  in
  duration s -. covered ~lo:s.sp_t0 ~hi:s.sp_t1 kids

let kin_of spans =
  let by_item = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add by_item (s.sp_item, s.sp_track) s) spans;
  fun s -> Hashtbl.find_all by_item (s.sp_item, s.sp_track)

(* Self time summed per span name, in seconds, sorted by name. *)
let self_times spans =
  let kin = kin_of spans in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals s.sp_name) in
      Hashtbl.replace totals s.sp_name (prev +. self_time (kin s) s))
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])

(* The share of the root spans' time that no child span covers, after
   taking out [modelled] seconds of work that ran where no span of the
   benchmark could see it (a daemon's execute time, measured by an
   in-process replay instead). *)
let residual_frac ?(modelled = 0.0) spans =
  let kin = kin_of spans in
  let roots = List.filter (fun s -> s.sp_parent = None) spans in
  let total = List.fold_left (fun acc s -> acc +. duration s) 0.0 roots in
  let self = List.fold_left (fun acc s -> acc +. self_time (kin s) s) 0.0 roots in
  if total > 0.0 then (self -. modelled) /. total else 0.0

let trace_events spans =
  List.map
    (fun s ->
      {
        Trace.name = s.sp_name;
        kind = Trace.Span (duration s);
        ts = s.sp_t0;
        tid = s.sp_track;
        args = [ ("item", Trace.Int s.sp_item) ];
      })
    spans

(* ------------------------------------------------------------------ *)
(* Metrics and the summary line                                        *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_unit : string; m_value : float }

let metric m_name m_unit m_value = { m_name; m_unit; m_value }

let end_to_end_metrics ~setup_s ~throughput ~p50 ~tail =
  [
    metric "setup_s" "s" setup_s;
    metric "throughput_per_s" "1/s" throughput;
    metric "latency_ms_p50" "ms" p50;
    metric "latency_ms_tail" "ms" tail;
  ]

(* Per-layer figures of one traced run. Times and counts are per item
   (an instance, or a request) unless the name says otherwise. *)
type layers = {
  bst_calls : float;
  bst_busy_ms : float;
  simplex : counts;
  ebf_build_ms : float;
  certify_busy_ms : float;
  embed_busy_ms : float;
  cache_lookups : float;
  cache_stores : float;
  cache_hit_ratio : float;
  cache_rejects : float;  (** whole run *)
  serve_execute_ms : float;
  serve_render_ms : float;
  serve_wait_ms : float;
  client_lag_ms_p99 : float;
  trace_residual_frac : float;
  trace_overhead_frac : float;
}

let no_layers =
  { bst_calls = 0.0; bst_busy_ms = 0.0; simplex = zero_counts;
    ebf_build_ms = 0.0; certify_busy_ms = 0.0; embed_busy_ms = 0.0;
    cache_lookups = 0.0; cache_stores = 0.0; cache_hit_ratio = 0.0;
    cache_rejects = 0.0; serve_execute_ms = 0.0; serve_render_ms = 0.0;
    serve_wait_ms = 0.0; client_lag_ms_p99 = 0.0; trace_residual_frac = 0.0;
    trace_overhead_frac = 0.0 }

let layer_metrics l =
  let c = l.simplex in
  [
    metric "bst.calls" "count/item" l.bst_calls;
    metric "bst.busy_ms" "ms/item" l.bst_busy_ms;
    metric "simplex.iterations" "count/item" c.iterations;
    metric "simplex.solve_ms" "ms/item" c.solve_ms;
    metric "simplex.refactorisations" "count/item" c.refactorisations;
    metric "simplex.ftran" "count/item" c.ftran;
    metric "simplex.btran" "count/item" c.btran;
    metric "simplex.recoveries" "count/item" c.recoveries;
    metric "ebf.rounds" "count/item" c.rounds;
    metric "ebf.rows_ratio" "ratio"
      (if c.full_rows > 0.0 then c.lp_rows /. c.full_rows else 0.0);
    metric "ebf.scan_ms" "ms/item" c.scan_ms;
    metric "ebf.build_ms" "ms/item" l.ebf_build_ms;
    metric "certify.busy_ms" "ms/item" l.certify_busy_ms;
    metric "embed.busy_ms" "ms/item" l.embed_busy_ms;
    metric "cache.lookups" "count/item" l.cache_lookups;
    metric "cache.stores" "count/item" l.cache_stores;
    metric "cache.hit_ratio" "ratio" l.cache_hit_ratio;
    metric "cache.rejects" "count" l.cache_rejects;
    metric "serve.execute_ms" "ms/item" l.serve_execute_ms;
    metric "serve.render_ms" "ms/item" l.serve_render_ms;
    metric "serve.wait_ms" "ms/item" l.serve_wait_ms;
    metric "client.lag_ms_p99" "ms" l.client_lag_ms_p99;
    metric "trace.residual_frac" "ratio" l.trace_residual_frac;
    metric "trace.overhead_frac" "ratio" l.trace_overhead_frac;
  ]

(* JSON has no inf or nan; a metric the run could not measure (no item
   passed) renders as 0 in a summary that already says correct: false. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let summary_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
              (json_number m.m_value) m.m_unit)
          metrics))

let metric_line m = Printf.sprintf "%-26s %18.6f %s" m.m_name m.m_value m.m_unit
