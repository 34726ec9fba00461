module Instance = Lubt_core.Instance
module Ebf = Lubt_core.Ebf
module Lubt = Lubt_core.Lubt
module Routed = Lubt_core.Routed
module Tree = Lubt_topo.Tree
module Bst = Lubt_bst.Bst_dme
module Benchmarks = Lubt_data.Benchmarks
module Io = Lubt_data.Io
module Status = Lubt_lp.Status
module Certify = Lubt_lp.Certify
module Executor = Lubt_util.Pool.Executor
module Json = Lubt_obs.Json
module Log = Lubt_obs.Log
module Trace = Lubt_obs.Trace
module Clock = Lubt_obs.Clock
module Metrics = Lubt_obs.Metrics
module Prometheus = Lubt_obs.Prometheus

module Basis_cache = Lubt_lp.Basis_cache

(* Request-path metrics, and the daemon's only request accounting:
   [answer] is the one place that counts a response, so
   [lubt_requests_total] is every protocol line answered (rejections
   and parse errors included) and [served] in health and stats is
   requests minus rejections. The latency histogram is one family
   labelled by op; the breaker reads its p95 from the same family. *)
let m_requests =
  Metrics.counter ~help:"Protocol requests answered (any outcome)"
    "lubt_requests_total"

let m_rejected =
  Metrics.counter ~help:"Requests rejected by admission control"
    "lubt_serve_rejected_total"

let m_failed =
  Metrics.counter ~help:"Requests answered with an error"
    "lubt_serve_failed_total"

let m_degraded =
  Metrics.counter ~help:"Requests answered by a degraded ladder rung"
    "lubt_serve_degraded_total"

let m_breaker_trips =
  Metrics.counter ~help:"Circuit-breaker open transitions"
    "lubt_serve_breaker_trips_total"

let m_connections =
  Metrics.counter ~help:"Sessions accepted" "lubt_serve_connections_total"

let m_bytes_in =
  Metrics.counter ~help:"Bytes read from protocol sessions"
    "lubt_serve_bytes_read_total"

let m_bytes_out =
  Metrics.counter ~help:"Bytes written to protocol sessions"
    "lubt_serve_bytes_written_total"

let m_latency op =
  Metrics.histogram ~help:"Request wall time in milliseconds by op"
    ~labels:[ ("op", op) ]
    "lubt_serve_request_latency_ms"

let m_lat_solve = m_latency "solve"
let m_lat_eco = m_latency "eco"
let m_lat_sleep = m_latency "sleep"

type config = {
  socket : string option;
  port : int option;
  host : string;
  jobs : int;
  max_pending : int;
  default_time_limit : float;
  watchdog : float;
  breaker_p95_ms : float;
  breaker_queue : int;
  breaker_cooldown : float;
  chaos : Executor.chaos option;
  cache : Basis_cache.t option;
  metrics_port : int option;
}

let default_config =
  {
    socket = None;
    port = None;
    host = "127.0.0.1";
    jobs = 4;
    max_pending = 64;
    default_time_limit = infinity;
    watchdog = infinity;
    breaker_p95_ms = infinity;
    breaker_queue = 0;
    breaker_cooldown = 1.0;
    chaos = None;
    cache = None;
    metrics_port = None;
  }

type stats = {
  connections : int;
  served : int;
  rejected : int;
  failed : int;
  degraded : int;
  restarts : int;
  watchdog_fires : int;
  breaker_trips : int;
  cache_hits : int;
  cache_misses : int;
}

(* ------------------------------------------------------------------ *)
(* Report rendering (shared with the CLI's solve --json)               *)
(* ------------------------------------------------------------------ *)

let solve_report_fields (report : Lubt.report) ~validated =
  let routed = report.Lubt.routed in
  let ebf = report.Lubt.ebf in
  Printf.sprintf
    "\"cost\": %s, \"validated\": %b, \"certified\": %b, \"ebf\": %s, \
     \"solver\": %s"
    (Protocol.json_float (Routed.cost routed))
    validated
    (match ebf.Ebf.certificate with
    | Some r -> r.Certify.ok
    | None -> false)
    (Protocol.ebf_result_json ebf)
    (Protocol.solver_stats_json ebf.Ebf.lp_stats)

let solve_report_json report ~validated =
  "{" ^ solve_report_fields report ~validated ^ "}"

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type workload =
  | Inline of Instance.t * Tree.t option
  | Bench of Benchmarks.spec * float  (* skew_rel *)

type solve_req = {
  sq_workload : workload;
  sq_eager : bool;
  sq_certify : bool;
  sq_time_limit : float option;
  sq_degrade : bool;
}

type eco_req = { eq_base : solve_req; eq_edits : Instance.Edit.op list }

type op =
  | Ping
  | Metrics_dump  (* registry snapshot as JSON *)
  | Sleep of float  (* seconds *)
  | Solve of solve_req
  | Eco of eco_req

type request = {
  rq_id : string;  (* the id member, rendered back to JSON text *)
  rq_id_text : string;  (* the same, as a short tag for logs/traces *)
  rq_op : op;
}

(* [id] as compact JSON for the response echo, and as a short plain
   string for log/trace context. *)
let id_of_json = function
  | None -> ("null", "-")
  | Some (Json.Str s) -> ("\"" ^ Protocol.json_escape s ^ "\"", s)
  | Some j -> (Json.to_string j, Json.to_string j)

let ( let* ) = Result.bind

let mem_bool ~what ~default j =
  match Json.member what j with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "%S must be a boolean" what)

let mem_num ~what j =
  match Json.member what j with
  | None -> Ok None
  | Some (Json.Num n) -> Ok (Some n)
  | Some _ -> Error (Printf.sprintf "%S must be a number" what)

let mem_str ~what j =
  match Json.member what j with
  | None -> Ok None
  | Some (Json.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "%S must be a string" what)

let parse_size = function
  | None -> Ok Benchmarks.Tiny
  | Some "tiny" -> Ok Benchmarks.Tiny
  | Some "scaled" -> Ok Benchmarks.Scaled
  | Some "full" -> Ok Benchmarks.Full
  | Some s -> Error (Printf.sprintf "unknown size %S (tiny|scaled|full)" s)

let parse_workload j =
  let* inst_text = mem_str ~what:"instance" j in
  let* bench = mem_str ~what:"bench" j in
  match (inst_text, bench) with
  | Some _, Some _ -> Error "give either \"instance\" or \"bench\", not both"
  | None, None -> Error "a solve request needs \"instance\" or \"bench\""
  | Some text, None ->
    let* inst =
      Result.map_error (fun e -> "instance: " ^ e)
        (Io.instance_of_string text)
    in
    let* topo = mem_str ~what:"topology" j in
    let* tree =
      match topo with
      | None -> Ok None
      | Some t ->
        Result.map
          (fun t -> Some t)
          (Result.map_error (fun e -> "topology: " ^ e) (Io.tree_of_string t))
    in
    (match tree with
    | Some t when Tree.num_sinks t <> Instance.num_sinks inst ->
      Error "topology sink count differs from instance"
    | _ -> Ok (Inline (inst, tree)))
  | None, Some name ->
    let* size = Result.bind (mem_str ~what:"size" j) parse_size in
    let* seed = mem_num ~what:"seed" j in
    (* an integral JSON number, not merely a number: int_of_float
       would silently truncate 1.5 and is undefined outside int range *)
    let* seed_off =
      match seed with
      | None -> Ok 0
      | Some s when Float.is_integer s && Float.abs s <= 1_073_741_823. ->
        Ok (int_of_float s)
      | Some _ -> Error "\"seed\" must be a small integer"
    in
    let* skew = mem_num ~what:"skew" j in
    (match Benchmarks.find size name with
    | exception Not_found -> Error (Printf.sprintf "unknown benchmark %S" name)
    | spec ->
      let spec =
        { spec with Benchmarks.seed = spec.Benchmarks.seed + seed_off }
      in
      let skew_rel = match skew with None -> 0.5 | Some s -> s in
      (* [> 0.0] is false for NaN, true for infinity (= unbounded
         skew): exactly the admissible set *)
      if skew_rel > 0.0 then Ok (Bench (spec, skew_rel))
      else Error "\"skew\" must be positive")

(* An ECO edit object: {"edit": "<kind>", ...kind-specific members}. Sink
   indices must be integral JSON numbers; bound members default to the
   unconstrained window [0, infinity) when omitted (JSON cannot spell
   infinity). *)
let parse_edit j =
  let num_exn ~what =
    let* v = mem_num ~what j in
    match v with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "an edit needs %S" what)
  in
  let int_exn ~what =
    let* v = num_exn ~what in
    if Float.is_integer v && Float.abs v <= 1_073_741_823. then
      Ok (int_of_float v)
    else Error (Printf.sprintf "%S must be a small integer" what)
  in
  let bound ~what ~default =
    let* v = mem_num ~what j in
    match v with
    | None -> Ok default
    | Some v when v >= 0.0 -> Ok v
    | Some _ -> Error (Printf.sprintf "%S must be non-negative" what)
  in
  let* kind = mem_str ~what:"edit" j in
  match kind with
  | None -> Error "an edit needs \"edit\" (set_bounds|move_sink|add_sink|remove_sink)"
  | Some "set_bounds" ->
    let* sink = int_exn ~what:"sink" in
    let* lower = bound ~what:"lower" ~default:0.0 in
    let* upper = bound ~what:"upper" ~default:infinity in
    Ok (Instance.Edit.Set_bounds { sink; lower; upper })
  | Some "move_sink" ->
    let* sink = int_exn ~what:"sink" in
    let* dx = num_exn ~what:"dx" in
    let* dy = num_exn ~what:"dy" in
    Ok (Instance.Edit.Move_sink { sink; dx; dy })
  | Some "add_sink" ->
    let* x = num_exn ~what:"x" in
    let* y = num_exn ~what:"y" in
    let* lower = bound ~what:"lower" ~default:0.0 in
    let* upper = bound ~what:"upper" ~default:infinity in
    Ok
      (Instance.Edit.Add_sink
         { point = Lubt_geom.Point.make x y; lower; upper })
  | Some "remove_sink" ->
    let* sink = int_exn ~what:"sink" in
    Ok (Instance.Edit.Remove_sink { sink })
  | Some other ->
    Error
      (Printf.sprintf
         "unknown edit %S (set_bounds|move_sink|add_sink|remove_sink)" other)

let parse_edits j =
  match Json.member "edits" j with
  | None -> Error "an eco request needs \"edits\""
  | Some (Json.Arr items) ->
    if items = [] then Error "\"edits\" must not be empty"
    else
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* edit = parse_edit item in
          Ok (edit :: acc))
        (Ok []) items
      |> Result.map List.rev
  | Some _ -> Error "\"edits\" must be an array of edit objects"

let parse_solve_members j =
  let* workload = parse_workload j in
  let* eager = mem_bool ~what:"eager" ~default:false j in
  let* certify = mem_bool ~what:"certify" ~default:true j in
  let* tl = mem_num ~what:"time_limit" j in
  let* time_limit =
    match tl with
    | Some t when t <= 0.0 -> Error "\"time_limit\" must be positive"
    | other -> Ok other
  in
  let* degrade = mem_bool ~what:"degrade" ~default:false j in
  Ok
    {
      sq_workload = workload;
      sq_eager = eager;
      sq_certify = certify;
      sq_time_limit = time_limit;
      sq_degrade = degrade;
    }

let parse_op j =
  let* op_name = mem_str ~what:"op" j in
  match op_name with
  | None | Some "solve" ->
    let* q = parse_solve_members j in
    Ok (Solve q)
  | Some "eco" ->
    (* solve-shaped plus an edit chain: solve the edited instance,
       warm-starting from the cached basis of the (previously solved)
       parent whenever the edits preserve the LP structure *)
    let* q = parse_solve_members j in
    let* edits = parse_edits j in
    Ok (Eco { eq_base = q; eq_edits = edits })
  | Some "ping" -> Ok Ping
  | Some "metrics" -> Ok Metrics_dump
  | Some "sleep" -> (
    let* ms = mem_num ~what:"ms" j in
    match ms with
    | Some ms when ms >= 0.0 -> Ok (Sleep (ms /. 1e3))
    | Some _ -> Error "\"ms\" must be non-negative"
    | None -> Error "a sleep request needs \"ms\"")
  | Some op ->
    Error (Printf.sprintf "unknown op %S (solve|eco|ping|metrics|sleep)" op)

(* [Error (id, msg)] echoes the request's own id whenever the line at
   least parsed as JSON, so a client can match its rejection *)
let parse_request line =
  match Json.parse line with
  | Error e -> Error ("null", "not JSON: " ^ e)
  | Ok j -> (
    let rq_id, id_text = id_of_json (Json.member "id" j) in
    match parse_op j with
    | Error msg -> Error (rq_id, msg)
    | Ok op -> Ok { rq_id; rq_id_text = id_text; rq_op = op })

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let error_response ?retry_after_ms ~id ~code msg =
  let retry =
    match retry_after_ms with
    | None -> ""
    | Some ms ->
      Printf.sprintf ", \"retry_after_ms\": %s" (Protocol.json_float ms)
  in
  Printf.sprintf
    "{\"id\": %s, \"ok\": false, \"error\": {\"code\": \"%s\", \"message\": \
     \"%s\"%s}}"
    id code (Protocol.json_escape msg) retry

let ok_envelope ~id ~status ~wall_ms fields =
  Printf.sprintf
    "{\"id\": %s, \"ok\": true, \"status\": \"%s\", \"wall_ms\": %s, %s}" id
    (Protocol.json_escape status)
    (Protocol.json_float wall_ms)
    fields

(* topology for an inline instance that came without one: the baseline
   router, guided by the skew window the bounds imply (the same rule as
   [lubt solve] without --topology) *)
let baseline_topology (inst : Instance.t) =
  let lo, _ = Lubt_util.Stats.min_max inst.Instance.lower in
  let _, hi = Lubt_util.Stats.min_max inst.Instance.upper in
  let bound = if hi = infinity then infinity else max 0.0 (hi -. lo) in
  (Bst.route ~skew_bound:bound ?source:inst.Instance.source
     inst.Instance.sinks)
    .Bst.topology

(* the [lubt batch] protocol: baseline route at the requested skew, then
   the LUBT LP over the baseline's achieved delay window *)
let bench_workload spec skew_rel =
  let b = Protocol.run_baseline spec ~skew_rel in
  let inst0 = b.Protocol.bst.Bst.routed.Routed.instance in
  let m = Instance.num_sinks inst0 in
  let lower_rel, upper_rel =
    if skew_rel = infinity then (0.0, infinity)
    else (b.Protocol.shortest_rel, b.Protocol.longest_rel)
  in
  let lower = Array.make m (lower_rel *. b.Protocol.radius) in
  let upper =
    Array.make m
      (if upper_rel = infinity then infinity
       else upper_rel *. b.Protocol.radius)
  in
  let inst = Instance.with_bounds inst0 ~lower ~upper in
  (inst, b.Protocol.bst.Bst.topology)

(* The degraded-response members: which rung answered, plus the usual
   report when the rung produced one (the heuristic rung has no LP
   report; it renders cost/validated directly). *)
let ladder_fields (o : Ladder.outcome) =
  let validated = Result.is_ok (Routed.validate o.Ladder.routed) in
  let prefix =
    Printf.sprintf "\"degraded\": %b, \"quality\": \"%s\"" o.Ladder.degraded
      (Ladder.rung_to_string o.Ladder.rung)
  in
  match o.Ladder.report with
  | Some report -> prefix ^ ", " ^ solve_report_fields report ~validated
  | None ->
    Printf.sprintf "%s, \"cost\": %s, \"validated\": %b, \"certified\": false"
      prefix
      (Protocol.json_float (Routed.cost o.Ladder.routed))
      validated

let ladder_response ~id ~t0 (o : Ladder.outcome) =
  let wall_ms = (Clock.now () -. t0) *. 1e3 in
  ( not o.Ladder.verified,
    o.Ladder.degraded,
    ok_envelope ~id
      ~status:(if o.Ladder.degraded then "degraded" else "optimal")
      ~wall_ms (ladder_fields o) )

(* A solve request's instance and topology; shared by the full solve
   path and the inline degraded path. *)
let materialize_workload (q : solve_req) =
  match q.sq_workload with
  | Inline (inst, Some tree) -> (inst, tree)
  | Inline (inst, None) -> (inst, baseline_topology inst)
  | Bench (spec, skew_rel) -> bench_workload spec skew_rel

let execute_solve ~default_time_limit ~cache ~id (q : solve_req) =
  let t0 = Clock.now () in
  let inst, tree = materialize_workload q in
  let time_limit =
    match q.sq_time_limit with Some t -> t | None -> default_time_limit
  in
  let options =
    {
      Ebf.default_options with
      Ebf.lazy_steiner = not q.sq_eager;
      check = (if q.sq_certify then Certify.Full else Certify.Off);
      time_limit;
      cache;
    }
  in
  if q.sq_degrade then begin
    (* degradation ladder: under an absolute deadline derived from the
       request budget, step down until some rung answers *)
    let opts =
      {
        Ladder.default_options with
        Ladder.base = options;
        deadline =
          (if time_limit = infinity then None else Some (t0 +. time_limit));
      }
    in
    match Ladder.solve opts inst tree with
    | Ok outcome -> ladder_response ~id ~t0 outcome
    | Error Ladder.Infeasible ->
      ( true,
        false,
        error_response ~id ~code:"infeasible"
          (Lubt.error_to_string Lubt.No_solution) )
    | Error (Ladder.Exhausted _ as e) ->
      ( true,
        false,
        error_response ~id ~code:"degraded_failed" (Ladder.error_to_string e)
      )
  end
  else
    match Lubt.solve ~options inst tree with
    | Ok report ->
      let validated = Result.is_ok (Routed.validate report.Lubt.routed) in
      let wall_ms = (Clock.now () -. t0) *. 1e3 in
      Log.debug ~fields:[ ("wall_ms", Trace.Float wall_ms) ] "request solved";
      ( not validated,
        false,
        ok_envelope ~id ~status:"optimal" ~wall_ms
          (Printf.sprintf "\"degraded\": false, %s"
             (solve_report_fields report ~validated)) )
    | Error Lubt.No_solution ->
      ( true,
        false,
        error_response ~id ~code:"infeasible"
          (Lubt.error_to_string Lubt.No_solution) )
    | Error (Lubt.Solver_failure { status; _ } as e) ->
      let code =
        match status with
        | Status.Time_limit -> "time_limit"
        | _ -> "solver_failure"
      in
      (true, false, error_response ~id ~code (Lubt.error_to_string e))
    | Error (Lubt.Embedding_failure _ as e) ->
      ( true,
        false,
        error_response ~id ~code:"embedding_failure" (Lubt.error_to_string e)
      )

(* The floor rung run inline (no LP, no worker): what a saturated pool
   answers a degrade-opted solve or eco with — for an eco, on the
   EDITED instance, not the base it was derived from. [None] when the
   request did not opt in or the rung fails. *)
let execute_degraded_inline ~id op =
  let t0 = Clock.now () in
  match
    match op with
    | Solve q when q.sq_degrade -> Some (fst (materialize_workload q))
    | Eco e when e.eq_base.sq_degrade ->
      Result.to_option
        (Instance.Edit.apply_all
           (fst (materialize_workload e.eq_base))
           e.eq_edits)
    | _ -> None
  with
  | None -> None
  | Some inst -> (
    match Ladder.heuristic inst with
    | Ok outcome -> Some (ladder_response ~id ~t0 outcome)
    | Error _ | (exception _) -> None)
  | exception _ -> None

(* An eco request: apply the edit chain to the base instance, keep the
   base topology when every edit preserves it (the warm-start sweet
   spot), re-derive it otherwise, and hand the edited workload to the
   plain solve path — which consults the cache, so the parent's basis
   (stored by an earlier solve or eco) warm-starts this one. *)
let execute_eco ~default_time_limit ~cache ~id (e : eco_req) =
  let q = e.eq_base in
  let inst, tree = materialize_workload q in
  match Instance.Edit.apply_all inst e.eq_edits with
  | Error msg -> (true, false, error_response ~id ~code:"edit_failed" msg)
  | Ok edited ->
    let topology =
      if List.for_all Instance.Edit.preserves_topology e.eq_edits then tree
      else baseline_topology edited
    in
    execute_solve ~default_time_limit ~cache ~id
      { q with sq_workload = Inline (edited, Some topology) }

(* The registry snapshot as JSON: one object per sample; histograms
   carry their raw bucket layout so clients can merge snapshots or
   take quantiles themselves. These are the same numbers the
   Prometheus endpoint renders — both read [Metrics.snapshot]. *)
let metrics_json () =
  let sample (s : Metrics.sample) =
    let labels =
      Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.Metrics.s_labels)
    in
    let base = [ ("name", Json.Str s.Metrics.s_name); ("labels", labels) ] in
    let value =
      match s.Metrics.s_value with
      | Metrics.Counter v ->
        [ ("type", Json.Str "counter"); ("value", Json.Num v) ]
      | Metrics.Gauge v -> [ ("type", Json.Str "gauge"); ("value", Json.Num v) ]
      | Metrics.Histogram h ->
        [
          ("type", Json.Str "histogram");
          ( "bounds",
            Json.Arr
              (Array.to_list
                 (Array.map (fun b -> Json.Num b) h.Metrics.h_bounds)) );
          ( "counts",
            Json.Arr
              (Array.to_list
                 (Array.map
                    (fun c -> Json.Num (float_of_int c))
                    h.Metrics.h_counts)) );
          ("sum", Json.Num h.Metrics.h_sum);
          ("count", Json.Num (float_of_int h.Metrics.h_count));
        ]
    in
    Json.Obj (base @ value)
  in
  Json.Arr (List.map sample (Metrics.snapshot ()))

let metrics_response ~id =
  Printf.sprintf "{\"id\": %s, \"ok\": true, \"metrics\": %s}" id
    (Json.to_string (metrics_json ()))

(* Execute one parsed request. Returns (failed, degraded, response
   line); never raises — an escaping exception here would otherwise eat
   a response and leave its client hanging. *)
let execute ~default_time_limit ~cache (rq : request) =
  let id = rq.rq_id in
  match rq.rq_op with
  | Ping ->
    (false, false, Printf.sprintf "{\"id\": %s, \"ok\": true, \"pong\": true}" id)
  | Metrics_dump -> (false, false, metrics_response ~id)
  | Sleep s ->
    let t0 = Clock.now () in
    Unix.sleepf s;
    ( false,
      false,
      Printf.sprintf
        "{\"id\": %s, \"ok\": true, \"status\": \"slept\", \"wall_ms\": %s}"
        id
        (Protocol.json_float ((Clock.now () -. t0) *. 1e3)) )
  | Solve q -> (
    try execute_solve ~default_time_limit ~cache ~id q with
    | exn ->
      (true, false, error_response ~id ~code:"internal" (Printexc.to_string exn)))
  | Eco e -> (
    try execute_eco ~default_time_limit ~cache ~id e with
    | exn ->
      (true, false, error_response ~id ~code:"internal" (Printexc.to_string exn)))

let response_of_line ~default_time_limit ~cache line =
  match parse_request line with
  | Error (id, msg) -> (true, false, error_response ~id ~code:"bad_request" msg)
  | Ok rq -> execute ~default_time_limit ~cache rq

let response_of_request ?(default_time_limit = infinity) ?cache line =
  let _, _, resp = response_of_line ~default_time_limit ~cache line in
  resp

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* [Reading] → [Draining] on client EOF (close once the in-flight
   requests have answered and the output queue has flushed); any error
   path marks the session [Dead]. Only the select loop moves a session
   to [Closed], because only the select loop may call [Unix.close]: a
   worker closing an fd the loop still selects on would race the loop
   into EBADF — or worse, into a recycled descriptor number. *)
type conn_state = Reading | Draining | Dead | Closed

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;  (* non-blocking; closed by the select loop *)
  c_lock : Mutex.t;
  mutable c_state : conn_state;
  c_line : Buffer.t;  (* the current line's bytes, up to its newline *)
  mutable c_skipping : bool;
      (* the current line overran [max_line_bytes]: drop to its newline *)
  c_out : string Queue.t;  (* response lines awaiting the socket *)
  mutable c_out_off : int;  (* bytes of the queue head already written *)
  mutable c_out_bytes : int;  (* queued total, capped by [max_out_bytes] *)
  mutable c_inflight : int;  (* submitted, response not yet enqueued *)
  mutable c_tickets : Executor.ticket list;  (* pending-task handles *)
}

(* A client that submits requests but never reads responses gets this
   much buffered output before its session is dropped: the bound keeps
   a dead-reader client from growing the queue without limit, and the
   queue itself keeps workers from ever blocking in [Unix.write]. *)
let max_out_bytes = 8 * 1024 * 1024

(* A line longer than this (newline excluded) is answered with
   [too_large] and dropped up to its newline: the same bound as the
   output backlog, so no session buffers more than that either way. *)
let max_line_bytes = max_out_bytes

(* The breaker's p95 window: the registry's latency histograms minus
   the merged read taken two marks ago, where a mark moves forward
   once [lat_epoch] more requests have completed since the last one —
   the most recent 128–256 requests, read in O(buckets). *)
let lat_epoch = 128

type server = {
  cfg : config;
  executor : Executor.t;
  listeners : (Unix.file_descr * string) list;  (* fd, description *)
  metrics_listener : Unix.file_descr option;  (* the --metrics-port socket *)
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  stopped : bool Atomic.t;
  baseline : stats;
      (* the registry's serve counters when [create] ran: the registry
         is process-wide and one process may host several daemons in
         turn, so this daemon's counts are the registry minus these *)
  mutable marks : Metrics.histogram_snapshot * Metrics.histogram_snapshot;
      (* latency reads at the last two window marks, older first;
         loop-thread only *)
  mutable breaker_until : float;  (* loop-thread only; Clock.now axis *)
}

(* The three per-op latency histograms merged: every request the
   workers have completed in this process. *)
let latency_read () =
  Metrics.merge_histogram
    (Metrics.read_histogram m_lat_solve)
    (Metrics.merge_histogram
       (Metrics.read_histogram m_lat_eco)
       (Metrics.read_histogram m_lat_sleep))

(* p95 over the window since the older mark; NaN while it is empty (a
   NaN never trips the [>=] threshold, so a cold server admits). *)
let p95_ms server =
  let now = latency_read () in
  let _, newer = server.marks in
  if now.Metrics.h_count - newer.Metrics.h_count >= lat_epoch then
    server.marks <- (newer, now);
  let older, _ = server.marks in
  if now.Metrics.h_count = older.Metrics.h_count then nan
  else
    Metrics.Buckets.quantile ~bounds:now.Metrics.h_bounds
      ~counts:(Array.map2 ( - ) now.Metrics.h_counts older.Metrics.h_counts)
      0.95

(* The circuit breaker: called on the select loop before submitting a
   solve. Once open it stays open for [breaker_cooldown] seconds and
   rejections carry the remaining wait as a Retry-After-style hint.
   Both thresholds default to "never" (p95 [infinity], queue [0]). *)
let breaker_check server =
  let now = Clock.now () in
  if now < server.breaker_until then Some (server.breaker_until -. now)
  else begin
    let cfg = server.cfg in
    let depth = Executor.pending server.executor in
    let queue_trip = cfg.breaker_queue > 0 && depth >= cfg.breaker_queue in
    let p95 = if cfg.breaker_p95_ms < infinity then p95_ms server else nan in
    let p95_trip = p95 >= cfg.breaker_p95_ms in
    if queue_trip || p95_trip then begin
      server.breaker_until <- now +. cfg.breaker_cooldown;
      Metrics.incr m_breaker_trips;
      Log.warn
        ~fields:
          [
            ("queue_depth", Trace.Int depth);
            ("p95_ms", Trace.Float p95);
          ]
        "circuit breaker open for %.3gs (%s)" cfg.breaker_cooldown
        (if queue_trip then "queue depth over threshold"
         else "p95 latency over threshold");
      if Trace.enabled () then
        Trace.instant "serve.breaker_open"
          ~args:
            [ ("queue_depth", Trace.Int depth); ("p95_ms", Trace.Float p95) ];
      Some cfg.breaker_cooldown
    end
    else None
  end

(* One byte on the self-pipe wakes the select loop so it reconsiders
   interest sets and prunes dead sessions. The write end is
   non-blocking: a full pipe already guarantees a pending wake-up, so
   EAGAIN (like a closed pipe during shutdown) is fine to ignore. *)
let wake server =
  try ignore (Unix.write server.stop_w (Bytes.make 1 'w') 0 1)
  with Unix.Unix_error _ -> ()

(* Tear a session down after an error: cancel its queued tasks (running
   ones finish and find the session dead) and mark it [Dead] for the
   select loop to close. [shutdown] — unlike [close] — is safe here: it
   wakes the peer without giving the descriptor number back to the OS
   while the loop may still hold it in a select set. *)
let kill_conn_locked conn =
  List.iter
    (fun tk -> if Executor.cancel tk then conn.c_inflight <- conn.c_inflight - 1)
    conn.c_tickets;
  conn.c_tickets <- [];
  match conn.c_state with
  | Dead | Closed -> ()
  | Reading | Draining ->
    conn.c_state <- Dead;
    (try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())

(* Queue one response line for the select loop to flush. Responses are
   whole lines enqueued under the session lock, so concurrent workers
   interleave whole replies, never bytes — and nobody ever blocks in
   [Unix.write] while holding [c_lock]. *)
let enqueue_locked conn line =
  match conn.c_state with
  | Dead | Closed -> ()
  | Reading | Draining ->
    let s = line ^ "\n" in
    if conn.c_out_bytes + String.length s > max_out_bytes then begin
      Log.warn
        ~fields:[ ("conn", Trace.Int conn.c_id) ]
        "output backlog over %d bytes (client not reading): dropping \
         session"
        max_out_bytes;
      kill_conn_locked conn
    end
    else begin
      Queue.add s conn.c_out;
      conn.c_out_bytes <- conn.c_out_bytes + String.length s
    end

(* Drain queued output into the socket until it is empty or would
   block. The select loop calls this on a non-blocking socket, so a
   slow reader just keeps write interest; shutdown calls it on a
   blocking socket with a send timeout, whose expiry is the same
   EAGAIN. Any other write error drops the session. *)
let flush_locked conn =
  let rec go () =
    match (conn.c_state, Queue.peek_opt conn.c_out) with
    | (Reading | Draining), Some s -> (
      let len = String.length s - conn.c_out_off in
      match Unix.write_substring conn.c_fd s conn.c_out_off len with
      | w ->
        Metrics.incr m_bytes_out ~by:(float_of_int w);
        conn.c_out_bytes <- conn.c_out_bytes - w;
        if w = len then begin
          ignore (Queue.pop conn.c_out);
          conn.c_out_off <- 0;
          go ()
        end
        else conn.c_out_off <- conn.c_out_off + w
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (e, _, _) ->
        Log.debug
          ~fields:[ ("conn", Trace.Int conn.c_id) ]
          "write failed (%s): dropping session" (Unix.error_message e);
        kill_conn_locked conn)
    | _ -> ()
  in
  go ()

(* The one accounting point: every response the daemon writes is
   counted here, by outcome, and then queued for the select loop. A
   request that a vanished client's session cancelled before it ran is
   never answered, so never counted. *)
let answer ?(failed = false) ?(degraded = false) ?(rejected = false)
    ?(req = "-") server conn line =
  Metrics.incr m_requests;
  if rejected then Metrics.incr m_rejected;
  if failed then Metrics.incr m_failed;
  if degraded then begin
    Metrics.incr m_degraded;
    if Trace.enabled () then
      Trace.instant "serve.degraded" ~args:[ ("req", Trace.Str req) ]
  end;
  Mutex.protect conn.c_lock (fun () -> enqueue_locked conn line);
  (* new output (or a newly dead session) changes the loop's interest
     set either way *)
  wake server

(* A worker finished one of this session's requests. [ticket_cell] is
   read under [c_lock] — the session thread fills it under the same
   lock before any worker can get here, so the read is ordered and
   never sees [None]. The wake-up lets the select loop close a drained
   session whose last response just went out. *)
let finish_task server conn ticket_cell =
  Mutex.protect conn.c_lock (fun () ->
      (match !ticket_cell with
      | Some tk ->
        conn.c_tickets <-
          List.filter (fun t -> not (t == tk)) conn.c_tickets
      | None -> ());
      conn.c_inflight <- conn.c_inflight - 1);
  wake server

(* Cross-request cache counters as seen by this process; zeros when the
   daemon runs cacheless so the health schema stays stable. *)
let cache_counters cfg =
  match cfg.cache with
  | None -> (0, 0, 0)
  | Some c ->
    let s = Basis_cache.stats c in
    (s.Basis_cache.hits, s.Basis_cache.misses, s.Basis_cache.rejects)

(* The registry's serve counters as process-wide totals, in [stats]
   shape; the supervision and cache fields are filled by [server_stats]. *)
let registry_stats () =
  let read c = int_of_float (Metrics.read_counter c) in
  let rejected = read m_rejected in
  {
    connections = read m_connections;
    served = read m_requests - rejected;
    rejected;
    failed = read m_failed;
    degraded = read m_degraded;
    restarts = 0;
    watchdog_fires = 0;
    breaker_trips = read m_breaker_trips;
    cache_hits = 0;
    cache_misses = 0;
  }

(* This daemon's stats: the registry's counts since [create], the
   executor's supervision counters and the cache's hit/miss counts —
   what both [ping] health and the shutdown line report. *)
let server_stats server =
  let now = registry_stats () and b = server.baseline in
  let cache_hits, cache_misses, _ = cache_counters server.cfg in
  {
    connections = now.connections - b.connections;
    served = now.served - b.served;
    rejected = now.rejected - b.rejected;
    failed = now.failed - b.failed;
    degraded = now.degraded - b.degraded;
    restarts = Executor.restarts server.executor;
    watchdog_fires = Executor.watchdog_fires server.executor;
    breaker_trips = now.breaker_trips - b.breaker_trips;
    cache_hits;
    cache_misses;
  }

(* [stats] as named counts, in the order the stats line prints them;
   health, the stats line and the shutdown log all render this list. *)
let stats_fields s =
  [
    ("connections", s.connections);
    ("served", s.served);
    ("rejected", s.rejected);
    ("failed", s.failed);
    ("degraded", s.degraded);
    ("restarts", s.restarts);
    ("watchdog_fires", s.watchdog_fires);
    ("breaker_trips", s.breaker_trips);
    ("cache_hits", s.cache_hits);
    ("cache_misses", s.cache_misses);
  ]

let stats_members s =
  String.concat ", "
    (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) (stats_fields s))

let stats_json s = "{" ^ stats_members s ^ "}"

(* The ping payload doubles as the health probe: queue depth and worker
   state for admission decisions on the client side, this daemon's
   stats for monitoring. *)
let health_response server ~id =
  let ex = server.executor in
  let _, _, cache_rejects = cache_counters server.cfg in
  Printf.sprintf
    "{\"id\": %s, \"ok\": true, \"pong\": true, \"health\": {\"pending\": \
     %d, \"running\": %d, \"workers\": %d, \"breaker_open\": %b, \
     \"p95_ms\": %s, %s, \"cache_rejects\": %d}}"
    id (Executor.pending ex) (Executor.running ex) (Executor.workers ex)
    (Clock.now () < server.breaker_until)
    (Protocol.json_float (p95_ms server))
    (stats_members (server_stats server))
    cache_rejects

(* Hand one request to the worker pool. Exactly-once response
   resolution: the task claims its ticket before answering; the
   supervisor's [on_abandon] answers instead when the claim is lost to
   a crash or watchdog deposal. Whoever wins also runs the epilogue
   ([finish_task]) — never both. A pool that refuses the request
   answers a degrade-opted one inline with the heuristic rung, and
   rejects the rest. *)
let submit server conn rq =
  let id_text = rq.rq_id_text in
  let ticket_cell = ref None in
  let task () =
    let t0 = Clock.now () in
    Trace.with_context [ ("req", Trace.Str id_text) ] (fun () ->
        let run () =
          execute ~default_time_limit:server.cfg.default_time_limit
            ~cache:server.cfg.cache rq
        in
        let failed, degraded, resp =
          if Trace.enabled () then Trace.span "serve.request" run else run ()
        in
        let won =
          match Mutex.protect conn.c_lock (fun () -> !ticket_cell) with
          | Some tk -> Executor.claim tk
          | None -> true
        in
        if won then begin
          let wall_ms = (Clock.now () -. t0) *. 1e3 in
          Metrics.observe
            (match rq.rq_op with
            | Eco _ -> m_lat_eco
            | Sleep _ -> m_lat_sleep
            | _ -> m_lat_solve)
            wall_ms;
          answer ~failed ~degraded ~req:id_text server conn resp;
          Log.info
            ~fields:
              [
                ("conn", Trace.Int conn.c_id);
                ("ok", Trace.Bool (not failed));
                ("wall_ms", Trace.Float wall_ms);
              ]
            "request served";
          finish_task server conn ticket_cell
        end)
  in
  let on_abandon reason =
    let code, msg =
      match reason with
      | Executor.Crashed e ->
        ("worker_crashed", "worker domain died mid-request: " ^ e)
      | Executor.Timed_out elapsed ->
        ( "watchdog_timeout",
          Printf.sprintf
            "request exceeded the %.3gs watchdog deadline (ran %.3fs); \
             worker replaced"
            server.cfg.watchdog elapsed )
      | Executor.Dropped ->
        ("dropped", "server shut down before the request ran")
    in
    Log.warn
      ~fields:[ ("conn", Trace.Int conn.c_id); ("req", Trace.Str id_text) ]
      "request abandoned: %s" code;
    answer ~failed:true server conn (error_response ~id:rq.rq_id ~code msg);
    finish_task server conn ticket_cell
  in
  let submitted =
    Mutex.protect conn.c_lock (fun () ->
        match conn.c_state with
        | Dead | Closed -> Ok ()
        | Reading | Draining -> (
          match Executor.submit ~on_abandon server.executor task with
          | Ok ticket ->
            (* the submit happens under [c_lock], which the task's
               epilogue also takes: the cell is filled before any
               worker can reach [finish_task] *)
            ticket_cell := Some ticket;
            conn.c_tickets <- ticket :: conn.c_tickets;
            conn.c_inflight <- conn.c_inflight + 1;
            Ok ()
          | Error _ as e -> e))
  in
  match submitted with
  | Ok () -> ()
  | Error reject -> (
    let inline =
      match reject with
      | Executor.Overloaded _ -> execute_degraded_inline ~id:rq.rq_id rq.rq_op
      | Executor.Shutting_down -> None
    in
    match inline with
    | Some (failed, degraded, resp) ->
      Log.info
        ~fields:[ ("conn", Trace.Int conn.c_id); ("req", Trace.Str id_text) ]
        "pool saturated: answered with the inline heuristic rung";
      answer ~failed ~degraded ~req:id_text server conn resp
    | None ->
      let code, msg =
        match reject with
        | Executor.Overloaded depth ->
          ( "overloaded",
            Printf.sprintf "%d requests already pending (max %d); retry later"
              depth server.cfg.max_pending )
        | Executor.Shutting_down -> ("shutting_down", "server is shutting down")
      in
      Log.warn
        ~fields:[ ("conn", Trace.Int conn.c_id); ("req", Trace.Str id_text) ]
        "rejected: %s" code;
      answer ~rejected:true server conn (error_response ~id:rq.rq_id ~code msg))

(* Dispatch one request line. Cheap ops (ping, metrics, malformed and
   breaker rejections) are answered on the session thread; solves,
   ecos and sleeps go to the worker pool. *)
let dispatch server conn line =
  if String.trim line <> "" then
    match parse_request line with
    | Error (id, msg) ->
      Log.warn ~fields:[ ("conn", Trace.Int conn.c_id) ] "bad request: %s" msg;
      answer ~failed:true server conn
        (error_response ~id ~code:"bad_request" msg)
    | Ok { rq_op = Ping; rq_id; _ } ->
      answer server conn (health_response server ~id:rq_id)
    | Ok { rq_op = Metrics_dump; rq_id; _ } ->
      (* cheap like ping: a snapshot merge over a handful of blocks,
         answered on the session thread so it works under saturation *)
      answer server conn (metrics_response ~id:rq_id)
    | Ok rq -> (
      (* sleep occupies a worker exactly like a solve, so admission
         control covers both; ping stays exempt — it is the health
         probe clients use to decide when to retry *)
      match breaker_check server with
      | None -> submit server conn rq
      | Some wait_s ->
        Log.warn
          ~fields:
            [ ("conn", Trace.Int conn.c_id); ("req", Trace.Str rq.rq_id_text) ]
          "rejected: breaker_open";
        answer ~rejected:true server conn
          (error_response ~id:rq.rq_id ~code:"breaker_open"
             ~retry_after_ms:(wait_s *. 1e3)
             (Printf.sprintf "circuit breaker open (overload); retry in %.0f ms"
                (wait_s *. 1e3))))

(* Feed freshly-read bytes through the line splitter. Only the new
   bytes are scanned for newlines, and a line's bytes are appended once
   to its buffer; a line over [max_line_bytes] is answered [too_large]
   when it crosses the bound and its remainder is dropped. *)
let feed server conn chunk =
  let n = String.length chunk in
  let take start len =
    if not conn.c_skipping then
      if Buffer.length conn.c_line + len <= max_line_bytes then
        Buffer.add_substring conn.c_line chunk start len
      else begin
        Buffer.reset conn.c_line;
        conn.c_skipping <- true;
        Log.warn
          ~fields:[ ("conn", Trace.Int conn.c_id) ]
          "request line too large";
        answer ~failed:true server conn
          (error_response ~id:"null" ~code:"too_large"
             (Printf.sprintf "request line over %d bytes" max_line_bytes))
      end
  in
  let rec go start =
    match String.index_from_opt chunk start '\n' with
    | None -> take start (n - start)
    | Some i ->
      take start (i - start);
      let line = Buffer.contents conn.c_line in
      Buffer.reset conn.c_line;
      if conn.c_skipping then conn.c_skipping <- false
      else dispatch server conn line;
      go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Listeners                                                           *)
(* ------------------------------------------------------------------ *)

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

(* [f ()], with a bind/listen failure as an [Error] message *)
let binding what f =
  try Ok (f ()) with
  | Unix.Unix_error (e, fn, arg) ->
    Error
      (Printf.sprintf "serve: %s%s(%s): %s" what fn arg (Unix.error_message e))
  | Failure msg ->
    (* inet_addr_of_string *)
    Error (Printf.sprintf "serve: bad host address: %s" msg)

(* Bind and listen on a fresh socket, closing it if either fails. *)
let listen_on domain addr =
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  try
    if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd 64;
    fd
  with e ->
    Unix.close fd;
    raise e

let tcp_listener cfg port =
  listen_on Unix.PF_INET
    (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, port))

let close_listeners = List.iter (fun (fd, _) -> try Unix.close fd with _ -> ())

let bind_listeners cfg =
  let opened = ref [] in
  match
    binding "" (fun () ->
        Option.iter
          (fun path ->
            unlink_quiet path;
            opened :=
              (listen_on Unix.PF_UNIX (Unix.ADDR_UNIX path), "unix:" ^ path)
              :: !opened)
          cfg.socket;
        Option.iter
          (fun port ->
            opened :=
              (tcp_listener cfg port, Printf.sprintf "tcp:%s:%d" cfg.host port)
              :: !opened)
          cfg.port;
        List.rev !opened)
  with
  | Error _ as e ->
    close_listeners !opened;
    e
  | Ok [] -> Error "serve: no listener (give --socket and/or --port)"
  | Ok _ as ok -> ok

let create cfg =
  match bind_listeners cfg with
  | Error _ as e -> e
  | Ok listeners ->
  (* the Prometheus listener is plain HTTP, never mixed with the
     JSON-lines protocol listeners *)
  match
    binding "metrics " (fun () ->
        Option.map (tcp_listener cfg) cfg.metrics_port)
  with
  | Error msg ->
    close_listeners listeners;
    Error msg
  | Ok metrics_listener ->
    (* the daemon always keeps its own metrics hot: the registry is the
       source for health, stats, the [metrics] op and the Prometheus
       endpoint *)
    Metrics.enable ();
    let stop_r, stop_w = Unix.pipe () in
    (* wake-ups must never block a worker: a full pipe already means a
       wake-up is pending *)
    Unix.set_nonblock stop_w;
    let executor =
      Executor.create ~jobs:(max 1 cfg.jobs)
        ~max_pending:(max 0 cfg.max_pending) ~watchdog:cfg.watchdog
        ?chaos:cfg.chaos ()
    in
    let latency = latency_read () in
    Ok
      {
        cfg;
        executor;
        listeners;
        metrics_listener;
        stop_r;
        stop_w;
        stopped = Atomic.make false;
        baseline = registry_stats ();
        marks = (latency, latency);
        breaker_until = neg_infinity;
      }

let stop server =
  (* safe from signal handlers and other domains: an atomic flag and a
     non-blocking self-pipe write *)
  if not (Atomic.exchange server.stopped true) then wake server

let install_signal_handlers server =
  let handle = Sys.Signal_handle (fun _ -> stop server) in
  Sys.set_signal Sys.sigterm handle;
  Sys.set_signal Sys.sigint handle

(* Minimal HTTP handling for the Prometheus endpoint: read one request
   until the header terminator, answer a single GET, close. Runs
   entirely on the loop thread over non-blocking sockets — a scraper
   can never stall the protocol sessions. *)
type http_conn = {
  hc_fd : Unix.file_descr;
  hc_in : Buffer.t;
  mutable hc_out : string;
  mutable hc_off : int;
  mutable hc_replying : bool;
}

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    status content_type (String.length body) body

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let run server =
  (* a client hanging up mid-response must be an EPIPE, not a fatal
     signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  List.iter
    (fun (_, desc) ->
      Log.info
        ~fields:
          [
            ("jobs", Trace.Int (Executor.jobs server.executor));
            ("max_pending", Trace.Int server.cfg.max_pending);
          ]
        "listening on %s" desc)
    server.listeners;
  Option.iter
    (fun port ->
      Log.info ~fields:[ ("port", Trace.Int port) ]
        "metrics endpoint listening on tcp:%s:%d" server.cfg.host port)
    server.cfg.metrics_port;
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let http_conns : (Unix.file_descr, http_conn) Hashtbl.t = Hashtbl.create 4 in
  let next_conn_id = ref 0 in
  let buf = Bytes.create 65536 in
  let accept_from lfd =
    match Unix.accept lfd with
    | exception Unix.Unix_error _ -> ()
    | fd, _addr ->
      Unix.set_nonblock fd;
      incr next_conn_id;
      Metrics.incr m_connections;
      Log.debug ~fields:[ ("conn", Trace.Int !next_conn_id) ] "session open";
      Hashtbl.replace conns fd
        {
          c_id = !next_conn_id;
          c_fd = fd;
          c_lock = Mutex.create ();
          c_state = Reading;
          c_line = Buffer.create 256;
          c_skipping = false;
          c_out = Queue.create ();
          c_out_off = 0;
          c_out_bytes = 0;
          c_inflight = 0;
          c_tickets = [];
        }
  in
  let read_from conn =
    match Unix.read conn.c_fd buf 0 (Bytes.length buf) with
    | 0 ->
      (* client finished sending; an unterminated trailing line is
         still a request, then the session stays open only until its
         in-flight requests have answered and their responses flushed *)
      feed server conn "\n";
      Mutex.protect conn.c_lock (fun () ->
          if conn.c_state = Reading then conn.c_state <- Draining)
    | n ->
      Metrics.incr m_bytes_in ~by:(float_of_int n);
      feed server conn (Bytes.sub_string buf 0 n)
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      ()
    | exception Unix.Unix_error (_, _, _) ->
      (* any other read error — ECONNRESET, EPIPE, ... — drops the
         session; the prune pass closes it *)
      Mutex.protect conn.c_lock (fun () -> kill_conn_locked conn)
  in
  let close_http hc =
    Hashtbl.remove http_conns hc.hc_fd;
    try Unix.close hc.hc_fd with Unix.Unix_error _ -> ()
  in
  let accept_metrics lfd =
    match Unix.accept lfd with
    | exception Unix.Unix_error _ -> ()
    | fd, _addr ->
      Unix.set_nonblock fd;
      Hashtbl.replace http_conns fd
        {
          hc_fd = fd;
          hc_in = Buffer.create 256;
          hc_out = "";
          hc_off = 0;
          hc_replying = false;
        }
  in
  let http_reply hc =
    let request = Buffer.contents hc.hc_in in
    let first_line =
      match String.index_opt request '\n' with
      | Some i -> String.trim (String.sub request 0 i)
      | None -> String.trim request
    in
    let response =
      match String.split_on_char ' ' first_line with
      | [ "GET"; ("/metrics" | "/"); _ ] | [ "GET"; ("/metrics" | "/") ] ->
        http_response ~status:"200 OK"
          ~content_type:"text/plain; version=0.0.4; charset=utf-8"
          (Prometheus.render (Metrics.snapshot ()))
      | "GET" :: _ ->
        http_response ~status:"404 Not Found" ~content_type:"text/plain"
          "not found\n"
      | _ ->
        http_response ~status:"405 Method Not Allowed"
          ~content_type:"text/plain" "only GET is supported\n"
    in
    hc.hc_out <- response;
    hc.hc_replying <- true
  in
  let read_http hc =
    match Unix.read hc.hc_fd buf 0 (Bytes.length buf) with
    | 0 -> if not hc.hc_replying then close_http hc
    | n ->
      Buffer.add_subbytes hc.hc_in buf 0 n;
      let s = Buffer.contents hc.hc_in in
      if contains_sub s "\r\n\r\n" || contains_sub s "\n\n" then http_reply hc
      else if Buffer.length hc.hc_in > 8192 then
        (* header flood: not a scraper we want to talk to *)
        close_http hc
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> close_http hc
  in
  let write_http hc =
    let len = String.length hc.hc_out - hc.hc_off in
    match Unix.write_substring hc.hc_fd hc.hc_out hc.hc_off len with
    | w ->
      hc.hc_off <- hc.hc_off + w;
      if hc.hc_off >= String.length hc.hc_out then close_http hc
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> close_http hc
  in
  (* Close and forget a session. Closing here — and only here — keeps
     the invariant that a descriptor in the select sets is alive. *)
  let close_conn conn =
    Hashtbl.remove conns conn.c_fd;
    Mutex.protect conn.c_lock (fun () ->
        if conn.c_state <> Closed then begin
          conn.c_state <- Closed;
          (try Unix.close conn.c_fd with Unix.Unix_error _ -> ())
        end);
    Log.debug ~fields:[ ("conn", Trace.Int conn.c_id) ] "session closed"
  in
  (* Dead sessions, and drained ones with nothing left to answer *)
  let prune () =
    let closable =
      Hashtbl.fold
        (fun _ conn acc ->
          let close =
            Mutex.protect conn.c_lock (fun () ->
                match conn.c_state with
                | Dead | Closed -> true
                | Draining ->
                  conn.c_inflight = 0 && Queue.is_empty conn.c_out
                | Reading -> false)
          in
          if close then conn :: acc else acc)
        conns []
    in
    List.iter close_conn closable
  in
  let rec loop () =
    prune ();
    if Atomic.get server.stopped then ()
    else begin
      let listener_fds = List.map fst server.listeners in
      let metrics_fds =
        match server.metrics_listener with Some fd -> [ fd ] | None -> []
      in
      let read_fds, write_fds =
        Hashtbl.fold
          (fun fd conn (rs, ws) ->
            Mutex.protect conn.c_lock (fun () ->
                let rs = if conn.c_state = Reading then fd :: rs else rs in
                let ws =
                  if conn.c_state <> Dead && not (Queue.is_empty conn.c_out)
                  then fd :: ws
                  else ws
                in
                (rs, ws)))
          conns ([], [])
      in
      let read_fds, write_fds =
        Hashtbl.fold
          (fun fd hc (rs, ws) ->
            if hc.hc_replying then (rs, fd :: ws) else (fd :: rs, ws))
          http_conns (read_fds, write_fds)
      in
      match
        Unix.select
          ((server.stop_r :: listener_fds) @ metrics_fds @ read_fds)
          write_fds [] (-1.0)
      with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        (* unreachable while the close-only-here invariant holds, but
           never fatal: find any session whose descriptor went bad and
           drop it instead of crashing the daemon *)
        Hashtbl.iter
          (fun fd conn ->
            match Unix.fstat fd with
            | _ -> ()
            | exception Unix.Unix_error _ ->
              Mutex.protect conn.c_lock (fun () -> kill_conn_locked conn))
          conns;
        loop ()
      | ready_r, ready_w, _ ->
        List.iter
          (fun fd ->
            if fd = server.stop_r then
              (* swallow the wake-up bytes; [stopped] is re-read and
                 interest sets recomputed at the top of the loop *)
              (try ignore (Unix.read server.stop_r buf 0 512)
               with Unix.Unix_error _ -> ())
            else if List.mem fd listener_fds then accept_from fd
            else if List.mem fd metrics_fds then accept_metrics fd
            else
              match Hashtbl.find_opt conns fd with
              | Some conn -> read_from conn
              | None -> (
                match Hashtbl.find_opt http_conns fd with
                | Some hc -> read_http hc
                | None -> ()))
          ready_r;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some conn ->
              Mutex.protect conn.c_lock (fun () -> flush_locked conn)
            | None -> (
              match Hashtbl.find_opt http_conns fd with
              | Some hc -> write_http hc
              | None -> ()))
          ready_w;
        loop ()
    end
  in
  loop ();
  (* shutdown: stop accepting, drain the in-flight work so every
     accepted request still gets its response, flush what the drain
     enqueued (bounded by a send timeout — a client that stopped
     reading cannot wedge shutdown), then tear the sessions down *)
  close_listeners server.listeners;
  Option.iter
    (fun fd -> try Unix.close fd with _ -> ())
    server.metrics_listener;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with _ -> ()) http_conns;
  Hashtbl.reset http_conns;
  (match server.cfg.socket with Some p -> unlink_quiet p | None -> ());
  Executor.shutdown ~drain:true server.executor;
  List.iter
    (fun conn ->
      Mutex.protect conn.c_lock (fun () ->
          if conn.c_state = Reading || conn.c_state = Draining then begin
            (try
               Unix.clear_nonblock conn.c_fd;
               Unix.setsockopt_float conn.c_fd Unix.SO_SNDTIMEO 5.0
             with Unix.Unix_error _ -> ());
            flush_locked conn
          end);
      close_conn conn)
    (List.of_seq (Hashtbl.to_seq_values conns));
  (try Unix.close server.stop_r with _ -> ());
  (try Unix.close server.stop_w with _ -> ());
  (* read after the drain: it may still answer requests and respawn
     workers *)
  let stats = server_stats server in
  let fields = stats_fields stats in
  if Trace.enabled () then
    Trace.counter "serve.stats"
      (List.map (fun (k, v) -> (k, float_of_int v)) fields);
  Log.info
    ~fields:(List.map (fun (k, v) -> (k, Trace.Int v)) fields)
    "server stopped";
  stats

(* ------------------------------------------------------------------ *)
(* In-process hosting                                                  *)
(* ------------------------------------------------------------------ *)

type handle = { h_server : server; h_domain : stats Domain.t }

let spawn cfg =
  match create cfg with
  | Error _ as e -> e
  | Ok server ->
    Ok { h_server = server; h_domain = Domain.spawn (fun () -> run server) }

let shutdown h =
  stop h.h_server;
  Domain.join h.h_domain
