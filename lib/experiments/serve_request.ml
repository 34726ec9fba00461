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
module Json = Lubt_obs.Json
module Log = Lubt_obs.Log
module Trace = Lubt_obs.Trace
module Clock = Lubt_obs.Clock
module Metrics = Lubt_obs.Metrics

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
  let lower_rel, upper_rel = Protocol.achieved_window b in
  ( Protocol.window_instance b ~lower_rel ~upper_rel,
    b.Protocol.bst.Bst.topology )

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

(* The absolute deadline of a request's budget ([time_limit], else the
   daemon's default), fixed at dispatch so that queue wait and workload
   materialisation count against it; [infinity] when there is none. *)
let deadline ~default_time_limit rq =
  match rq.rq_op with
  | Solve q | Eco { eq_base = q; _ } ->
    Clock.now ()
    +. (match q.sq_time_limit with Some t -> t | None -> default_time_limit)
  | Ping | Metrics_dump | Sleep _ -> infinity

let execute_solve ~deadline ~cache ~id (q : solve_req) =
  let t0 = Clock.now () in
  let inst, tree = materialize_workload q in
  let options =
    {
      Ebf.default_options with
      Ebf.lazy_steiner = not q.sq_eager;
      check = (if q.sq_certify then Certify.Full else Certify.Off);
      (* what is left of the budget; an expired one answers time_limit *)
      time_limit = deadline -. Clock.now ();
      cache;
    }
  in
  if q.sq_degrade then begin
    (* degradation ladder: under the request's absolute deadline, step
       down until some rung answers *)
    let opts =
      {
        Ladder.default_options with
        Ladder.base = options;
        deadline = (if deadline = infinity then None else Some deadline);
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
let execute_eco ~deadline ~cache ~id (e : eco_req) =
  let q = e.eq_base in
  let inst, tree = materialize_workload q in
  match Instance.Edit.apply_all inst e.eq_edits with
  | Error msg -> (true, false, error_response ~id ~code:"edit_failed" msg)
  | Ok edited ->
    let topology =
      if List.for_all Instance.Edit.preserves_topology e.eq_edits then tree
      else baseline_topology edited
    in
    execute_solve ~deadline ~cache ~id
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
let execute ~deadline ~cache (rq : request) =
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
    try execute_solve ~deadline ~cache ~id q with
    | exn ->
      (true, false, error_response ~id ~code:"internal" (Printexc.to_string exn)))
  | Eco e -> (
    try execute_eco ~deadline ~cache ~id e with
    | exn ->
      (true, false, error_response ~id ~code:"internal" (Printexc.to_string exn)))

let response_of_request ?(default_time_limit = infinity) ?cache line =
  match parse_request line with
  | Error (id, msg) -> error_response ~id ~code:"bad_request" msg
  | Ok rq ->
    let _, _, resp =
      execute ~deadline:(deadline ~default_time_limit rq) ~cache rq
    in
    resp
