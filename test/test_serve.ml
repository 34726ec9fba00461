(* Tests for the lubt serve daemon: protocol round-trips of
   [Serve.response_of_request] against the independent JSON checker and
   the one-shot report renderer, an in-process socket smoke over
   concurrent pipelined clients (responses matched by id, objectives
   identical to single-shot solves), bounded-queue backpressure,
   per-request deadline expiry, the malformed-input robustness
   contract (a bad line never takes down the session or the daemon),
   the request-line length bound, the agreement of health, metrics
   dump and shutdown stats, and both circuit breakers. *)

module Serve = Lubt_experiments.Serve
module Protocol = Lubt_experiments.Protocol
module Json = Lubt_obs.Json
module Instance = Lubt_core.Instance
module Lubt = Lubt_core.Lubt
module Ebf = Lubt_core.Ebf
module Io = Lubt_data.Io
module Benchmarks = Lubt_data.Benchmarks
module Point = Lubt_geom.Point
module Basis_cache = Lubt_lp.Basis_cache

let member_exn what j =
  match Json.member what j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S member: %s" what (Json.to_string j)

let parse_response line =
  Alcotest.(check bool)
    ("response passes the independent JSON checker: " ^ line)
    true
    (Json_check.json_valid line);
  match Json.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "response does not parse: %s (%s)" e line

let is_ok j = member_exn "ok" j = Json.Bool true

let error_code j =
  match Json.member "error" j with
  | Some e -> (
    match Json.member "code" e with
    | Some (Json.Str c) -> c
    | _ -> Alcotest.fail "error without string code")
  | None -> Alcotest.failf "expected an error member: %s" (Json.to_string j)

let respond line = parse_response (Serve.response_of_request line)

(* ------------------------------------------------------------------ *)
(* Protocol round-trips (no socket)                                    *)
(* ------------------------------------------------------------------ *)

let test_ping_and_id_echo () =
  let r = respond {|{"id": "p1", "op": "ping"}|} in
  Alcotest.(check bool) "ok" true (is_ok r);
  Alcotest.(check bool) "id echoed" true
    (member_exn "id" r = Json.Str "p1");
  (* a numeric id and a missing id echo back as themselves / null *)
  let r = respond {|{"id": 7, "op": "ping"}|} in
  Alcotest.(check bool) "numeric id echoed" true
    (member_exn "id" r = Json.Num 7.0);
  let r = respond {|{"op": "ping"}|} in
  Alcotest.(check bool) "missing id echoes null" true
    (member_exn "id" r = Json.Null)

let test_bad_requests () =
  let code line = error_code (respond line) in
  Alcotest.(check string) "not JSON" "bad_request" (code "garbage {");
  Alcotest.(check string) "unknown op" "bad_request"
    (code {|{"id": "x", "op": "frobnicate"}|});
  Alcotest.(check string) "no workload" "bad_request"
    (code {|{"id": "x"}|});
  Alcotest.(check string) "both workloads" "bad_request"
    (code {|{"id": "x", "bench": "prim1s", "instance": ""}|});
  Alcotest.(check string) "unknown bench" "bad_request"
    (code {|{"id": "x", "bench": "nonesuch"}|});
  Alcotest.(check string) "bad size" "bad_request"
    (code {|{"id": "x", "bench": "prim1s", "size": "huge"}|});
  Alcotest.(check string) "mistyped field" "bad_request"
    (code {|{"id": "x", "bench": "prim1s", "certify": "yes"}|});
  Alcotest.(check string) "non-positive time limit" "bad_request"
    (code {|{"id": "x", "bench": "prim1s", "time_limit": 0}|});
  Alcotest.(check string) "fractional seed" "bad_request"
    (code {|{"id": "x", "bench": "prim1s", "seed": 1.5}|});
  Alcotest.(check string) "astronomical seed" "bad_request"
    (code {|{"id": "x", "bench": "prim1s", "seed": 1e30}|});
  Alcotest.(check string) "negative skew" "bad_request"
    (code {|{"id": "x", "bench": "prim1s", "skew": -0.5}|});
  (* a sleep is bounded: [Unix.sleepf] raises EINVAL on 1e20 s and
     never returns on 1e300 s *)
  let sleep ms = Printf.sprintf {|{"id": "s", "op": "sleep", "ms": %s}|} ms in
  let cap = Lubt_experiments.Serve_request.max_sleep_ms in
  List.iter
    (fun ms ->
      Alcotest.(check string) ("sleep " ^ ms) "bad_request" (code (sleep ms)))
    [ "1e400"; "-1e400"; "1e300"; "1e20"; Printf.sprintf "%.17g" (cap +. 1.0);
      "-1" ];
  Alcotest.(check bool) "sleep 0 is ok" true (is_ok (respond (sleep "0")));
  (match Lubt_experiments.Serve_request.parse_request (sleep (Printf.sprintf "%.17g" cap)) with
  | Ok { rq_op = Sleep s; _ } ->
    Alcotest.(check (float 0.0)) "sleep at the cap" (cap /. 1e3) s
  | _ -> Alcotest.fail "sleep at the cap refused");
  (* the id still comes back on a bad request when the line parsed *)
  let r = respond {|{"id": "x", "op": "frobnicate"}|} in
  Alcotest.(check bool) "id echoed on bad request" true
    (member_exn "id" r = Json.Str "x")

let test_bench_solve_roundtrip () =
  let r =
    respond {|{"id": "r1", "bench": "prim1s", "size": "tiny", "seed": 1}|}
  in
  Alcotest.(check bool) "ok" true (is_ok r);
  Alcotest.(check bool) "status optimal" true
    (member_exn "status" r = Json.Str "optimal");
  Alcotest.(check bool) "validated" true
    (member_exn "validated" r = Json.Bool true);
  (* certification is the serve default *)
  Alcotest.(check bool) "certified by default" true
    (member_exn "certified" r = Json.Bool true);
  let cost =
    match Json.num (member_exn "cost" r) with
    | Some c -> c
    | None -> Alcotest.fail "cost is not a number"
  in
  Alcotest.(check bool) "positive finite cost" true
    (Float.is_finite cost && cost > 0.0);
  (* the embedded report carries the ebf/solver records of solve --json *)
  Alcotest.(check bool) "ebf record present" true
    (Json.member "ebf" r <> None);
  Alcotest.(check bool) "solver record present" true
    (Json.member "solver" r <> None);
  (* opting out of certification is honoured *)
  let r =
    respond
      {|{"id": "r2", "bench": "prim1s", "size": "tiny", "certify": false}|}
  in
  Alcotest.(check bool) "uncertified on request" true
    (member_exn "certified" r = Json.Bool false)

(* the daemon's bench workload is the [lubt batch] protocol: its cost
   must equal a direct library solve over the same baseline window *)
let test_bench_solve_matches_library () =
  let spec = Benchmarks.find Benchmarks.Tiny "prim2s" in
  let b = Protocol.run_baseline spec ~skew_rel:0.5 in
  let run = Protocol.run_lubt_from_baseline b in
  let expected = run.Protocol.cost in
  let r = respond {|{"id": "m", "bench": "prim2s", "size": "tiny"}|} in
  match Json.num (member_exn "cost" r) with
  | None -> Alcotest.fail "cost is not a number"
  | Some cost ->
    (* same lengths, so only summation rounding may separate the LP
       objective from Routed.cost *)
    Alcotest.(check (float 1e-2)) "daemon cost = library cost" expected cost

let test_inline_instance_solve () =
  (* a 4-sink instance round-tripped through the Io text format *)
  let sinks =
    [| Point.make 0.0 100.0; Point.make 100.0 0.0;
       Point.make 100.0 200.0; Point.make 200.0 100.0 |]
  in
  let inst =
    Instance.uniform_bounds ~source:(Point.make 0.0 0.0) ~sinks ~lower:0.0
      ~upper:500.0 ()
  in
  let text = Io.instance_to_string inst in
  let req =
    Printf.sprintf {|{"id": "i1", "instance": %s}|}
      (Json.to_string (Json.Str text))
  in
  let r = respond req in
  Alcotest.(check bool) "ok" true (is_ok r);
  Alcotest.(check bool) "validated" true
    (member_exn "validated" r = Json.Bool true)

let test_deadline_expiry () =
  (* a vanishing per-request budget must come back as a structured
     time_limit error, not a late success and not a dead session *)
  let r =
    respond
      {|{"id": "t", "bench": "r3s", "size": "tiny", "time_limit": 1e-9}|}
  in
  Alcotest.(check bool) "not ok" false (is_ok r);
  Alcotest.(check string) "time_limit code" "time_limit" (error_code r);
  Alcotest.(check bool) "id echoed" true (member_exn "id" r = Json.Str "t")

(* ------------------------------------------------------------------ *)
(* ECO requests (op "eco"): incremental re-solve over the cache        *)
(* ------------------------------------------------------------------ *)

let respond_cached cache line =
  parse_response (Serve.response_of_request ~cache line)

(* the JSON instance literal shared by the eco tests: the 4-sink star,
   escaped through the Io text format *)
let inline_instance_text () =
  let sinks =
    [| Point.make 0.0 100.0; Point.make 100.0 0.0;
       Point.make 100.0 200.0; Point.make 200.0 100.0 |]
  in
  let inst =
    Instance.uniform_bounds ~source:(Point.make 0.0 0.0) ~sinks ~lower:0.0
      ~upper:500.0 ()
  in
  Json.to_string (Json.Str (Io.instance_to_string inst))

let ebf_cache_name r =
  match Json.member "cache" (member_exn "ebf" r) with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "ebf record lacks a cache member: %s" (Json.to_string r)

(* solve, then eco re-solve of the edited instance through one shared
   cache: the eco answer must warm-start from the base solve's basis *)
let test_eco_roundtrip () =
  let text = inline_instance_text () in
  let eco_line =
    Printf.sprintf
      {|{"id": "e1", "op": "eco", "instance": %s, "edits": [{"edit": "set_bounds", "sink": 2, "lower": 1.0, "upper": 450.0}, {"edit": "move_sink", "sink": 0, "dx": 3.0, "dy": -2.0}]}|}
      text
  in
  let cache = Basis_cache.create () in
  let base =
    respond_cached cache (Printf.sprintf {|{"id": "b", "instance": %s}|} text)
  in
  Alcotest.(check bool) "base solve ok" true (is_ok base);
  Alcotest.(check string) "base solve is a cold miss" "miss"
    (ebf_cache_name base);
  let eco = respond_cached cache eco_line in
  Alcotest.(check bool) "eco ok" true (is_ok eco);
  Alcotest.(check bool) "id echoed" true (member_exn "id" eco = Json.Str "e1");
  Alcotest.(check bool) "validated" true
    (member_exn "validated" eco = Json.Bool true);
  let name = ebf_cache_name eco in
  Alcotest.(check bool) ("eco warm-started from the cache: " ^ name) true
    (name = "exact" || name = "parent");
  let s = Basis_cache.stats cache in
  Alcotest.(check bool) "hit counted" true (s.Basis_cache.hits >= 1);
  (* the same request without a cache still answers, reporting it ran
     cold — eco does not require a cache to be correct *)
  let cold = respond eco_line in
  Alcotest.(check bool) "cacheless eco ok" true (is_ok cold);
  Alcotest.(check string) "cacheless eco reports cache off" "off"
    (ebf_cache_name cold)

(* malformed edit payloads are request errors; a well-formed edit that
   cannot apply is an [edit_failed], never a crashed session *)
let test_eco_malformed_edits () =
  let text = inline_instance_text () in
  let code line = error_code (respond line) in
  let eco edits =
    Printf.sprintf {|{"id": "m", "op": "eco", "instance": %s, "edits": %s}|}
      text edits
  in
  Alcotest.(check string) "missing edits member" "bad_request"
    (code (Printf.sprintf {|{"id": "m", "op": "eco", "instance": %s}|} text));
  List.iter
    (fun (what, edits) ->
      Alcotest.(check string) what "bad_request" (code (eco edits)))
    [
      ("empty edits", {|[]|});
      ("edits not an array", {|{"edit": "set_bounds"}|});
      ("edit without a kind", {|[{"sink": 1}]|});
      ("unknown edit kind", {|[{"edit": "frobnicate", "sink": 1}]|});
      ( "fractional sink index",
        {|[{"edit": "set_bounds", "sink": 1.5, "lower": 1.0, "upper": 2.0}]|}
      );
      ( "negative lower bound",
        {|[{"edit": "set_bounds", "sink": 1, "lower": -1.0, "upper": 2.0}]|}
      );
      ("move without dx", {|[{"edit": "move_sink", "sink": 1, "dy": 1.0}]|});
    ];
  Alcotest.(check string) "out-of-range sink applies as edit_failed"
    "edit_failed"
    (code (eco {|[{"edit": "remove_sink", "sink": 99}]|}))

(* a coordinate JSON or the instance text can spell but geometry cannot
   use (nan, inf, an overflowing move) is a typed error before any
   solve: bad_request for an inline instance, edit_failed for an edit *)
let test_non_finite_coordinates () =
  let r =
    respond
      (Printf.sprintf {|{"id": "n", "instance": %s}|}
         (Json.to_string
            (Json.Str "sink 0 0 0 inf\nsink nan 5 0 inf\nsink 3 4 0 inf\n")))
  in
  Alcotest.(check string) "nan sink is a bad request" "bad_request"
    (error_code r);
  let code line = error_code (respond line) in
  let eco edits =
    Printf.sprintf {|{"id": "m", "op": "eco", "instance": %s, "edits": %s}|}
      (inline_instance_text ()) edits
  in
  Alcotest.(check string) "move overflowing to inf" "edit_failed"
    (code
       (eco
          {|[{"edit": "move_sink", "sink": 0, "dx": 1e308, "dy": 0},
             {"edit": "move_sink", "sink": 0, "dx": 1e308, "dy": 0}]|}));
  Alcotest.(check string) "added sink at 1e400" "edit_failed"
    (code (eco {|[{"edit": "add_sink", "x": 1e400, "y": 0}]|}))

(* every reply, whatever its outcome, starts with its id: clients may
   read the id off the line's prefix *)
let test_id_first () =
  List.iter
    (fun line ->
      let reply = Serve.response_of_request line in
      Alcotest.(check bool) ("id first: " ^ reply) true
        (String.starts_with ~prefix:{|{"id": "f", "ok": |} reply))
    [
      {|{"id": "f", "op": "ping"}|};
      {|{"id": "f", "op": "metrics"}|};
      {|{"id": "f", "op": "sleep", "ms": 0}|};
      {|{"id": "f", "bench": "prim1s"}|};
      {|{"id": "f", "bench": "prim1s", "degrade": true}|};
      {|{"id": "f", "bench": "r3s", "degrade": true, "time_limit": 1e-9}|};
      {|{"id": "f", "op": "bogus"}|};
    ]

(* The decoder is total: random bytes, and valid requests with a few
   bytes replaced, inserted or deleted or cut short, decode to Ok or to
   an Error, never an exception. *)
let prop_parse_request_total =
  let seeds =
    [
      {|{"id": "r1", "bench": "prim1s", "size": "tiny", "seed": 3, "skew": 0.5}|};
      {|{"id": 2, "instance": "sink 0 1 0 inf\nsink 2 3 0 inf\n", "certify": true, "time_limit": 5.0}|};
      {|{"id": 3, "instance": "source 0 0\nsink 0 1 0 9\nsink 2 3 0 9\n", "topology": "nodes 4\nedge 1 0\nedge 2 1\nedge 3 1\nsink 2\nsink 3\n"}|};
      {|{"id": "e", "op": "eco", "bench": "r1s", "edits": [{"edit": "set_bounds", "sink": 2, "lower": 1.5, "upper": 4.0}, {"edit": "move_sink", "sink": 0, "dx": -3.0, "dy": 1.0}, {"edit": "add_sink", "x": 10.0, "y": 4.0, "upper": 9.0}, {"edit": "remove_sink", "sink": 1}]}|};
      {|{"id": "p", "op": "ping"}|};
      {|{"id": "s", "op": "sleep", "ms": 5}|};
    ]
  in
  QCheck.Test.make ~name:"parse_request never raises" ~count:3000
    (Fuzz.arbitrary (QCheck.Gen.oneofl seeds)) (fun line ->
      match Lubt_experiments.Serve_request.parse_request line with
      | Ok _ | Error _ -> true)

(* daemon restart over a --cache-dir disk tier: a brand-new in-memory
   cache over the same directory warm-starts from the persisted
   snapshot; a genuinely cold cache answers correctly from scratch *)
let test_eco_restart_cache () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lubt-serve-cache-%d-%d" (Unix.getpid ())
         (Random.int 100000))
  in
  let rm_rf () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:rm_rf (fun () ->
      let text = inline_instance_text () in
      let solve_line = Printf.sprintf {|{"id": "s", "instance": %s}|} text in
      let c1 = Basis_cache.create ~dir () in
      let r1 = respond_cached c1 solve_line in
      Alcotest.(check bool) "first daemon's solve ok" true (is_ok r1);
      (* "restart": same directory, fresh in-memory tier *)
      let c2 = Basis_cache.create ~dir () in
      let r2 = respond_cached c2 solve_line in
      Alcotest.(check bool) "restarted daemon's solve ok" true (is_ok r2);
      Alcotest.(check string) "snapshot survives the restart" "exact"
        (ebf_cache_name r2);
      Alcotest.(check bool) "disk hit counted" true
        ((Basis_cache.stats c2).Basis_cache.hits >= 1);
      (* cold-cache restart path: no directory carried over — a clean
         miss, identical answer *)
      let c3 = Basis_cache.create () in
      let r3 = respond_cached c3 solve_line in
      Alcotest.(check bool) "cold restart solve ok" true (is_ok r3);
      Alcotest.(check string) "cold restart is a miss" "miss"
        (ebf_cache_name r3))

(* the renderer shared with [lubt solve --json] emits checker-clean
   JSON whose members match the serve response's payload *)
let test_report_renderer_shared () =
  let spec = Benchmarks.find Benchmarks.Tiny "prim1s" in
  let b = Protocol.run_baseline spec ~skew_rel:0.5 in
  let inst =
    Lubt_bst.Bst_dme.extract_instance b.Protocol.bst
  in
  let options =
    { Ebf.default_options with Ebf.check = Lubt_lp.Certify.Full }
  in
  match Lubt.solve ~options inst b.Protocol.bst.Lubt_bst.Bst_dme.topology with
  | Error e -> Alcotest.fail (Lubt.error_to_string e)
  | Ok report ->
    let j = Serve.solve_report_json report ~validated:true in
    Alcotest.(check bool) "report is checker-clean JSON" true
      (Json_check.json_valid j);
    (match Json.parse j with
    | Error e -> Alcotest.fail e
    | Ok parsed ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " member present") true
            (Json.member k parsed <> None))
        [ "cost"; "validated"; "certified"; "ebf"; "solver" ];
      (* each round reports its scan, append and solve times; a round
         that appends nothing spends nothing on appending *)
      let rounds =
        match Json.arr (member_exn "round_stats" (member_exn "ebf" parsed)) with
        | Some rs -> rs
        | None -> Alcotest.fail "round_stats is not an array"
      in
      Alcotest.(check bool) "rounds reported" true (rounds <> []);
      List.iter
        (fun r ->
          let num k =
            match Json.num (member_exn k r) with
            | Some v -> v
            | None -> Alcotest.failf "%s is not a number" k
          in
          List.iter
            (fun k -> Alcotest.(check bool) (k ^ " >= 0") true (num k >= 0.0))
            [ "scan_ms"; "append_ms"; "solve_ms" ];
          if num "rows_added" = 0.0 then
            Alcotest.(check (float 0.0)) "no append time" 0.0 (num "append_ms"))
        rounds)

(* ------------------------------------------------------------------ *)
(* Socket-level tests                                                  *)
(* ------------------------------------------------------------------ *)

let temp_socket () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "lubt-test-%d-%d.sock" (Unix.getpid ()) (Random.int 100000))

let with_daemon ?(jobs = 2) ?(max_pending = 64) ?(watchdog = infinity)
    ?(breaker_p95_ms = infinity) ?(breaker_queue = 0) ?(breaker_cooldown = 1.0)
    ?chaos ?metrics_port f =
  let path = temp_socket () in
  let cfg =
    {
      Serve.default_config with
      Serve.socket = Some path;
      jobs;
      max_pending;
      watchdog;
      breaker_p95_ms;
      breaker_queue;
      breaker_cooldown;
      chaos;
      metrics_port;
    }
  in
  match Serve.spawn cfg with
  | Error msg -> Alcotest.fail msg
  | Ok handle ->
    let stats =
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let r = f path in
          let stats = Serve.shutdown handle in
          (r, stats))
    in
    stats

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

(* read whole lines until [want] of them have arrived (or EOF) *)
let read_lines fd want =
  let buf = Bytes.create 65536 in
  let rec go acc partial =
    if List.length acc >= want then List.rev acc
    else
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> List.rev acc
      | n ->
        let data = partial ^ Bytes.sub_string buf 0 n in
        let parts = String.split_on_char '\n' data in
        let rec walk acc = function
          | [] -> (acc, "")
          | [ last ] -> (acc, last)
          | l :: rest ->
            walk (if String.trim l = "" then acc else l :: acc) rest
        in
        let acc, last = walk acc parts in
        go acc last
  in
  go [] ""

let response_id j =
  match Json.member "id" j with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.fail "response without string id"

(* concurrent pipelined clients: every request answered exactly once,
   matched by id, all optimal, and equal ids (same workload) agree on
   the cost — the daemon must give deterministic certified objectives
   under concurrency *)
let test_socket_concurrent_clients () =
  let nconns = 5 and per_conn = 4 in
  let _, stats =
    with_daemon ~jobs:2 (fun path ->
        let fds = Array.init nconns (fun _ -> connect path) in
        Array.iteri
          (fun c fd ->
            for k = 0 to per_conn - 1 do
              (* two distinct workloads alternating, so equal ids across
                 connections must produce equal costs *)
              let bench = if k mod 2 = 0 then "prim1s" else "prim2s" in
              send fd
                (Printf.sprintf
                   {|{"id": "c%d-k%d-%s", "bench": "%s", "size": "tiny"}|} c k
                   bench bench)
            done)
          fds;
        let by_bench : (string, float) Hashtbl.t = Hashtbl.create 4 in
        Array.iteri
          (fun _ fd ->
            let lines = read_lines fd per_conn in
            Alcotest.(check int) "every request answered" per_conn
              (List.length lines);
            List.iter
              (fun line ->
                let j = parse_response line in
                Alcotest.(check bool) ("ok: " ^ line) true (is_ok j);
                let id = response_id j in
                (* id suffix names the bench it asked for *)
                let bench =
                  List.nth (String.split_on_char '-' id) 2
                in
                let cost =
                  match Json.num (member_exn "cost" j) with
                  | Some c -> c
                  | None -> Alcotest.fail "cost is not a number"
                in
                match Hashtbl.find_opt by_bench bench with
                | None -> Hashtbl.add by_bench bench cost
                | Some c0 ->
                  Alcotest.(check (float 0.0))
                    ("deterministic cost for " ^ bench) c0 cost)
              lines)
          fds;
        Array.iter (fun fd -> Unix.close fd) fds;
        Alcotest.(check int) "both workloads seen" 2 (Hashtbl.length by_bench))
  in
  Alcotest.(check int) "stats: all sessions counted" nconns stats.Serve.connections;
  Alcotest.(check int) "stats: all requests served" (nconns * per_conn)
    stats.Serve.served;
  Alcotest.(check int) "stats: none failed" 0 stats.Serve.failed

(* a malformed line gets its error and the session keeps serving *)
let test_socket_malformed_then_alive () =
  let _, stats =
    with_daemon (fun path ->
        let fd = connect path in
        send fd "this is not json";
        send fd {|{"id": "after", "op": "ping"}|};
        let lines = read_lines fd 2 in
        Alcotest.(check int) "both lines answered" 2 (List.length lines);
        let codes =
          List.filter_map
            (fun l ->
              let j = parse_response l in
              if is_ok j then None else Some (error_code j))
            lines
        in
        Alcotest.(check (list string)) "one bad_request" [ "bad_request" ]
          codes;
        let pings =
          List.filter
            (fun l ->
              let j = parse_response l in
              is_ok j && response_id j = "after")
            lines
        in
        Alcotest.(check int) "the ping after the garbage answered" 1
          (List.length pings);
        Unix.close fd)
  in
  Alcotest.(check bool) "daemon survived to a clean shutdown" true
    (stats.Serve.served = 2)

(* jobs=1 + max_pending=1 + a slow request: the queue admits exactly one
   follower; the rest must be refused immediately as overloaded *)
let test_socket_backpressure () =
  let _, stats =
    with_daemon ~jobs:1 ~max_pending:1 (fun path ->
        let fd = connect path in
        send fd {|{"id": "slow", "op": "sleep", "ms": 400}|};
        (* give the worker time to pick "slow" up, emptying the queue *)
        Unix.sleepf 0.1;
        send fd {|{"id": "queued", "op": "sleep", "ms": 1}|};
        Unix.sleepf 0.05;
        send fd {|{"id": "refused1", "op": "sleep", "ms": 1}|};
        send fd {|{"id": "refused2", "op": "sleep", "ms": 1}|};
        let lines = read_lines fd 4 in
        let ok_ids, rejected_ids =
          List.partition_map
            (fun l ->
              let j = parse_response l in
              if is_ok j then Left (response_id j)
              else begin
                Alcotest.(check string) "overloaded code" "overloaded"
                  (error_code j);
                Right (response_id j)
              end)
            lines
        in
        Alcotest.(check (slist string String.compare))
          "slow and queued complete" [ "queued"; "slow" ] ok_ids;
        Alcotest.(check (slist string String.compare))
          "the overflow is refused" [ "refused1"; "refused2" ] rejected_ids;
        Unix.close fd)
  in
  Alcotest.(check int) "stats count the rejections" 2 stats.Serve.rejected

(* a client that hangs up with responses still in flight must cost the
   daemon only that session: the worker's response hits a dead socket,
   the select loop prunes the session, and other clients keep being
   served (regression: a worker-side close of the fd used to race the
   select loop into an unhandled EBADF, crashing the whole daemon) *)
let test_socket_client_vanishes () =
  let _, _ =
    with_daemon ~jobs:1 (fun path ->
        let fd = connect path in
        send fd {|{"id": "gone", "op": "sleep", "ms": 50}|};
        Unix.close fd;
        (* let the sleep finish and its response hit the closed socket *)
        Unix.sleepf 0.3;
        let fd2 = connect path in
        send fd2 {|{"id": "alive", "op": "ping"}|};
        (match read_lines fd2 1 with
        | [ line ] ->
          let j = parse_response line in
          Alcotest.(check bool) "daemon still serving" true (is_ok j);
          Alcotest.(check string) "the later client's id" "alive"
            (response_id j)
        | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls));
        Unix.close fd2)
  in
  ()

(* a per-request deadline expiring inside the daemon comes back as a
   time_limit error on the wire *)
let test_socket_deadline () =
  let _, _ =
    with_daemon (fun path ->
        let fd = connect path in
        send fd
          {|{"id": "tl", "bench": "r1s", "size": "tiny", "time_limit": 1e-9}|};
        (match read_lines fd 1 with
        | [ line ] ->
          let j = parse_response line in
          Alcotest.(check bool) "not ok" false (is_ok j);
          Alcotest.(check string) "time_limit" "time_limit" (error_code j)
        | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls));
        Unix.close fd)
  in
  ()

(* send one line and read its one response *)
let probe fd line =
  send fd line;
  match read_lines fd 1 with
  | [ l ] -> parse_response l
  | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls)

(* a request line split across two writes is still one request; a line
   at the length bound is parsed, one byte over it is answered once
   with too_large, dropped to its newline, and the session goes on *)
let test_socket_line_bound () =
  let _, stats =
    with_daemon (fun path ->
        let fd = connect path in
        let ping = {|{"id": "split", "op": "ping"}|} in
        ignore (Unix.write_substring fd ping 0 10);
        Unix.sleepf 0.05;
        let j = probe fd (String.sub ping 10 (String.length ping - 10)) in
        Alcotest.(check string) "split line answered as one" "split"
          (response_id j);
        let j = probe fd (String.make Serve.max_line_bytes 'x') in
        Alcotest.(check string) "a line at the bound is parsed" "bad_request"
          (error_code j);
        send fd (String.make (Serve.max_line_bytes + 1) 'x');
        send fd {|{"id": "after", "op": "ping"}|};
        (match List.map parse_response (read_lines fd 2) with
        | [ big; after ] ->
          Alcotest.(check string) "one byte over is too_large" "too_large"
            (error_code big);
          Alcotest.(check bool) "too_large echoes a null id" true
            (member_exn "id" big = Json.Null);
          Alcotest.(check string) "the next line is served" "after"
            (response_id after)
        | ls -> Alcotest.failf "expected 2 lines, got %d" (List.length ls));
        Unix.close fd)
  in
  Alcotest.(check int) "stats: bad_request and too_large failed" 2
    stats.Serve.failed;
  Alcotest.(check int) "stats: every answer served" 4 stats.Serve.served

(* a counter's value in a [metrics] dump *)
let dumped dump name =
  match member_exn "metrics" dump with
  | Json.Arr samples -> (
    match
      List.find_opt
        (fun m -> Json.member "name" m = Some (Json.Str name))
        samples
    with
    | Some m -> (
      match Json.num (member_exn "value" m) with
      | Some v -> int_of_float v
      | None -> Alcotest.failf "%s has no numeric value" name)
    | None -> Alcotest.failf "%s missing from the dump" name)
  | _ -> Alcotest.fail "metrics is not an array"

let health_count h name =
  match Json.num (member_exn name (member_exn "health" h)) with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "health %s is not a number" name

(* ping health, a metrics dump and the shutdown stats read one store:
   after ok, malformed, overloaded and degraded requests, and a client
   that hangs up with requests still queued (cancelled unanswered, so
   counted nowhere), the three agree on every outcome count, up to the
   probes this test sends itself *)
let test_socket_counts_agree () =
  let (h, d0, d1), stats =
    with_daemon ~jobs:1 ~max_pending:4 (fun path ->
        let fd = connect path in
        let d0 = probe fd {|{"id": "m0", "op": "metrics"}|} in
        let gone = connect path in
        let sleep_on fd id ms =
          send fd
            (Printf.sprintf {|{"id": "%s", "op": "sleep", "ms": %d}|} id ms)
        in
        sleep_on gone "g1" 50;
        Unix.sleepf 0.02;
        List.iter (fun id -> sleep_on gone id 50) [ "g2"; "g3"; "g4"; "g5" ];
        Unix.close gone;
        (* g1's answer hits the closed socket; the session is dropped and
           the requests still queued behind it are cancelled *)
        Unix.sleepf 0.4;
        send fd {|{"id": "ok", "bench": "prim1s", "size": "tiny"}|};
        send fd "not json";
        send fd
          {|{"id": "deg", "bench": "prim1s", "size": "tiny", "degrade": true, "time_limit": 1e-9}|};
        Alcotest.(check int) "first batch answered" 3
          (List.length (read_lines fd 3));
        sleep_on fd "slow" 300;
        Unix.sleepf 0.1;
        List.iter (fun id -> sleep_on fd id 1)
          [ "q1"; "q2"; "q3"; "q4"; "over" ];
        send fd
          {|{"id": "inline", "bench": "prim1s", "size": "tiny", "degrade": true}|};
        let lines = List.map parse_response (read_lines fd 7) in
        Alcotest.(check int) "second batch answered" 7 (List.length lines);
        let h = probe fd {|{"id": "h", "op": "ping"}|} in
        let d1 = probe fd {|{"id": "m1", "op": "metrics"}|} in
        Unix.close fd;
        (h, d0, d1))
  in
  let delta name = dumped d1 name - dumped d0 name in
  let served = health_count h "served" in
  let rejected = health_count h "rejected" in
  let failed = health_count h "failed" in
  let degraded = health_count h "degraded" in
  Alcotest.(check bool) "the overflow was rejected" true (rejected >= 1);
  Alcotest.(check bool) "the malformed line failed" true (failed >= 1);
  Alcotest.(check bool) "deadline and inline answers degraded" true
    (degraded >= 2);
  (* m0 is answered before health renders, the ping [h] after *)
  Alcotest.(check int) "dump: requests = health served + rejected + ping"
    (served + rejected + 1)
    (delta "lubt_requests_total");
  Alcotest.(check int) "dump: rejected" rejected
    (delta "lubt_serve_rejected_total");
  Alcotest.(check int) "dump: failed" failed (delta "lubt_serve_failed_total");
  Alcotest.(check int) "dump: degraded" degraded
    (delta "lubt_serve_degraded_total");
  (* the stats also count the ping [h] and the dump [m1] *)
  Alcotest.(check int) "stats: served" (served + 2) stats.Serve.served;
  Alcotest.(check int) "stats: rejected" rejected stats.Serve.rejected;
  Alcotest.(check int) "stats: failed" failed stats.Serve.failed;
  Alcotest.(check int) "stats: degraded" degraded stats.Serve.degraded;
  Alcotest.(check int) "stats: connections" 2 stats.Serve.connections

(* the deadline of a request's [time_limit] starts when the daemon
   dispatches it, not when a worker picks it up: a solve that waited
   out its whole budget behind a sleep on the one worker answers
   time_limit instead of starting late *)
let test_socket_deadline_from_dispatch () =
  let _, _ =
    with_daemon ~jobs:1 (fun path ->
        let fd = connect path in
        send fd {|{"id": "slow", "op": "sleep", "ms": 300}|};
        send fd
          {|{"id": "tl", "bench": "prim1s", "size": "tiny", "time_limit": 0.1}|};
        let lines = List.map parse_response (read_lines fd 2) in
        (match List.find_opt (fun j -> response_id j = "tl") lines with
        | Some j ->
          Alcotest.(check bool) "not ok" false (is_ok j);
          Alcotest.(check string) "time_limit" "time_limit" (error_code j)
        | None -> Alcotest.fail "the solve was not answered");
        Unix.close fd)
  in
  ()

(* a TCP port nobody listens on: bind port 0, read the kernel's pick *)
let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> Alcotest.fail "port 0 bound a unix address")

let http_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* a daemon that never answers fails the test instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  fd

(* send [request] raw and read the reply to EOF; "" when the daemon
   closed the session without one (a reset counts as a close) *)
let scrape port request =
  let fd = http_connect port in
  let n = String.length request in
  let rec write off =
    if off < n then write (off + Unix.write_substring fd request off (n - off))
  in
  write 0;
  let reply = Buffer.create 4096 and b = Bytes.create 4096 in
  let rec read () =
    match Unix.read fd b 0 (Bytes.length b) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes reply b 0 k;
      read ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail "the metrics endpoint neither answered nor closed"
  in
  read ();
  Unix.close fd;
  Buffer.contents reply

let status_line reply =
  match String.index_opt reply '\r' with
  | Some i -> String.sub reply 0 i
  | None -> reply

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* the Prometheus endpoint: one GET per session, answered and closed;
   CRLF and bare-LF headers alike; a header flood closed unanswered; an
   idle scraper never holds up the protocol; and scrapes stay out of
   the protocol accounting *)
let test_metrics_endpoint () =
  let port = free_port () in
  let _, stats =
    with_daemon ~metrics_port:port (fun path ->
        let fd = connect path in
        (* a loop stuck on a scraper fails the probes below, not hangs *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        let h0 = probe fd {|{"id": "h0", "op": "ping"}|} in
        let r = scrape port "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" in
        Alcotest.(check string) "GET /metrics" "HTTP/1.1 200 OK"
          (status_line r);
        Alcotest.(check bool) "exposition names lubt_requests_total" true
          (contains r "lubt_requests_total");
        Alcotest.(check bool) "Connection: close" true
          (contains r "Connection: close\r\n");
        Alcotest.(check string) "bare-LF header" "HTTP/1.1 200 OK"
          (status_line (scrape port "GET /metrics HTTP/1.0\nHost: x\n\n"));
        Alcotest.(check string) "GET / is the exposition too"
          "HTTP/1.1 200 OK"
          (status_line (scrape port "GET / HTTP/1.1\r\n\r\n"));
        Alcotest.(check string) "other paths" "HTTP/1.1 404 Not Found"
          (status_line (scrape port "GET /nope HTTP/1.1\r\n\r\n"));
        Alcotest.(check string) "other methods"
          "HTTP/1.1 405 Method Not Allowed"
          (status_line (scrape port "POST /metrics HTTP/1.1\r\n\r\n"));
        Alcotest.(check string) "a 9 KiB header is closed unanswered" ""
          (scrape port
             ("GET /metrics HTTP/1.1\r\nX-Pad: " ^ String.make 9216 'a'));
        let idle = http_connect port in
        let t0 = Unix.gettimeofday () in
        let pong = probe fd {|{"id": "p", "op": "ping"}|} in
        Alcotest.(check bool) "ping answered beside an idle scraper" true
          (is_ok pong);
        Alcotest.(check bool) "without delay" true
          (Unix.gettimeofday () -. t0 < 1.0);
        Unix.close idle;
        let h1 = probe fd {|{"id": "h1", "op": "ping"}|} in
        Unix.close fd;
        Alcotest.(check int) "scrapes are not sessions"
          (health_count h0 "connections")
          (health_count h1 "connections");
        (* h0 and p were answered after h0 rendered *)
        Alcotest.(check int) "scrapes are not requests"
          (health_count h0 "served" + 2)
          (health_count h1 "served"))
  in
  Alcotest.(check int) "stats: one protocol session" 1 stats.Serve.connections;
  Alcotest.(check int) "stats: three pings" 3 stats.Serve.served

(* ------------------------------------------------------------------ *)
(* Fault tolerance: health, degradation, breaker, watchdog, chaos      *)
(* ------------------------------------------------------------------ *)

module Executor = Lubt_util.Pool.Executor

(* ping carries the health object clients use for admission decisions *)
let test_socket_ping_health () =
  let _, _ =
    with_daemon (fun path ->
        let fd = connect path in
        send fd {|{"id": "h", "op": "ping"}|};
        (match read_lines fd 1 with
        | [ line ] ->
          let j = parse_response line in
          Alcotest.(check bool) "ok" true (is_ok j);
          let h = member_exn "health" j in
          List.iter
            (fun k ->
              Alcotest.(check bool) ("health has " ^ k) true
                (Json.member k h <> None))
            [
              "pending"; "running"; "workers"; "restarts"; "watchdog_fires";
              "breaker_open"; "p95_ms"; "served"; "degraded"; "rejected";
              "cache_hits"; "cache_misses";
            ];
          Alcotest.(check bool) "breaker closed" true
            (member_exn "breaker_open" h = Json.Bool false)
        | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls));
        Unix.close fd)
  in
  ()

(* a degrade-opted request under a vanishing deadline is answered by a
   lower rung and says so; the heuristic tree misses the request's delay
   window, so the reply is not ok and names the bounds it breaks *)
let test_socket_degraded () =
  let _, stats =
    with_daemon (fun path ->
        let fd = connect path in
        send fd
          {|{"id": "d", "bench": "prim1s", "size": "tiny", "degrade": true, "time_limit": 1e-9}|};
        (match read_lines fd 1 with
        | [ line ] ->
          let j = parse_response line in
          Alcotest.(check bool) "not ok: the tree breaks its bounds" false
            (is_ok j);
          Alcotest.(check string) "error code" "bounds_violated" (error_code j);
          Alcotest.(check bool) "violations counted" true
            (match
               Json.num (member_exn "violations" (member_exn "error" j))
             with
            | Some n -> n >= 1.0
            | None -> false);
          Alcotest.(check bool) "marked degraded" true
            (member_exn "degraded" j = Json.Bool true);
          Alcotest.(check bool) "status degraded" true
            (member_exn "status" j = Json.Str "degraded");
          (match member_exn "quality" j with
          | Json.Str q ->
            Alcotest.(check bool) ("known rung: " ^ q) true
              (List.mem q [ "uncertified"; "reduced"; "heuristic" ])
          | _ -> Alcotest.fail "quality is not a string");
          Alcotest.(check bool) "positive cost" true
            (match Json.num (member_exn "cost" j) with
            | Some c -> Float.is_finite c && c > 0.0
            | None -> false)
        | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls));
        (* without the opt-in the same deadline still fails *)
        send fd
          {|{"id": "n", "bench": "prim1s", "size": "tiny", "time_limit": 1e-9}|};
        (match read_lines fd 1 with
        | [ line ] ->
          let j = parse_response line in
          Alcotest.(check bool) "not ok without opt-in" false (is_ok j)
        | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls));
        Unix.close fd)
  in
  Alcotest.(check int) "stats count the degradation" 1 stats.Serve.degraded

(* queue-depth breaker: once the queue reaches the bound the daemon
   rejects fast with breaker_open and a retry_after_ms hint *)
let test_socket_breaker () =
  let _, stats =
    with_daemon ~jobs:1 ~max_pending:8 ~breaker_queue:1 ~breaker_cooldown:0.2
      (fun path ->
        let fd = connect path in
        send fd {|{"id": "slow", "op": "sleep", "ms": 400}|};
        Unix.sleepf 0.1;
        send fd {|{"id": "queued", "op": "sleep", "ms": 1}|};
        Unix.sleepf 0.05;
        send fd {|{"id": "shed", "op": "sleep", "ms": 1}|};
        let lines = read_lines fd 3 in
        let shed =
          List.filter_map
            (fun l ->
              let j = parse_response l in
              if is_ok j then None else Some j)
            lines
        in
        (match shed with
        | [ j ] ->
          Alcotest.(check string) "breaker_open code" "breaker_open"
            (error_code j);
          Alcotest.(check string) "rejected id" "shed" (response_id j);
          let hint =
            match Json.member "error" j with
            | Some e -> Json.member "retry_after_ms" e
            | None -> None
          in
          (match hint with
          | Some h ->
            Alcotest.(check bool) "positive retry_after_ms" true
              (match Json.num h with Some ms -> ms > 0.0 | None -> false)
          | None -> Alcotest.fail "no retry_after_ms hint")
        | l -> Alcotest.failf "expected 1 rejection, got %d" (List.length l));
        Unix.close fd)
  in
  Alcotest.(check bool) "stats count the trip" true
    (stats.Serve.breaker_trips >= 1);
  Alcotest.(check int) "stats count the rejection" 1 stats.Serve.rejected

(* p95 breaker: one completed 100 ms request puts the window's p95
   over a 50 ms threshold, so the next sleep is shed; the first one is
   admitted because the latencies earlier daemons in this process
   recorded are not this daemon's window *)
let test_socket_p95_breaker () =
  let _, stats =
    with_daemon ~jobs:1 ~breaker_p95_ms:50.0 (fun path ->
        let fd = connect path in
        let j = probe fd {|{"id": "first", "op": "sleep", "ms": 100}|} in
        Alcotest.(check bool) "a cold window admits" true (is_ok j);
        let j = probe fd {|{"id": "shed", "op": "sleep", "ms": 100}|} in
        Alcotest.(check string) "breaker_open code" "breaker_open"
          (error_code j);
        (match Json.member "retry_after_ms" (member_exn "error" j) with
        | Some ms ->
          Alcotest.(check bool) "positive retry_after_ms" true
            (match Json.num ms with Some ms -> ms > 0.0 | None -> false)
        | None -> Alcotest.fail "no retry_after_ms hint");
        let h = member_exn "health" (probe fd {|{"id": "h", "op": "ping"}|}) in
        Alcotest.(check bool) "health: breaker open" true
          (member_exn "breaker_open" h = Json.Bool true);
        (match Json.num (member_exn "p95_ms" h) with
        | Some p ->
          Alcotest.(check bool) "health: finite p95 over the threshold" true
            (Float.is_finite p && p >= 50.0)
        | None -> Alcotest.fail "health p95_ms is not a number");
        Unix.close fd)
  in
  Alcotest.(check bool) "stats count the trip" true
    (stats.Serve.breaker_trips >= 1);
  Alcotest.(check int) "stats count the rejection" 1 stats.Serve.rejected

(* the watchdog deposes a stuck request's worker and answers the
   request with a structured watchdog_timeout *)
let test_socket_watchdog () =
  let _, stats =
    with_daemon ~jobs:1 ~watchdog:0.08 (fun path ->
        let fd = connect path in
        send fd {|{"id": "stuck", "op": "sleep", "ms": 500}|};
        (match read_lines fd 1 with
        | [ line ] ->
          let j = parse_response line in
          Alcotest.(check bool) "not ok" false (is_ok j);
          Alcotest.(check string) "watchdog_timeout code" "watchdog_timeout"
            (error_code j)
        | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls));
        (* the replacement worker serves the next request *)
        send fd {|{"id": "next", "op": "sleep", "ms": 1}|};
        (match read_lines fd 1 with
        | [ line ] ->
          Alcotest.(check bool) "replacement serves" true
            (is_ok (parse_response line))
        | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls));
        Unix.close fd)
  in
  Alcotest.(check int) "stats: one watchdog fire" 1 stats.Serve.watchdog_fires;
  Alcotest.(check bool) "stats: restart counted" true
    (stats.Serve.restarts >= 1)

(* seeded chaos killing every worker mid-solve: each request fails with
   worker_crashed, the daemon replaces the workers and stays up *)
let test_socket_chaos_crash () =
  let chaos = Executor.chaos_plan ~kill_rate:1.0 ~delay_rate:0.0 11 in
  let n = 4 in
  let _, stats =
    with_daemon ~jobs:2 ~chaos (fun path ->
        let fd = connect path in
        for k = 1 to n do
          send fd (Printf.sprintf {|{"id": "c%d", "op": "sleep", "ms": 1}|} k)
        done;
        let lines = read_lines fd n in
        Alcotest.(check int) "every request answered" n (List.length lines);
        List.iter
          (fun l ->
            let j = parse_response l in
            Alcotest.(check bool) "not ok" false (is_ok j);
            Alcotest.(check string) "worker_crashed code" "worker_crashed"
              (error_code j))
          lines;
        (* the session thread is untouched: ping still answers *)
        send fd {|{"id": "p", "op": "ping"}|};
        (match read_lines fd 1 with
        | [ line ] ->
          Alcotest.(check bool) "daemon alive" true
            (is_ok (parse_response line))
        | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls));
        Unix.close fd)
  in
  Alcotest.(check bool)
    (Printf.sprintf "restarts >= %d (got %d)" n stats.Serve.restarts)
    true
    (stats.Serve.restarts >= n);
  Alcotest.(check int) "every crash counted failed" n stats.Serve.failed

let () =
  Random.self_init ();
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "ping and id echo" `Quick test_ping_and_id_echo;
          Alcotest.test_case "bad requests" `Quick test_bad_requests;
          Alcotest.test_case "bench solve round-trip" `Quick
            test_bench_solve_roundtrip;
          Alcotest.test_case "matches library solve" `Quick
            test_bench_solve_matches_library;
          Alcotest.test_case "inline instance" `Quick
            test_inline_instance_solve;
          Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
          Alcotest.test_case "eco round-trip" `Quick test_eco_roundtrip;
          Alcotest.test_case "eco malformed edits" `Quick
            test_eco_malformed_edits;
          Alcotest.test_case "non-finite coordinates" `Quick
            test_non_finite_coordinates;
          Alcotest.test_case "id first in every reply" `Quick test_id_first;
          QCheck_alcotest.to_alcotest prop_parse_request_total;
          Alcotest.test_case "eco cache across daemon restart" `Quick
            test_eco_restart_cache;
          Alcotest.test_case "shared report renderer" `Quick
            test_report_renderer_shared;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "concurrent pipelined clients" `Quick
            test_socket_concurrent_clients;
          Alcotest.test_case "malformed line, session survives" `Quick
            test_socket_malformed_then_alive;
          Alcotest.test_case "backpressure refuses overflow" `Quick
            test_socket_backpressure;
          Alcotest.test_case "client vanishes mid-response" `Quick
            test_socket_client_vanishes;
          Alcotest.test_case "deadline over the wire" `Quick
            test_socket_deadline;
          Alcotest.test_case "line length bound" `Quick test_socket_line_bound;
          Alcotest.test_case "health, dump and stats agree" `Quick
            test_socket_counts_agree;
          Alcotest.test_case "deadline starts at dispatch" `Quick
            test_socket_deadline_from_dispatch;
          Alcotest.test_case "metrics endpoint" `Quick test_metrics_endpoint;
        ] );
      ( "faults",
        [
          Alcotest.test_case "ping health object" `Quick
            test_socket_ping_health;
          Alcotest.test_case "degraded over the wire" `Quick
            test_socket_degraded;
          Alcotest.test_case "breaker sheds load" `Quick test_socket_breaker;
          Alcotest.test_case "p95 breaker sheds load" `Quick
            test_socket_p95_breaker;
          Alcotest.test_case "watchdog over the wire" `Quick
            test_socket_watchdog;
          Alcotest.test_case "chaos crash contained" `Quick
            test_socket_chaos_crash;
        ] );
    ]
