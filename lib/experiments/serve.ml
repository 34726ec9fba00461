module Request = Serve_request
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
  Metrics.counter ~help:"Protocol sessions accepted"
    "lubt_serve_connections_total"

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

(* The request layer, re-exported for the CLI and the protocol tests *)
let solve_report_json = Request.solve_report_json
let response_of_request = Request.response_of_request

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

(* What a listener and its sessions speak: JSON lines, or one HTTP GET
   of the Prometheus exposition — a request line, header lines up to a
   blank one, one reply, then close. *)
type kind = Protocol | Http

type conn = {
  c_id : int;
  c_kind : kind;
  c_fd : Unix.file_descr;  (* non-blocking; closed by the select loop *)
  c_lock : Mutex.t;
  mutable c_state : conn_state;
  c_line : Buffer.t;  (* the current line's bytes, up to its newline *)
  mutable c_skipping : bool;
      (* the current line overran [max_line_bytes]: drop to its newline *)
  mutable c_read : int;  (* bytes read; an HTTP header is capped by it *)
  mutable c_request_line : string option;  (* HTTP: the header's first line *)
  c_out : string Queue.t;  (* response bytes awaiting the socket *)
  mutable c_out_off : int;  (* bytes of the queue head already written *)
  mutable c_out_bytes : int;  (* queued total, capped by [max_out_bytes] *)
  mutable c_tickets : Executor.ticket list;
      (* requests submitted and not yet answered *)
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

(* An HTTP header still unterminated after this many bytes is closed
   unanswered: not a scraper worth talking to. *)
let max_header_bytes = 8192

(* Scrapes stay out of the protocol's session and byte counters. *)
let count conn counter n =
  if conn.c_kind = Protocol then Metrics.incr counter ~by:(float_of_int n)

(* The breaker's p95 window: the registry's latency histograms minus
   the merged read taken two marks ago, where a mark moves forward
   once [lat_epoch] more requests have completed since the last one —
   the most recent 128–256 requests, read in O(buckets). *)
let lat_epoch = 128

type server = {
  cfg : config;
  executor : Executor.t;
  listeners : (Unix.file_descr * string * kind) list;
      (* fd, description, kind *)
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
  List.iter (fun tk -> ignore (Executor.cancel tk)) conn.c_tickets;
  conn.c_tickets <- [];
  match conn.c_state with
  | Dead | Closed -> ()
  | Reading | Draining ->
    conn.c_state <- Dead;
    (try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())

(* Queue one response for the select loop to flush. Responses are
   enqueued whole under the session lock, so concurrent workers
   interleave whole replies, never bytes — and nobody ever blocks in
   [Unix.write] while holding [c_lock]. *)
let enqueue_locked conn s =
  match conn.c_state with
  | Dead | Closed -> ()
  | Reading | Draining ->
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
        count conn m_bytes_out w;
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
  Mutex.protect conn.c_lock (fun () -> enqueue_locked conn (line ^ "\n"));
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
      | None -> ()));
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

let stats_members s = List.map (fun (k, v) -> (k, Json.int v)) (stats_fields s)

let stats_json s = Json.to_string (Json.Obj (stats_members s))

(* The ping payload doubles as the health probe: queue depth and worker
   state for admission decisions on the client side, this daemon's
   stats for monitoring. *)
let health_response server ~id =
  let ex = server.executor in
  let _, _, cache_rejects = cache_counters server.cfg in
  let health =
    [ ("pending", Json.int (Executor.pending ex));
      ("running", Json.int (Executor.running ex));
      ("workers", Json.int (Executor.workers ex));
      ("breaker_open", Json.Bool (Clock.now () < server.breaker_until));
      ("p95_ms", Json.Num (p95_ms server)) ]
    @ stats_members (server_stats server)
    @ [ ("cache_rejects", Json.int cache_rejects) ]
  in
  Request.reply ~id ~ok:true
    [ ("pong", Json.Bool true); ("health", Json.Obj health) ]

(* Hand one request to the worker pool. Exactly-once response
   resolution: the task claims its ticket before answering; the
   supervisor's [on_abandon] answers instead when the claim is lost to
   a crash or watchdog deposal. Whoever wins also runs the epilogue
   ([finish_task]) — never both. A pool that refuses the request
   answers a degrade-opted one inline with the heuristic rung, and
   rejects the rest. *)
let submit server conn (rq : Request.request) =
  let id_text = rq.rq_id_text in
  let ticket_cell = ref None in
  let deadline =
    Request.deadline ~default_time_limit:server.cfg.default_time_limit rq
  in
  let task () =
    let t0 = Clock.now () in
    Trace.with_context [ ("req", Trace.Str id_text) ] (fun () ->
        let run () = Request.execute ~deadline ~cache:server.cfg.cache rq in
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
            | Request.Eco _ -> m_lat_eco
            | Request.Sleep _ -> m_lat_sleep
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
    answer ~failed:true server conn
      (Request.error_response ~id:rq.rq_id ~code msg);
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
            Ok ()
          | Error _ as e -> e))
  in
  match submitted with
  | Ok () -> ()
  | Error reject -> (
    let inline =
      match reject with
      | Executor.Overloaded _ ->
        Request.execute_degraded_inline ~id:rq.rq_id rq.rq_op
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
      answer ~rejected:true server conn
        (Request.error_response ~id:rq.rq_id ~code msg))

(* Dispatch one request line. Cheap ops (ping, metrics, malformed and
   breaker rejections) are answered on the session thread; solves,
   ecos and sleeps go to the worker pool. *)
let dispatch server conn line =
  if String.trim line <> "" then
    match Request.parse_request line with
    | Error (id, msg) ->
      Log.warn ~fields:[ ("conn", Trace.Int conn.c_id) ] "bad request: %s" msg;
      answer ~failed:true server conn
        (Request.error_response ~id ~code:"bad_request" msg)
    | Ok { rq_op = Ping; rq_id; _ } ->
      answer server conn (health_response server ~id:rq_id)
    | Ok { rq_op = Metrics_dump; rq_id; _ } ->
      (* cheap like ping: a snapshot merge over a handful of blocks,
         answered on the session thread so it works under saturation *)
      answer server conn (Request.metrics_response ~id:rq_id)
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
          (Request.error_response ~id:rq.rq_id ~code:"breaker_open"
             ~retry_after_ms:(wait_s *. 1e3)
             (Printf.sprintf "circuit breaker open (overload); retry in %.0f ms"
                (wait_s *. 1e3))))

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    status content_type (String.length body) body

(* One header line of an HTTP session. The blank line that ends the
   header queues the reply to the request line and drains the session,
   so the select loop closes it once the reply has flushed. Runs on the
   loop thread: a scraper never occupies a worker. *)
let http_line conn line =
  match conn.c_request_line with
  | None -> conn.c_request_line <- Some line
  | Some request when line = "" || line = "\r" ->
    let reply =
      match String.split_on_char ' ' (String.trim request) with
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
    Mutex.protect conn.c_lock (fun () ->
        if conn.c_state = Reading then begin
          enqueue_locked conn reply;
          conn.c_state <- Draining
        end)
  | Some _ -> ()

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
          (Request.error_response ~id:Json.Null ~code:"too_large"
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
      else if conn.c_kind = Http then http_line conn line
      else dispatch server conn line;
      go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Listeners                                                           *)
(* ------------------------------------------------------------------ *)

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

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

let close_listeners =
  List.iter (fun (fd, _, _) -> try Unix.close fd with _ -> ())

(* The protocol listeners, then the Prometheus one; a bind/listen
   failure closes whatever was already bound. *)
let bind_listeners cfg =
  let opened = ref [] in
  let tcp port desc kind =
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, port) in
    opened :=
      (listen_on Unix.PF_INET addr, Printf.sprintf desc cfg.host port, kind)
      :: !opened
  in
  try
    Option.iter
      (fun path ->
        unlink_quiet path;
        opened :=
          ( listen_on Unix.PF_UNIX (Unix.ADDR_UNIX path),
            "unix:" ^ path,
            Protocol )
          :: !opened)
      cfg.socket;
    Option.iter (fun port -> tcp port "tcp:%s:%d" Protocol) cfg.port;
    Option.iter (fun port -> tcp port "http://%s:%d/metrics" Http)
      cfg.metrics_port;
    Ok (List.rev !opened)
  with
  | Unix.Unix_error (e, fn, arg) ->
    close_listeners !opened;
    Error (Printf.sprintf "serve: %s(%s): %s" fn arg (Unix.error_message e))
  | Failure msg ->
    (* inet_addr_of_string *)
    close_listeners !opened;
    Error (Printf.sprintf "serve: bad host address: %s" msg)

let create cfg =
  match
    if cfg.socket = None && cfg.port = None then
      Error "serve: no listener (give --socket and/or --port)"
    else bind_listeners cfg
  with
  | Error _ as e -> e
  | Ok listeners ->
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

let run server =
  (* a client hanging up mid-response must be an EPIPE, not a fatal
     signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  List.iter
    (fun (_, desc, _) ->
      Log.info
        ~fields:
          [
            ("jobs", Trace.Int (Executor.jobs server.executor));
            ("max_pending", Trace.Int server.cfg.max_pending);
          ]
        "listening on %s" desc)
    server.listeners;
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_conn_id = ref 0 in
  let buf = Bytes.create 65536 in
  let accept_from lfd kind =
    match Unix.accept lfd with
    | exception Unix.Unix_error _ -> ()
    | fd, _addr ->
      Unix.set_nonblock fd;
      incr next_conn_id;
      let conn =
        {
          c_id = !next_conn_id;
          c_kind = kind;
          c_fd = fd;
          c_lock = Mutex.create ();
          c_state = Reading;
          c_line = Buffer.create 256;
          c_skipping = false;
          c_read = 0;
          c_request_line = None;
          c_out = Queue.create ();
          c_out_off = 0;
          c_out_bytes = 0;
          c_tickets = [];
        }
      in
      count conn m_connections 1;
      Log.debug ~fields:[ ("conn", Trace.Int conn.c_id) ] "session open";
      Hashtbl.replace conns fd conn
  in
  let read_from conn =
    match Unix.read conn.c_fd buf 0 (Bytes.length buf) with
    | 0 ->
      (* client finished sending; an unterminated trailing protocol line
         is still a request (a cut-short HTTP header gets no reply), then
         the session stays open only until its in-flight requests have
         answered and their responses flushed *)
      if conn.c_kind = Protocol then feed server conn "\n";
      Mutex.protect conn.c_lock (fun () ->
          if conn.c_state = Reading then conn.c_state <- Draining)
    | n ->
      count conn m_bytes_in n;
      conn.c_read <- conn.c_read + n;
      feed server conn (Bytes.sub_string buf 0 n);
      if conn.c_kind = Http && conn.c_read > max_header_bytes then
        Mutex.protect conn.c_lock (fun () ->
            if conn.c_state = Reading then kill_conn_locked conn)
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      ()
    | exception Unix.Unix_error (_, _, _) ->
      (* any other read error — ECONNRESET, EPIPE, ... — drops the
         session; the prune pass closes it *)
      Mutex.protect conn.c_lock (fun () -> kill_conn_locked conn)
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
                | Draining -> conn.c_tickets = [] && Queue.is_empty conn.c_out
                | Reading -> false)
          in
          if close then conn :: acc else acc)
        conns []
    in
    List.iter close_conn closable
  in
  let listener_fds = List.map (fun (fd, _, _) -> fd) server.listeners in
  let rec loop () =
    prune ();
    if Atomic.get server.stopped then ()
    else begin
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
      match
        Unix.select
          ((server.stop_r :: listener_fds) @ read_fds)
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
            else
              match
                List.find_opt (fun (l, _, _) -> l = fd) server.listeners
              with
              | Some (_, _, kind) -> accept_from fd kind
              | None -> Option.iter read_from (Hashtbl.find_opt conns fd))
          ready_r;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some conn ->
              Mutex.protect conn.c_lock (fun () -> flush_locked conn)
            | None -> ())
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
