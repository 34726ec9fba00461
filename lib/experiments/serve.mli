(** [lubt serve]: a long-lived routing-tree daemon.

    The paper's LUBT formulation is a per-instance LP, but the workload
    it models — repeated delay-bounded routing queries over engineering
    iterations — is a service. This module is the session layer over
    the solver engine ({!Serve_request} decodes, executes and renders
    each request): a concurrent JSON-lines protocol served over a Unix
    socket and/or TCP, scheduled onto a persistent
    {!Lubt_util.Pool.Executor} worker pool with bounded-queue
    backpressure and per-request deadlines.

    {2 Protocol}

    One JSON object per line in each direction. A request:

    {v
    {"id": "r1", "bench": "prim1s", "size": "tiny", "seed": 3}
    {"id": 2, "instance": "sink 0 1 0 inf\nsink 2 3 0 inf\n",
     "certify": true, "time_limit": 5.0}
    {"id": "p", "op": "ping"}
    v}

    Fields:
    - [id] — any JSON value, echoed verbatim in the response
      (default [null]);
    - [op] — ["solve"] (default), ["eco"] (an incremental re-solve: a
      solve-shaped request plus an [edits] array, see below), ["ping"],
      ["metrics"] (a JSON dump of the daemon's {!Lubt_obs.Metrics}
      registry snapshot — the same data the Prometheus endpoint
      renders), or ["sleep"] (a load-testing aid; occupies a worker for
      [ms] milliseconds);
    - workload — either [instance] (the {!Lubt_data.Io} instance text,
      with optional [topology] tree text; the baseline router produces
      a topology when absent) or [bench] (a {!Lubt_data.Benchmarks}
      name with optional [size] (["tiny"]|["scaled"]|["full"], default
      tiny), [seed] offset and [skew] (× radius, default [0.5]); the
      LUBT window is the baseline's achieved one, exactly the
      [lubt batch] protocol);
    - [eager] — disable lazy row generation (default [false]);
    - [certify] — a-posteriori certification (default [true]: serve
      answers are certified unless the client opts out);
    - [time_limit] — per-request wall-clock budget in seconds,
      overriding the daemon's [--default-time-limit]. It is counted
      from dispatch, so queue wait and workload materialisation spend
      it too; a request whose budget ran out before its LP started
      answers [time_limit];
    - [degrade] — opt into the {!Ladder} (default [false]): under
      deadline pressure or a saturated pool the request is answered by
      the best rung that still fits (certified → uncertified →
      reduced-round → BRBC heuristic) instead of failing. A degraded
      success carries ["degraded": true] and ["quality"] naming the
      rung; non-degrade successes carry ["degraded": false]. A tree
      that fails validation (the heuristic ignores the delay window)
      keeps these members but answers ["ok": false] with a
      [bounds_violated] error.

    An ["eco"] request carries every solve field plus a non-empty
    [edits] array describing an engineering change order against the
    request's workload. Each element is an object discriminated by its
    [edit] member:

    {v
    {"edit": "set_bounds", "sink": 2, "lower": 1.5, "upper": 4.0}
    {"edit": "move_sink", "sink": 0, "dx": -3.0, "dy": 1.0}
    {"edit": "add_sink", "x": 10.0, "y": 4.0, "lower": 0, "upper": 9.0}
    {"edit": "remove_sink", "sink": 1}
    v}

    [lower]/[upper] default to the unconstrained window ([0] and
    infinity — JSON cannot spell the latter, so an absent [upper] means
    unbounded). The edits are applied in order to the base instance and
    the edited instance is solved; when every edit preserves the sink
    set ([set_bounds], [move_sink]) the base topology is reused, which
    is exactly the case the cross-request warm-start cache
    ({!Lubt_lp.Basis_cache}) accelerates — solve the base first, then
    send [eco] requests, and the daemon warm-restarts the dual simplex
    from the parent's cached basis. An edit chain that fails to apply
    (sink index out of range, inverted bounds, removing the last sink)
    is answered with error code [edit_failed].

    A success response reuses the [lubt solve --json] report shape,
    wrapped in the request envelope:

    {v
    {"id": "r1", "ok": true, "status": "optimal", "wall_ms": 12.3,
     "cost": ..., "validated": true, "certified": true,
     "ebf": {...}, "solver": {...}}
    v}

    A failure response carries a structured error instead:

    {v
    {"id": "r1", "ok": false,
     "error": {"code": "overloaded", "message": "..."}}
    v}

    with [code] one of [bad_request], [too_large] (the request line
    is longer than {!max_line_bytes}; the line is dropped up to its
    newline and the response's [id] is [null]), [overloaded],
    [shutting_down],
    [infeasible], [edit_failed] (an [eco] edit chain could not be
    applied), [time_limit], [solver_failure], [embedding_failure],
    [degraded_failed] (every ladder rung failed), [worker_crashed] (the
    worker domain running the request died; the daemon replaced it),
    [watchdog_timeout] (the request overran the [--watchdog] hard
    deadline; its worker was deposed and replaced), [dropped] (shutdown
    cancelled the queued request), [bounds_violated] (a tree was built but some sink delays miss their
    window; the reply also carries the solve report members, and the
    error object [violations] and [worst_violation]),
    [verification_failed] (the same for a tree that keeps its window but
    fails another check) or [internal]. A malformed or failing request never terminates the
    daemon or its connection: every line gets a reply, in completion
    order (responses are matched to requests by [id], not by
    position — concurrent requests on one connection may complete out
    of order).

    [ping] responses carry a [health] object — queue depth, running and
    live worker counts, every {!stats} member so far (sessions,
    served/rejected/failed/degraded totals, supervision counters,
    warm-start cache hits and misses; cache counters are zeros when the
    daemon runs cacheless) and [cache_rejects] — so clients can make
    admission decisions without a separate endpoint.

    {2 Metrics}

    The daemon enables the {!Lubt_obs.Metrics} registry and counts its
    request path into it: answered requests
    ([lubt_requests_total]) and their failures, degradations and
    rejections, per-op latency histograms
    ([lubt_serve_request_latency_ms]), sessions, bytes in/out, plus whatever the solver layers record (simplex work
    counters, EBF rounds, executor supervision, warm-start cache
    outcomes). The registry is the daemon's only request accounting:
    [ping] health and the shutdown {!stats} read it too ([served] is
    requests minus rejections), less the values it held when {!create}
    ran, since one process may host several daemons in turn. The
    registry must therefore not be {!Lubt_obs.Metrics.reset} while a
    daemon runs. Two exports render the same registry snapshot: the
    ["metrics"] protocol op (JSON), and — with [metrics_port] set — a
    Prometheus text-exposition endpoint ([GET /metrics]) on a plain
    HTTP listener. Its sessions are one more session kind in the
    daemon's one select loop and are answered there, so a scraper can
    never occupy a worker; they are not counted as sessions, requests
    or bytes.

    {2 Scheduling and observability}

    Requests are parsed on the session thread and executed on the
    executor's worker domains. Admission has one limit per concern:
    when [max_pending] requests are already queued, a new solve, eco
    or sleep is refused immediately with [overloaded] (a degrade-opted
    one is answered inline by the heuristic rung instead) — bounded
    backpressure instead of an unbounded queue; the per-request
    deadline, counted from dispatch, bounds latency; the [watchdog]
    bounds a stuck worker.
    Each request runs under {!Lubt_obs.Trace.with_context} carrying its
    [req] id, so its spans, counters and every {!Lubt_obs.Log} line it
    emits are stamped with the request id; worker domains record into
    their own trace buffers, so concurrent requests render as separate
    tid tracks. *)

type config = {
  socket : string option;  (** Unix-domain socket path to listen on *)
  port : int option;  (** TCP port to listen on (on [host]) *)
  host : string;  (** TCP bind address (default ["127.0.0.1"]) *)
  jobs : int;  (** worker domains (default 4) *)
  max_pending : int;  (** queued-request bound (default 64) *)
  default_time_limit : float;
      (** per-request wall-clock budget when the request names none
          (default [infinity] = no deadline) *)
  watchdog : float;
      (** hard per-request deadline in seconds (default [infinity] =
          off): a request running longer has its worker deposed and
          replaced ({!Lubt_util.Pool.Executor}) and is answered with
          [watchdog_timeout] *)
  chaos : Lubt_util.Pool.Executor.chaos option;
      (** deterministic service-level fault injection (worker kills,
          task latency) for tests and chaos smokes; default [None] *)
  cache : Lubt_lp.Basis_cache.t option;
      (** cross-request warm-start cache shared by every request the
          daemon serves (default [None] = cacheless). The store is
          mutex-guarded, so the executor's worker domains share it
          safely; give it a disk tier ({!Lubt_lp.Basis_cache.create})
          to survive daemon restarts. *)
  metrics_port : int option;
      (** Prometheus exposition port (on [host]); default [None] = no
          metrics listener. The JSON-lines [metrics] op works either
          way. *)
}

val max_line_bytes : int
(** The longest request line the daemon reads (8 MiB, newline
    excluded); a longer one is answered with [too_large]. *)

val default_config : config
(** No listeners ([create] requires at least one of [socket]/[port]),
    [jobs = 4], [max_pending = 64], no default deadline, watchdog off,
    no chaos, no cache. *)

type stats = {
  connections : int;  (** sessions accepted over the server's lifetime *)
  served : int;  (** requests answered, successfully or with an error *)
  rejected : int;
      (** requests refused by backpressure ([overloaded]) or shutdown *)
  failed : int;  (** requests answered with [ok: false] *)
  degraded : int;
      (** answers from a rung below the top one, ok or [bounds_violated] *)
  restarts : int;  (** worker domains respawned (crash or watchdog) *)
  watchdog_fires : int;  (** requests failed by the watchdog deadline *)
  cache_hits : int;
      (** warm-start cache hits (exact + parent) over the server's
          lifetime; 0 when cacheless *)
  cache_misses : int;
      (** warm-start cache misses over the server's lifetime; 0 when
          cacheless *)
}

val stats_json : stats -> string
(** [stats] as the one-line JSON object [lubt serve] prints on exit,
    one member per field in declaration order. [ping] health carries
    the same members. *)

type server

val create : config -> (server, string) result
(** Binds the listeners (unlinking a stale Unix socket first) and
    spawns the worker pool. [Error] reports a bind/listen problem;
    nothing is left running in that case. *)

val run : server -> stats
(** The accept/dispatch loop: blocks until {!stop} (or a signal
    installed by {!install_signal_handlers}) ends it, then drains
    in-flight requests, closes every session and listener, removes the
    Unix socket file, and returns the lifetime stats. *)

val stop : server -> unit
(** Asks a running {!run} to shut down cleanly. Callable from any
    domain and from a signal handler (it writes one byte to a
    self-pipe). Idempotent. *)

val install_signal_handlers : server -> unit
(** Routes [SIGTERM] and [SIGINT] to {!stop} for a clean drain-and-exit
    shutdown. *)

(** {2 In-process hosting}

    The test suite and the [bench serve] load generator run the daemon
    inside their own process. *)

type handle

val spawn : config -> (handle, string) result
(** {!create} plus {!run} on a fresh domain. *)

val shutdown : handle -> stats
(** {!stop}, join the server domain, return its stats. *)

(** {2 Request plumbing}

    Exposed for the CLI (whose [solve --json] report is rendered by the
    same code, so the daemon's responses and the one-shot CLI report
    can never drift apart) and for protocol tests. *)

val solve_report_json : Lubt_core.Lubt.report -> validated:bool -> string
(** The complete [lubt solve --json] stdout object: [cost],
    [validated], [certified], [ebf], [solver]. A success reply carries
    the same members after its envelope's. *)

val response_of_request :
  ?default_time_limit:float -> ?cache:Lubt_lp.Basis_cache.t -> string -> string
(** [response_of_request line] parses and executes one request line
    synchronously and returns the exact response line the daemon would
    write (the [wall_ms] member necessarily differs run to run). With
    [cache], solves consult and populate the given warm-start cache
    exactly as a daemon configured with it would. The pure core of the
    daemon, used by the protocol round-trip tests. *)
