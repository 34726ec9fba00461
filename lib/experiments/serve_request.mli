(** The request layer of [lubt serve]: pure functions from a request
    line to a response line. Decoding, execution and rendering live
    here; sessions, accounting and admission control live in {!Serve},
    whose documentation describes the protocol. *)

val solve_report_json : Lubt_core.Lubt.report -> validated:bool -> string
(** See {!Serve.solve_report_json}. *)

type solve_req
type eco_req

type op =
  | Ping
  | Metrics_dump  (** registry snapshot as JSON *)
  | Sleep of float  (** seconds, at most {!max_sleep_ms} / 1000 *)
  | Solve of solve_req
  | Eco of eco_req

type request = {
  rq_id : Lubt_obs.Json.t;
      (** the id member, echoed as the first member of the reply;
          [Null] when absent *)
  rq_id_text : string;  (** the same, as a short tag for logs/traces *)
  rq_op : op;
}

val max_sleep_ms : float
(** The largest ["ms"] a ["sleep"] request may carry (one minute). A
    larger or non-finite one is a [bad_request]: [Unix.sleepf] rejects a
    huge duration, and a worker must not sleep unboundedly. *)

val parse_request : string -> (request, Lubt_obs.Json.t * string) result
(** [Error (id, message)] echoes the request's own id whenever the line
    at least parsed as JSON ([Null] otherwise). *)

val reply :
  id:Lubt_obs.Json.t -> ok:bool -> (string * Lubt_obs.Json.t) list -> string
(** A response line: the object [{"id": id, "ok": ok, members...}],
    rendered by {!Lubt_obs.Json.to_string}. Every reply goes through it,
    so [id] is always the first member. *)

val error_response : id:Lubt_obs.Json.t -> code:string -> string -> string
(** A failure response line: [{"id", "ok": false, "error": {...}}]. *)

val metrics_response : id:Lubt_obs.Json.t -> string
(** The [metrics] op's response: the registry snapshot as JSON. *)

val deadline : default_time_limit:float -> request -> float
(** The absolute {!Lubt_obs.Clock} deadline of the request's budget
    ([time_limit], else [default_time_limit]) counted from now;
    [infinity] when there is none. Taken at dispatch, so queue wait and
    workload materialisation count against the budget. *)

val execute :
  deadline:float -> cache:Lubt_lp.Basis_cache.t option -> request ->
  bool * bool * string
(** Executes one parsed request: [(failed, degraded, response line)].
    Never raises. *)

val execute_degraded_inline :
  id:Lubt_obs.Json.t -> op -> (bool * bool * string) option
(** The heuristic floor rung run on the caller's thread, for a
    degrade-opted solve or eco that the worker pool refused; [None]
    when the request did not opt in or the rung fails. *)

val response_of_request :
  ?default_time_limit:float -> ?cache:Lubt_lp.Basis_cache.t -> string -> string
(** See {!Serve.response_of_request}. *)
