(** The request layer of [lubt serve]: pure functions from a request
    line to a response line. Decoding, execution and rendering live
    here; sessions, accounting and admission control live in {!Serve},
    whose documentation describes the protocol. *)

val solve_report_fields : Lubt_core.Lubt.report -> validated:bool -> string
(** See {!Serve.solve_report_fields}. *)

val solve_report_json : Lubt_core.Lubt.report -> validated:bool -> string
(** See {!Serve.solve_report_json}. *)

type solve_req
type eco_req

type op =
  | Ping
  | Metrics_dump  (** registry snapshot as JSON *)
  | Sleep of float  (** seconds *)
  | Solve of solve_req
  | Eco of eco_req

type request = {
  rq_id : string;  (** the id member, rendered back to JSON text *)
  rq_id_text : string;  (** the same, as a short tag for logs/traces *)
  rq_op : op;
}

val parse_request : string -> (request, string * string) result
(** [Error (id, message)] echoes the request's own id whenever the line
    at least parsed as JSON (["null"] otherwise). *)

val error_response :
  ?retry_after_ms:float -> id:string -> code:string -> string -> string
(** A failure response line: [{"id", "ok": false, "error": {...}}]. *)

val metrics_response : id:string -> string
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

val execute_degraded_inline : id:string -> op -> (bool * bool * string) option
(** The heuristic floor rung run on the caller's thread, for a
    degrade-opted solve or eco that the worker pool refused; [None]
    when the request did not opt in or the rung fails. *)

val response_of_request :
  ?default_time_limit:float -> ?cache:Lubt_lp.Basis_cache.t -> string -> string
(** See {!Serve.response_of_request}. *)
