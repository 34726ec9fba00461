(** Minimal JSON values: a recursive-descent parser and a compact printer.

    This is deliberately tiny — no external dependencies — and it is the
    one JSON writer of the system: every machine-readable output is built
    as a {!t} and rendered by {!to_string}. That covers [lubt solve
    --json], every [lubt serve] reply (solve, eco, degraded, error, ping
    health, the [metrics] dump) and its exit stats line, the [lubt batch]
    JSON lines, the [lubt-bench/4] files of [bench timing --json] and
    [bench serve --json] and the [bench serve] requests, {!Chrome_trace}
    files and {!Convergence} lines. The bench regression gate ([bench
    diff]) and the daemon's request decoder parse with {!parse}.
    It accepts exactly the JSON grammar (RFC 8259) with three pragmatic
    limits: numbers are parsed as [float], [\uXXXX] escapes outside
    the basic multilingual plane (surrogate pairs) are decoded
    codepoint-by-codepoint, and arrays and objects nest at most 512
    deep. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in source order, duplicates kept *)

val parse : string -> (t, string) result
(** Parses one complete JSON value; trailing non-whitespace is an error.
    The error string carries the byte offset of the failure. *)

val parse_exn : string -> t
(** Like {!parse}. @raise Failure on a parse error. *)

val to_string : t -> string
(** Compact (single-line) rendering: [", "] between members and
    elements, [": "] after keys. Integral numbers below 1e15 print
    without a fractional part ([-0] keeps its sign), other numbers with
    17 significant digits, so every finite float reads back exactly;
    non-finite numbers (which JSON cannot represent) print as [null].
    Strings escape quote, backslash, [\n], [\r], [\t] and other control
    bytes ([\u00XX]); every other byte passes through. *)

val int : int -> t
(** [Num (float_of_int n)]. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the first binding of [k]; [None] on missing
    keys and non-objects. *)

val num : t -> float option
(** [Num] payload. *)

val str : t -> string option
(** [Str] payload. *)

val arr : t -> t list option
(** [Arr] payload. *)

val obj : t -> (string * t) list option
(** [Obj] payload. *)
