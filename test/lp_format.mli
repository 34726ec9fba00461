(** CPLEX-LP-format export and a compatible subset reader.

    Useful for eyeballing EBF programs and for cross-checking against
    external solvers when one is available. The writer emits standard
    sections ([Minimize], [Subject To], [Bounds], [End]); range rows are
    written as two inequalities. The reader accepts the subset the writer
    produces (one constraint per line, [<=]/[>=]/[=], free-form spacing,
    [\ ] comments). *)

val to_string : Lubt_lp.Problem.t -> string
(** Renders the problem in CPLEX LP format. Unnamed variables get
    [x<index>] names so the output is always readable back. *)

val write : string -> Lubt_lp.Problem.t -> unit
(** [write path prob] writes {!to_string}[ prob] to [path]. *)

val of_string : string -> (Lubt_lp.Problem.t, string) result
(** Variables are created in order of first appearance; names are
    preserved. *)

val read : string -> (Lubt_lp.Problem.t, string) result
(** [read path] parses the file at [path] with {!of_string}; I/O errors
    are returned as [Error]. *)
