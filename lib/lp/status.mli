(** Solver result types shared by the simplex engines. *)

type t =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit
  | Time_limit
      (** the wall-clock budget expired; the packaged solution is the best
          basis reached so far, not a proven optimum *)
  | Numerical_failure

type solution = {
  status : t;
  objective : float;
  primal : float array;  (** structural variable values *)
  row_activity : float array;  (** [a_i^T x] per row *)
  dual : float array;  (** simplex multipliers (one per row) *)
  iterations : int;
}

val pp : Format.formatter -> t -> unit
(** Prints the status as its lowercase name ([optimal], [infeasible],
    ...). *)

val to_string : t -> string
(** Same rendering as {!pp}, as a string; stable across versions, so it
    is safe to key machine-readable output on it. *)
