(** LP model builder.

    A problem is [minimize c^T x] subject to
    [rlo_i <= a_i^T x <= rup_i] for every row [i] and
    [lo_j <= x_j <= up_j] for every column [j].
    Infinite bounds use [neg_infinity] / [infinity]; a row or column with
    equal bounds is an equality / fixed variable. Maximisation is expressed
    by negating the objective. *)

type t

type row = { rlo : float; rup : float; coeffs : Sparse.t }

val create : unit -> t

val add_var : ?lo:float -> ?up:float -> ?obj:float -> ?name:string -> t -> int
(** Adds a column and returns its index. Defaults: [lo = 0.], [up = infinity],
    [obj = 0.]. Requires [lo <= up]. *)

val add_row : ?name:string -> t -> lo:float -> up:float -> (int * float) list -> int
(** Adds a row [lo <= sum coeffs <= up] and returns its index. All referenced
    variables must already exist. Requires [lo <= up]. *)

val set_obj : t -> int -> float -> unit
(** Changes the objective coefficient of a column. *)

val nvars : t -> int

val nrows : t -> int

val var_lo : t -> int -> float

val var_up : t -> int -> float

val obj_coeff : t -> int -> float

val row : t -> int -> row

val var_name : t -> int -> string

val row_name : t -> int -> string

val objective_value : t -> float array -> float
(** Objective at a given structural point. *)

val row_activity : t -> int -> float array -> float
(** Value of [a_i^T x] at a structural point. *)

val is_feasible : ?tol:float -> t -> float array -> bool
(** Checks all row and column bounds at a point (absolute tolerance,
    default 1e-6). *)
