type t =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit
  | Time_limit
  | Numerical_failure

type solution = {
  status : t;
  objective : float;
  primal : float array;
  row_activity : float array;
  dual : float array;
  iterations : int;
}

let to_string = function
  | Optimal -> "optimal"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Iteration_limit -> "iteration-limit"
  | Time_limit -> "time-limit"
  | Numerical_failure -> "numerical-failure"

let pp fmt t = Format.pp_print_string fmt (to_string t)
