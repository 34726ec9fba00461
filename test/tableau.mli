(** Independent reference LP solver: classic dense two-phase full-tableau
    simplex on the standard form.

    Deliberately shares no code with {!Lubt_lp.Simplex}; tests cross-check
    the two implementations against each other on randomly generated
    problems. Only suitable for small instances (dense O(rows x cols) per
    pivot). It is a test oracle and lives in [test/], so no library or
    executable can call it.

    The [dual] field of the returned solution is left as zeros. *)

val solve : ?max_iters:int -> Lubt_lp.Problem.t -> Lubt_lp.Status.solution
