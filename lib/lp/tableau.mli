(** Independent reference LP solver: classic dense two-phase full-tableau
    simplex on the standard form.

    Deliberately shares no code with {!Simplex}; tests cross-check the two
    implementations against each other on randomly generated problems. Only
    suitable for small instances (dense O(rows x cols) per pivot). It is a
    test oracle: no library or executable code calls it (CI checks this).

    The [dual] field of the returned solution is left as zeros. *)

val solve : ?max_iters:int -> Problem.t -> Status.solution
