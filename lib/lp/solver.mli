(** Convenience front end: load a model into the revised simplex engine,
    solve it, and package the solution. *)

val solve :
  ?params:Simplex.params -> ?check:Certify.level -> Problem.t -> Status.solution
(** [solve prob] solves and packages the model. With [check] (default
    {!Certify.Off}) an [Optimal] claim is certified a posteriori by
    {!Certify.check} at that level; if certification rejects it, the
    status degrades to [Numerical_failure] (the EBF driver does the same). *)
