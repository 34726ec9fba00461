(** Per-iteration convergence recording, as JSON lines.

    A sink for the simplex engine's optional per-pivot probe
    ([Simplex.set_probe]): each call appends one JSON object on its
    own line, suitable for plotting objective / dual-infeasibility
    trajectories or diffing two runs pivot-by-pivot.

    One line looks like:

    {v
    {"iteration": 42, "phase": "dual", "objective": 1.25e4,
     "primal_infeasibility": 0, "dual_infeasibility": 3.1e-9,
     "entering": 17, "leaving": 4, "eta_count": 12,
     "bound_flips": 0}
    v}

    with an extra ["recovery"] string member on the lines emitted by
    the recovery ladder. Iteration ids are monotone non-decreasing
    within a solve (recovery restarts re-enter at the iteration they
    interrupted).

    This module knows nothing about [Simplex] — it just renders
    fields — so [lubt.obs] stays at the bottom of the library
    stack. *)

type t

val to_channel : out_channel -> t
(** Lines are written (and flushed) to the channel; the caller owns
    closing it. *)

val to_buffer : Buffer.t -> t
(** Lines are appended to the buffer (tests). *)

val record :
  t ->
  iteration:int ->
  phase:string ->
  objective:float ->
  primal_infeasibility:float ->
  dual_infeasibility:float ->
  entering:int ->
  leaving:int ->
  eta_count:int ->
  bound_flips:int ->
  ?recovery:string ->
  unit ->
  unit
(** Appends one JSON line. [entering]/[leaving] are [-1] when the
    iteration had no such index (e.g. a pure bound flip or a recovery
    event). *)

val lines : t -> int
(** Number of lines written so far. *)
