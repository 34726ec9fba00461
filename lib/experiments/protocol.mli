(** The experimental protocol of Section 8.

    For a benchmark and a skew bound, run the [9]-style baseline router
    ({!Lubt_bst.Bst_dme}), extract the produced topology and the achieved
    shortest/longest sink delays, and re-solve the same topology with the
    LUBT LP using those delays as the [l]/[u] bounds. All delays and bounds
    are reported normalised to the instance radius, as in the paper's
    tables. *)

type baseline_run = {
  spec : Lubt_data.Benchmarks.spec;
  radius : float;
  skew_rel : float;  (** requested skew bound / radius; [infinity] allowed *)
  bst : Lubt_bst.Bst_dme.result;
  shortest_rel : float;  (** achieved dmin / radius *)
  longest_rel : float;  (** achieved dmax / radius *)
  bst_seconds : float;
}

val run_baseline : Lubt_data.Benchmarks.spec -> skew_rel:float -> baseline_run

val baseline_topology : Lubt_core.Instance.t -> Lubt_topo.Tree.t
(** The topology of an instance given without one: the baseline
    router's tree, under the skew bound the instance's bounds allow
    (largest upper minus smallest lower, unbounded when some upper is
    infinite). [lubt solve] without [--topology], inline serve
    instances without ["topology"] and topology-changing ECO edits all
    use it. *)

val achieved_window : baseline_run -> float * float
(** The baseline's achieved [(shortest_rel, longest_rel)] window, or
    [(0, infinity)] for the unbounded-skew row. *)

val window_instance :
  baseline_run -> lower_rel:float -> upper_rel:float -> Lubt_core.Instance.t
(** The baseline's sinks with every sink bounded by
    [lower_rel * radius, upper_rel * radius]: the LP instance of the
    protocol. *)

type lubt_run = {
  lower_rel : float;
  upper_rel : float;
  cost : float;
  ebf : Lubt_core.Ebf.result;
  lubt_seconds : float;
}

val run_lubt :
  ?options:Lubt_core.Ebf.options ->
  baseline_run ->
  lower_rel:float ->
  upper_rel:float ->
  lubt_run
(** Solves the LUBT LP on the baseline's topology with bounds
    [lower_rel * radius, upper_rel * radius].
    @raise Failure if the LP does not reach optimality. *)

val run_lubt_from_baseline : ?options:Lubt_core.Ebf.options -> baseline_run -> lubt_run
(** The Table 1 protocol: {!run_lubt} over {!achieved_window}. *)

val time : (unit -> 'a) -> 'a * float
(** Wall-clock timing helper. *)

(** {1 Machine-readable benchmark records}

    The [BENCH_lp.json] schema ([lubt-bench/4]) emitted by
    [bench/main.exe -- timing --json FILE]: a top-level object with
    [schema], [size] (tiny|scaled|full), [jobs] (worker domains the run
    was asked for), [cores] (the machine's
    {!Lubt_util.Pool.default_jobs}), [benchmarks] — an array of entries
    each holding [name], [ms_per_run], and, for LP-backed benchmarks,
    [solver] (the {!Lubt_lp.Simplex.stats} counters, times in
    milliseconds) and [ebf] (status, objective, row counts, and
    [round_stats], the per-round lazy-loop telemetry) — and, when a
    scaling sweep was run, [scaling]: one point per jobs count with the
    corpus wall-clock and the speedup over the jobs=1 run of the same
    corpus. A run invoked with [--no-scaling] instead records
    [scaling: []] plus [scaling_skipped: true], so a consumer (the
    [bench diff] gate) can tell "not measured" from "measured empty".
    Perf PRs append one such file per run to track the trajectory. *)

type bench_entry = {
  bench_name : string;
  ms_per_run : float;
      (** OLS estimate from Bechamel, or for an entry too slow to sample
          the best of a few direct calls *)
  solver : Lubt_lp.Simplex.stats option;
      (** counters of one representative solve (not the timed runs) *)
  ebf_result : Lubt_core.Ebf.result option;
      (** lazy-loop telemetry of the same representative solve *)
}

type scaling_point = {
  sc_jobs : int;  (** worker domains used for this corpus run *)
  sc_wall_s : float;  (** whole-corpus wall-clock, seconds *)
  sc_speedup : float;  (** jobs=1 wall-clock / this wall-clock *)
  sc_instances : int;  (** corpus size *)
}
(** One point of the domain-scaling curve recorded in [BENCH_lp.json]. *)

val bench_json :
  ?jobs:int -> ?scaling:scaling_point list -> ?scaling_skipped:bool ->
  size:string -> bench_entry list -> string
(** Renders entries as the [lubt-bench/4] JSON document: one line of
    {!Lubt_obs.Json.to_string} output plus a newline ([inf]/[nan] become
    [null]). [jobs] (default 1) and [scaling] (default absent) fill the
    schema's parallel-sweep fields; [scaling_skipped] (default false)
    records an explicitly-skipped sweep as [scaling: []] with the
    [skipped] marker. *)

(** {1 JSON building blocks}

    The bench-schema records as {!Lubt_obs.Json.t} values, for the batch
    driver and the serve replies, which embed the same solver and EBF
    records. *)

val solver_stats_json : Lubt_lp.Simplex.stats -> Lubt_obs.Json.t
(** The [solver] object of the bench schema. *)

val ebf_result_json : Lubt_core.Ebf.result -> Lubt_obs.Json.t
(** The [ebf] object of the bench schema ([status], [objective], row
    counts, [round_stats]). *)
