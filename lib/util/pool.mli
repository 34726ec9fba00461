(** Domain-parallel batch execution for independent tasks.

    A fixed-size pool of OCaml 5 domains drains a shared task queue
    (atomic next-index counter, so finished workers steal whatever work
    remains instead of being bound to a static slice). Designed for the
    instance sweeps of the experiment and bench layers: each task is a
    whole (topology, bounds) solve — milliseconds to seconds of work — so
    per-task dispatch overhead (one atomic fetch-and-add) is negligible.

    {b Determinism.} Results are returned in input order, regardless of
    which domain ran which task or in what order tasks finished.

    {b Exception safety.} A raising task never brings down the pool or
    the caller mid-sweep: every task's exception is captured with its
    backtrace and input index. [map] re-raises the failure with the
    lowest input index after all tasks have run to completion (so a
    deterministic failure is reported identically at any [jobs] count);
    [map_result] hands back all outcomes for per-instance reporting.

    {b Requirements on tasks.} Tasks run concurrently on separate
    domains: they must not share mutable state (the LP engine qualifies —
    each {!Lubt_lp.Simplex.of_problem} engine owns all its state; see the
    domain-safety note in {!Lubt_lp.Simplex}). Tasks must not install
    signal handlers or chdir. Output interleaving is the task's own
    business — batch callers should buffer and print from the collecting
    domain only. *)

type failure = {
  index : int;  (** input position of the failing task *)
  exn : exn;
  backtrace : string;  (** rendering of [raw_backtrace], for reports *)
  raw_backtrace : Printexc.raw_backtrace;
      (** backtrace captured at the raise point, inside the worker *)
}
(** A captured task failure. *)

exception Task_failed of failure
(** Raised by {!map} (in the calling domain, after the sweep
    has drained) when at least one task raised; carries the failure with
    the smallest input index. Re-raised with
    [Printexc.raise_with_backtrace] so the worker-side frames survive
    the cross-domain hand-off and land in logs. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the runtime's estimate of how
    many domains this machine runs well (usually the core count). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed by [jobs] domains.
    Results are in input order. [jobs] defaults to {!default_jobs} and is
    clamped to [1 .. length xs]; [jobs = 1] runs sequentially in the
    calling domain — no domain is spawned, giving bit-for-bit the
    sequential semantics (same evaluation order, same allocations).
    @raise Task_failed after the sweep if any task raised. *)

val map_result : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, failure) result list
(** Like {!map} but never raises: each task's outcome is an [Ok] or the
    captured failure, in input order. This is what batch drivers use to
    report per-instance errors and still exit non-zero at the end. *)

(** {1 Persistent executor}

    The batch entry points above spawn domains per sweep and join them
    before returning — the right shape for a finite corpus, the wrong
    one for a long-lived daemon. {!Executor} keeps a fixed set of
    worker domains alive across an unbounded request stream and adds
    the serving concerns batch mode never needed: {e backpressure}
    (a bounded pending queue; a submit past the bound is refused
    immediately instead of growing the queue without limit),
    {e cancellation} (a queued-but-unstarted task can be withdrawn,
    e.g. when its client hangs up), and {e supervision} (a worker
    domain that dies or runs one task past a hard watchdog deadline is
    replaced; only the affected ticket fails, with a structured
    {!abandon} reason).

    {b Supervision model.} OCaml domains cannot be killed preemptively,
    so supervision is by {e replacement}: a crashed worker respawns
    itself from its containment wrapper; a worker stuck past the
    watchdog deadline is {e deposed} — its ticket is failed, a
    replacement is spawned, and the stuck worker becomes a zombie that
    exits on its own if its task ever returns (and is simply never
    joined if it does not). Every replacement increments {!restarts}. *)

module Executor : sig
  type t
  (** A fixed pool of worker domains draining one shared FIFO queue. *)

  type ticket
  (** A submitted task, usable for {!cancel} and {!claim}. *)

  type reject =
    | Overloaded of int
        (** the pending queue was at [max_pending]; carries the depth
            observed at rejection time *)
    | Shutting_down  (** {!shutdown} has begun; no new work is accepted *)

  type abandon =
    | Crashed of string
        (** the worker domain running the task died; carries the
            rendered exception *)
    | Timed_out of float
        (** the task exceeded the watchdog deadline; carries the
            elapsed seconds at deposal *)
    | Dropped
        (** the task was still queued when a no-drain {!shutdown}
            cancelled it *)
  (** Why a ticket was abandoned by the executor rather than run to
      completion. Delivered through [submit]'s [on_abandon]. *)

  type chaos = {
    chaos_seed : int;
    kill_rate : float;  (** probability a task kills its worker *)
    delay_rate : float;  (** probability a task gets extra latency *)
    delay_s : float;  (** the injected latency, seconds *)
  }
  (** A deterministic fault plan for the service layer, mirroring
      {!Lubt_lp.Simplex.fault_plan} one level up. Decisions are drawn
      from a private seeded {!Prng} stream at submission time (under
      the pool lock), so for a fixed accepted-request sequence the
      same tasks are killed/delayed regardless of worker scheduling. *)

  val chaos_plan :
    ?kill_rate:float -> ?delay_rate:float -> ?delay_s:float -> int -> chaos
  (** [chaos_plan seed] builds a fault plan. Defaults:
      [kill_rate = 0.1], [delay_rate = 0.2], [delay_s = 0.02].
      @raise Invalid_argument on rates outside [0, 1] or negative
      delay. *)

  val create :
    ?jobs:int -> ?max_pending:int -> ?watchdog:float -> ?chaos:chaos ->
    unit -> t
  (** [create ~jobs ~max_pending ()] spawns [jobs] worker domains
      (default {!default_jobs}, clamped to at least 1). At most
      [max_pending] (default 64) tasks may wait in the queue; running
      tasks do not count against the bound. [watchdog] (seconds,
      default [infinity] = disabled) is the hard per-task deadline: a
      monitor domain deposes and replaces any worker whose current
      task runs longer, failing that ticket with [Timed_out]. [chaos]
      arms deterministic fault injection for tests and chaos smokes.
      @raise Invalid_argument if [watchdog] is not positive. *)

  val submit :
    ?on_abandon:(abandon -> unit) -> t -> (unit -> unit) ->
    (ticket, reject) result
  (** Enqueues a task, or refuses it without blocking. The task runs on
      some worker domain; an exception it raises is contained there —
      counted ({!task_errors}), logged with its backtrace via
      {!Lubt_obs.Log} — and never kills the worker. Tasks that must
      report results do so themselves (e.g. by writing a response);
      the executor carries no return values.

      [on_abandon] is called (at most once, from an executor-internal
      domain, outside the pool lock) if the executor gives up on the
      ticket: worker crash, watchdog deposal, or no-drain shutdown of
      a still-queued task. It is {e not} called for {!cancel} (the
      canceller already knows). Every accepted ticket thus either runs,
      is cancelled by its owner, or gets exactly one [on_abandon] —
      including tickets accepted concurrently with a draining
      {!shutdown}. *)

  val cancel : ticket -> bool
  (** [cancel ticket] withdraws the task if it has not started; [true]
      on success, [false] when it is already running or finished
      (a running task is never interrupted). *)

  val claim : ticket -> bool
  (** [claim ticket] atomically marks a running ticket as completed by
      its own task; [true] exactly once, and [false] if the executor
      already abandoned it (crash/watchdog). A task that publishes a
      result externally should claim first and stay silent on [false],
      so a response and an [on_abandon] error can never both be
      emitted for one ticket. *)

  val abandoned : ticket -> bool
  (** [true] once the executor has given up on the ticket. *)

  val jobs : t -> int
  (** Worker-domain count the executor was created with. *)

  val pending : t -> int
  (** Tasks queued and not yet started. *)

  val running : t -> int
  (** Tasks currently executing on a worker. *)

  val workers : t -> int
  (** Live (non-deposed) worker domains right now. *)

  val task_errors : t -> int
  (** Tasks that raised since {!create} (each one was logged). *)

  val restarts : t -> int
  (** Worker domains respawned after a crash or watchdog deposal. *)

  val watchdog_fires : t -> int
  (** Tickets failed by the watchdog deadline. *)

  val chaos_injected : t -> int
  (** Tasks that received an injected fault (kill or delay). *)

  val shutdown : ?drain:bool -> t -> unit
  (** Stops the executor and joins its domains. With [drain = true]
      (default) queued tasks run to completion first — the watchdog
      (if armed) stays live through the drain, so a task that wedges
      mid-drain is deposed rather than wedging shutdown; with
      [drain = false] queued tasks are cancelled (their [on_abandon]
      fires with [Dropped]) and only the tasks already running finish.
      Subsequent {!submit}s return [Error Shutting_down]. Workers that
      crash mid-drain are replaced so queued tickets are never
      stranded. Idempotent-ish: a second call re-joins nothing and
      keeps the first call's drain mode. *)
end
