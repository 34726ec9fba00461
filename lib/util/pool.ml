type failure = {
  index : int;
  exn : exn;
  backtrace : string;
  raw_backtrace : Printexc.raw_backtrace;
}

exception Task_failed of failure

let default_jobs () = Domain.recommended_domain_count ()

(* Each slot of [results] is written exactly once, by the single worker
   that claimed its index from the atomic counter; the caller reads the
   slots only after joining every domain. Domain.join is the
   synchronisation point, so plain Array writes are race-free here. *)
let run_indexed ~jobs (tasks : (unit -> 'b) array) : ('b, failure) result array =
  let n = Array.length tasks in
  let module Trace = Lubt_obs.Trace in
  let module Clock = Lubt_obs.Clock in
  let capture i f =
    (* the per-task span records in the worker domain's own trace buffer,
       so parallel tasks render as separate tid tracks *)
    let t0 = if Trace.enabled () then Clock.now () else 0.0 in
    let fin r =
      if Trace.enabled () then
        Trace.complete ~t0 "pool.task" ~args:[ ("index", Trace.Int i) ];
      r
    in
    match f () with
    | v -> fin (Ok v)
    | exception exn ->
      let raw_backtrace = Printexc.get_raw_backtrace () in
      fin
        (Error
           {
             index = i;
             exn;
             backtrace = Printexc.raw_backtrace_to_string raw_backtrace;
             raw_backtrace;
           })
  in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then Array.mapi (fun i f -> capture i f) tasks
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (capture i tasks.(i));
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    Array.map
      (function Some r -> r | None -> assert false (* every index claimed *))
      results
  end

let map_result ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let tasks = Array.of_list (List.map (fun x () -> f x) xs) in
  Array.to_list (run_indexed ~jobs tasks)

(* Re-raise the lowest-index failure so the reported error does not
   depend on scheduling. The raise point's own backtrace is reattached
   so the original frames survive the cross-domain hand-off. *)
let reraise_first results =
  List.iter
    (function
      | Error f -> Printexc.raise_with_backtrace (Task_failed f) f.raw_backtrace
      | Ok _ -> ())
    results

let map ?jobs f xs =
  let results = map_result ?jobs f xs in
  reraise_first results;
  List.map (function Ok v -> v | Error _ -> assert false) results

(* ------------------------------------------------------------------ *)
(* Persistent executor (serve mode)                                    *)
(* ------------------------------------------------------------------ *)

module Executor = struct
  module Log = Lubt_obs.Log
  module Trace = Lubt_obs.Trace
  module Clock = Lubt_obs.Clock
  module Metrics = Lubt_obs.Metrics

  (* registry handles: registration is a one-time lookup; recording is
     behind the metrics enabled flag and costs one atomic load when off *)
  let m_queue_depth =
    Metrics.gauge ~help:"Tasks queued in the executor"
      "lubt_executor_queue_depth"

  let m_restarts =
    Metrics.counter ~help:"Worker domains respawned after a crash or deposal"
      "lubt_executor_restarts_total"

  let m_watchdog_fires =
    Metrics.counter ~help:"Watchdog hard-deadline fires"
      "lubt_executor_watchdog_fires_total"

  let m_task_errors =
    Metrics.counter ~help:"Executor tasks whose run raised"
      "lubt_executor_task_errors_total"

  let m_task_latency =
    Metrics.histogram ~help:"Executor task wall time in milliseconds"
      "lubt_executor_task_latency_ms"

  type task_state = Pending | Running | Done | Cancelled | Abandoned

  type abandon =
    | Crashed of string
    | Timed_out of float
    | Dropped

  type task = {
    mutable state : task_state;
    run : unit -> unit;
    on_abandon : (abandon -> unit) option;
    mutable started : float;  (* Clock.now when it became Running *)
    chaos_kill : bool;
    chaos_delay : float;  (* seconds of injected latency; 0 = none *)
  }

  type chaos = {
    chaos_seed : int;
    kill_rate : float;
    delay_rate : float;
    delay_s : float;
  }

  let chaos_plan ?(kill_rate = 0.1) ?(delay_rate = 0.2) ?(delay_s = 0.02)
      chaos_seed =
    if not (kill_rate >= 0.0 && kill_rate <= 1.0) then
      invalid_arg "Executor.chaos_plan: kill_rate must be in [0, 1]";
    if not (delay_rate >= 0.0 && delay_rate <= 1.0) then
      invalid_arg "Executor.chaos_plan: delay_rate must be in [0, 1]";
    if not (delay_s >= 0.0) then
      invalid_arg "Executor.chaos_plan: delay_s must be non-negative";
    { chaos_seed; kill_rate; delay_rate; delay_s }

  (* The simulated worker death: raised past the per-task containment so
     it exercises exactly the code path a real escaping exception (a bug
     in the containment itself, a fatal runtime condition) would take. *)
  exception Chaos_kill

  (* One worker domain's identity. A slot is [deposed] when the watchdog
     has replaced its (stuck) worker: the deposed worker finishes its
     current task, sees the flag and exits without taking new work — the
     closest thing to a kill that cooperative domains allow. *)
  type slot = {
    w_id : int;
    mutable w_task : task option;
    mutable w_deposed : bool;
    mutable w_domain : unit Domain.t option;
  }

  type t = {
    lock : Mutex.t;
    work : Condition.t;  (* signalled on submit and on shutdown *)
    queue : task Queue.t;
    max_pending : int;
    jobs : int;
    watchdog : float;  (* hard per-task deadline; infinity = off *)
    chaos : chaos option;
    chaos_rng : Prng.t option;  (* drawn under [lock], in submit order *)
    mutable pending : int;  (* Pending tasks currently queued *)
    mutable running : int;
    mutable task_errors : int;
    mutable restarts : int;  (* worker domains respawned *)
    mutable watchdog_fires : int;
    mutable chaos_injected : int;
    mutable stopping : bool;
    mutable drain : bool;  (* meaningful once [stopping] *)
    mutable slots : slot list;  (* live, non-deposed workers *)
    mutable joinable : unit Domain.t list;
    mutable next_worker : int;
    monitor_stop : bool Atomic.t;
    mutable monitor : unit Domain.t option;
  }

  type ticket = { ticket_task : task; owner : t }

  type reject =
    | Overloaded of int  (** queue depth at rejection time *)
    | Shutting_down

  (* Workers drain the shared queue until shutdown or deposal; a raising
     task is contained at the task boundary (counted and logged with its
     backtrace) so one bad request can never take a worker domain down
     with it. [Chaos_kill] deliberately escapes that containment. *)
  let rec worker_loop pool slot =
    Mutex.lock pool.lock;
    let rec take () =
      if slot.w_deposed then None
      else if pool.stopping && Queue.is_empty pool.queue then None
      else
        match Queue.take_opt pool.queue with
        | Some tk when tk.state = Pending ->
          tk.state <- Running;
          tk.started <- Clock.now ();
          pool.pending <- pool.pending - 1;
          pool.running <- pool.running + 1;
          Metrics.set m_queue_depth (float_of_int pool.pending);
          slot.w_task <- Some tk;
          Some tk
        | Some _ -> take () (* cancelled while queued: skip *)
        | None ->
          Condition.wait pool.work pool.lock;
          take ()
    in
    match take () with
    | None -> Mutex.unlock pool.lock
    | Some tk ->
      Mutex.unlock pool.lock;
      if tk.chaos_delay > 0.0 then Unix.sleepf tk.chaos_delay;
      if tk.chaos_kill then raise Chaos_kill;
      (try tk.run () with
      | Chaos_kill as e -> raise e
      | exn ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.protect pool.lock (fun () ->
            pool.task_errors <- pool.task_errors + 1);
        Metrics.incr m_task_errors;
        Log.err
          ~fields:[ ("exn", Trace.Str (Printexc.to_string exn)) ]
          "executor task raised%s"
          (let s = Printexc.raw_backtrace_to_string bt in
           if s = "" then "" else "\n" ^ s));
      if Metrics.enabled () then
        Metrics.observe m_task_latency ((Clock.now () -. tk.started) *. 1e3);
      Mutex.protect pool.lock (fun () ->
          (match tk.state with
          | Running ->
            tk.state <- Done;
            pool.running <- pool.running - 1
          | Done ->
            (* the task claimed its own completion *)
            pool.running <- pool.running - 1
          | Abandoned ->
            (* the watchdog or a crash already settled the books; a
               deposed worker additionally stops here via its flag *)
            ()
          | Pending | Cancelled -> assert false);
          slot.w_task <- None);
      worker_loop pool slot

  (* Spawn a worker into a fresh slot. Caller holds [pool.lock]. *)
  let rec spawn_worker pool =
    let slot =
      {
        w_id = pool.next_worker;
        w_task = None;
        w_deposed = false;
        w_domain = None;
      }
    in
    pool.next_worker <- pool.next_worker + 1;
    pool.slots <- slot :: pool.slots;
    let d = Domain.spawn (fun () -> worker_wrap pool slot) in
    slot.w_domain <- Some d;
    pool.joinable <- d :: pool.joinable

  (* Top-level containment for a dying worker domain: fail only its
     in-flight ticket with a structured reason, respawn a replacement so
     the pool keeps its capacity (also mid-drain, so a crash during
     shutdown cannot strand queued tickets), count the restart, and let
     the dead domain end. *)
  and worker_wrap pool slot =
    try worker_loop pool slot
    with exn ->
      let bt = Printexc.get_raw_backtrace () in
      let cb =
        Mutex.protect pool.lock (fun () ->
            let cb =
              match slot.w_task with
              | Some tk when tk.state = Running ->
                tk.state <- Abandoned;
                pool.running <- pool.running - 1;
                tk.on_abandon
              | _ -> None
            in
            slot.w_task <- None;
            slot.w_deposed <- true;
            pool.slots <- List.filter (fun s -> not (s == slot)) pool.slots;
            if
              (not pool.stopping)
              || (pool.drain && not (Queue.is_empty pool.queue))
            then begin
              pool.restarts <- pool.restarts + 1;
              Metrics.incr m_restarts;
              spawn_worker pool
            end;
            cb)
      in
      Log.err
        ~fields:
          [
            ("worker", Trace.Int slot.w_id);
            ("exn", Trace.Str (Printexc.to_string exn));
          ]
        "worker domain died; respawned%s"
        (let s = Printexc.raw_backtrace_to_string bt in
         if s = "" then "" else "\n" ^ s);
      if Trace.enabled () then
        Trace.instant "executor.worker_crash"
          ~args:[ ("worker", Trace.Int slot.w_id) ];
      (match cb with
      | Some f -> ( try f (Crashed (Printexc.to_string exn)) with _ -> ())
      | None -> ())

  (* The watchdog: a task running past the hard deadline has its ticket
     failed and its worker deposed and replaced. The stuck worker keeps
     running (domains cannot be killed) but is out of the pool: if the
     task ever finishes, the worker exits quietly. *)
  let monitor_loop pool =
    let interval = Float.max 0.001 (Float.min 0.05 (pool.watchdog /. 4.0)) in
    let rec go () =
      if Atomic.get pool.monitor_stop then ()
      else begin
        Unix.sleepf interval;
        let fired =
          Mutex.protect pool.lock (fun () ->
              let now = Clock.now () in
              let fired =
                List.filter_map
                  (fun slot ->
                    match slot.w_task with
                    | Some tk
                      when tk.state = Running
                           && now -. tk.started > pool.watchdog ->
                      Some (slot, tk, now -. tk.started)
                    | _ -> None)
                  pool.slots
              in
              List.iter
                (fun (slot, tk, _) ->
                  tk.state <- Abandoned;
                  pool.running <- pool.running - 1;
                  pool.watchdog_fires <- pool.watchdog_fires + 1;
                  pool.restarts <- pool.restarts + 1;
                  Metrics.incr m_watchdog_fires;
                  Metrics.incr m_restarts;
                  slot.w_task <- None;
                  slot.w_deposed <- true;
                  pool.slots <-
                    List.filter (fun s -> not (s == slot)) pool.slots;
                  (* a deposed worker may never terminate: take its
                     domain out of the joinable set so shutdown cannot
                     block on it *)
                  (match slot.w_domain with
                  | Some d ->
                    pool.joinable <-
                      List.filter (fun d' -> not (d' == d)) pool.joinable
                  | None -> ());
                  spawn_worker pool)
                fired;
              fired)
        in
        List.iter
          (fun (slot, tk, elapsed) ->
            Log.warn
              ~fields:
                [
                  ("worker", Trace.Int slot.w_id);
                  ("elapsed_s", Trace.Float elapsed);
                ]
              "watchdog: task over the %.3gs hard deadline; worker deposed \
               and replaced"
              pool.watchdog;
            if Trace.enabled () then
              Trace.instant "executor.watchdog_fire"
                ~args:[ ("worker", Trace.Int slot.w_id) ];
            match tk.on_abandon with
            | Some f -> ( try f (Timed_out elapsed) with _ -> ())
            | None -> ())
          fired;
        go ()
      end
    in
    go ()

  let create ?jobs ?(max_pending = 64) ?(watchdog = infinity) ?chaos () =
    let jobs =
      match jobs with Some j -> max 1 j | None -> default_jobs ()
    in
    if not (watchdog > 0.0) then
      invalid_arg "Executor.create: watchdog must be positive";
    let pool =
      {
        lock = Mutex.create ();
        work = Condition.create ();
        queue = Queue.create ();
        max_pending = max 0 max_pending;
        jobs;
        watchdog;
        chaos;
        chaos_rng =
          (match chaos with
          | Some c -> Some (Prng.create c.chaos_seed)
          | None -> None);
        pending = 0;
        running = 0;
        task_errors = 0;
        restarts = 0;
        watchdog_fires = 0;
        chaos_injected = 0;
        stopping = false;
        drain = true;
        slots = [];
        joinable = [];
        next_worker = 0;
        monitor_stop = Atomic.make false;
        monitor = None;
      }
    in
    Mutex.protect pool.lock (fun () ->
        for _ = 1 to jobs do
          spawn_worker pool
        done);
    if watchdog < infinity then
      pool.monitor <- Some (Domain.spawn (fun () -> monitor_loop pool));
    pool

  let jobs pool = pool.jobs

  let pending pool = Mutex.protect pool.lock (fun () -> pool.pending)

  let running pool = Mutex.protect pool.lock (fun () -> pool.running)

  let task_errors pool =
    Mutex.protect pool.lock (fun () -> pool.task_errors)

  let restarts pool = Mutex.protect pool.lock (fun () -> pool.restarts)

  let watchdog_fires pool =
    Mutex.protect pool.lock (fun () -> pool.watchdog_fires)

  let chaos_injected pool =
    Mutex.protect pool.lock (fun () -> pool.chaos_injected)

  let workers pool =
    Mutex.protect pool.lock (fun () -> List.length pool.slots)

  let submit ?on_abandon pool f =
    Mutex.protect pool.lock (fun () ->
        if pool.stopping then Error Shutting_down
        else if pool.pending >= pool.max_pending then
          Error (Overloaded pool.pending)
        else begin
          (* chaos decisions are drawn at submission, under the lock:
             for a fixed accepted-request sequence the plan is
             reproducible regardless of worker scheduling *)
          let chaos_kill, chaos_delay =
            match (pool.chaos, pool.chaos_rng) with
            | Some c, Some rng ->
              let kill =
                c.kill_rate > 0.0 && Prng.float rng 1.0 < c.kill_rate
              in
              let delay =
                if c.delay_rate > 0.0 && Prng.float rng 1.0 < c.delay_rate
                then c.delay_s
                else 0.0
              in
              if kill || delay > 0.0 then
                pool.chaos_injected <- pool.chaos_injected + 1;
              (kill, delay)
            | _ -> (false, 0.0)
          in
          let tk =
            {
              state = Pending;
              run = f;
              on_abandon;
              started = 0.0;
              chaos_kill;
              chaos_delay;
            }
          in
          Queue.add tk pool.queue;
          pool.pending <- pool.pending + 1;
          Metrics.set m_queue_depth (float_of_int pool.pending);
          Condition.signal pool.work;
          Ok { ticket_task = tk; owner = pool }
        end)

  let cancel { ticket_task = tk; owner = pool } =
    Mutex.protect pool.lock (fun () ->
        if tk.state = Pending then begin
          tk.state <- Cancelled;
          pool.pending <- pool.pending - 1;
          true
        end
        else false)

  let claim { ticket_task = tk; owner = pool } =
    Mutex.protect pool.lock (fun () ->
        match tk.state with
        | Running ->
          tk.state <- Done;
          true
        | Pending | Done | Cancelled | Abandoned -> false)

  let abandoned { ticket_task = tk; owner = pool } =
    Mutex.protect pool.lock (fun () -> tk.state = Abandoned)

  let shutdown ?(drain = true) pool =
    let cbs =
      Mutex.protect pool.lock (fun () ->
          let first = not pool.stopping in
          pool.stopping <- true;
          if first then pool.drain <- drain;
          let cbs = ref [] in
          if first && not drain then begin
            (* drop everything still queued; running tasks finish. A
               dropped ticket with a callback is told, so its owner is
               not left waiting for a response that cannot come. *)
            Queue.iter
              (fun tk ->
                if tk.state = Pending then begin
                  tk.state <- Cancelled;
                  match tk.on_abandon with
                  | Some f -> cbs := f :: !cbs
                  | None -> ()
                end)
              pool.queue;
            pool.pending <- 0
          end;
          Condition.broadcast pool.work;
          !cbs)
    in
    List.iter (fun f -> try f Dropped with _ -> ()) cbs;
    (* Join the workers one at a time, re-checking under the lock: the
       watchdog stays alive through the drain, so a task that wedges
       mid-drain still gets its worker deposed (and pulled out of the
       joinable set) instead of wedging shutdown with it. *)
    let rec join_all () =
      let next =
        Mutex.protect pool.lock (fun () ->
            match pool.joinable with
            | [] -> None
            | d :: rest ->
              pool.joinable <- rest;
              Some d)
      in
      match next with
      | None -> ()
      | Some d ->
        Domain.join d;
        join_all ()
    in
    join_all ();
    Atomic.set pool.monitor_stop true;
    match pool.monitor with
    | Some d ->
      Domain.join d;
      pool.monitor <- None
    | None -> ()
end
