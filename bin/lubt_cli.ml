(* lubt: command-line front end.

   Subcommands:
     gen        write a synthetic benchmark instance to a file
     route      run the bounded-skew baseline router on an instance
     solve      solve the LUBT LP (+ embedding) for an instance & topology
     batch      domain-parallel sweep over a seeded instance corpus,
                JSON-lines output
     serve      long-lived JSON-lines solve daemon (Unix socket / TCP)
     table1/2/3, tradeoff, ablation
                regenerate the paper's tables and figure

   Output discipline: stdout carries the solution (or JSON) only; all
   diagnostic telemetry — solver counters, certification reports,
   recovery notes, per-round lazy-loop stats, progress — goes to stderr,
   so stdout can always be piped into a JSON parser or the next tool. *)

open Cmdliner

module Point = Lubt_geom.Point
module Tree = Lubt_topo.Tree
module Instance = Lubt_core.Instance
module Ebf = Lubt_core.Ebf
module Routed = Lubt_core.Routed
module Lubt = Lubt_core.Lubt
module Bst = Lubt_bst.Bst_dme
module Simplex = Lubt_lp.Simplex
module Benchmarks = Lubt_data.Benchmarks
module Io = Lubt_data.Io
module Tables = Lubt_experiments.Tables
module Protocol = Lubt_experiments.Protocol
module Batch = Lubt_experiments.Batch
module Serve = Lubt_experiments.Serve
module Pool = Lubt_util.Pool
module Log = Lubt_obs.Log
module Trace = Lubt_obs.Trace
module Chrome_trace = Lubt_obs.Chrome_trace
module Convergence = Lubt_obs.Convergence

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)
(* ------------------------------------------------------------------ *)

let size_arg =
  let parse = function
    | "tiny" -> Ok Benchmarks.Tiny
    | "scaled" -> Ok Benchmarks.Scaled
    | "full" -> Ok Benchmarks.Full
    | s -> Error (`Msg (Printf.sprintf "unknown size %S (tiny|scaled|full)" s))
  in
  let print fmt s =
    Format.pp_print_string fmt
      (match s with
      | Benchmarks.Tiny -> "tiny"
      | Benchmarks.Scaled -> "scaled"
      | Benchmarks.Full -> "full")
  in
  Arg.conv (parse, print)

let size_t =
  Arg.(
    value
    & opt size_arg Benchmarks.Scaled
    & info [ "size" ] ~docv:"SIZE"
        ~doc:"Benchmark size: tiny, scaled (default) or full (paper sizes).")

(* benchmark names don't depend on the size, so validate against Tiny *)
let bench_names =
  lazy
    (List.map
       (fun s -> s.Benchmarks.name)
       (Benchmarks.specs Benchmarks.Tiny @ Benchmarks.clustered Benchmarks.Tiny))

let bench_arg =
  let parse s =
    if List.mem s (Lazy.force bench_names) then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf "unknown benchmark %S (known: %s)" s
              (String.concat "|" (Lazy.force bench_names))))
  in
  Arg.conv (parse, Format.pp_print_string)

let bench_t =
  Arg.(
    value
    & opt bench_arg "prim1s"
    & info [ "bench" ] ~docv:"NAME" ~doc:"Benchmark name (prim1s|prim2s|r1s|r3s).")

let or_die = function
  | Ok v -> v
  | Error msg ->
    Log.err "%s" msg;
    exit 1

(* The topology file when one is given, else the baseline router's
   tree for the instance's window (solve, svg and optimize). *)
let topology_for inst topo_path =
  match topo_path with
  | Some path -> or_die (Io.read_tree path)
  | None -> Protocol.baseline_topology inst

(* Cross-request warm-start cache plumbing, shared by solve, batch and
   serve. The in-process tier is on by default (it is cheap and pays
   off whenever one process solves related instances); --no-cache turns
   it off and --cache-dir adds the on-disk tier that persists bases
   across processes and daemon restarts. *)
let cache_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist warm-start basis snapshots under $(docv) (created if \
           missing), so later runs — including a restarted daemon — \
           warm-start from bases this run certified. Snapshots are \
           checksummed; a corrupt or stale file is rejected and the \
           solve runs cold.")

let no_cache_t =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the warm-start basis cache entirely (every solve \
           runs cold; implies --cache-dir is ignored).")

let make_cache ~no_cache ~cache_dir =
  if no_cache then None
  else Some (Lubt_lp.Basis_cache.create ?dir:cache_dir ())

let log_level_t =
  let level_conv =
    let parse s =
      match Log.level_of_string s with
      | Ok l -> Ok l
      | Error e -> Error (`Msg e)
    in
    let print fmt l = Format.pp_print_string fmt (Log.level_to_string l) in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt level_conv Log.Info
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Stderr diagnostic verbosity: $(b,error), $(b,warn), $(b,info) \
           (default) or $(b,debug). Lowering it silences the progress \
           chatter without touching stdout.")

(* flush the recorder into a Chrome-trace JSON file; call after the
   traced work (and any worker domains) have finished *)
let write_trace path =
  let events = Trace.events () in
  let dropped = Trace.dropped () in
  Trace.stop ();
  Chrome_trace.write ~dropped path events;
  Log.info
    ~fields:
      [ ("events", Trace.Int (List.length events));
        ("dropped", Trace.Int dropped) ]
    "wrote trace to %s" path

(* ------------------------------------------------------------------ *)
(* gen                                                                  *)
(* ------------------------------------------------------------------ *)

let gen size bench lower upper out =
  match Benchmarks.find size bench with
  | exception Not_found ->
    prerr_endline ("unknown benchmark: " ^ bench);
    exit 1
  | spec ->
    let upper = if upper <= 0.0 then infinity else upper in
    let inst = Benchmarks.instance ~lower ~upper spec in
    (match out with
    | Some path ->
      Io.write_instance path inst;
      Printf.printf "wrote %s (%d sinks, radius %g)\n" path
        (Instance.num_sinks inst) (Instance.radius inst)
    | None -> print_string (Io.instance_to_string inst))

let gen_cmd =
  let lower =
    Arg.(
      value & opt float 0.0
      & info [ "lower" ] ~doc:"Lower delay bound as a fraction of the radius.")
  in
  let upper =
    Arg.(
      value & opt float 0.0
      & info [ "upper" ]
          ~doc:"Upper delay bound as a fraction of the radius (0 = infinity).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output file (stdout when absent).")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic benchmark instance")
    Term.(const gen $ size_t $ bench_t $ lower $ upper $ out)

(* ------------------------------------------------------------------ *)
(* route (baseline)                                                     *)
(* ------------------------------------------------------------------ *)

let route inst_path skew topo_out =
  let inst = or_die (Io.read_instance inst_path) in
  let radius = Instance.radius inst in
  let bound = if skew < 0.0 then infinity else skew *. radius in
  let r =
    Bst.route ~skew_bound:bound
      ?source:inst.Instance.source inst.Instance.sinks
  in
  Printf.printf "baseline: cost %.2f, delays [%.4f, %.4f] x radius, skew %.4f\n"
    r.Bst.cost (r.Bst.dmin /. radius) (r.Bst.dmax /. radius)
    ((r.Bst.dmax -. r.Bst.dmin) /. radius);
  match topo_out with
  | Some path ->
    Io.write_tree path r.Bst.topology;
    Printf.printf "wrote topology to %s\n" path
  | None -> ()

let route_cmd =
  let inst_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE")
  in
  let skew =
    Arg.(
      value & opt float (-1.0)
      & info [ "skew" ]
          ~doc:"Skew bound as a fraction of the radius (negative = infinity).")
  in
  let topo_out =
    Arg.(
      value & opt (some string) None
      & info [ "topology-out" ] ~docv:"FILE" ~doc:"Write the produced topology.")
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Run the bounded-skew baseline router")
    Term.(const route $ inst_path $ skew $ topo_out)

(* ------------------------------------------------------------------ *)
(* solve (LUBT)                                                         *)
(* ------------------------------------------------------------------ *)

(* diagnostic telemetry goes to stderr: stdout stays machine-parseable *)
let print_solver_stats (ebf : Ebf.result) =
  Format.eprintf "%a@." Simplex.pp_stats ebf.Ebf.lp_stats;
  (match ebf.Ebf.certificate with
  | Some report -> Format.eprintf "%a@." Lubt_lp.Certify.pp report
  | None -> ());
  Printf.eprintf "warm-start cache: %s\n"
    (Ebf.cache_outcome_name ebf.Ebf.cache_outcome);
  prerr_endline "lazy-loop rounds:";
  List.iter
    (fun (r : Ebf.round_stat) ->
      Printf.eprintf
        "  round %d: %d violations, %d rows added, scan %.3f ms, append \
         %.3f ms, solve %.3f ms (%d pivots)\n"
        r.Ebf.round r.Ebf.violations_found r.Ebf.rows_added
        (r.Ebf.scan_seconds *. 1e3)
        (r.Ebf.append_seconds *. 1e3)
        (r.Ebf.solve_seconds *. 1e3)
        r.Ebf.solve_pivots)
    ebf.Ebf.round_stats

let solve inst_path topo_path eager stats certify time_limit fault_seed json
    trace convergence cache_dir no_cache log_level =
  Log.set_level log_level;
  if trace <> None then Trace.start ();
  let conv_sink =
    match convergence with
    | None -> None
    | Some path ->
      let oc = open_out path in
      Some (path, oc, Convergence.to_channel oc)
  in
  (* flushes the observability outputs; must run on every exit path of
     the solve, success or not, so partial traces survive failures *)
  let finish_obs () =
    (match conv_sink with
    | Some (path, oc, sink) ->
      close_out oc;
      Log.info
        ~fields:[ ("lines", Trace.Int (Convergence.lines sink)) ]
        "wrote convergence log to %s" path
    | None -> ());
    match trace with Some path -> write_trace path | None -> ()
  in
  let probe =
    match conv_sink with
    | None -> None
    | Some (_, _, sink) ->
      Some
        (fun (e : Simplex.probe_event) ->
          Convergence.record sink ~iteration:e.Simplex.pr_iteration
            ~phase:e.Simplex.pr_phase ~objective:e.Simplex.pr_objective
            ~primal_infeasibility:e.Simplex.pr_primal_infeas
            ~dual_infeasibility:e.Simplex.pr_dual_infeas
            ~entering:e.Simplex.pr_entering ~leaving:e.Simplex.pr_leaving
            ~eta_count:e.Simplex.pr_eta_count
            ~bound_flips:e.Simplex.pr_bound_flips
            ?recovery:e.Simplex.pr_recovery ())
  in
  let inst = or_die (Io.read_instance inst_path) in
  let tree = topology_for inst topo_path in
  let lp_params =
    {
      Ebf.default_options.Ebf.lp_params with
      Simplex.fault =
        (match fault_seed with
        | Some seed -> Some (Simplex.fault_plan seed)
        | None -> None);
    }
  in
  let options =
    {
      Ebf.default_options with
      Ebf.lazy_steiner = not eager;
      check = (if certify then Lubt_lp.Certify.Full else Lubt_lp.Certify.Off);
      time_limit = (if time_limit <= 0.0 then infinity else time_limit);
      cache = make_cache ~no_cache ~cache_dir;
      lp_params;
      probe;
    }
  in
  match Lubt.solve ~options inst tree with
  | Error e ->
    finish_obs ();
    Log.err "%s" (Lubt.error_to_string e);
    exit 1
  | Ok report ->
    let routed = report.Lubt.routed in
    (* diagnostics to stderr first, solution to stdout last *)
    Log.info
      ~fields:
        [ ("full_rows", Trace.Int report.Lubt.ebf.Ebf.full_rows);
          ("rounds", Trace.Int report.Lubt.ebf.Ebf.rounds) ]
      "LP: %d rows (full formulation: %d), %d simplex iterations, %d rounds"
      report.Lubt.ebf.Ebf.lp_rows report.Lubt.ebf.Ebf.full_rows
      report.Lubt.ebf.Ebf.lp_iterations report.Lubt.ebf.Ebf.rounds;
    (match report.Lubt.ebf.Ebf.certificate with
    | Some r when r.Lubt_lp.Certify.ok ->
      Log.info "certification: OK (%s level, %d rows)"
        (Lubt_lp.Certify.level_to_string r.Lubt_lp.Certify.level)
        r.Lubt_lp.Certify.rows_checked
    | _ -> ());
    let recov = (report.Lubt.ebf.Ebf.lp_stats).Simplex.recoveries in
    if Simplex.recovery_attempts recov > 0 then
      Log.warn
        ~fields:
          [ ("faults_injected", Trace.Int recov.Simplex.faults_injected);
            ( "validations_rejected",
              Trace.Int recov.Simplex.validations_rejected ) ]
        "numerical recoveries: %d"
        (Simplex.recovery_attempts recov);
    if stats then print_solver_stats report.Lubt.ebf;
    let validated, verrors =
      match Routed.validate routed with
      | Ok () -> (true, [])
      | Error es -> (false, es)
    in
    if not validated then begin
      Log.err "validation FAILED:";
      List.iter (fun e -> Log.err "  %s" e) verrors
    end
    else Log.info "validation: OK";
    finish_obs ();
    (* rendered by the Serve module so the one-shot report and the
       daemon's responses share one definition and cannot drift *)
    if json then print_endline (Serve.solve_report_json report ~validated)
    else Format.printf "%a@." Routed.pp_summary routed;
    if not validated then exit 1

let solve_cmd =
  let inst_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE")
  in
  let topo_path =
    Arg.(
      value & opt (some file) None
      & info [ "topology" ] ~docv:"FILE"
          ~doc:"Topology file (generated by the baseline router when absent).")
  in
  let eager =
    Arg.(
      value & flag
      & info [ "eager" ] ~doc:"Disable lazy Steiner-row generation.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print solver counters (pivots, ftran/btran, \
             refactorisations, run time) and per-round lazy-loop \
             telemetry after the solve.")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Certify the LP solution a posteriori (primal/dual residuals, \
             complementary slackness, duality gap) and verify every Steiner \
             and delay constraint geometrically, plus the finished \
             embedding. A rejected certificate fails with a non-zero exit.")
  in
  let time_limit =
    Arg.(
      value & opt float 0.0
      & info [ "time-limit" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for the whole solve (all lazy rounds); 0 or \
             negative disables. On expiry the solve fails with a \
             time-limit diagnostic and a non-zero exit.")
  in
  let fault_seed =
    Arg.(
      value & opt (some int) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:
            "Inject deterministic numerical faults (singular \
             refactorisations, perturbed ftrans, zero pivots) seeded by \
             SEED, to exercise the recovery ladder. Testing only.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the solve report as a single JSON object on stdout \
             (cost, validation/certification verdicts, EBF and solver \
             telemetry). All diagnostics go to stderr either way, so \
             stdout is machine-parseable.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record spans for the whole solve (baseline route, EBF \
             rounds, simplex runs, FTRAN/BTRAN, embedding passes) and \
             write them as Chrome trace-event JSON to FILE — load it \
             in Perfetto (ui.perfetto.dev) or chrome://tracing.")
  in
  let convergence =
    Arg.(
      value
      & opt (some string) None
      & info [ "convergence" ] ~docv:"FILE"
          ~doc:
            "Record one JSON line per simplex pivot (objective, \
             dual infeasibility, entering/leaving indices, eta count, \
             recovery events) to FILE. Installs the per-iteration \
             probe, which perturbs BTRAN counters; solutions are \
             unaffected.")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve the LUBT problem (EBF + embedding)")
    Term.(
      const solve $ inst_path $ topo_path $ eager $ stats $ certify
      $ time_limit $ fault_seed $ json $ trace $ convergence $ cache_dir_t
      $ no_cache_t $ log_level_t)

(* ------------------------------------------------------------------ *)
(* batch                                                                *)
(* ------------------------------------------------------------------ *)

(* [mkdir -p]: --trace-dir may name a nested path that does not exist
   yet (e.g. results/2026-08/run3) *)
let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* repeated sweeps into one directory must not clobber earlier traces:
   take batch_trace.json if free, else the first free -N suffix *)
let fresh_trace_path dir =
  let base = Filename.concat dir "batch_trace" in
  if not (Sys.file_exists (base ^ ".json")) then base ^ ".json"
  else
    let rec go n =
      let p = Printf.sprintf "%s-%d.json" base n in
      if Sys.file_exists p then go (n + 1) else p
    in
    go 1

let batch size jobs seed per_bench skew no_certify out trace_dir cache_dir
    no_cache =
  (match trace_dir with
  | Some dir ->
    mkdir_p dir;
    Trace.start ()
  | None -> ());
  let specs = Batch.corpus ~size ~per_bench ~skew_rel:skew ~seed () in
  Log.info
    ~fields:[ ("cores", Trace.Int (Pool.default_jobs ())) ]
    "batch: %d instances, %d jobs" (List.length specs) jobs;
  let cache = make_cache ~no_cache ~cache_dir in
  let s = Batch.run ~jobs ~certify:(not no_certify) ?cache specs in
  (match cache with
  | Some c ->
    let cs = Lubt_lp.Basis_cache.stats c in
    Log.info
      ~fields:
        [
          ("hits", Trace.Int cs.Lubt_lp.Basis_cache.hits);
          ("misses", Trace.Int cs.Lubt_lp.Basis_cache.misses);
        ]
      "warm-start cache: %.0f%% hit rate"
      (100.0 *. Lubt_lp.Basis_cache.hit_rate cs)
  | None -> ());
  let oc = match out with Some path -> open_out path | None -> stdout in
  List.iter
    (fun o -> output_string oc (Batch.outcome_json o ^ "\n"))
    s.Batch.outcomes;
  output_string oc (Batch.summary_json s ^ "\n");
  if out <> None then close_out oc;
  Log.info
    ~fields:[ ("failures", Trace.Int s.Batch.failures) ]
    "batch: wall %.3fs, %d failures" s.Batch.wall_s s.Batch.failures;
  List.iter
    (fun (o : Batch.outcome) ->
      match o.Batch.error with
      | Some e -> Log.err "%s: %s" o.Batch.spec.Batch.id e
      | None -> ())
    s.Batch.outcomes;
  (* all worker domains have joined inside Batch.run, so every
     per-domain buffer is quiescent and safe to snapshot *)
  (match trace_dir with
  | Some dir -> write_trace (fresh_trace_path dir)
  | None -> ());
  if s.Batch.failures > 0 then exit 1

let batch_cmd =
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the sweep. 1 (the default) runs the exact \
             sequential path; results and their order are identical at any \
             value — only the wall-clock changes. 0 means the machine's \
             recommended domain count.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Base sink-field seed: variant $(i,k) of each benchmark uses \
             seed N+k, so the corpus is reproducible.")
  in
  let per_bench =
    Arg.(
      value & opt int 5
      & info [ "per-bench" ] ~docv:"K"
          ~doc:"Seeded sink-field variants per benchmark (default 5).")
  in
  let skew =
    Arg.(
      value & opt float 0.5
      & info [ "skew" ] ~docv:"F"
          ~doc:
            "Skew bound (x radius) guiding each instance's baseline \
             topology; the EBF window is the baseline's achieved one.")
  in
  let no_certify =
    Arg.(
      value & flag
      & info [ "no-certify" ]
          ~doc:
            "Skip the a-posteriori Full certificate on each instance \
             (faster; objectives are then not independently certified).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the JSON-lines records to FILE instead of stdout.")
  in
  let trace_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Record spans for the whole sweep and write \
             DIR/batch_trace.json (Chrome trace-event JSON; DIR and \
             its parents are created if missing, and an existing \
             trace gets a -N suffixed sibling instead of being \
             overwritten). Each worker domain records into its own \
             buffer, so parallel tasks render as separate tracks in \
             Perfetto.")
  in
  let run size jobs seed per_bench skew no_certify out trace_dir cache_dir
      no_cache log_level =
    Log.set_level log_level;
    let jobs = if jobs = 0 then Pool.default_jobs () else jobs in
    if jobs < 0 || per_bench < 1 then begin
      Log.err "--jobs must be >= 0 and --per-bench >= 1";
      exit 1
    end;
    batch size jobs seed per_bench skew no_certify out trace_dir cache_dir
      no_cache
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Solve a seeded instance corpus on a pool of domains, one \
          JSON-lines record per instance (input order) plus a summary \
          line; non-zero exit if any instance fails")
    Term.(
      const run $ size_t $ jobs $ seed $ per_bench $ skew $ no_certify $ out
      $ trace_dir $ cache_dir_t $ no_cache_t $ log_level_t)

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

let serve socket port host metrics_port jobs max_pending default_time_limit
    watchdog chaos_seed chaos_kill_rate chaos_delay_rate chaos_delay_ms
    cache_dir no_cache log_level =
  Log.set_level log_level;
  if socket = None && port = None then begin
    prerr_endline "lubt serve: give --socket PATH and/or --port PORT";
    exit 2
  end;
  if
    chaos_kill_rate < 0.0 || chaos_kill_rate > 1.0 || chaos_delay_rate < 0.0
    || chaos_delay_rate > 1.0 || chaos_delay_ms < 0.0
  then begin
    prerr_endline
      "lubt serve: chaos rates must be in [0,1] and --chaos-delay-ms >= 0";
    exit 2
  end;
  let chaos =
    match chaos_seed with
    | None -> None
    | Some seed ->
      Some
        (Pool.Executor.chaos_plan ~kill_rate:chaos_kill_rate
           ~delay_rate:chaos_delay_rate
           ~delay_s:(chaos_delay_ms /. 1e3)
           seed)
  in
  let cfg =
    {
      Serve.socket;
      port;
      host;
      jobs = (if jobs = 0 then Pool.default_jobs () else jobs);
      max_pending;
      default_time_limit =
        (if default_time_limit <= 0.0 then infinity else default_time_limit);
      watchdog = (if watchdog <= 0.0 then infinity else watchdog);
      chaos;
      cache = make_cache ~no_cache ~cache_dir;
      metrics_port;
    }
  in
  match Serve.create cfg with
  | Error msg ->
    prerr_endline msg;
    exit 1
  | Ok server ->
    Serve.install_signal_handlers server;
    (* stdout stays machine-readable: one summary object, like batch *)
    print_endline (Serve.stats_json (Serve.run server))

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) (a stale socket \
             file is replaced; it is removed again on shutdown).")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen on TCP $(docv) (combinable with --socket).")
  in
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR"
          ~doc:"TCP bind address (default loopback only).")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Expose Prometheus text metrics over HTTP at \
             $(b,GET /metrics) on $(docv) (bound to --host; default: no \
             metrics listener). The JSON-lines $(b,metrics) op serves \
             the same registry snapshot either way.")
  in
  let jobs =
    Arg.(
      value & opt int 4
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains solving requests concurrently (default 4; 0 \
             means the machine's recommended domain count).")
  in
  let max_pending =
    Arg.(
      value & opt int 64
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Bound on queued (accepted, not yet running) requests. A \
             request arriving past the bound is refused immediately with \
             an $(b,overloaded) error instead of growing the queue.")
  in
  let default_time_limit =
    Arg.(
      value & opt float 0.0
      & info [ "default-time-limit" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget applied to requests that carry no \
             $(b,time_limit) of their own (default: none). An expired \
             solve answers with a $(b,time_limit) error.")
  in
  let watchdog =
    Arg.(
      value & opt float 0.0
      & info [ "watchdog" ] ~docv:"SECONDS"
          ~doc:
            "Hard per-request deadline (default: none). A request \
             running longer has its worker domain deposed and replaced; \
             the request answers with a $(b,watchdog_timeout) error and \
             the restart is counted in the stats.")
  in
  let chaos_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:
            "Arm deterministic service-level fault injection: accepted \
             tasks are killed mid-solve or delayed according to a seeded \
             stream (see --chaos-kill-rate/--chaos-delay-rate). For \
             chaos tests and CI smokes only.")
  in
  let chaos_kill_rate =
    Arg.(
      value & opt float 0.1
      & info [ "chaos-kill-rate" ] ~docv:"P"
          ~doc:
            "With --chaos-seed: probability a task kills its worker \
             domain mid-request (default 0.1).")
  in
  let chaos_delay_rate =
    Arg.(
      value & opt float 0.2
      & info [ "chaos-delay-rate" ] ~docv:"P"
          ~doc:
            "With --chaos-seed: probability a task gets injected latency \
             (default 0.2).")
  in
  let chaos_delay_ms =
    Arg.(
      value & opt float 20.0
      & info [ "chaos-delay-ms" ] ~docv:"MS"
          ~doc:"With --chaos-seed: the injected latency (default 20).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived solve daemon: JSON-lines requests over a Unix \
          socket and/or TCP, answered by a supervised pool of worker \
          domains with bounded-queue backpressure, per-request \
          deadlines, a hard watchdog and an opt-in \
          graceful-degradation ladder; responses reuse the \
          $(b,solve --json) report shape. SIGTERM or SIGINT drains \
          in-flight requests and exits cleanly.")
    Term.(
      const serve $ socket $ port $ host $ metrics_port $ jobs $ max_pending
      $ default_time_limit $ watchdog $ chaos_seed $ chaos_kill_rate
      $ chaos_delay_rate $ chaos_delay_ms $ cache_dir_t $ no_cache_t
      $ log_level_t)

(* ------------------------------------------------------------------ *)
(* svg                                                                  *)
(* ------------------------------------------------------------------ *)

let svg inst_path topo_path out labels =
  let inst = or_die (Io.read_instance inst_path) in
  let tree = topology_for inst topo_path in
  match Lubt.solve inst tree with
  | Error e ->
    prerr_endline (Lubt.error_to_string e);
    exit 1
  | Ok report ->
    Lubt_core.Svg.write ~show_labels:labels out report.Lubt.routed;
    Printf.printf "wrote %s (%s)\n" out
      (Format.asprintf "%a" Routed.pp_summary report.Lubt.routed)

let svg_cmd =
  let inst_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE")
  in
  let topo_path =
    Arg.(
      value & opt (some file) None
      & info [ "topology" ] ~docv:"FILE" ~doc:"Topology file.")
  in
  let out =
    Arg.(value & opt string "tree.svg" & info [ "o" ] ~docv:"FILE" ~doc:"Output SVG.")
  in
  let labels = Arg.(value & flag & info [ "labels" ] ~doc:"Draw node-id labels.") in
  Cmd.v
    (Cmd.info "svg" ~doc:"Solve and render the routed tree as SVG")
    Term.(const svg $ inst_path $ topo_path $ out $ labels)

(* ------------------------------------------------------------------ *)
(* optimize                                                             *)
(* ------------------------------------------------------------------ *)

let optimize inst_path topo_path budget topo_out =
  let inst = or_die (Io.read_instance inst_path) in
  let tree = topology_for inst topo_path in
  let options =
    { Lubt_core.Topo_opt.default_options with
      Lubt_core.Topo_opt.max_evaluations = budget }
  in
  let r = Lubt_core.Topo_opt.improve ~options inst tree in
  if r.Lubt_core.Topo_opt.cost = infinity then begin
    prerr_endline "no LUBT exists for the initial topology and these bounds";
    exit 1
  end;
  Printf.printf
    "topology optimisation: %.2f -> %.2f (%.2f%% saved), %d moves, %d LP \
     evaluations, %d passes\n"
    r.Lubt_core.Topo_opt.initial_cost r.Lubt_core.Topo_opt.cost
    ((r.Lubt_core.Topo_opt.initial_cost -. r.Lubt_core.Topo_opt.cost)
    /. r.Lubt_core.Topo_opt.initial_cost *. 100.0)
    r.Lubt_core.Topo_opt.accepted r.Lubt_core.Topo_opt.evaluations
    r.Lubt_core.Topo_opt.passes;
  match topo_out with
  | Some path ->
    Io.write_tree path r.Lubt_core.Topo_opt.tree;
    Printf.printf "wrote optimised topology to %s\n" path
  | None -> ()

let optimize_cmd =
  let inst_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE")
  in
  let topo_path =
    Arg.(
      value & opt (some file) None
      & info [ "topology" ] ~docv:"FILE" ~doc:"Initial topology file.")
  in
  let budget =
    Arg.(
      value & opt int 400
      & info [ "budget" ] ~doc:"Maximum LP evaluations during the search.")
  in
  let topo_out =
    Arg.(
      value & opt (some string) None
      & info [ "topology-out" ] ~docv:"FILE" ~doc:"Write the improved topology.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Improve the topology under the instance bounds (Section 9)")
    Term.(const optimize $ inst_path $ topo_path $ budget $ topo_out)

(* ------------------------------------------------------------------ *)
(* tables                                                               *)
(* ------------------------------------------------------------------ *)

let table1 size = Tables.print_table1 (Tables.table1 ~size ())

let table2 size = Tables.print_table2 (Tables.table2 ~size ())

let table3 size = Tables.print_table3 (Tables.table3 ~size ())

let tradeoff size bench = Tables.print_tradeoff (Tables.tradeoff ~size ~bench ())

let ablation size bench = Tables.print_ablation (Tables.ablation ~size ~bench ())

let table_cmd name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const f $ size_t)

let tradeoff_cmd =
  Cmd.v
    (Cmd.info "tradeoff" ~doc:"Regenerate Figure 8 (cost vs bounds)")
    Term.(const tradeoff $ size_t $ bench_t)

let ablation_cmd =
  Cmd.v
    (Cmd.info "ablation" ~doc:"Row-generation and zero-skew ablations")
    Term.(const ablation $ size_t $ bench_t)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "lubt" ~version:"1.0.0"
      ~doc:"Lower/Upper Bounded delay routing Trees via linear programming"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            gen_cmd;
            route_cmd;
            solve_cmd;
            batch_cmd;
            serve_cmd;
            svg_cmd;
            optimize_cmd;
            table_cmd "table1" "Regenerate Table 1 (baseline vs LUBT)" table1;
            table_cmd "table2" "Regenerate Table 2 (shifted windows)" table2;
            table_cmd "table3" "Regenerate Table 3 (other bounds)" table3;
            tradeoff_cmd;
            ablation_cmd;
          ]))
