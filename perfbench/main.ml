(* The LUBT benchmark: runs one workload for a fixed time, checks every
   answer, and prints the workload's metrics -- the end-to-end ones, or
   with [--trace 1] the per-layer ones of a traced run -- ending with one
   JSON summary line. Every layer is timed from outside, around calls
   into the public functions of lib/bst, lib/core, lib/lp and
   lib/experiments. README.md in this directory describes the workloads
   and the metrics; run.py builds this program, runs it, and adds the
   process's peak memory to the summary.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe record-reference FILE *)

module B = Perfbench_core
module Benchmarks = Lubt_data.Benchmarks
module Batch = Lubt_experiments.Batch
module Protocol = Lubt_experiments.Protocol
module Serve = Lubt_experiments.Serve
module Ebf = Lubt_core.Ebf
module Embed = Lubt_core.Embed
module Instance = Lubt_core.Instance
module Lubt = Lubt_core.Lubt
module Routed = Lubt_core.Routed
module Certify = Lubt_lp.Certify
module Simplex = Lubt_lp.Simplex
module Basis_cache = Lubt_lp.Basis_cache
module Bst = Lubt_bst.Bst_dme
module Point = Lubt_geom.Point
module Clock = Lubt_obs.Clock
module Prng = Lubt_util.Prng

let now = Clock.now

let sprintf = Printf.sprintf

let ( let* ) = Result.bind

(* At most two worker domains and two connections, so a workload offers
   the same load on every machine with two or more cores. *)
let jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

(* Everything a run writes (the daemon's socket, traces) goes here:
   inside the checkout, and ignored by git. *)
let out_dir = Filename.concat ".bench_build" "perfbench"

let reference_file = Filename.concat "perfbench" "reference_objectives.txt"

(* set-ups per run; the run reports their median *)
let setup_reps = 5

let benches = [| "prim1s"; "prim2s"; "r1s"; "r3s" |]

let skew_rel = 0.5

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Track 1 holds the timed items; track 2 the in-process replays and
   the samples taken after the measured window. *)
let items_track = 1

let replay_track = 2

let spans : B.span list ref = ref []

let record ?parent ~item ~track name t0 t1 =
  spans :=
    { B.sp_name = name; sp_item = item; sp_track = track; sp_parent = parent;
      sp_t0 = t0; sp_t1 = t1 }
    :: !spans

(* [timed ~on name f] is [f ()] with its duration in milliseconds; it
   records a span when [on]. *)
let timed ?parent ?(item = 0) ?(track = replay_track) ~on name f =
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  if on then record ?parent ~item ~track name t0 t1;
  (v, (t1 -. t0) *. 1e3)

let mean_of l = B.mean (Array.of_list l)

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

type outcome = {
  setup_s : float;  (* median of the run's set-ups *)
  attempted : int;
  failed : int;  (* items that failed a check *)
  problems : string list;  (* every failed check, of an item or the run *)
  latencies : float array;  (* ms, of the items that passed *)
  throughput : float;  (* passed items per second *)
  window_s : float;  (* measured wall time *)
  notes : string list;  (* extra lines for the printout *)
  layers : B.layers;  (* from traced runs *)
}

(* Sets up [setup_reps] times, tearing down all but the last set-up,
   which the run then uses; returns it with the median set-up time. *)
let repeated_setup ~setup ~teardown =
  let rec go k times =
    let t0 = now () in
    let v = setup () in
    let times = (now () -. t0) :: times in
    if k <= 1 then (v, B.median (Array.of_list times))
    else begin
      teardown v;
      go (k - 1) times
    end
  in
  go setup_reps []

let bench_spec size bench offset =
  let s = Benchmarks.find size bench in
  { s with Benchmarks.seed = s.Benchmarks.seed + offset }

(* The instance the [lubt batch] protocol solves: the baseline's sinks,
   every sink's window set to the baseline's achieved one. *)
let window_instance (b : Protocol.baseline_run) =
  let inst0 = b.Protocol.bst.Bst.routed.Routed.instance in
  let m = Instance.num_sinks inst0 in
  let r = b.Protocol.radius in
  Instance.with_bounds inst0
    ~lower:(Array.make m (b.Protocol.shortest_rel *. r))
    ~upper:(Array.make m (b.Protocol.longest_rel *. r))

let certified_options = { Ebf.default_options with Ebf.check = Certify.Full }

let counts_of_ebf (e : Ebf.result) =
  let s = e.Ebf.lp_stats in
  let over_rounds f =
    List.fold_left (fun acc r -> acc +. f r) 0.0 e.Ebf.round_stats *. 1e3
  in
  {
    B.iterations = float_of_int s.Simplex.iterations;
    solve_ms = over_rounds (fun r -> r.Ebf.solve_seconds);
    refactorisations = float_of_int s.Simplex.refactorisations;
    ftran = float_of_int s.Simplex.ftran_count;
    btran = float_of_int s.Simplex.btran_count;
    recoveries = float_of_int (Simplex.recovery_attempts s.Simplex.recoveries);
    rounds = float_of_int e.Ebf.rounds;
    lp_rows = float_of_int e.Ebf.lp_rows;
    full_rows = float_of_int e.Ebf.full_rows;
    scan_ms = over_rounds (fun r -> r.Ebf.scan_seconds);
  }

(* [Serve.solve_report_json] on one report, per call. *)
let render_ms report =
  let reps = 20 in
  snd
    (timed ~on:true "serve.render" (fun () ->
         for _ = 1 to reps do
           ignore (Serve.solve_report_json report ~validated:true)
         done))
  /. float_of_int reps

(* How much slower traced items ran than untraced ones, at the median. *)
let overhead_frac ~traced ~untraced =
  if Array.length traced = 0 || Array.length untraced = 0 then 0.0
  else (B.median traced /. B.median untraced) -. 1.0

(* ------------------------------------------------------------------ *)
(* corpus-scaled                                                       *)
(* ------------------------------------------------------------------ *)

(* The pool: two sink fields of each scaled benchmark (the [lubt batch]
   corpus at seed 0), whose certified objectives are recorded in
   [reference_file]. A run makes whole passes over the pool, visiting
   each benchmark's fields in an order drawn from its seed; instance
   times differ up to twofold between fields of one benchmark, so every
   run solves the same set. *)
let corpus_variants = 2

let corpus_pool () =
  Batch.corpus ~size:Benchmarks.Scaled ~per_bench:corpus_variants ~skew_rel
    ~seed:0 ()

let corpus_bench_spec (s : Batch.spec) =
  { (Benchmarks.find s.Batch.size s.Batch.bench) with
    Benchmarks.seed = s.Batch.seed }

type corpus_result = {
  objective : float;
  counts : B.counts;
  bst_ms : float;
  ebf_ms : float;
  embed_ms : float;  (* placement and its verification *)
}

(* One instance the way [lubt batch] solves it at jobs=1 (the baseline
   route, then the EBF over the baseline's achieved window), followed by
   the placement and its independent verification that [lubt solve]
   adds. Raises on any failure. *)
let corpus_item ~check ~on ~item (s : Batch.spec) =
  let parent = "item" and track = items_track in
  let b, bst_ms =
    timed ~parent ~item ~track ~on "bst" (fun () ->
        Protocol.run_baseline (corpus_bench_spec s) ~skew_rel:s.Batch.skew_rel)
  in
  let options = { Ebf.default_options with Ebf.check } in
  let l, ebf_ms =
    timed ~parent ~item ~track ~on "ebf" (fun () ->
        Protocol.run_lubt_from_baseline ~options b)
  in
  let ebf = l.Protocol.ebf in
  let inst = window_instance b and tree = b.Protocol.bst.Bst.topology in
  let placed, place_ms =
    timed ~parent ~item ~track ~on "embed.place" (fun () ->
        Embed.place inst tree ebf.Ebf.lengths)
  in
  let emb =
    match placed with Ok e -> e | Error msg -> failwith ("placement: " ^ msg)
  in
  let verified, verify_ms =
    timed ~parent ~item ~track ~on "embed.verify" (fun () ->
        Embed.verify inst tree ebf.Ebf.lengths emb)
  in
  (match verified with
  | Ok () -> ()
  | Error msg -> failwith ("verification: " ^ msg));
  (match (check, ebf.Ebf.certificate) with
  | Certify.Off, _ -> ()
  | _, Some r when r.Certify.ok -> ()
  | _ -> failwith "uncertified");
  { objective = ebf.Ebf.objective; counts = counts_of_ebf ebf; bst_ms; ebf_ms;
    embed_ms = place_ms +. verify_ms }

let load_reference () =
  let text = In_channel.with_open_bin reference_file In_channel.input_all in
  match B.reference_of_string text with
  | Ok t -> t
  | Error e -> failwith (reference_file ^ ": " ^ e)

type corpus_run_item = {
  ci_id : string;  (* the pool instance *)
  ci_traced : bool;
  ci_ms : float;
  ci_result : (corpus_result, string) result;
}

(* The certification layer's cost: the same EBF solve with
   [Certify.Full] minus with [Off], timed after the window on the two
   smaller benchmarks of the first cycle. *)
let corpus_certify_ms specs =
  mean_of
    (List.map
       (fun (s : Batch.spec) ->
         let b = Protocol.run_baseline (corpus_bench_spec s) ~skew_rel in
         let solve check =
           snd
             (timed ~on:true
                ("ebf.certify_" ^ Certify.level_to_string check)
                (fun () ->
                  Protocol.run_lubt_from_baseline
                    ~options:{ Ebf.default_options with Ebf.check } b))
         in
         let full = solve Certify.Full in
         let off = solve Certify.Off in
         full -. off)
       specs)

let run_corpus ~seed ~seconds ~trace =
  let (reference, order), setup_s =
    repeated_setup ~teardown:ignore ~setup:(fun () ->
        let reference = load_reference () in
        let pool = corpus_pool () in
        let rng = Prng.create seed in
        let order =
          Array.map
            (fun bench ->
              let v =
                Array.of_list
                  (List.filter (fun (s : Batch.spec) -> s.Batch.bench = bench) pool)
              in
              Prng.shuffle rng v;
              v)
            benches
        in
        (* one untimed instance first, the same for every seed, so the
           heap has grown and the code is paged in before the first timed
           one *)
        ignore (corpus_item ~check:Certify.Full ~on:false ~item:0 (List.hd pool));
        (reference, order))
  in
  (* closed loop, one caller: cycles over the four benchmarks, in whole
     passes over the pool, until the window closes; a traced run traces
     every other pass *)
  let items = ref [] in
  let t0 = now () in
  let cycle = ref 0 in
  while now () < t0 +. seconds || !cycle mod corpus_variants <> 0 do
    let c = !cycle in
    let traced = trace && c / corpus_variants mod 2 = 0 in
    Array.iteri
      (fun bi variants ->
        let s = variants.(c mod Array.length variants) in
        let item = (c * Array.length benches) + bi in
        let i0 = now () in
        let r =
          try Ok (corpus_item ~check:Certify.Full ~on:traced ~item s)
          with e -> Error (Printexc.to_string e)
        in
        let i1 = now () in
        if traced then record ~item ~track:items_track "item" i0 i1;
        let r =
          let* res = r in
          match Hashtbl.find_opt reference (s.Batch.bench, s.Batch.seed) with
          | None -> Error "no reference objective"
          | Some reference ->
            let* () = B.check_objective ~reference res.objective in
            Ok res
        in
        let r = Result.map_error (fun e -> s.Batch.id ^ ": " ^ e) r in
        items :=
          { ci_id = s.Batch.id; ci_traced = traced;
            ci_ms = (i1 -. i0) *. 1e3;
            ci_result = r }
          :: !items)
      order;
    incr cycle
  done;
  let window_s = now () -. t0 in
  let items = List.rev !items in
  let passed = List.filter_map (fun it -> Result.to_option it.ci_result) items in
  let problems =
    List.filter_map
      (fun it -> match it.ci_result with Error e -> Some e | Ok _ -> None)
      items
  in
  (* An instance is solved the same way on every pass (jobs=1 makes the
     same pivots), so the spread between its passes is interference: on
     a shared host, bursts of contention slow the CPU by a third or more
     for a second or so at a time. An instance's latency is therefore its
     fastest pass, and the run's throughput is instances per second at
     those times. *)
  let latencies =
    let by_instance = Hashtbl.create 16 in
    List.iter
      (fun it ->
        if Result.is_ok it.ci_result then
          Hashtbl.replace by_instance it.ci_id
            (it.ci_ms
            :: Option.value ~default:[] (Hashtbl.find_opt by_instance it.ci_id)))
      items;
    Array.of_seq
      (Seq.map (List.fold_left Float.min infinity) (Hashtbl.to_seq_values by_instance))
  in
  let throughput =
    if latencies = [||] then 0.0
    else float_of_int (Array.length latencies)
         /. (Array.fold_left ( +. ) 0.0 latencies /. 1e3)
  in
  let layers =
    if not trace then B.no_layers
    else begin
      let per f = mean_of (List.map f passed) in
      let overhead =
        mean_of
          (List.filter_map
             (fun id ->
               let lat traced =
                 Array.of_list
                   (List.filter_map
                      (fun it ->
                        if it.ci_id = id && it.ci_traced = traced
                           && Result.is_ok it.ci_result
                        then Some it.ci_ms
                        else None)
                      items)
               in
               let t = lat true and u = lat false in
               if Array.length t > 0 && Array.length u > 0 then
                 Some (overhead_frac ~traced:t ~untraced:u)
               else None)
             (List.sort_uniq compare (List.map (fun it -> it.ci_id) items)))
      in
      let certify =
        corpus_certify_ms
          (List.filter
             (fun (s : Batch.spec) -> s.Batch.bench = "prim1s" || s.Batch.bench = "r1s")
             (Array.to_list (Array.map (fun v -> v.(0)) order)))
      in
      {
        B.no_layers with
        B.bst_calls = 1.0;
        bst_busy_ms = per (fun r -> r.bst_ms);
        simplex = B.mean_counts (List.map (fun r -> r.counts) passed);
        ebf_build_ms =
          per (fun r -> r.ebf_ms -. r.counts.B.scan_ms -. r.counts.B.solve_ms);
        certify_busy_ms = certify;
        embed_busy_ms = per (fun r -> r.embed_ms);
        trace_residual_frac =
          B.residual_frac (List.filter (fun s -> s.B.sp_track = items_track) !spans);
        trace_overhead_frac = overhead;
      }
    end
  in
  {
    setup_s;
    attempted = List.length items;
    failed = List.length problems;
    problems;
    latencies;
    throughput;
    window_s;
    notes =
      [ sprintf
          "%d passes over %d scaled instances, one caller, no daemon; latencies \
           are each instance's fastest pass"
          (!cycle / corpus_variants)
          (Array.length benches * corpus_variants) ];
    layers;
  }

(* ------------------------------------------------------------------ *)
(* A self-hosted daemon and its clients                                *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  mutable partial : string;  (* bytes after the last newline *)
  lines : string Queue.t;  (* complete reply lines not yet taken *)
}

let send c line =
  let s = line ^ "\n" in
  (* a blocking write returns only once every byte is written *)
  ignore (Unix.write_substring c.fd s 0 (String.length s))

let chunk = Bytes.create 65536

(* One read: queues every complete line, keeps the tail for the next. *)
let read_available c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "the daemon closed a connection"
  | n ->
    let rec go = function
      | [] -> ()
      | [ last ] -> c.partial <- last
      | line :: rest ->
        Queue.add line c.lines;
        go rest
    in
    go (String.split_on_char '\n' (c.partial ^ Bytes.sub_string chunk 0 n))

let rec read_reply c =
  match Queue.take_opt c.lines with
  | Some line -> line
  | None ->
    read_available c;
    read_reply c

type daemon = { handle : Serve.handle; conns : conn array; cache : Basis_cache.t }

(* A daemon with [jobs] worker domains and a warm-start cache, hosted in
   this process on a Unix socket, and [jobs] connections to it, each
   answered one ping. *)
let start_daemon () =
  let path = Filename.concat out_dir (sprintf "daemon-%d.sock" (Unix.getpid ())) in
  let cache = Basis_cache.create () in
  let cfg =
    { Serve.default_config with
      Serve.socket = Some path; jobs; max_pending = 4096; cache = Some cache }
  in
  match Serve.spawn cfg with
  | Error msg -> failwith ("daemon: " ^ msg)
  | Ok handle ->
    let conns =
      Array.init jobs (fun i ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          let c = { fd; partial = ""; lines = Queue.create () } in
          send c (sprintf {|{"id": "ping%d", "op": "ping"}|} i);
          ignore (read_reply c);
          c)
    in
    { handle; conns; cache }

let stop_daemon d =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.conns;
  ignore (Serve.shutdown d.handle)

let request_index id =
  if String.length id > 1 then
    int_of_string_opt (String.sub id 1 (String.length id - 1))
  else None

(* Open loop: request [i] is due at [t0 + i / rate] whatever the daemon
   is doing, and goes out round-robin over the connections. Returns
   [t0], every request's timing, and its reply line. *)
let open_loop d ~lines ~rate ~traced =
  let n = Array.length lines in
  let conns = d.conns in
  let t0 = now () +. 0.005 in
  let due i = t0 +. (float_of_int i /. rate) in
  let sent = Array.make n nan and replied = Array.make n nan in
  let replies = Array.make n None in
  let next = ref 0 and outstanding = ref 0 in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let give_up = ref infinity in
  while (!next < n || !outstanding > 0) && now () < !give_up do
    let t = now () in
    if !next < n && t >= due !next then begin
      let i = !next in
      let s0 = now () in
      send conns.(i mod Array.length conns) lines.(i);
      let s1 = now () in
      sent.(i) <- s0;
      if traced i then
        record ~parent:"request" ~item:i ~track:items_track "client.send" s0 s1;
      incr next;
      incr outstanding;
      if !next = n then give_up := now () +. 60.0
    end
    else begin
      let timeout = if !next < n then Float.max 0.0 (due !next -. t) else 0.2 in
      match Unix.select fds [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
        let t_read = now () in
        Array.iter
          (fun c ->
            if List.mem c.fd ready then begin
              read_available c;
              Queue.iter
                (fun line ->
                  match Option.bind (B.reply_id line) request_index with
                  | Some i when i >= 0 && i < n && replies.(i) = None ->
                    replies.(i) <- Some line;
                    replied.(i) <- t_read;
                    decr outstanding
                  | _ -> ())
                c.lines;
              Queue.clear c.lines
            end)
          conns
    end
  done;
  ( t0,
    Array.init n (fun i -> { B.due = due i; sent = sent.(i); replied = replied.(i) }),
    replies )

(* Closed loop: each connection is one client that sends its next
   request when its previous reply is in, until the window closes.
   Returns the start time and, per request, its index, timing and
   reply. *)
let closed_loop d ~request ~seconds ~traced =
  let conns = d.conns in
  let k = Array.length conns in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let next = ref 0 in
  let inflight = Array.make k None in
  let finished = ref [] in
  let send_next ci =
    let i = !next in
    incr next;
    let line = request i in
    let s0 = now () in
    send conns.(ci) line;
    if traced i then
      record ~parent:"request" ~item:i ~track:items_track "client.send" s0 (now ());
    inflight.(ci) <- Some (i, s0)
  in
  Array.iteri (fun ci _ -> send_next ci) conns;
  while Array.exists Option.is_some inflight do
    let fds =
      List.filter_map
        (fun ci -> if inflight.(ci) <> None then Some conns.(ci).fd else None)
        (List.init k Fun.id)
    in
    match Unix.select fds [] [] 60.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> failwith "the daemon stopped answering"
    | ready, _, _ ->
      let t_read = now () in
      Array.iteri
        (fun ci c ->
          if List.mem c.fd ready then begin
            read_available c;
            match (Queue.take_opt c.lines, inflight.(ci)) with
            | Some line, Some (i, s0) ->
              finished :=
                (i, { B.due = s0; sent = s0; replied = t_read }, line) :: !finished;
              inflight.(ci) <- None;
              if t_read < deadline then send_next ci
            | _ -> ()
          end)
        conns
  done;
  (t0, List.rev !finished)

(* The cache figures of the measured window, per request. *)
let with_cache_layers ~items (s0 : Basis_cache.stats) (s1 : Basis_cache.stats)
    layers =
  let d f = float_of_int (f s1 - f s0) in
  let hits = d (fun s -> s.Basis_cache.hits) in
  let lookups = hits +. d (fun s -> s.Basis_cache.misses) in
  let per x = if items > 0 then x /. float_of_int items else 0.0 in
  { layers with
    B.cache_lookups = per lookups;
    cache_stores = per (d (fun s -> s.Basis_cache.stores));
    cache_hit_ratio = (if lookups > 0.0 then hits /. lookups else 0.0);
    cache_rejects = d (fun s -> s.Basis_cache.rejects) }

(* One timed request of a served workload. *)
type served = {
  sv_item : int;
  sv_timing : B.timing;
  sv_verdict : (B.reply, string) result;
  sv_traced : bool;
}

(* The layer figures a served workload reads off its requests and the
   trace; [exec_ms i] is the in-process execute time of request [i]'s
   line. *)
let served_layers ~exec_ms (items : served list) layers =
  let passed = List.filter (fun s -> Result.is_ok s.sv_verdict) items in
  let replies = List.filter_map (fun s -> Result.to_option s.sv_verdict) passed in
  let lat s = B.latency_ms s.sv_timing in
  let traced = List.filter (fun s -> s.sv_traced) passed in
  List.iter
    (fun s ->
      record ~item:s.sv_item ~track:items_track "request" s.sv_timing.B.due
        s.sv_timing.B.replied)
    traced;
  let lat_of l = Array.of_list (List.map lat l) in
  { layers with
    B.simplex = B.mean_counts (List.map (fun r -> r.B.r_counts) replies);
    serve_execute_ms = mean_of (List.map (fun s -> exec_ms s.sv_item) passed);
    serve_wait_ms = mean_of (List.map (fun s -> lat s -. exec_ms s.sv_item) passed);
    trace_residual_frac =
      B.residual_frac
        ~modelled:
          (List.fold_left (fun acc s -> acc +. (exec_ms s.sv_item /. 1e3)) 0.0 traced)
        (List.filter (fun s -> s.B.sp_track = items_track) !spans);
    trace_overhead_frac =
      overhead_frac ~traced:(lat_of traced)
        ~untraced:(lat_of (List.filter (fun s -> not s.sv_traced) passed)) }

let served_outcome ~setup_s ~t0 ~notes ~layers (items : served list) =
  let passed = List.filter (fun s -> Result.is_ok s.sv_verdict) items in
  let problems =
    List.filter_map
      (fun s -> match s.sv_verdict with Error e -> Some e | Ok _ -> None)
      items
  in
  let last =
    List.fold_left (fun acc s -> Float.max acc s.sv_timing.B.replied) t0 passed
  in
  {
    setup_s;
    attempted = List.length items;
    failed = List.length problems;
    problems;
    latencies = Array.of_list (List.map (fun s -> B.latency_ms s.sv_timing) passed);
    throughput = float_of_int (List.length passed) /. (last -. t0);
    window_s = last -. t0;
    notes;
    layers;
  }

(* Every other block of four requests is traced. *)
let traced_request ~trace i = trace && i / 4 mod 2 = 0

(* ------------------------------------------------------------------ *)
(* serve-cold                                                          *)
(* ------------------------------------------------------------------ *)

(* Below the knee of the two-worker daemon on tiny requests, and 400
   requests in a 20 s run: enough for a steady p95. *)
let cold_rate = 20.0

let cold_offset ~seed = 1 + ((abs seed mod 100_000) * 1000)

(* Request [i] asks for the tiny benchmarks in turn, each on a sink field
   of its own, so no two requests of a run share an LP and the warm
   cache never hits. *)
let cold_request ~seed ?(certify = true) i =
  sprintf {|{"id": "c%d", "bench": "%s", "size": "tiny", "seed": %d%s}|} i
    benches.(i mod 4)
    (cold_offset ~seed + (i / 4))
    (if certify then "" else {|, "certify": false|})

let run_cold ~seed ~seconds ~trace =
  let n = max 1 (int_of_float (Float.round (cold_rate *. seconds))) in
  let (d, lines), setup_s =
    repeated_setup
      ~setup:(fun () ->
        let lines = Array.init n (fun i -> cold_request ~seed i) in
        let d = start_daemon () in
        (* one untimed request on a sink field of its own, so a worker
           has run a solve before the first timed request *)
        send d.conns.(0)
          (sprintf {|{"id": "warmup", "bench": "prim1s", "size": "tiny", "seed": %d}|}
             (cold_offset ~seed - 1));
        ignore (read_reply d.conns.(0));
        (d, lines))
      ~teardown:(fun (d, _) -> stop_daemon d)
  in
  let traced = traced_request ~trace in
  let c0 = Basis_cache.stats d.cache in
  let t0, timing, replies = open_loop d ~lines ~rate:cold_rate ~traced in
  let c1 = Basis_cache.stats d.cache in
  stop_daemon d;
  (* every line replayed in process: the cost its reply must carry, and
     the request layer's execute time *)
  let replay_cache = Basis_cache.create () in
  let replayed =
    Array.mapi
      (fun i line ->
        timed ~on:trace ~item:i "serve.execute" (fun () ->
            Serve.response_of_request ~cache:replay_cache line))
      lines
  in
  let exec_ms i = snd replayed.(i) in
  let verdict i =
    let id = sprintf "c%d" i in
    match replies.(i) with
    | None -> Error (id ^ ": no reply")
    | Some line ->
      let* want = B.parse_reply (fst replayed.(i)) in
      if not want.B.r_ok then
        Error (sprintf "%s: in-process replay failed: %s" id want.B.r_error)
      else
        let* got = B.parse_reply line in
        let* () = B.check_reply ~cache_ok:[ "miss" ] ~expect_cost:want.B.r_cost got in
        Ok got
  in
  let items =
    List.init n (fun i ->
        { sv_item = i; sv_timing = timing.(i); sv_verdict = verdict i;
          sv_traced = traced i })
  in
  let lookups =
    c1.Basis_cache.hits + c1.Basis_cache.misses - c0.Basis_cache.hits
    - c0.Basis_cache.misses
  in
  let hits = c1.Basis_cache.hits - c0.Basis_cache.hits in
  let lags =
    Array.of_list
      (List.filter Float.is_finite (Array.to_list (Array.map B.lag_ms timing)))
  in
  let behind = B.fell_behind ~interval_s:(1.0 /. cold_rate) lags in
  let layers =
    if not trace then B.no_layers
    else begin
      (* a sample that cycles through the four benchmarks *)
      let sample =
        List.filter
          (fun (s : served) -> s.sv_item mod 5 = 0 && Result.is_ok s.sv_verdict)
          items
        |> List.map (fun s -> s.sv_item)
      in
      let baseline i =
        Protocol.run_baseline
          (bench_spec Benchmarks.Tiny benches.(i mod 4) (cold_offset ~seed + (i / 4)))
          ~skew_rel
      in
      let bst =
        List.map (fun i -> snd (timed ~on:true ~item:i "bst" (fun () -> baseline i))) sample
      in
      let off_cache = Basis_cache.create () in
      let certify =
        List.map
          (fun i ->
            exec_ms i
            -. snd
                 (timed ~on:true ~item:i "serve.execute_uncertified" (fun () ->
                      Serve.response_of_request ~cache:off_cache
                        (cold_request ~seed ~certify:false i))))
          sample
      in
      let render =
        List.filter_map
          (fun i ->
            let b = baseline i in
            match
              Lubt.solve ~options:certified_options (window_instance b)
                b.Protocol.bst.Bst.topology
            with
            | Ok report -> Some (render_ms report)
            | Error _ -> None)
          (List.filteri (fun k _ -> k < 8) sample)
      in
      served_layers ~exec_ms items
        (with_cache_layers ~items:n c0 c1
           { B.no_layers with
             B.bst_calls = 1.0;
             bst_busy_ms = mean_of bst;
             certify_busy_ms = mean_of certify;
             serve_render_ms = mean_of render;
             client_lag_ms_p99 = B.percentile lags 99.0 })
    end
  in
  let outcome =
    served_outcome ~setup_s ~t0 ~layers items
      ~notes:
        [
          sprintf
            "open loop at %.0f req/s over %d connections, %d worker domains; \
             send lag p99 %.3f ms%s"
            cold_rate (Array.length d.conns) jobs (B.percentile lags 99.0)
            (if behind then " -- the generator fell behind" else "");
          sprintf "warm-start cache: %d lookups, %d hits" lookups hits;
        ]
  in
  if hits = 0 then outcome
  else
    { outcome with
      problems =
        sprintf "serve-cold: %d cache hits, expected none" hits :: outcome.problems }

(* ------------------------------------------------------------------ *)
(* serve-eco                                                           *)
(* ------------------------------------------------------------------ *)

(* Two scaled bases. Two thirds of the requests edit the first, so the
   median sits inside one base's latency distribution rather than on
   the boundary between the two. *)
let eco_bases = [| "prim1s"; "r1s" |]

let eco_base_of_line j = if j mod 3 = 2 then 1 else 0

(* distinct edit lists per run; requests repeat them, so after its first
   use (a parent hit) a line is an exact hit *)
let eco_distinct = 48

type eco_base = {
  e_bench : string;
  e_offset : int;  (* the requests' seed member *)
  e_baseline : Protocol.baseline_run;
}

(* Each base is one fixed sink field: fields of one benchmark differ
   widely in routing and solve time, so a field drawn from the seed made
   set-up and latency move from seed to seed. The seed draws the edit
   lists and the order they are sent in. *)
let eco_offset b = 1 + b

let base_request (b : eco_base) =
  sprintf {|{"id": "base-%s", "bench": "%s", "size": "scaled", "seed": %d}|}
    b.e_bench b.e_bench b.e_offset

let edit_json = function
  | Instance.Edit.Set_bounds { sink; lower; upper } ->
    sprintf {|{"edit": "set_bounds", "sink": %d, "lower": %.17g, "upper": %.17g}|}
      sink lower upper
  | Instance.Edit.Move_sink { sink; dx; dy } ->
    sprintf {|{"edit": "move_sink", "sink": %d, "dx": %.17g, "dy": %.17g}|} sink dx dy
  | Instance.Edit.Add_sink _ | Instance.Edit.Remove_sink _ ->
    invalid_arg "edit_json: the workload keeps the sink set"

(* An eco request after its id member. *)
let eco_body ?(certify = true) (b : eco_base) ops =
  sprintf {|, "op": "eco", "bench": "%s", "size": "scaled", "seed": %d%s, "edits": [%s]}|}
    b.e_bench b.e_offset
    (if certify then "" else {|, "certify": false|})
    (String.concat ", " (List.map edit_json ops))

let with_id id body = sprintf {|{"id": "%s"%s|} id body

(* A seeded edit list that keeps the LP's structure, so the cached base
   basis applies, and stays feasible: windows only widen, by 2-5%, and a
   moved sink steps toward the source by at most 0.2% of the radius per
   axis, which its widened window absorbs. *)
let eco_edits rng (b : eco_base) =
  let bl = b.e_baseline in
  let inst = bl.Protocol.bst.Bst.routed.Routed.instance in
  let r = bl.Protocol.radius in
  let lo = bl.Protocol.shortest_rel *. r and hi = bl.Protocol.longest_rel *. r in
  let src =
    match inst.Instance.source with Some p -> p | None -> Point.make 0.0 0.0
  in
  let widen sink =
    let a = 0.02 +. Prng.float rng 0.03 in
    let c = 0.02 +. Prng.float rng 0.03 in
    Instance.Edit.Set_bounds
      { sink; lower = lo *. (1.0 -. a); upper = hi *. (1.0 +. c) }
  in
  let toward d =
    let s = Prng.float rng (0.002 *. r) in
    if d >= 0.0 then s else -.s
  in
  let edit () =
    let sink = Prng.int rng (Instance.num_sinks inst) in
    if Prng.bool rng then [ widen sink ]
    else begin
      let p = inst.Instance.sinks.(sink) in
      let dx = toward (src.Point.x -. p.Point.x) in
      let dy = toward (src.Point.y -. p.Point.y) in
      let w = widen sink in
      [ Instance.Edit.Move_sink { sink; dx; dy }; w ]
    end
  in
  let k = 1 + Prng.int rng 3 in
  List.concat (List.init k (fun _ -> edit ()))

let eco_setup ~seed () =
  let bases =
    Array.mapi
      (fun b bench ->
        let e_offset = eco_offset b in
        { e_bench = bench; e_offset;
          e_baseline =
            Protocol.run_baseline (bench_spec Benchmarks.Scaled bench e_offset)
              ~skew_rel })
      eco_bases
  in
  let rng = Prng.create seed in
  let lines =
    Array.init eco_distinct (fun j ->
        let b = eco_base_of_line j in
        (b, eco_edits rng bases.(b)))
  in
  let d = start_daemon () in
  (* the base solves that seed the daemon's cache *)
  let conn b = d.conns.(b mod Array.length d.conns) in
  Array.iteri (fun b base -> send (conn b) (base_request base)) bases;
  Array.iteri
    (fun b base ->
      let reply = read_reply (conn b) in
      match B.parse_reply reply with
      | Ok r when r.B.r_ok && r.B.r_certified -> ()
      | _ -> failwith (sprintf "base solve of %s failed: %s" base.e_bench reply))
    bases;
  (d, bases, lines)

let run_eco ~seed ~seconds ~trace =
  let (d, bases, lines), setup_s =
    repeated_setup ~setup:(eco_setup ~seed) ~teardown:(fun (d, _, _) -> stop_daemon d)
  in
  let pick = Prng.create (seed + 1) in
  let line_of = Hashtbl.create 1024 in
  let request i =
    let j = Prng.int pick eco_distinct in
    Hashtbl.replace line_of i j;
    let b, ops = lines.(j) in
    with_id (sprintf "e%d" i) (eco_body bases.(b) ops)
  in
  let traced = traced_request ~trace in
  let c0 = Basis_cache.stats d.cache in
  let t0, finished = closed_loop d ~request ~seconds ~traced in
  let c1 = Basis_cache.stats d.cache in
  stop_daemon d;
  (* the in-process replay: a cache seeded by the base solves, then each
     line twice -- the first a parent hit, which gives the cost its
     replies must carry, the second an exact hit, as most timed requests
     were, which gives the execute time *)
  let replay_cache = Basis_cache.create () in
  Array.iter
    (fun b -> ignore (Serve.response_of_request ~cache:replay_cache (base_request b)))
    bases;
  let replayed =
    Array.mapi
      (fun j (b, ops) ->
        let line = with_id (sprintf "r%d" j) (eco_body bases.(b) ops) in
        let first = Serve.response_of_request ~cache:replay_cache line in
        let _, exec =
          timed ~on:trace ~item:j "serve.execute" (fun () ->
              Serve.response_of_request ~cache:replay_cache line)
        in
        (B.parse_reply first, exec))
      lines
  in
  let exec_ms i = snd replayed.(Hashtbl.find line_of i) in
  let verdict i line =
    let* want = fst replayed.(Hashtbl.find line_of i) in
    if not want.B.r_ok then
      Error (sprintf "e%d: in-process replay failed: %s" i want.B.r_error)
    else
      let* got = B.parse_reply line in
      let* () =
        B.check_reply ~cache_ok:[ "parent"; "exact" ] ~expect_cost:want.B.r_cost got
      in
      Ok got
  in
  let items =
    List.map
      (fun (i, timing, line) ->
        { sv_item = i; sv_timing = timing; sv_verdict = verdict i line;
          sv_traced = traced i })
      finished
  in
  (* the first line of each base, re-solved cold in process, must cost
     what the daemon's warm re-solves did *)
  let cold =
    Array.mapi
      (fun b base ->
        let j = if b = 0 then 0 else 2 in
        let _, ops = lines.(j) in
        let result =
          match Instance.Edit.apply_all (window_instance base.e_baseline) ops with
          | Error e -> Error e
          | Ok inst -> (
            match
              Lubt.solve ~options:certified_options inst
                base.e_baseline.Protocol.bst.Bst.topology
            with
            | Error e -> Error (Lubt.error_to_string e)
            | Ok report ->
              let* want = fst replayed.(j) in
              let cost = Routed.cost report.Lubt.routed in
              if B.same_cost cost want.B.r_cost then Ok report
              else
                Error (sprintf "cost %.17g, warm re-solve %.17g" cost want.B.r_cost))
        in
        Result.map_error (sprintf "cold re-solve of line %d: %s" j) result)
      bases
  in
  let cold_problems =
    List.filter_map (function Error e -> Some e | Ok _ -> None) (Array.to_list cold)
  in
  let layers =
    if not trace then B.no_layers
    else begin
      let bst =
        List.concat_map
          (fun base ->
            List.init 3 (fun _ ->
                snd
                  (timed ~on:true "bst" (fun () ->
                       Protocol.run_baseline
                         (bench_spec Benchmarks.Scaled base.e_bench base.e_offset)
                         ~skew_rel))))
          (Array.to_list bases)
      in
      let certify =
        Array.to_list
          (Array.mapi
             (fun j (b, ops) ->
               snd replayed.(j)
               -. snd
                    (timed ~on:true ~item:j "serve.execute_uncertified" (fun () ->
                         Serve.response_of_request ~cache:replay_cache
                           (with_id (sprintf "u%d" j)
                              (eco_body ~certify:false bases.(b) ops)))))
             lines)
      in
      let render =
        List.filter_map
          (function Ok report -> Some (render_ms report) | Error _ -> None)
          (Array.to_list cold)
      in
      served_layers ~exec_ms items
        (with_cache_layers ~items:(List.length items) c0 c1
           { B.no_layers with
             B.bst_calls = 1.0;
             bst_busy_ms = mean_of bst;
             certify_busy_ms = mean_of certify;
             serve_render_ms = mean_of render })
    end
  in
  let outcome =
    served_outcome ~setup_s ~t0 ~layers items
      ~notes:
        [
          sprintf
            "closed loop, %d clients, %d worker domains; %d requests over %d \
             distinct edit lists against %s"
            (Array.length d.conns) jobs (List.length items) eco_distinct
            (String.concat " and "
               (Array.to_list
                  (Array.map (fun b -> sprintf "%s/scaled+%d" b.e_bench b.e_offset) bases)));
          sprintf "warm-start cache: %d lookups, %d hits, %d stores"
            (c1.Basis_cache.hits + c1.Basis_cache.misses - c0.Basis_cache.hits
           - c0.Basis_cache.misses)
            (c1.Basis_cache.hits - c0.Basis_cache.hits)
            (c1.Basis_cache.stores - c0.Basis_cache.stores);
        ]
  in
  { outcome with problems = outcome.problems @ cold_problems }

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let record_reference file =
  let entries =
    List.map
      (fun (s : Batch.spec) ->
        let r, ms =
          timed ~on:false "item" (fun () ->
              corpus_item ~check:Certify.Full ~on:false ~item:0 s)
        in
        Printf.printf "%-12s %10.1f ms  objective %.17g\n%!" s.Batch.id ms r.objective;
        ((s.Batch.bench, s.Batch.seed), r.objective))
      (corpus_pool ())
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        "# Certified EBF objectives of the corpus-scaled pool: bench, sink-field\n\
         # seed, objective. Regenerate with\n\
         #   dune exec perfbench/main.exe -- record-reference \
         perfbench/reference_objectives.txt\n";
      output_string oc (B.reference_to_string entries));
  Printf.printf "wrote %d reference objectives to %s\n" (List.length entries) file

let report ~workload ~seed ~trace (o : outcome) =
  Printf.printf "perfbench %s, seed %d, %s: %d items, %d failed, %.3f s measured\n"
    workload seed
    (if trace then "traced" else "untraced")
    o.attempted o.failed o.window_s;
  List.iter print_endline o.notes;
  List.iteri (fun i p -> if i < 20 then print_endline ("check failed: " ^ p)) o.problems;
  let tail = B.tail o.latencies in
  Printf.printf "latency_ms_tail is the p%.4g of %d items, %d of them beyond it\n"
    tail.B.tl_percentile tail.B.tl_count tail.B.tl_beyond;
  let metrics =
    if trace then begin
      let path = Filename.concat out_dir (sprintf "trace-%s-seed%d.json" workload seed) in
      Lubt_obs.Chrome_trace.write path (B.trace_events !spans);
      Printf.printf "spans written to %s (Chrome trace format)\n" path;
      List.iter
        (fun (name, self_s) ->
          Printf.printf "self time %-28s %12.3f ms\n" name (self_s *. 1e3))
        (B.self_times !spans);
      B.layer_metrics o.layers
    end
    else
      B.end_to_end_metrics ~setup_s:o.setup_s
        ~throughput:o.throughput
        ~p50:(B.median o.latencies) ~tail:tail.B.tl_value
  in
  List.iter (fun m -> print_endline (B.metric_line m)) metrics;
  print_endline
    (B.summary_line ~correct:(o.problems = []) ~attempted:o.attempted
       ~failed:o.failed metrics)

let usage () =
  prerr_endline
    "usage: main.exe --workload corpus-scaled|serve-cold|serve-eco --seed N \
     --seconds S --trace 0|1\n\
    \       main.exe record-reference FILE";
  exit 2

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match List.tl (Array.to_list Sys.argv) with
  | [ "record-reference"; file ] -> record_reference file
  | args -> (
    let workload = ref None and seed = ref None in
    let seconds = ref None and trace = ref None in
    let rec parse = function
      | [] -> ()
      | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
      | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        if !seed = None then usage ();
        parse rest
      | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := Some s
        | _ -> usage ());
        parse rest
      | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := Some (t = "1");
        parse rest
      | _ -> usage ()
    in
    parse args;
    match (!workload, !seed, !seconds, !trace) with
    | Some workload, Some seed, Some seconds, Some trace ->
      let run =
        match workload with
        | "corpus-scaled" -> run_corpus
        | "serve-cold" -> run_cold
        | "serve-eco" -> run_eco
        | _ -> usage ()
      in
      mkdir_p out_dir;
      report ~workload ~seed ~trace (run ~seed ~seconds ~trace)
    | _ -> usage ())
