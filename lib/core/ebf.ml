module Point = Lubt_geom.Point
module Tree = Lubt_topo.Tree
module Problem = Lubt_lp.Problem
module Simplex = Lubt_lp.Simplex
module Status = Lubt_lp.Status
module Certify = Lubt_lp.Certify
module Trace = Lubt_obs.Trace
module Clock = Lubt_obs.Clock
module Metrics = Lubt_obs.Metrics

let m_rounds =
  Metrics.counter ~help:"Row-generation rounds across all EBF solves"
    "lubt_ebf_rounds_total"

(* violated pairs seen per scan, as a count histogram: scan work scales
   with the violation set, so the distribution shows whether lazy row
   generation is converging in few fat rounds or many thin ones *)
let m_scan_violations =
  Metrics.histogram ~help:"Violated Steiner pairs found per violation scan"
    ~buckets:(Metrics.Buckets.log ~lo:1.0 ~hi:1e6 ~count:22)
    "lubt_ebf_scan_violations"

type options = {
  lazy_steiner : bool;
  knn : int;
  batch : int;
  violation_tol : float;
  max_rounds : int;
  time_limit : float;
  check : Certify.level;
  cache : Lubt_lp.Basis_cache.t option;
  probe : Simplex.probe option;
  lp_params : Simplex.params;
}

let default_options =
  {
    lazy_steiner = true;
    knn = 3;
    batch = 64;
    violation_tol = 1e-9;
    max_rounds = 10_000;
    time_limit = infinity;
    check = Certify.Off;
    cache = None;
    probe = None;
    lp_params = Simplex.default_params;
  }

type cache_outcome =
  | Cache_off
  | Cache_miss
  | Cache_hit_exact
  | Cache_hit_parent
  | Cache_rejected of string

let cache_outcome_name = function
  | Cache_off -> "off"
  | Cache_miss -> "miss"
  | Cache_hit_exact -> "exact"
  | Cache_hit_parent -> "parent"
  | Cache_rejected _ -> "rejected"

type round_stat = {
  round : int;
  rows_added : int;
  violations_found : int;
  scan_seconds : float;
  solve_seconds : float;
  solve_pivots : int;
}

type result = {
  status : Status.t;
  lengths : float array;
  objective : float;
  lp_rows : int;
  full_rows : int;
  lp_iterations : int;
  rounds : int;
  round_stats : round_stat list;
  lp_stats : Simplex.stats;
  certificate : Certify.report option;
  cache_outcome : cache_outcome;
}

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let check_tree_matches inst tree =
  if Tree.num_sinks tree <> Instance.num_sinks inst then
    invalid_arg "Ebf: tree sink count differs from instance"

(* Terminals: every node whose location is fixed; the source (node 0)
   participates when its location is given. *)
let terminals (inst : Instance.t) tree =
  let sink_nodes = Tree.sinks tree in
  let base =
    Array.to_list
      (Array.mapi (fun k node -> (node, inst.Instance.sinks.(k))) sink_nodes)
  in
  match inst.Instance.source with
  | Some src -> (Tree.root, src) :: base
  | None -> base

let edge_var i = i - 1

(* coefficient list of the row "sum of edge lengths on path(a,b)" *)
let path_coeffs tree a b = List.map (fun e -> (edge_var e, 1.0)) (Tree.path tree a b)

let add_edge_vars ?weights tree prob =
  let n = Tree.num_nodes tree in
  for i = 1 to n - 1 do
    let w = match weights with None -> 1.0 | Some ws -> ws.(i) in
    let up = if Tree.forced_zero tree i then 0.0 else infinity in
    let j = Problem.add_var ~lo:0.0 ~up ~obj:w ~name:(Printf.sprintf "e%d" i) prob in
    assert (j = edge_var i)
  done

let add_delay_rows (inst : Instance.t) tree prob =
  let sink_nodes = Tree.sinks tree in
  Array.iteri
    (fun k node ->
      let l = inst.Instance.lower.(k) and u = inst.Instance.upper.(k) in
      if l > 0.0 || u < infinity then
        ignore
          (Problem.add_row prob
             ~name:(Printf.sprintf "delay_s%d" node)
             ~lo:l ~up:u
             (path_coeffs tree Tree.root node)))
    sink_nodes

let full_row_count inst =
  let m = Instance.num_sinks inst in
  let terms = m + (match inst.Instance.source with Some _ -> 1 | None -> 0) in
  (terms * (terms - 1) / 2) + (2 * m)

(* ------------------------------------------------------------------ *)
(* Eager formulation (Section 4.3 verbatim)                            *)
(* ------------------------------------------------------------------ *)

let formulate ?weights inst tree =
  check_tree_matches inst tree;
  let prob = Problem.create () in
  add_edge_vars ?weights tree prob;
  let terms = Array.of_list (terminals inst tree) in
  let t = Array.length terms in
  for i = 0 to t - 1 do
    for j = i + 1 to t - 1 do
      let a, pa = terms.(i) and b, pb = terms.(j) in
      let d = Point.dist pa pb in
      if d > 0.0 then
        ignore
          (Problem.add_row prob
             ~name:(Printf.sprintf "steiner_%d_%d" a b)
             ~lo:d ~up:infinity (path_coeffs tree a b))
    done
  done;
  add_delay_rows inst tree prob;
  prob

(* ------------------------------------------------------------------ *)
(* Exhaustive verification of a length assignment                      *)
(* ------------------------------------------------------------------ *)

let check_lengths ?(tol = 1e-6) (inst : Instance.t) tree lengths =
  check_tree_matches inst tree;
  let terms = Array.of_list (terminals inst tree) in
  let t = Array.length terms in
  let d = Tree.delays tree lengths in
  let scale = max 1.0 (Instance.diameter inst +. Instance.radius inst) in
  let eps = tol *. scale in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  for i = 1 to Tree.num_nodes tree - 1 do
    if lengths.(i) < -.eps then
      fail (Printf.sprintf "edge %d has negative length %g" i lengths.(i));
    if Tree.forced_zero tree i && abs_float lengths.(i) > eps then
      fail (Printf.sprintf "edge %d must be zero but has length %g" i lengths.(i))
  done;
  for i = 0 to t - 1 do
    for j = i + 1 to t - 1 do
      let a, pa = terms.(i) and b, pb = terms.(j) in
      let need = Point.dist pa pb in
      let have = d.(a) +. d.(b) -. (2.0 *. d.(Tree.lca tree a b)) in
      if have < need -. eps then
        fail
          (Printf.sprintf "Steiner constraint (%d,%d): path %g < dist %g" a b
             have need)
    done
  done;
  Array.iteri
    (fun k node ->
      let dl = d.(node) in
      if dl < inst.Instance.lower.(k) -. eps then
        fail
          (Printf.sprintf "sink %d delay %g below lower bound %g" node dl
             inst.Instance.lower.(k));
      if dl > inst.Instance.upper.(k) +. eps then
        fail
          (Printf.sprintf "sink %d delay %g above upper bound %g" node dl
             inst.Instance.upper.(k)))
    (Tree.sinks tree);
  match !error with None -> Ok () | Some msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Lazy row generation (Section 4.6 as exact lazy constraints)         *)
(* ------------------------------------------------------------------ *)

(* k nearest terminals of each terminal, by Manhattan distance *)
let knn_pairs terms k =
  let t = Array.length terms in
  let pairs = Hashtbl.create (t * k) in
  for i = 0 to t - 1 do
    let _, pi = terms.(i) in
    let dists =
      Array.init t (fun j ->
          let _, pj = terms.(j) in
          (Point.dist pi pj, j))
    in
    Array.sort compare dists;
    let added = ref 0 in
    let idx = ref 0 in
    while !added < k && !idx < t do
      let _, j = dists.(!idx) in
      incr idx;
      if j <> i then begin
        let key = (min i j, max i j) in
        if not (Hashtbl.mem pairs key) then Hashtbl.replace pairs key ();
        incr added
      end
    done
  done;
  pairs

(* ------------------------------------------------------------------ *)
(* Cross-request warm-start fingerprints                               *)
(* ------------------------------------------------------------------ *)

module Cache = Lubt_lp.Basis_cache

(* Two-level content addressing. The structure fingerprint covers
   everything that fixes the LP's column space and the meaning of its rows
   — delay model, topology, objective weights, whether a source
   participates — but NOT geometry or bounds: EBF constraint coefficients
   are all 1.0 on path edges, so geometry only moves row bounds, and a
   basis cached for the same structure stays dual feasible after a
   geometric or bound edit (the ECO parent hit). The full key additionally
   covers coordinates and the bounds signature, so equal keys mean the
   identical LP. *)
let fingerprints ?weights (inst : Instance.t) tree =
  let h = Cache.Fingerprint.create () in
  Cache.Fingerprint.add_string h "lubt-ebf/linear";
  let n = Tree.num_nodes tree in
  Cache.Fingerprint.add_int h n;
  for i = 0 to n - 1 do
    Cache.Fingerprint.add_int h (Tree.parent tree i);
    Cache.Fingerprint.add_int h (if Tree.forced_zero tree i then 1 else 0)
  done;
  Array.iter (Cache.Fingerprint.add_int h) (Tree.sinks tree);
  (match weights with
  | None -> Cache.Fingerprint.add_int h 0
  | Some ws ->
    Cache.Fingerprint.add_int h 1;
    Array.iter (Cache.Fingerprint.add_float h) ws);
  Cache.Fingerprint.add_int h
    (match inst.Instance.source with Some _ -> 1 | None -> 0);
  let structure = Cache.Fingerprint.digest h in
  (* the accumulator keeps absorbing: the full key extends the structure *)
  Array.iter
    (fun (p : Point.t) ->
      Cache.Fingerprint.add_float h p.Point.x;
      Cache.Fingerprint.add_float h p.Point.y)
    inst.Instance.sinks;
  (match inst.Instance.source with
  | Some p ->
    Cache.Fingerprint.add_float h p.Point.x;
    Cache.Fingerprint.add_float h p.Point.y
  | None -> ());
  Array.iter (Cache.Fingerprint.add_float h) inst.Instance.lower;
  Array.iter (Cache.Fingerprint.add_float h) inst.Instance.upper;
  (structure, Cache.Fingerprint.digest h)

(* sink positions (instance indices) that contribute delay rows, in the
   order [add_delay_rows] emits them — the warm path must reproduce this
   exact row layout, so the cached layout is compared against it *)
let delay_row_sinks (inst : Instance.t) =
  let acc = ref [] in
  Array.iteri
    (fun k _ ->
      if inst.Instance.lower.(k) > 0.0 || inst.Instance.upper.(k) < infinity
      then acc := k :: !acc)
    inst.Instance.sinks;
  Array.of_list (List.rev !acc)

let solve ?(options = default_options) ?weights (inst : Instance.t) tree =
  check_tree_matches inst tree;
  let terms = Array.of_list (terminals inst tree) in
  let t = Array.length terms in
  let prob = Problem.create () in
  add_edge_vars ?weights tree prob;
  add_delay_rows inst tree prob;
  let added = Hashtbl.create 256 in
  let scale =
    max 1.0 (Instance.diameter inst +. Instance.radius inst)
  in
  let eager = (not options.lazy_steiner) || t <= 12 in
  let row_of_pair (i, j) =
    let a, pa = terms.(i) and b, pb = terms.(j) in
    let d = Point.dist pa pb in
    (path_coeffs tree a b, d)
  in
  (* every Steiner row actually appended, in append order — this IS the
     row layout a cached basis refers to, so it is recorded verbatim in
     the snapshot stored at the end *)
  let row_log = ref [] in
  let delay_sinks = delay_row_sinks inst in
  let cache_ctx =
    match options.cache with
    | None -> None
    | Some c ->
      let structure, key = fingerprints ?weights inst tree in
      Some (c, structure, key)
  in
  (* Cache consult: an entry is only usable when its recorded row layout
     can be reproduced against the current instance. Anything off — a
     delay-row set changed by a bounds edit, an out-of-range terminal pair
     from a corrupt or mis-keyed snapshot — is rejected (typed, counted),
     never mapped silently; the solve then proceeds cold. *)
  let warm_entry, cache_outcome =
    match cache_ctx with
    | None -> (None, Cache_off)
    | Some (c, structure, key) -> (
      let outcome_of = function
        | Cache.Exact _ -> Cache_hit_exact
        | Cache.Parent _ -> Cache_hit_parent
        | Cache.Miss -> Cache_miss
      in
      match Cache.find c ~structure ~key with
      | Cache.Miss -> (None, Cache_miss)
      | (Cache.Exact e | Cache.Parent e) as lk ->
        let reject reason =
          Cache.reject c ~reason;
          (None, Cache_rejected reason)
        in
        if e.Cache.e_delay <> delay_sinks then
          reject "delay row layout differs (bounds edit changed the set)"
        else if
          not
            (Array.for_all
               (fun (i, j) -> 0 <= i && i < j && j < t)
               e.Cache.e_pairs)
        then reject "terminal pair out of range"
        else (Some e, outcome_of lk))
  in
  (match warm_entry with
  | Some e ->
    (* warm path: reproduce the parent's exact row layout. Distances are
       recomputed against the CURRENT geometry (a parent hit may have
       moved a sink); rows the parent materialised are kept even when the
       edited distance degenerates to zero, because dropping one would
       shift every later row index under the cached basis. *)
    Array.iter
      (fun key ->
        Hashtbl.replace added key ();
        row_log := key :: !row_log;
        let coeffs, d = row_of_pair key in
        ignore (Problem.add_row prob ~lo:d ~up:infinity coeffs))
      e.Cache.e_pairs
  | None ->
    let seed_pairs =
      if eager then begin
        let all = Hashtbl.create (t * t) in
        for i = 0 to t - 1 do
          for j = i + 1 to t - 1 do
            Hashtbl.replace all (i, j) ()
          done
        done;
        all
      end
      else begin
        let pairs = knn_pairs terms options.knn in
        (* all source-sink rows: cheap and almost always binding *)
        (match inst.Instance.source with
        | Some _ ->
          for j = 1 to t - 1 do
            Hashtbl.replace pairs (0, j) ()
          done
        | None -> ());
        pairs
      end
    in
    Hashtbl.iter
      (fun key () ->
        Hashtbl.replace added key ();
        let coeffs, d = row_of_pair key in
        if d > 0.0 then begin
          row_log := key :: !row_log;
          ignore (Problem.add_row prob ~lo:d ~up:infinity coeffs)
        end)
      seed_pairs);
  let eng = Simplex.of_problem ~params:options.lp_params prob in
  (* install the cached basis; the next solve warm-restarts the dual
     simplex from the parent optimum. A snapshot that fails validation or
     factorisation is rejected through the typed {!Simplex.basis_mismatch}
     — the engine is left on its valid all-slack basis, so the run
     continues as a cold solve over the reproduced row set. *)
  let cache_outcome =
    match warm_entry with
    | None -> cache_outcome
    | Some e -> (
      match Simplex.install_warm_basis eng e.Cache.e_basis with
      | Ok () -> cache_outcome
      | Error bm ->
        let reason = Format.asprintf "%a" Simplex.pp_basis_mismatch bm in
        (match cache_ctx with
        | Some (c, _, _) -> Cache.reject c ~reason
        | None -> ());
        Cache_rejected reason)
  in
  Simplex.set_probe eng options.probe;
  (* One monotonic deadline shared by every phase of every round: the
     LP solves (enforced inside the engine via set_time_limit), the
     O(t^2) violation scans (checked below — without this a run whose
     scans dominate overshoots the budget by a full scan per round) and
     the round boundaries themselves. *)
  let deadline =
    if options.time_limit = infinity then infinity
    else Clock.now () +. options.time_limit
  in
  let expired () = deadline < infinity && Clock.now () > deadline in
  let lengths_of_primal primal =
    let n = Tree.num_nodes tree in
    let lengths = Array.make n 0.0 in
    for i = 1 to n - 1 do
      lengths.(i) <- max 0.0 primal.(edge_var i)
    done;
    lengths
  in
  (* main loop: solve, scan all pairs for violated Steiner constraints via
     O(1) LCA path lengths, add the worst, re-optimise (dual simplex) *)
  let round_stats = ref [] in
  let rec loop rounds =
    Metrics.incr m_rounds;
    let solve_t0 = Clock.now () in
    if expired () then begin
      (* budget gone before this round's solve: report the expiry with
         the stats of the rounds that did run instead of starting more
         work *)
      round_stats :=
        {
          round = rounds;
          rows_added = 0;
          violations_found = 0;
          scan_seconds = 0.0;
          solve_seconds = 0.0;
          solve_pivots = 0;
        }
        :: !round_stats;
      (Status.Time_limit, rounds)
    end
    else begin
    if deadline < infinity then
      (* hand the engine whatever budget is left; non-positive remaining
         time makes the solve return Time_limit immediately *)
      Simplex.set_time_limit eng (deadline -. solve_t0);
    let pivots0 = Simplex.iterations eng in
    let status = Simplex.solve eng in
    let solve_seconds = Clock.now () -. solve_t0 in
    let solve_pivots = Simplex.iterations eng - pivots0 in
    if Trace.enabled () then
      Trace.complete ~t0:solve_t0 "ebf.solve"
        ~args:
          [ ("round", Trace.Int rounds); ("pivots", Trace.Int solve_pivots) ];
    let record ~rows_added ~violations_found ~scan_seconds () =
      round_stats :=
        {
          round = rounds;
          rows_added;
          violations_found;
          scan_seconds;
          solve_seconds;
          solve_pivots;
        }
        :: !round_stats
    in
    if status <> Status.Optimal then begin
      record ~rows_added:0 ~violations_found:0 ~scan_seconds:0.0 ();
      (status, rounds)
    end
    else begin
      let scan_t0 = Clock.now () in
      let lengths = lengths_of_primal (Simplex.primal eng) in
      let d = Tree.delays tree lengths in
      let violations = ref [] in
      let scan_cut = ref false in
      (* the scan is the Theta(t^2) phase: poll the deadline once per
         outer row (t clock reads against t^2 pair work) and abandon
         the sweep when the budget runs out mid-scan *)
      (try
         for i = 0 to t - 1 do
           if deadline < infinity && expired () then begin
             scan_cut := true;
             raise Exit
           end;
           for j = i + 1 to t - 1 do
             if not (Hashtbl.mem added (i, j)) then begin
               let a, pa = terms.(i) and b, pb = terms.(j) in
               let need = Point.dist pa pb in
               if need > 0.0 then begin
                 let have = d.(a) +. d.(b) -. (2.0 *. d.(Tree.lca tree a b)) in
                 let viol = need -. have in
                 if viol > options.violation_tol *. scale then
                   violations := (viol, (i, j)) :: !violations
               end
             end
           done
         done
       with Exit -> ());
      let scan_seconds = Clock.now () -. scan_t0 in
      if Metrics.enabled () then
        Metrics.observe m_scan_violations
          (float_of_int (List.length !violations));
      if Trace.enabled () then
        Trace.complete ~t0:scan_t0 "ebf.scan"
          ~args:
            [
              ("round", Trace.Int rounds);
              ("violations", Trace.Int (List.length !violations));
            ];
      if !scan_cut then begin
        (* a truncated scan proves nothing about the unseen pairs: the
           incumbent lengths are a partial answer, not an optimum *)
        record ~rows_added:0 ~violations_found:(List.length !violations)
          ~scan_seconds ();
        (Status.Time_limit, rounds)
      end
      else
      match !violations with
      | [] ->
        record ~rows_added:0 ~violations_found:0 ~scan_seconds ();
        (Status.Optimal, rounds)
      | vs ->
        if rounds >= options.max_rounds then begin
          record ~rows_added:0 ~violations_found:(List.length vs) ~scan_seconds ();
          (Status.Iteration_limit, rounds)
        end
        else begin
          let sorted = List.sort (fun (a, _) (b, _) -> compare b a) vs in
          let take = ref 0 in
          let append_t0 = if Trace.enabled () then Clock.now () else 0.0 in
          List.iter
            (fun (_, key) ->
              if !take < options.batch then begin
                incr take;
                Hashtbl.replace added key ();
                row_log := key :: !row_log;
                let coeffs, dist = row_of_pair key in
                Simplex.add_row eng ~lo:dist ~up:infinity coeffs;
                (* mirror the row into the model so the materialised LP is
                   available for a-posteriori certification *)
                ignore (Problem.add_row prob ~lo:dist ~up:infinity coeffs)
              end)
            sorted;
          if Trace.enabled () then
            Trace.complete ~t0:append_t0 "ebf.append_rows"
              ~args:[ ("round", Trace.Int rounds); ("rows", Trace.Int !take) ];
          record ~rows_added:!take ~violations_found:(List.length vs)
            ~scan_seconds ();
          loop (rounds + 1)
        end
    end
    end
  in
  let status, rounds = loop 1 in
  let lengths = lengths_of_primal (Simplex.primal eng) in
  (* a-posteriori certification of an optimal claim: the materialised LP is
     certified against the raw problem data, and the geometric check covers
     every binom(t,2) Steiner row and both delay bounds per sink — including
     rows the lazy generator never materialised *)
  let status, certificate =
    if options.check = Certify.Off || status <> Status.Optimal then
      (status, None)
    else begin
      let report =
        Certify.check ~level:options.check prob (Simplex.solution eng)
      in
      let report =
        if not report.Certify.ok then report
        else
          match check_lengths inst tree lengths with
          | Ok () -> report
          | Error msg ->
            {
              report with
              Certify.ok = false;
              failure = Some ("geometric check: " ^ msg);
            }
      in
      if report.Certify.ok then (Status.Optimal, Some report)
      else (Status.Numerical_failure, Some report)
    end
  in
  (* publish the basis for future requests: only a certified-clean optimum
     (certification rejections have already demoted the status above) *)
  (match cache_ctx with
  | Some (c, structure, key) when status = Status.Optimal ->
    Cache.store c
      {
        Cache.e_structure = structure;
        e_key = key;
        e_basis = Simplex.warm_basis eng;
        e_delay = delay_sinks;
        e_pairs = Array.of_list (List.rev !row_log);
        e_objective = Simplex.objective eng;
      }
  | _ -> ());
  {
    status;
    lengths;
    objective = Simplex.objective eng;
    lp_rows = Simplex.nrows eng;
    full_rows = full_row_count inst;
    lp_iterations = Simplex.iterations eng;
    rounds;
    round_stats = List.rev !round_stats;
    lp_stats = Simplex.stats eng;
    certificate;
    cache_outcome;
  }
