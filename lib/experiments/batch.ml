module Benchmarks = Lubt_data.Benchmarks
module Ebf = Lubt_core.Ebf
module Simplex = Lubt_lp.Simplex
module Status = Lubt_lp.Status
module Pool = Lubt_util.Pool
module Json = Lubt_obs.Json

type spec = {
  id : string;
  bench : string;
  size : Benchmarks.size;
  seed : int;
  skew_rel : float;
}

let corpus ?(size = Benchmarks.Tiny) ?(per_bench = 5) ?(skew_rel = 0.5) ~seed
    () =
  List.concat_map
    (fun (bspec : Benchmarks.spec) ->
      List.init per_bench (fun k ->
          {
            id = Printf.sprintf "%s/s%d" bspec.Benchmarks.name (seed + k);
            bench = bspec.Benchmarks.name;
            size;
            seed = bspec.Benchmarks.seed + seed + k;
            skew_rel;
          }))
    (Benchmarks.specs size)

type outcome = {
  index : int;
  spec : spec;
  status : string;
  objective : float;
  bst_cost : float;
  lp_rows : int;
  full_rows : int;
  lp_iterations : int;
  rounds : int;
  certified : bool;
  wall_s : float;
  error : string option;
  solver : Simplex.stats option;
}

type summary = {
  outcomes : outcome list;
  jobs : int;
  failures : int;
  wall_s : float;
  merged : Simplex.stats;
}

let solve_one ~certify ~cache spec =
  let module Trace = Lubt_obs.Trace in
  let bspec =
    { (Benchmarks.find spec.size spec.bench) with Benchmarks.seed = spec.seed }
  in
  let t0 = Lubt_obs.Clock.now () in
  let b = Protocol.run_baseline bspec ~skew_rel:spec.skew_rel in
  let options =
    {
      Ebf.default_options with
      Ebf.check = (if certify then Lubt_lp.Certify.Full else Lubt_lp.Certify.Off);
      cache;
    }
  in
  (* run_lubt raises on a non-optimal status; the pool captures that and
     the outcome below reports it as an error *)
  let l = Protocol.run_lubt_from_baseline ~options b in
  let wall_s = Lubt_obs.Clock.now () -. t0 in
  if Trace.enabled () then
    Trace.complete ~t0 "batch.task" ~args:[ ("id", Trace.Str spec.id) ];
  let ebf = l.Protocol.ebf in
  (b, ebf, wall_s)

let outcome_of_task index spec ~certify = function
  | Ok (b, (ebf : Ebf.result), wall_s) ->
    {
      index;
      spec;
      status = Status.to_string ebf.Ebf.status;
      objective = ebf.Ebf.objective;
      bst_cost = b.Protocol.bst.Lubt_bst.Bst_dme.cost;
      lp_rows = ebf.Ebf.lp_rows;
      full_rows = ebf.Ebf.full_rows;
      lp_iterations = ebf.Ebf.lp_iterations;
      rounds = ebf.Ebf.rounds;
      certified =
        (match ebf.Ebf.certificate with
        | Some r -> r.Lubt_lp.Certify.ok
        | None -> not certify && ebf.Ebf.status = Status.Optimal);
      wall_s;
      error = None;
      solver = Some ebf.Ebf.lp_stats;
    }
  | Error (f : Pool.failure) ->
    {
      index;
      spec;
      status = "error";
      objective = nan;
      bst_cost = nan;
      lp_rows = 0;
      full_rows = 0;
      lp_iterations = 0;
      rounds = 0;
      certified = false;
      wall_s = nan;
      error = Some (Printexc.to_string f.Pool.exn);
      solver = None;
    }

let run ?jobs ?(certify = true) ?cache specs =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  let t0 = Lubt_obs.Clock.now () in
  let results = Pool.map_result ~jobs (solve_one ~certify ~cache) specs in
  let wall_s = Lubt_obs.Clock.now () -. t0 in
  let outcomes =
    List.mapi
      (fun index (spec, r) -> outcome_of_task index spec ~certify r)
      (List.combine specs results)
  in
  let failures =
    List.length
      (List.filter (fun o -> o.error <> None || not o.certified) outcomes)
  in
  let merged =
    List.fold_left
      (fun acc o ->
        match o.solver with
        | Some s -> Simplex.merge_stats acc s
        | None -> acc)
      Simplex.zero_stats outcomes
  in
  { outcomes; jobs; failures; wall_s; merged }

(* ------------------------------------------------------------------ *)
(* JSON-lines rendering                                                 *)
(* ------------------------------------------------------------------ *)

let outcome_json o =
  Json.to_string
    (Json.Obj
       ([ ("index", Json.int o.index); ("id", Json.Str o.spec.id);
          ("bench", Json.Str o.spec.bench); ("seed", Json.int o.spec.seed);
          ("skew_rel", Json.Num o.spec.skew_rel);
          ("status", Json.Str o.status);
          ("objective", Json.Num o.objective);
          ("bst_cost", Json.Num o.bst_cost);
          ("lp_rows", Json.int o.lp_rows); ("full_rows", Json.int o.full_rows);
          ("lp_iterations", Json.int o.lp_iterations);
          ("rounds", Json.int o.rounds); ("certified", Json.Bool o.certified);
          ("wall_s", Json.Num o.wall_s) ]
       @ Option.fold ~none:[] o.error ~some:(fun e -> [ ("error", Json.Str e) ])
       @ Option.fold ~none:[] o.solver ~some:(fun s ->
             [ ("solver", Protocol.solver_stats_json s) ])))

let summary_json s =
  Json.to_string
    (Json.Obj
       [ ("summary", Json.Bool true);
         ("instances", Json.int (List.length s.outcomes));
         ("jobs", Json.int s.jobs); ("failures", Json.int s.failures);
         ("wall_s", Json.Num s.wall_s);
         ("solver", Protocol.solver_stats_json s.merged) ])
