(* Golden trajectory of the lazy EBF on the scaled corpus. Each case is
   one instance of [lubt batch --size scaled] (its default seed, five
   variants per benchmark, skew 0.5), solved as the batch solves it —
   baseline router, then the lazy EBF on the achieved window under a
   Full certificate — with no warm-start cache and in one domain. The
   fixture line of a case is its id followed by [key=value] fields:
   status, certified flag, the objective's bits ([%h]), lp_rows and
   rounds, rows_added and solve_pivots of every round, then every
   counter of [Simplex.stats]. Timings are left out (they differ run to
   run), and so is [violations_found], which counts what the scan looks
   at rather than what the LP does. Equal lines mean the same pivots
   and the same optimum. *)

module Batch = Lubt_experiments.Batch
module Protocol = Lubt_experiments.Protocol
module Benchmarks = Lubt_data.Benchmarks
module Ebf = Lubt_core.Ebf
module Simplex = Lubt_lp.Simplex

let specs () = Batch.corpus ~size:Benchmarks.Scaled ~seed:0 ()

let solve (spec : Batch.spec) =
  let bspec =
    { (Benchmarks.find spec.Batch.size spec.Batch.bench) with
      Benchmarks.seed = spec.Batch.seed }
  in
  let b = Protocol.run_baseline bspec ~skew_rel:spec.Batch.skew_rel in
  let options =
    { Ebf.default_options with Ebf.check = Lubt_lp.Certify.Full; cache = None }
  in
  (Protocol.run_lubt_from_baseline ~options b).Protocol.ebf

(* The fields of one case, in line order *)
let fields (e : Ebf.result) =
  let int k v = (k, string_of_int v) in
  let s = e.Ebf.lp_stats and r = e.Ebf.lp_stats.Simplex.recoveries in
  [ ("status", Lubt_lp.Status.to_string e.Ebf.status);
    ( "certified",
      string_of_bool
        (match e.Ebf.certificate with
        | Some c -> c.Lubt_lp.Certify.ok
        | None -> false) );
    ("objective", Printf.sprintf "%h" e.Ebf.objective);
    int "lp_rows" e.Ebf.lp_rows;
    int "rounds" e.Ebf.rounds ]
  @ List.concat_map
      (fun (rs : Ebf.round_stat) ->
        let key name = Printf.sprintf "r%d.%s" rs.Ebf.round name in
        [ int (key "rows_added") rs.Ebf.rows_added;
          int (key "solve_pivots") rs.Ebf.solve_pivots ])
      e.Ebf.round_stats
  @ [ int "iterations" s.Simplex.iterations;
      int "bound_flips" s.Simplex.bound_flips;
      int "ftran_count" s.Simplex.ftran_count;
      int "btran_count" s.Simplex.btran_count;
      int "basis_updates" s.Simplex.basis_updates;
      int "basis_extensions" s.Simplex.basis_extensions;
      int "refactorisations" s.Simplex.refactorisations;
      int "factor_nnz" s.Simplex.factor_nnz;
      int "basis_nnz" s.Simplex.basis_nnz;
      int "factor_dim" s.Simplex.factor_dim;
      int "kernel_dim" s.Simplex.kernel_dim;
      int "refactor_retries" r.Simplex.refactor_retries;
      int "tolerance_escalations" r.Simplex.tolerance_escalations;
      int "perturbed_resolves" r.Simplex.perturbed_resolves;
      int "faults_injected" r.Simplex.faults_injected;
      int "validations_rejected" r.Simplex.validations_rejected ]

(* Every case as its fixture line, in corpus order. *)
let lines () =
  List.map
    (fun (spec : Batch.spec) ->
      String.concat " "
        (spec.Batch.id
        :: List.map (fun (k, v) -> k ^ "=" ^ v) (fields (solve spec))))
    (specs ())
