(* Content addressing for raw models: the structure fingerprint covers the
   shape that fixes dual feasibility of a basis — objective and constraint
   coefficients — while the full key adds every variable and row bound.
   Equal keys mean the identical LP (exact hit); equal structures with
   different keys mean a bounds-edited sibling whose cached basis stays
   dual feasible (parent hit). *)
let fingerprints prob =
  let h = Basis_cache.Fingerprint.create () in
  Basis_cache.Fingerprint.add_string h "lubt-lp/raw";
  let n = Problem.nvars prob and m = Problem.nrows prob in
  Basis_cache.Fingerprint.add_int h n;
  Basis_cache.Fingerprint.add_int h m;
  for j = 0 to n - 1 do
    Basis_cache.Fingerprint.add_float h (Problem.obj_coeff prob j)
  done;
  for i = 0 to m - 1 do
    Sparse.iter
      (fun j v ->
        Basis_cache.Fingerprint.add_int h j;
        Basis_cache.Fingerprint.add_float h v)
      (Problem.row prob i).Problem.coeffs
  done;
  let structure = Basis_cache.Fingerprint.digest h in
  for j = 0 to n - 1 do
    Basis_cache.Fingerprint.add_float h (Problem.var_lo prob j);
    Basis_cache.Fingerprint.add_float h (Problem.var_up prob j)
  done;
  for i = 0 to m - 1 do
    let r = Problem.row prob i in
    Basis_cache.Fingerprint.add_float h r.Problem.rlo;
    Basis_cache.Fingerprint.add_float h r.Problem.rup
  done;
  (structure, Basis_cache.Fingerprint.digest h)

let solve ?params ?(check = Certify.Off) ?cache prob =
  let eng = Simplex.of_problem ?params prob in
  let cache_ctx =
    match cache with
    | None -> None
    | Some c ->
      let structure, key = fingerprints prob in
      (match Basis_cache.find c ~structure ~key with
      | Basis_cache.Miss -> ()
      | Basis_cache.Exact e | Basis_cache.Parent e -> (
        match Simplex.install_warm_basis eng e.Basis_cache.e_basis with
        | Ok () -> ()
        | Error bm ->
          (* typed rejection: the engine stays on its valid cold basis *)
          Basis_cache.reject c
            ~reason:(Format.asprintf "%a" Simplex.pp_basis_mismatch bm)));
      Some (c, structure, key)
  in
  let status = Simplex.solve eng in
  let sol = Simplex.solution eng in
  if
    status = Status.Optimal && check <> Certify.Off
    && not (Certify.check ~level:check prob sol).Certify.ok
  then
    (* the answer failed certification: nothing is published — the cache
       only ever holds bases whose solves certified clean *)
    { sol with Status.status = Status.Numerical_failure }
  else begin
    (match cache_ctx with
    | Some (c, structure, key) when status = Status.Optimal ->
      Basis_cache.store c
        {
          Basis_cache.e_structure = structure;
          e_key = key;
          e_basis = Simplex.warm_basis eng;
          e_delay = [||];
          e_pairs = [||];
          e_objective = sol.Status.objective;
        }
    | _ -> ());
    sol
  end

let solve_exn ?params ?check ?cache prob =
  let sol = solve ?params ?check ?cache prob in
  if sol.Status.status <> Status.Optimal then
    failwith
      (Printf.sprintf
         "LP not optimal: status %s, objective %.9g, after %d iterations"
         (Status.to_string sol.Status.status)
         sol.Status.objective sol.Status.iterations);
  sol
