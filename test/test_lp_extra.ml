(* Tests for the LP extras: the sparse LU, the product-form basis, the
   LP-format writer/reader, and an engine cross-check on random EBF
   instances. *)

module Problem = Lubt_lp.Problem
module Solver = Lubt_lp.Solver
module Status = Lubt_lp.Status
module Sparse = Lubt_lp.Sparse
module Prng = Lubt_util.Prng

let check_float = Alcotest.(check (float 1e-6))

(* Shared generator (lp_gen.ml); [fixed_vars] adds fixed variables, so
   the LP-format round-trips below also cover [lo = up] bounds. *)
let random_problem rng = Lp_gen.random_problem ~fixed_vars:true rng

(* ------------------------------------------------------------------ *)
(* LP format                                                            *)
(* ------------------------------------------------------------------ *)

let test_lp_format_writer_shape () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:1.0 ~name:"x" p in
  let y = Problem.add_var ~lo:neg_infinity ~up:infinity ~obj:(-2.0) ~name:"y" p in
  ignore (Problem.add_row ~name:"r1" p ~lo:1.0 ~up:infinity [ (x, 1.0); (y, 3.0) ]);
  ignore (Problem.add_row ~name:"r2" p ~lo:0.0 ~up:5.0 [ (x, 2.0) ]);
  let s = Lp_format.to_string p in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (contains s needle))
    (* one-sided r1 keeps its name; range row r2 splits into _l/_u *)
    [ "Minimize"; "Subject To"; "Bounds"; "End"; "y free"; "r1:"; "r2_l:"; "r2_u:" ]

let test_lp_format_roundtrip () =
  let rng = Prng.create 7007 in
  for id = 1 to 200 do
    let p = random_problem rng in
    match Lp_format.of_string (Lp_format.to_string p) with
    | Error msg -> Alcotest.failf "case %d: parse error: %s" id msg
    | Ok q ->
      let a = Solver.solve p and b = Solver.solve q in
      (match (a.Status.status, b.Status.status) with
      | Status.Optimal, Status.Optimal ->
        if not (Lubt_util.Stats.approx_eq ~eps:1e-5 a.Status.objective b.Status.objective)
        then
          Alcotest.failf "case %d: objective %.9g vs %.9g after roundtrip" id
            a.Status.objective b.Status.objective
      | sa, sb when sa = sb -> ()
      | sa, sb ->
        Alcotest.failf "case %d: status %s vs %s after roundtrip" id
          (Status.to_string sa) (Status.to_string sb))
  done

let test_lp_format_reader_errors () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (text, why, where) ->
      match Lp_format.of_string text with
      | Error msg ->
        if not (contains msg where) then
          Alcotest.failf "%s: error %S does not locate %S" why msg where
      | Ok _ -> Alcotest.failf "expected parse failure: %s" why)
    [
      ("x + y <= 3", "content before section", "line 1");
      ("Minimize\n obj: x\nSubject To\n c: x ? 3\nEnd", "bad operator", "line 4");
      ("Minimize\n obj: x\nSubject To\n c: x <=\nEnd", "missing rhs", "line 4");
      ( "Minimize\n obj: x\nSubject To\n c: x >= 1\nBounds\n 3 <= x <= 2\nEnd",
        "crossed bounds",
        "line 6" );
      ( "Minimize\n obj: x\nSubject To\n c: x @ 3 >= 1\nEnd",
        "bad token",
        "line 4" );
    ]

(* Structural equality up to variable order (LP format does not encode
   declaration order): the same named variables with the same
   bounds/objective, and the same rows in order with coefficients matched
   by variable name. Exact float comparison is intended — the writer uses
   %.17g, which round-trips IEEE doubles bit-exactly. *)
let assert_same_problem id p q =
  if Problem.nvars p <> Problem.nvars q then
    Alcotest.failf "%s: nvars %d vs %d" id (Problem.nvars p) (Problem.nvars q);
  if Problem.nrows p <> Problem.nrows q then
    Alcotest.failf "%s: nrows %d vs %d" id (Problem.nrows p) (Problem.nrows q);
  let index = Hashtbl.create 16 in
  for j = 0 to Problem.nvars q - 1 do
    Hashtbl.replace index (Problem.var_name q j) j
  done;
  for j = 0 to Problem.nvars p - 1 do
    let name = Problem.var_name p j in
    match Hashtbl.find_opt index name with
    | None -> Alcotest.failf "%s: variable %s lost in round-trip" id name
    | Some j' ->
      let chk what a b =
        if a <> b then
          Alcotest.failf "%s: %s of %s: %.17g vs %.17g" id what name a b
      in
      chk "lower bound" (Problem.var_lo p j) (Problem.var_lo q j');
      chk "upper bound" (Problem.var_up p j) (Problem.var_up q j');
      chk "objective" (Problem.obj_coeff p j) (Problem.obj_coeff q j')
  done;
  let named prob (r : Problem.row) =
    List.sort compare
      (List.map
         (fun (j, a) -> (Problem.var_name prob j, a))
         (Sparse.to_assoc r.Problem.coeffs))
  in
  for i = 0 to Problem.nrows p - 1 do
    let rp = Problem.row p i and rq = Problem.row q i in
    if rp.Problem.rlo <> rq.Problem.rlo || rp.Problem.rup <> rq.Problem.rup then
      Alcotest.failf "%s: row %d bounds [%g, %g] vs [%g, %g]" id i
        rp.Problem.rlo rp.Problem.rup rq.Problem.rlo rq.Problem.rup;
    if named p rp <> named q rq then
      Alcotest.failf "%s: row %d coefficients differ" id i
  done

let test_lp_format_structural_roundtrip () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:2.5e-7 ~name:"x" p in
  (* a free variable outside the objective and every constraint: only its
     Bounds line mentions it, and it used to be dropped by the reader *)
  let _y = Problem.add_var ~lo:neg_infinity ~up:infinity ~name:"y_free" p in
  let z = Problem.add_var ~lo:neg_infinity ~up:3.0 ~name:"z" p in
  let w = Problem.add_var ~lo:(-4.5) ~up:(-4.5) ~name:"w" p in
  let _v = Problem.add_var ~lo:1.0e12 ~up:infinity ~name:"v" p in
  ignore
    (Problem.add_row ~name:"r1" p ~lo:neg_infinity ~up:1.0e12
       [ (x, 3.0e-5); (z, -1.0) ]);
  ignore (Problem.add_row ~name:"r2" p ~lo:(-2.0) ~up:(-2.0) [ (x, 1.0); (w, 1.0) ]);
  match Lp_format.of_string (Lp_format.to_string p) with
  | Error msg -> Alcotest.fail msg
  | Ok q -> assert_same_problem "hand-built" p q

(* like [random_problem] but tuned for the writer (shared generator,
   see lp_gen.ml): scientific-notation magnitudes, free/fixed/one-sided
   bounds, a variable referenced only by its Bounds line, and no range
   rows (the writer splits those in two by design, so they cannot
   round-trip structurally) *)
let random_format_problem rng = Lp_gen.random_format_problem rng

let test_lp_format_random_structural_roundtrip () =
  let rng = Prng.create 9119 in
  for id = 1 to 100 do
    let p = random_format_problem rng in
    match Lp_format.of_string (Lp_format.to_string p) with
    | Error msg -> Alcotest.failf "case %d: parse error: %s" id msg
    | Ok q -> assert_same_problem (Printf.sprintf "case %d" id) p q
  done

let test_ebf_program_exports () =
  (* the EBF LP of the paper's five-point example survives a write/solve *)
  let inst, tree = Lubt_data.Examples.five_point () in
  let prob = Lubt_core.Ebf.formulate inst tree in
  let text = Lp_format.to_string prob in
  match Lp_format.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
    let a = Solver.solve prob and b = Solver.solve q in
    Alcotest.(check bool) "both optimal" true
      (a.Status.status = Status.Optimal && b.Status.status = Status.Optimal);
    check_float "same optimum" a.Status.objective b.Status.objective


(* ------------------------------------------------------------------ *)
(* Engine cross-check on random EBF instances                          *)
(* ------------------------------------------------------------------ *)

module Simplex = Lubt_lp.Simplex
module Ebf = Lubt_core.Ebf
module Instance = Lubt_core.Instance
module Point = Lubt_geom.Point

(* Two engine runs per instance — the eager formulation (primal phases)
   and the lazy row-generation loop (dual-simplex warm restarts after
   add_rows) — must agree with the independent two-phase tableau oracle. A
   fifth of the instances get an upper bound below the radius so the
   infeasibility verdict is cross-checked too. *)
let test_ebf_engine_vs_oracle () =
  let rng = Prng.create 8086 in
  for case = 1 to 50 do
    (* every fifth case gets an upper bound below the radius: provably
       no LUBT exists, so the infeasibility verdict is cross-checked *)
    let inst, tree = Lp_gen.random_ebf ~infeasible:(case mod 5 = 0) rng in
    let oracle = Tableau.solve (Ebf.formulate inst tree) in
    let eager = Solver.solve (Ebf.formulate inst tree) in
    if eager.Status.status <> oracle.Status.status then
      Alcotest.failf "case %d (eager): status %s vs oracle %s" case
        (Status.to_string eager.Status.status)
        (Status.to_string oracle.Status.status);
    if
      oracle.Status.status = Status.Optimal
      && not
           (Lubt_util.Stats.approx_eq ~eps:1e-6 eager.Status.objective
              oracle.Status.objective)
    then
      Alcotest.failf "case %d (eager): %.9g vs oracle %.9g" case
        eager.Status.objective oracle.Status.objective;
    let lazy_r = Ebf.solve inst tree in
    if lazy_r.Ebf.status <> oracle.Status.status then
      Alcotest.failf "case %d (lazy): status %s vs oracle %s" case
        (Status.to_string lazy_r.Ebf.status)
        (Status.to_string oracle.Status.status);
    if oracle.Status.status = Status.Optimal then begin
      if
        not
          (Lubt_util.Stats.approx_eq ~eps:1e-6 lazy_r.Ebf.objective
             oracle.Status.objective)
      then
        Alcotest.failf "case %d (lazy): %.9g vs oracle %.9g" case
          lazy_r.Ebf.objective oracle.Status.objective;
      match Ebf.check_lengths inst tree lazy_r.Ebf.lengths with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "case %d (lazy): %s" case msg
    end;
    (* telemetry sanity on the lazy run *)
    let st = lazy_r.Ebf.lp_stats in
    if st.Simplex.iterations <> lazy_r.Ebf.lp_iterations then
      Alcotest.failf "case %d: stats iterations %d vs result %d" case
        st.Simplex.iterations lazy_r.Ebf.lp_iterations;
    if List.length lazy_r.Ebf.round_stats <> lazy_r.Ebf.rounds then
      Alcotest.failf "case %d: %d round stats for %d rounds" case
        (List.length lazy_r.Ebf.round_stats)
        lazy_r.Ebf.rounds
  done

(* The dual simplex keeps its reduced costs by updating them with each
   dual step, between from-scratch recomputations. The convergence
   probe recomputes the dual infeasibility from scratch after every
   pivot; on the lp_gen EBF corpus it must stay within ten times the
   engine's dual tolerance at every dual event, so the updated costs
   never steer the ratio test off dual feasibility. *)
let test_dual_probe_feasible () =
  let tol_dual = 1e-9 (* the engine's dual feasibility tolerance *) in
  let rng = Prng.create 5150 in
  let events = ref 0 in
  for case = 1 to 30 do
    (* every third instance is large enough for several lazy rounds *)
    let min_sinks = if case mod 3 = 0 then 25 else 3 in
    let inst, tree = Lp_gen.random_ebf ~min_sinks rng in
    let probe (e : Simplex.probe_event) =
      if e.Simplex.pr_phase = "dual" then begin
        incr events;
        if not (e.Simplex.pr_dual_infeas <= 10.0 *. tol_dual) then
          Alcotest.failf "case %d iteration %d: dual infeasibility %.3g" case
            e.Simplex.pr_iteration e.Simplex.pr_dual_infeas
      end
    in
    ignore
      (Ebf.solve
         ~options:{ Ebf.default_options with Ebf.probe = Some probe }
         inst tree)
  done;
  Alcotest.(check bool) "dual events seen" true (!events > 0)

(* ------------------------------------------------------------------ *)
(* Batched row appends                                                  *)
(* ------------------------------------------------------------------ *)

(* exact equality of two models: bounds, objective and rows in order *)
let same_model id p q =
  let fail what = Alcotest.failf "%s: %s differ" id what in
  if Problem.nvars p <> Problem.nvars q then fail "variable counts";
  if Problem.nrows p <> Problem.nrows q then fail "row counts";
  for j = 0 to Problem.nvars p - 1 do
    if
      Problem.var_lo p j <> Problem.var_lo q j
      || Problem.var_up p j <> Problem.var_up q j
      || Problem.obj_coeff p j <> Problem.obj_coeff q j
    then fail (Printf.sprintf "variable %d" j)
  done;
  for i = 0 to Problem.nrows p - 1 do
    let rp = Problem.row p i and rq = Problem.row q i in
    if
      rp.Problem.rlo <> rq.Problem.rlo
      || rp.Problem.rup <> rq.Problem.rup
      || Sparse.to_assoc rp.Problem.coeffs <> Sparse.to_assoc rq.Problem.coeffs
    then fail (Printf.sprintf "row %d" i)
  done

let row_spec prob i =
  let r = Problem.row prob i in
  (r.Problem.rlo, r.Problem.rup, Sparse.to_assoc r.Problem.coeffs)

(* Every variable of [prob] and its rows [rows], in that order. *)
let problem_rows prob rows =
  let p = Problem.create () in
  for j = 0 to Problem.nvars prob - 1 do
    ignore
      (Problem.add_var ~lo:(Problem.var_lo prob j) ~up:(Problem.var_up prob j)
         ~obj:(Problem.obj_coeff prob j) p)
  done;
  List.iter
    (fun i ->
      let lo, up, coeffs = row_spec prob i in
      ignore (Problem.add_row p ~lo ~up coeffs))
    rows;
  p

(* An engine over every variable of [prob] and the rows [keep] selects. *)
let engine_over prob keep =
  Simplex.of_problem
    (problem_rows prob (List.filter keep (List.init (Problem.nrows prob) Fun.id)))

let same_run id a b =
  let sa = Simplex.stats a and sb = Simplex.stats b in
  let counters (s : Simplex.stats) =
    [ s.Simplex.iterations; s.Simplex.ftran_count; s.Simplex.btran_count;
      s.Simplex.refactorisations; s.Simplex.basis_extensions ]
  in
  if counters sa <> counters sb then Alcotest.failf "%s: pivots differ" id;
  if
    Int64.bits_of_float (Simplex.objective a)
    <> Int64.bits_of_float (Simplex.objective b)
  then
    Alcotest.failf "%s: objective %h vs %h" id (Simplex.objective a)
      (Simplex.objective b);
  if Simplex.primal a <> Simplex.primal b then Alcotest.failf "%s: primal differs" id

(* Two engines start from the same third of an EBF formulation's rows.
   The other rows arrive in two rounds: one engine takes each round as
   one [add_rows] batch, the other one row per call. The models, the
   pivots and the bits of the objective must agree after every
   re-solve, and after every batch the model must equal the seed rows
   followed by the rows appended so far. *)
let test_add_rows_batch_vs_single () =
  let rng = Prng.create 2303 in
  for case = 1 to 30 do
    let min_sinks = if case mod 3 = 0 then 20 else 4 in
    let inst, tree = Lp_gen.random_ebf ~min_sinks rng in
    let full = Ebf.formulate inst tree in
    let m = Problem.nrows full in
    let seeded i = i mod 3 = 0 in
    let batch = engine_over full seeded and single = engine_over full seeded in
    let id = Printf.sprintf "case %d" case in
    ignore (Simplex.solve batch);
    ignore (Simplex.solve single);
    same_run id batch single;
    let order = ref [] in
    List.iter
      (fun round ->
        let rows =
          List.filter_map
            (fun i -> if (not (seeded i)) && i mod 2 = round then Some i else None)
            (List.init m Fun.id)
        in
        order := !order @ rows;
        Simplex.add_rows batch (List.map (row_spec full) rows);
        List.iter (fun i -> Simplex.add_rows single [ row_spec full i ]) rows;
        let appended =
          problem_rows full (List.filter seeded (List.init m Fun.id) @ !order)
        in
        same_model id (Simplex.to_problem batch) appended;
        same_model id (Simplex.to_problem single) appended;
        ignore (Simplex.solve batch);
        ignore (Simplex.solve single);
        same_run id batch single)
      [ 0; 1 ];
    let rows = List.filter seeded (List.init m Fun.id) @ !order in
    let expected = engine_over full (fun _ -> false) in
    Simplex.add_rows expected (List.map (row_spec full) rows);
    same_model id (Simplex.to_problem batch) (Simplex.to_problem expected)
  done

(* A batch with one invalid row, wherever it sits, is refused whole: the
   engine keeps its model and re-solves exactly like an untouched twin. *)
let test_add_rows_invalid_batch () =
  let rng = Prng.create 77 in
  let inst, tree = Lp_gen.random_ebf ~min_sinks:8 rng in
  let full = Ebf.formulate inst tree in
  let n = Problem.nvars full and m = Problem.nrows full in
  let seeded i = i < m / 2 in
  let extra = List.init 4 (fun q -> row_spec full ((m / 2) + q)) in
  let bad =
    [ (2.0, 1.0, [ (0, 1.0) ]); (1.0, infinity, [ (n, 1.0) ]);
      (1.0, infinity, [ (0, 1.0); (-1, 1.0) ]) ]
  in
  List.iter
    (fun b ->
      for pos = 0 to List.length extra do
        let rows =
          List.filteri (fun q _ -> q < pos) extra
          @ (b :: List.filteri (fun q _ -> q >= pos) extra)
        in
        let eng = engine_over full seeded and twin = engine_over full seeded in
        ignore (Simplex.solve eng);
        ignore (Simplex.solve twin);
        let before = Simplex.to_problem eng in
        (match Simplex.add_rows eng rows with
        | () -> Alcotest.failf "invalid row at %d accepted" pos
        | exception Invalid_argument _ -> ());
        same_model "after refused batch" (Simplex.to_problem eng) before;
        Simplex.add_rows eng extra;
        Simplex.add_rows twin extra;
        ignore (Simplex.solve eng);
        ignore (Simplex.solve twin);
        same_run "after refused batch" eng twin
      done)
    bad

(* ------------------------------------------------------------------ *)
(* Sparse LU                                                            *)
(* ------------------------------------------------------------------ *)

module Lu = Lubt_lp.Lu
module Hvec = Lubt_lp.Hvec

let hvec_of a =
  let h = Hvec.create (Array.length a) in
  Array.iteri (fun i x -> if x <> 0.0 then Hvec.set h i x) a;
  h

(* The first [n] entries of a solve's result, after checking its list:
   every nonzero entry is listed, and no entry twice. *)
let dense_of (h : Hvec.t) n =
  let seen = Array.make (Hvec.dim h) false in
  for e = 0 to h.Hvec.nnz - 1 do
    let i = h.Hvec.idx.(e) in
    if seen.(i) then Alcotest.failf "entry %d listed twice" i;
    seen.(i) <- true
  done;
  Array.iteri
    (fun i x ->
      if x <> 0.0 && not seen.(i) then Alcotest.failf "nonzero %d not listed" i)
    h.Hvec.v;
  Array.sub h.Hvec.v 0 n

let lu_solve lu b =
  let x = Hvec.create (Array.length b) in
  Lu.solve lu (hvec_of b) x;
  dense_of x (Lu.dim lu)

let lu_solve_transpose lu c =
  let x = Hvec.create (Array.length c) in
  Lu.solve_transpose lu (hvec_of c) x;
  dense_of x (Lu.dim lu)

let random_nonsingular rng n =
  (* diagonally dominant random sparse matrix: always nonsingular *)
  Array.init n (fun j ->
      let entries = ref [ (j, 10.0 +. Prng.float rng 5.0) ] in
      for i = 0 to n - 1 do
        if i <> j && Prng.int rng 3 = 0 then
          entries := (i, Prng.float rng 4.0 -. 2.0) :: !entries
      done;
      Sparse.of_assoc !entries)

let mat_vec cols x =
  let n = Array.length cols in
  let y = Array.make n 0.0 in
  Array.iteri (fun j col -> Sparse.iter (fun i a -> y.(i) <- y.(i) +. (a *. x.(j))) col) cols;
  y

let mat_t_vec cols x =
  Array.map (fun col -> Sparse.dot_dense col x) cols

let test_lu_solve_roundtrip () =
  let rng = Prng.create 2025 in
  for case = 1 to 50 do
    let n = 1 + Prng.int rng 30 in
    let cols = random_nonsingular rng n in
    let lu = Lu.factor cols in
    Alcotest.(check int) "dim" n (Lu.dim lu);
    let x_true = Array.init n (fun _ -> Prng.float rng 10.0 -. 5.0) in
    let b = mat_vec cols x_true in
    let x = lu_solve lu b in
    Array.iteri
      (fun i v ->
        if not (Lubt_util.Stats.approx_eq ~eps:1e-8 v x_true.(i)) then
          Alcotest.failf "case %d: solve x[%d] = %.12g vs %.12g" case i v
            x_true.(i))
      x
  done

let test_lu_transpose_solve () =
  let rng = Prng.create 3026 in
  for case = 1 to 50 do
    let n = 1 + Prng.int rng 30 in
    let cols = random_nonsingular rng n in
    let lu = Lu.factor cols in
    let x_true = Array.init n (fun _ -> Prng.float rng 10.0 -. 5.0) in
    let c = mat_t_vec cols x_true in
    let x = lu_solve_transpose lu c in
    Array.iteri
      (fun i v ->
        if not (Lubt_util.Stats.approx_eq ~eps:1e-8 v x_true.(i)) then
          Alcotest.failf "case %d: btran x[%d] = %.12g vs %.12g" case i v
            x_true.(i))
      x
  done

let test_lu_detects_singular () =
  (* two identical columns *)
  let col = Sparse.of_assoc [ (0, 1.0); (1, 2.0) ] in
  (match Lu.factor [| col; col |] with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "duplicate columns must be singular");
  (* a zero column *)
  match Lu.factor [| Sparse.of_assoc [ (0, 1.0) ]; Sparse.empty |] with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "zero column must be singular"

let test_lu_permutation_matrix () =
  (* a permutation matrix exercises the pivoting bookkeeping *)
  let n = 6 in
  let perm = [| 3; 0; 5; 1; 4; 2 |] in
  let cols = Array.init n (fun j -> Sparse.of_assoc [ (perm.(j), 1.0) ]) in
  let lu = Lu.factor cols in
  Alcotest.(check int) "nnz of a permutation" n (Lu.nnz lu);
  let b = Array.init n float_of_int in
  let x = lu_solve lu b in
  (* x_j = b_(perm j) *)
  Array.iteri
    (fun j v -> Alcotest.(check (float 1e-12)) "perm solve" b.(perm.(j)) v)
    x

(* ------------------------------------------------------------------ *)
(* Basis: LU plus eta/border trail against a dense reference            *)
(* ------------------------------------------------------------------ *)

module Basis = Lubt_lp.Basis

(* [a x = b] by dense Gaussian elimination with partial pivoting; [a] is
   row-major and left unmodified. Shares no code with [Lu]/[Basis]. *)
let dense_solve a b =
  let d = Array.length b in
  let m = Array.map Array.copy a and x = Array.copy b in
  for k = 0 to d - 1 do
    let p = ref k in
    for i = k + 1 to d - 1 do
      if abs_float m.(i).(k) > abs_float m.(!p).(k) then p := i
    done;
    let row = m.(k) and xk = x.(k) in
    m.(k) <- m.(!p);
    m.(!p) <- row;
    x.(k) <- x.(!p);
    x.(!p) <- xk;
    for i = k + 1 to d - 1 do
      let f = m.(i).(k) /. m.(k).(k) in
      if f <> 0.0 then begin
        for j = k to d - 1 do
          m.(i).(j) <- m.(i).(j) -. (f *. m.(k).(j))
        done;
        x.(i) <- x.(i) -. (f *. x.(k))
      end
    done
  done;
  for k = d - 1 downto 0 do
    let s = ref x.(k) in
    for j = k + 1 to d - 1 do
      s := !s -. (m.(k).(j) *. x.(j))
    done;
    x.(k) <- !s /. m.(k).(k)
  done;
  x

let transpose a =
  let d = Array.length a in
  Array.init d (fun i -> Array.init d (fun j -> a.(j).(i)))

(* A simplex-shaped basis over [d] rows: [k] structural columns first,
   then the slack columns [-e_i] of the other [d - k] rows. Structural
   column j has a dominant entry on its own row t_j, small entries on
   other structural rows (so the k x k kernel on those rows is column
   diagonally dominant, hence nonsingular), and entries on slack rows,
   some larger than the dominant one. Factored in the caller's order,
   such a column pivots on a slack row whose slack column comes later,
   which then fills in. Returns the columns, the dense matrix
   (row-major) and [k]. *)
let slack_late_basis rng d k =
  let trows = Array.init k (fun j -> j * (d / k)) in
  let is_t = Array.make d false in
  Array.iter (fun i -> is_t.(i) <- true) trows;
  let m = Array.make_matrix d d 0.0 in
  let structural =
    Array.init k (fun j ->
        let entries = ref [ (trows.(j), 10.0 +. Prng.float rng 5.0) ] in
        for i = 0 to d - 1 do
          if i <> trows.(j) && Prng.int rng 2 = 0 then
            if is_t.(i) then
              entries := (i, Prng.float_range rng (-1.0) 1.0) :: !entries
            else entries := (i, Prng.float_range rng (-40.0) 40.0) :: !entries
        done;
        Sparse.of_assoc !entries)
  in
  let slacks =
    List.filter (fun i -> not is_t.(i)) (List.init d Fun.id)
    |> List.map (fun i -> Sparse.singleton i (-1.0))
  in
  let cols = Array.append structural (Array.of_list slacks) in
  Array.iteri (fun j col -> Sparse.iter (fun i v -> m.(i).(j) <- v) col) cols;
  (cols, m, k)

let slack_late_cases f =
  let rng = Prng.create 4242 in
  for case = 1 to 30 do
    let d = 8 + Prng.int rng 40 in
    let k = 1 + Prng.int rng (min 6 (d / 4)) in
    let cols, m, k = slack_late_basis rng d k in
    f rng case cols m k (Lu.factor cols)
  done

(* Solves against the dense reference on such bases, with unit
   right-hand sides for the transpose solve (the simplex's pivot row
   is B^-T e_r). *)
let test_lu_slack_late () =
  slack_late_cases (fun rng case cols m _ lu ->
    let d = Array.length cols in
    let near what i got want =
      if not (Lubt_util.Stats.approx_eq ~eps:1e-9 got want) then
        Alcotest.failf "case %d %s [%d]: %.15g vs %.15g" case what i got want
    in
    let b = Array.init d (fun _ -> Prng.float_range rng (-5.0) 5.0) in
    Array.iteri (fun i v -> near "solve" i v (dense_solve m b).(i)) (lu_solve lu b);
    let mt = transpose m in
    for u = 0 to d - 1 do
      let e = Array.init d (fun i -> if i = u then 1.0 else 0.0) in
      let want = dense_solve mt e in
      Array.iteri (fun i v -> near "solve_transpose unit" i v want.(i))
        (lu_solve_transpose lu e)
    done)

(* The fill bound of slack-first ordering: every slack pivots on its
   own row, so fill is confined to the k x k structural kernel. *)
let test_lu_slack_first_fill () =
  slack_late_cases (fun _ case cols _ k lu ->
    let nnz_b = Array.fold_left (fun acc c -> acc + Sparse.nnz c) 0 cols in
    if Lu.nnz lu > nnz_b + (k * k) then
      Alcotest.failf "case %d: LU holds %d nonzeros, basis %d + kernel %d^2"
        case (Lu.nnz lu) nnz_b k)

(* [slack_late_basis] with the first [s] of its slack columns replaced
   by structural singletons on the same rows, with coefficients other
   than -1. k = 0 gives a basis without a kernel, k = d one without a
   slack. *)
let kernel_basis rng d k s =
  let cols, m, _ = slack_late_basis rng d k in
  let cols =
    Array.mapi
      (fun j col ->
        if j < k || j >= k + s then col
        else
          match Sparse.to_assoc col with
          | [ (i, _) ] ->
            let c =
              (if Prng.int rng 2 = 0 then -1.0 else 1.0)
              *. Prng.float_range rng 0.5 4.0
            in
            m.(i).(j) <- c;
            Sparse.singleton i c
          | _ -> Alcotest.fail "slack column expected")
      cols
  in
  (cols, m)

(* Every kernel shape: the leading singletons, slacks or structural, are
   peeled and the rest is the kernel; solves with a dense right-hand
   side, and unit solves and unit transpose solves from every position
   (singleton or kernel), match the dense reference. Case 0 is fixed:
   its kernel columns in factor order reach a singleton row, then none,
   then none. *)
let test_lu_kernel_shapes () =
  let check case cols m =
    let d = Array.length cols in
    let lu = Lu.factor cols in
    let kernel =
      Array.fold_left (fun acc c -> if Sparse.nnz c >= 2 then acc + 1 else acc) 0 cols
    in
    Alcotest.(check int) (Printf.sprintf "case %d kernel" case) kernel
      (Lu.kernel_dim lu);
    let near what i got want =
      if not (Lubt_util.Stats.approx_eq ~eps:1e-9 got want) then
        Alcotest.failf "case %d %s [%d]: %.15g vs %.15g" case what i got want
    in
    let b = Array.init d (fun i -> float_of_int (i + 1)) in
    Array.iteri (fun i v -> near "solve" i v (dense_solve m b).(i)) (lu_solve lu b);
    let mt = transpose m in
    for u = 0 to d - 1 do
      let e = Array.init d (fun i -> if i = u then 1.0 else 0.0) in
      let want = dense_solve m e and want_t = dense_solve mt e in
      Array.iteri (fun i v -> near "solve unit" i v want.(i)) (lu_solve lu e);
      Array.iteri (fun i v -> near "solve_transpose unit" i v want_t.(i))
        (lu_solve_transpose lu e)
    done
  in
  let fixed =
    [| [ (3, -1.0) ]; [ (0, 4.0); (3, 1.0) ]; [ (1, 5.0); (0, 0.5); (2, 0.3) ];
       [ (2, 6.0); (1, 0.2) ] |]
  in
  let m = Array.make_matrix 4 4 0.0 in
  Array.iteri (fun j col -> List.iter (fun (i, v) -> m.(i).(j) <- v) col) fixed;
  check 0 (Array.map Sparse.of_assoc fixed) m;
  let rng = Prng.create 5151 in
  for case = 1 to 40 do
    let d = 8 + Prng.int rng 9 in
    let k =
      match case mod 4 with 0 -> 0 | 1 -> d | _ -> 1 + Prng.int rng (d / 4)
    in
    let s = Prng.int rng (d - k + 1) in
    let cols, m = kernel_basis rng d k s in
    check case cols m
  done

(* [Lu.nnz] counts the whole representation. A kernel that needs no
   elimination (each structural column has one entry on the kernel rows,
   the rest on slack rows) leaves L and U empty: the diagonal and the
   off-kernel block then hold exactly the basis nonzeros. *)
let test_lu_nnz_off_kernel () =
  let rng = Prng.create 6161 in
  for case = 1 to 20 do
    let d = 4 + Prng.int rng 20 in
    let k = 1 + Prng.int rng (d / 2) in
    let cols =
      Array.init d (fun j ->
          if j >= k then Sparse.singleton j (-1.0)
          else
            Sparse.of_assoc
              ((j, 2.0 +. Prng.float rng 3.0)
              :: List.filter_map
                   (fun i ->
                     if Prng.int rng 2 = 0 then Some (i, Prng.float_range rng (-3.0) 3.0)
                     else None)
                   (List.init (d - k) (fun q -> k + q))))
    in
    let lu = Lu.factor cols in
    let nnz_b = Array.fold_left (fun acc c -> acc + Sparse.nnz c) 0 cols in
    let kernel =
      Array.fold_left (fun acc c -> if Sparse.nnz c >= 2 then acc + 1 else acc) 0 cols
    in
    Alcotest.(check int) (Printf.sprintf "case %d nnz" case) nnz_b (Lu.nnz lu);
    Alcotest.(check int) (Printf.sprintf "case %d kernel" case) kernel
      (Lu.kernel_dim lu)
  done

(* A column over [d] rows: one time in three the unit vector [-e_j] (the
   auxiliary columns of the [A | -I] form), else a dominant diagonal at
   [j] with up to three entries off it. Off-diagonal magnitudes sum to at
   most 6 < 10, so a basis of such columns is strictly column diagonally
   dominant and hence nonsingular. *)
let basis_column rng d j =
  if Prng.int rng 3 = 0 then [ (j, -1.0) ]
  else
    (j, 10.0 +. Prng.float rng 5.0)
    :: List.filter
         (fun (i, _) -> i <> j)
         (List.init (Prng.int rng 4) (fun _ ->
              (Prng.int rng d, Prng.float_range rng (-2.0) 2.0)))

(* Random sparse bases, then a mix of [update] etas (entering columns
   that are unit vectors or random sparse) and [append_row] borders;
   after every step each solve must match a dense solve of the matrix
   the trail represents. The right-hand sides include unit vectors and,
   once rows are appended, entries in the border tail. *)
let test_basis_against_dense () =
  let rng = Prng.create 7219 in
  for case = 1 to 40 do
    let n = 1 + Prng.int rng 25 in
    let m = ref (Array.make_matrix n n 0.0) in
    let cols =
      Array.init n (fun j ->
          let col = Sparse.of_assoc (basis_column rng n j) in
          Sparse.iter (fun i v -> !m.(i).(j) <- v) col;
          col)
    in
    let b = Basis.create cols in
    let check step what got want =
      Alcotest.(check int) (what ^ " length") (Array.length want)
        (Array.length got);
      Array.iteri
        (fun i v ->
          if not (Lubt_util.Stats.approx_eq ~eps:1e-9 v want.(i)) then
            Alcotest.failf "case %d step %d %s: [%d] = %.15g vs %.15g" case
              step what i v want.(i))
        got
    in
    let solve f rhs =
      let x = Hvec.create (Array.length rhs) in
      f b rhs x;
      dense_of x (Basis.dim b)
    in
    let ftran = solve (fun b rhs -> Basis.ftran b (hvec_of rhs))
    and btran = solve (fun b rhs -> Basis.btran b (hvec_of rhs)) in
    let check_solves step =
      let d = Basis.dim b in
      Alcotest.(check int) "dim" (Array.length !m) d;
      let rhs =
        Array.init d (fun _ ->
            if Prng.int rng 3 = 0 then Prng.float_range rng (-5.0) 5.0 else 0.0)
      in
      if d > n then rhs.(n + Prng.int rng (d - n)) <- 1.5;
      let u = Prng.int rng d in
      let e = Array.init d (fun k -> if k = u then 1.0 else 0.0) in
      let mt = transpose !m in
      check step "ftran" (ftran rhs) (dense_solve !m rhs);
      check step "ftran unit" (ftran e) (dense_solve !m e);
      check step "ftran_sparse"
        (solve (fun b _ -> Basis.ftran_sparse b (Sparse.of_dense rhs)) rhs)
        (dense_solve !m rhs);
      check step "ftran_sparse unit"
        (solve (fun b _ -> Basis.ftran_sparse b (Sparse.singleton u 1.0)) e)
        (dense_solve !m e);
      check step "btran" (btran rhs) (dense_solve mt rhs);
      check step "btran unit" (btran e) (dense_solve mt e);
      check step "btran_unit" (solve (fun b _ -> Basis.btran_unit b u) e)
        (dense_solve mt e)
    in
    check_solves 0;
    for step = 1 to 12 do
      let d = Basis.dim b in
      if Prng.int rng 3 = 0 then begin
        (* border: new row [bc] over the current positions, -1 diagonal *)
        let bc =
          Sparse.of_assoc
            (List.init (1 + Prng.int rng 3) (fun _ ->
                 (Prng.int rng d, Prng.float_range rng (-2.0) 2.0)))
        in
        Basis.append_row b bc;
        let grown = Array.make_matrix (d + 1) (d + 1) 0.0 in
        Array.iteri (fun i row -> Array.blit row 0 grown.(i) 0 d) !m;
        Sparse.iter (fun j v -> grown.(d).(j) <- v) bc;
        grown.(d).(d) <- -1.0;
        m := grown
      end
      else begin
        (* eta: column r of the basis is replaced by [a]; r is drawn
           among the well-conditioned pivots of w = B^-1 a *)
        let a = Array.make d 0.0 in
        List.iter
          (fun (i, v) -> a.(i) <- a.(i) +. v)
          (basis_column rng d (Prng.int rng d));
        let w = ftran a in
        check step "ftran entering" w (dense_solve !m a);
        let wmax = Array.fold_left (fun acc x -> max acc (abs_float x)) 0.0 w in
        let cands =
          List.filter (fun i -> abs_float w.(i) >= 0.1 *. wmax) (List.init d Fun.id)
        in
        let r = List.nth cands (Prng.int rng (List.length cands)) in
        Basis.update b r (hvec_of w);
        Array.iteri (fun i row -> row.(r) <- a.(i)) !m
      end;
      check_solves step
    done
  done

let () =
  Alcotest.run "lp-extra"
    [
      ( "sparse-lu",
        [
          Alcotest.test_case "solve roundtrip" `Quick test_lu_solve_roundtrip;
          Alcotest.test_case "transpose solve" `Quick test_lu_transpose_solve;
          Alcotest.test_case "detects singular" `Quick test_lu_detects_singular;
          Alcotest.test_case "permutation matrix" `Quick
            test_lu_permutation_matrix;
          Alcotest.test_case "slacks after structurals" `Quick
            test_lu_slack_late;
          Alcotest.test_case "fill confined to the kernel" `Quick
            test_lu_slack_first_fill;
          Alcotest.test_case "kernel shapes: singletons, k = 0, k = d" `Quick
            test_lu_kernel_shapes;
          Alcotest.test_case "nnz counts the off-kernel block" `Quick
            test_lu_nnz_off_kernel;
        ] );
      ( "basis",
        [
          Alcotest.test_case "solves vs dense reference" `Quick
            test_basis_against_dense;
        ] );
      ( "lp-format",
        [
          Alcotest.test_case "writer sections" `Quick test_lp_format_writer_shape;
          Alcotest.test_case "roundtrip 200 random LPs" `Slow
            test_lp_format_roundtrip;
          Alcotest.test_case "structural roundtrip" `Quick
            test_lp_format_structural_roundtrip;
          Alcotest.test_case "structural roundtrip, 100 random LPs" `Slow
            test_lp_format_random_structural_roundtrip;
          Alcotest.test_case "reader errors" `Quick test_lp_format_reader_errors;
          Alcotest.test_case "EBF program export" `Quick test_ebf_program_exports;
        ] );
      ( "ebf-cross-check",
        [
          Alcotest.test_case "engine vs oracle, 50 instances" `Slow
            test_ebf_engine_vs_oracle;
          Alcotest.test_case "dual feasible at every dual pivot" `Quick
            test_dual_probe_feasible;
        ] );
      ( "add-rows",
        [
          Alcotest.test_case "one batch = one row at a time, 30 instances"
            `Quick test_add_rows_batch_vs_single;
          Alcotest.test_case "invalid row refuses the whole batch" `Quick
            test_add_rows_invalid_batch;
        ] );
    ]
