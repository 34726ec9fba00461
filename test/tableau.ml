(* Conversion of a bounded-variable model to standard form
   (min c x, A x = b, x >= 0), then two-phase dense tableau simplex. *)

module Problem = Lubt_lp.Problem
module Sparse = Lubt_lp.Sparse
module Status = Lubt_lp.Status

type std = {
  ncols : int;  (* structural standard-form columns *)
  rows : (float * (int * float) list) list;  (* rhs, coefficients; sense = *)
  obj : float array;
  obj_shift : float;
  (* recover.(j) describes original variable j in terms of standard cols *)
  recover : (float * (int * float) list) array;  (* shift + linear combo *)
}

(* Each original variable is rewritten as an affine combination of fresh
   nonnegative columns; each row becomes one or two inequality rows which are
   then equalised with slack columns (handled in the tableau itself). *)
let standardise prob =
  let next = ref 0 in
  let fresh () =
    let j = !next in
    incr next;
    j
  in
  let extra_rows = ref [] in
  let n = Problem.nvars prob in
  let recover = Array.make n (0.0, []) in
  for j = 0 to n - 1 do
    let lo = Problem.var_lo prob j and up = Problem.var_up prob j in
    if lo > neg_infinity then begin
      (* x = lo + x', x' >= 0, optionally x' <= up - lo *)
      let c = fresh () in
      recover.(j) <- (lo, [ (c, 1.0) ]);
      if up < infinity then extra_rows := (`Le, up -. lo, [ (c, 1.0) ]) :: !extra_rows
    end
    else if up < infinity then begin
      (* x = up - x'', x'' >= 0 *)
      let c = fresh () in
      recover.(j) <- (up, [ (c, -1.0) ])
    end
    else begin
      (* free: x = x+ - x- *)
      let cp = fresh () and cm = fresh () in
      recover.(j) <- (0.0, [ (cp, 1.0); (cm, -1.0) ])
    end
  done;
  (* substitute into rows *)
  let subst coeffs =
    let shift = ref 0.0 in
    let out = ref [] in
    Sparse.iter
      (fun j v ->
        let s, combo = recover.(j) in
        shift := !shift +. (v *. s);
        List.iter (fun (c, k) -> out := (c, v *. k) :: !out) combo)
      coeffs;
    (!shift, !out)
  in
  let rows = ref [] in
  for i = 0 to Problem.nrows prob - 1 do
    let r = Problem.row prob i in
    let shift, combo = subst r.Problem.coeffs in
    if r.rlo = r.rup then rows := (`Eq, r.rlo -. shift, combo) :: !rows
    else begin
      if r.rlo > neg_infinity then rows := (`Ge, r.rlo -. shift, combo) :: !rows;
      if r.rup < infinity then rows := (`Le, r.rup -. shift, combo) :: !rows
    end
  done;
  let all_ineq = !extra_rows @ !rows in
  (* objective *)
  let obj_shift = ref 0.0 in
  let obj = Array.make !next 0.0 in
  for j = 0 to n - 1 do
    let c = Problem.obj_coeff prob j in
    if c <> 0.0 then begin
      let s, combo = recover.(j) in
      obj_shift := !obj_shift +. (c *. s);
      List.iter (fun (col, k) -> obj.(col) <- obj.(col) +. (c *. k)) combo
    end
  done;
  (* equalise: <=  adds slack +1, >= adds surplus -1 *)
  let base = !next in
  let slack_count =
    List.fold_left
      (fun acc (sense, _, _) -> match sense with `Eq -> acc | `Le | `Ge -> acc + 1)
      0 all_ineq
  in
  let rows_eq = ref [] in
  let snext = ref base in
  List.iter
    (fun (sense, rhs, combo) ->
      match sense with
      | `Eq -> rows_eq := (rhs, combo) :: !rows_eq
      | `Le ->
        let s = !snext in
        incr snext;
        rows_eq := (rhs, (s, 1.0) :: combo) :: !rows_eq
      | `Ge ->
        let s = !snext in
        incr snext;
        rows_eq := (rhs, (s, -1.0) :: combo) :: !rows_eq)
    all_ineq;
  let total = base + slack_count in
  let obj_full = Array.make total 0.0 in
  Array.blit obj 0 obj_full 0 base;
  {
    ncols = total;
    rows = !rows_eq;
    obj = obj_full;
    obj_shift = !obj_shift;
    recover;
  }

(* Dense two-phase tableau on (min c x, Ax = b, x >= 0). *)
let simplex_std std max_iters =
  let rows = Array.of_list std.rows in
  let m = Array.length rows in
  let n = std.ncols in
  (* ensure b >= 0 by row negation, then add one artificial per row *)
  let width = n + m + 1 in
  (* columns: 0..n-1 structural, n..n+m-1 artificial, last = rhs *)
  let tab = Array.init m (fun _ -> Array.make width 0.0) in
  Array.iteri
    (fun i (rhs, combo) ->
      let sign = if rhs < 0.0 then -1.0 else 1.0 in
      List.iter
        (fun (j, v) -> tab.(i).(j) <- tab.(i).(j) +. (sign *. v))
        combo;
      tab.(i).(n + i) <- 1.0;
      tab.(i).(width - 1) <- sign *. rhs)
    rows;
  let basis = Array.init m (fun i -> n + i) in
  let iters = ref 0 in
  let pivot r c =
    let pr = tab.(r) in
    let d = 1.0 /. pr.(c) in
    for j = 0 to width - 1 do
      pr.(j) <- pr.(j) *. d
    done;
    for i = 0 to m - 1 do
      if i <> r then begin
        let f = tab.(i).(c) in
        if f <> 0.0 then begin
          let ti = tab.(i) in
          for j = 0 to width - 1 do
            ti.(j) <- ti.(j) -. (f *. pr.(j))
          done
        end
      end
    done;
    basis.(r) <- c
  in
  (* runs the simplex on the current tableau for a given cost vector
     (length width-1); returns status *)
  let run cost allowed =
    (* reduced cost row: z_j = cost_j - sum_i cost_basis_i * tab_i_j *)
    let rec step () =
      incr iters;
      if !iters > max_iters then Status.Iteration_limit
      else begin
        let red = Array.make (width - 1) 0.0 in
        for j = 0 to width - 2 do
          red.(j) <- cost.(j)
        done;
        for i = 0 to m - 1 do
          let cb = cost.(basis.(i)) in
          if cb <> 0.0 then
            for j = 0 to width - 2 do
              red.(j) <- red.(j) -. (cb *. tab.(i).(j))
            done
        done;
        (* Bland's rule: smallest eligible index — slow but cycle-free *)
        let entering = ref (-1) in
        (try
           for j = 0 to width - 2 do
             if allowed j && red.(j) < -1e-9 then begin
               entering := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !entering < 0 then Status.Optimal
        else begin
          let c = !entering in
          let best_r = ref (-1) and best = ref infinity in
          for i = 0 to m - 1 do
            if tab.(i).(c) > 1e-9 then begin
              let ratio = tab.(i).(width - 1) /. tab.(i).(c) in
              if
                ratio < !best -. 1e-12
                || (ratio < !best +. 1e-12
                   && (!best_r < 0 || basis.(i) < basis.(!best_r)))
              then begin
                best := ratio;
                best_r := i
              end
            end
          done;
          if !best_r < 0 then Status.Unbounded
          else begin
            pivot !best_r c;
            step ()
          end
        end
      end
    in
    step ()
  in
  (* phase 1 *)
  let cost1 = Array.make (width - 1) 0.0 in
  for j = n to n + m - 1 do
    cost1.(j) <- 1.0
  done;
  let st1 = run cost1 (fun _ -> true) in
  let phase1_obj =
    let acc = ref 0.0 in
    for i = 0 to m - 1 do
      if basis.(i) >= n then acc := !acc +. tab.(i).(width - 1)
    done;
    !acc
  in
  match st1 with
  | Status.Iteration_limit -> (Status.Iteration_limit, [||], basis, tab, width)
  | _ when phase1_obj > 1e-6 -> (Status.Infeasible, [||], basis, tab, width)
  | _ ->
    (* drive remaining artificials out of the basis where possible *)
    for i = 0 to m - 1 do
      if basis.(i) >= n then begin
        let found = ref (-1) in
        for j = 0 to n - 1 do
          if !found < 0 && abs_float tab.(i).(j) > 1e-9 then found := j
        done;
        if !found >= 0 then pivot i !found
      end
    done;
    let cost2 = Array.make (width - 1) 0.0 in
    Array.blit std.obj 0 cost2 0 n;
    let st2 = run cost2 (fun j -> j < n || Array.exists (fun b -> b = j) basis) in
    let x = Array.make n 0.0 in
    for i = 0 to m - 1 do
      if basis.(i) < n then x.(basis.(i)) <- tab.(i).(width - 1)
    done;
    (st2, x, basis, tab, width)

let solve ?(max_iters = 100_000) prob =
  let std = standardise prob in
  if List.length std.rows = 0 then begin
    (* no rows: every variable sits at its cheapest bound *)
    let n = Problem.nvars prob in
    let primal = Array.make n 0.0 in
    let unbounded = ref false in
    for j = 0 to n - 1 do
      let c = Problem.obj_coeff prob j in
      let lo = Problem.var_lo prob j and up = Problem.var_up prob j in
      if c > 0.0 then
        if lo > neg_infinity then primal.(j) <- lo else unbounded := true
      else if c < 0.0 then
        if up < infinity then primal.(j) <- up else unbounded := true
      else primal.(j) <- (if lo > neg_infinity then lo else if up < infinity then up else 0.0)
    done;
    let status = if !unbounded then Status.Unbounded else Status.Optimal in
    {
      Status.status;
      objective = Problem.objective_value prob primal;
      primal;
      row_activity = [||];
      dual = [||];
      iterations = 0;
    }
  end
  else begin
    let status, xstd, _, _, _ = simplex_std std max_iters in
    let n = Problem.nvars prob in
    let primal = Array.make n 0.0 in
    (if status = Status.Optimal then
       for j = 0 to n - 1 do
         let shift, combo = std.recover.(j) in
         primal.(j) <-
           List.fold_left (fun acc (c, k) -> acc +. (k *. xstd.(c))) shift combo
       done);
    let row_activity =
      Array.init (Problem.nrows prob) (fun i -> Problem.row_activity prob i primal)
    in
    {
      Status.status;
      objective = Problem.objective_value prob primal;
      primal;
      row_activity;
      dual = Array.make (Problem.nrows prob) 0.0;
      iterations = 0;
    }
  end
