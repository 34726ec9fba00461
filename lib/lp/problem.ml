type row = { rlo : float; rup : float; coeffs : Sparse.t }

type col = { lo : float; up : float; mutable obj : float; vname : string }

type t = {
  mutable cols : col array;
  mutable ncols : int;
  mutable rows : row array;
  mutable row_names : string array;
  mutable nrows : int;
}

let create () =
  { cols = [||]; ncols = 0; rows = [||]; row_names = [||]; nrows = 0 }

let grow_cols t =
  if t.ncols = Array.length t.cols then begin
    let ncap = max 16 (2 * t.ncols) in
    let fresh = { lo = 0.0; up = 0.0; obj = 0.0; vname = "" } in
    let arr = Array.make ncap fresh in
    Array.blit t.cols 0 arr 0 t.ncols;
    t.cols <- arr
  end

let grow_rows t =
  if t.nrows = Array.length t.rows then begin
    let ncap = max 16 (2 * t.nrows) in
    let fresh = { rlo = 0.0; rup = 0.0; coeffs = Sparse.empty } in
    let arr = Array.make ncap fresh in
    Array.blit t.rows 0 arr 0 t.nrows;
    t.rows <- arr;
    let names = Array.make ncap "" in
    Array.blit t.row_names 0 names 0 t.nrows;
    t.row_names <- names
  end

let add_var ?(lo = 0.0) ?(up = infinity) ?(obj = 0.0) ?(name = "") t =
  if not (lo <= up) then invalid_arg "Problem.add_var: lo > up";
  grow_cols t;
  let j = t.ncols in
  t.cols.(j) <- { lo; up; obj; vname = name };
  t.ncols <- j + 1;
  j

let add_row ?(name = "") t ~lo ~up coeffs =
  if not (lo <= up) then invalid_arg "Problem.add_row: lo > up";
  let sp = Sparse.of_assoc coeffs in
  if Sparse.max_index sp >= t.ncols then
    invalid_arg "Problem.add_row: coefficient refers to an unknown variable";
  grow_rows t;
  let i = t.nrows in
  t.rows.(i) <- { rlo = lo; rup = up; coeffs = sp };
  t.row_names.(i) <- name;
  t.nrows <- i + 1;
  i

let set_obj t j c =
  assert (j >= 0 && j < t.ncols);
  t.cols.(j).obj <- c

let nvars t = t.ncols

let nrows t = t.nrows

let var_lo t j = t.cols.(j).lo

let var_up t j = t.cols.(j).up

let obj_coeff t j = t.cols.(j).obj

let row t i =
  assert (i >= 0 && i < t.nrows);
  t.rows.(i)

let var_name t j =
  let n = t.cols.(j).vname in
  if n = "" then Printf.sprintf "x%d" j else n

let row_name t i =
  let n = t.row_names.(i) in
  if n = "" then Printf.sprintf "r%d" i else n

let objective_value t x =
  let acc = ref 0.0 in
  for j = 0 to t.ncols - 1 do
    acc := !acc +. (t.cols.(j).obj *. x.(j))
  done;
  !acc

let row_activity t i x = Sparse.dot_dense (row t i).coeffs x

let is_feasible ?(tol = 1e-6) t x =
  let ok = ref true in
  for j = 0 to t.ncols - 1 do
    if x.(j) < t.cols.(j).lo -. tol || x.(j) > t.cols.(j).up +. tol then
      ok := false
  done;
  for i = 0 to t.nrows - 1 do
    let a = row_activity t i x in
    let r = t.rows.(i) in
    if a < r.rlo -. tol || a > r.rup +. tol then ok := false
  done;
  !ok
