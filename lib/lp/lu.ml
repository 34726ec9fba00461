(* Left-looking sparse LU with partial pivoting.

   P A = L U with unit-diagonal L. Columns are processed left to right
   with a dense accumulator: column j of A is scattered into x, the
   updates of all previous columns are applied (only where x is nonzero at
   their pivot rows), then the largest remaining entry is chosen as the
   pivot. L entries keep ORIGINAL row indices; [prow] records which
   original row became the k-th pivot. *)

type t = {
  n : int;
  (* L: strictly-below-pivot entries per column, original row indices *)
  l_rows : int array array;
  l_vals : float array array;
  (* U: entries above the diagonal per column (pivot-position indices),
     plus the diagonal *)
  u_rows : int array array;
  u_vals : float array array;
  u_diag : float array;
  prow : int array;  (* pivot position k -> original row *)
}

exception Singular of int

let factor ?(pivot_tol = 1e-11) cols =
  let n = Array.length cols in
  let l_rows = Array.make n [||] and l_vals = Array.make n [||] in
  let u_rows = Array.make n [||] and u_vals = Array.make n [||] in
  let u_diag = Array.make n 0.0 in
  let prow = Array.make n (-1) in
  let pos = Array.make n (-1) in
  let x = Array.make n 0.0 in
  let touched = Array.make n 0 in
  let marked = Array.make n false in
  for j = 0 to n - 1 do
    (* scatter column j *)
    let ntouch = ref 0 in
    Sparse.iter
      (fun i v ->
        if i >= n then invalid_arg "Lu.factor: row index out of range";
        x.(i) <- v;
        marked.(i) <- true;
        touched.(!ntouch) <- i;
        incr ntouch)
      cols.(j);
    (* eliminate with previous columns, in pivot order *)
    let u_r = ref [] and u_v = ref [] in
    for k = 0 to j - 1 do
      let xk = x.(prow.(k)) in
      if xk <> 0.0 then begin
        u_r := k :: !u_r;
        u_v := xk :: !u_v;
        let rows = l_rows.(k) and vals = l_vals.(k) in
        for t = 0 to Array.length rows - 1 do
          let i = rows.(t) in
          if not marked.(i) then begin
            marked.(i) <- true;
            touched.(!ntouch) <- i;
            incr ntouch
          end;
          x.(i) <- x.(i) -. (vals.(t) *. xk)
        done
      end
    done;
    (* partial pivot among rows without a position yet *)
    let piv = ref (-1) in
    let best = ref 0.0 in
    for t = 0 to !ntouch - 1 do
      let i = touched.(t) in
      if pos.(i) < 0 && abs_float x.(i) > !best then begin
        best := abs_float x.(i);
        piv := i
      end
    done;
    if !piv < 0 || !best < pivot_tol then raise (Singular j);
    let r = !piv in
    prow.(j) <- r;
    pos.(r) <- j;
    u_diag.(j) <- x.(r);
    (* L column: remaining un-pivoted nonzeros, scaled *)
    let l_r = ref [] and l_v = ref [] in
    let d = 1.0 /. x.(r) in
    for t = 0 to !ntouch - 1 do
      let i = touched.(t) in
      if pos.(i) < 0 && x.(i) <> 0.0 then begin
        l_r := i :: !l_r;
        l_v := (x.(i) *. d) :: !l_v
      end;
      x.(i) <- 0.0;
      marked.(i) <- false
    done;
    l_rows.(j) <- Array.of_list !l_r;
    l_vals.(j) <- Array.of_list !l_v;
    u_rows.(j) <- Array.of_list !u_r;
    u_vals.(j) <- Array.of_list !u_v
  done;
  { n; l_rows; l_vals; u_rows; u_vals; u_diag; prow }

let dim t = t.n

let nnz t =
  let acc = ref t.n in
  for j = 0 to t.n - 1 do
    acc := !acc + Array.length t.l_rows.(j) + Array.length t.u_rows.(j)
  done;
  !acc

(* A x = b:  L y = P b (forward, over original rows), then U x = y. *)
let solve t b =
  let n = t.n in
  let w = Array.copy b in
  (* forward: after step k, w.(prow k) holds y_k *)
  for k = 0 to n - 1 do
    let yk = w.(t.prow.(k)) in
    if yk <> 0.0 then begin
      let rows = t.l_rows.(k) and vals = t.l_vals.(k) in
      for i = 0 to Array.length rows - 1 do
        w.(rows.(i)) <- w.(rows.(i)) -. (vals.(i) *. yk)
      done
    end
  done;
  (* gather y by pivot position *)
  let x = Array.make n 0.0 in
  for k = 0 to n - 1 do
    x.(k) <- w.(t.prow.(k))
  done;
  (* backward: U x = y, U stored by column *)
  for j = n - 1 downto 0 do
    let xj = x.(j) /. t.u_diag.(j) in
    x.(j) <- xj;
    if xj <> 0.0 then begin
      let rows = t.u_rows.(j) and vals = t.u_vals.(j) in
      for i = 0 to Array.length rows - 1 do
        x.(rows.(i)) <- x.(rows.(i)) -. (vals.(i) *. xj)
      done
    end
  done;
  x

(* A^T x = c:  U^T w = c (forward over positions), then L^T v = w, then
   scatter x.(prow k) = v_k. *)
let solve_transpose t c =
  let n = t.n in
  let w = Array.copy c in
  (* U^T is lower triangular in position space: w_j = (c_j - sum_{k<j}
     U[k,j] w_k) / U[j,j]; iterate columns left to right *)
  for j = 0 to n - 1 do
    let rows = t.u_rows.(j) and vals = t.u_vals.(j) in
    let acc = ref w.(j) in
    for i = 0 to Array.length rows - 1 do
      acc := !acc -. (vals.(i) *. w.(rows.(i)))
    done;
    w.(j) <- !acc /. t.u_diag.(j)
  done;
  (* L^T v = w: v_k = w_k - sum over L column k entries (original row i):
     L[i,k] * v_(pos i); backward since pos i > k always *)
  let x = Array.make n 0.0 in
  for k = n - 1 downto 0 do
    let rows = t.l_rows.(k) and vals = t.l_vals.(k) in
    let acc = ref w.(k) in
    for i = 0 to Array.length rows - 1 do
      acc := !acc -. (vals.(i) *. x.(rows.(i)))
    done;
    (* scatter immediately into original-row indexing *)
    x.(t.prow.(k)) <- !acc
  done;
  x
