(* Left-looking sparse LU with partial pivoting, slack-first column order.

   P A Q = L U with unit-diagonal L. Q takes the columns in increasing
   nonzero count (a stable sort), so the singleton columns of a simplex
   basis (its slacks) pivot first, each on its own row, and elimination
   fill is confined to the structural kernel. Column k of A Q is
   scattered into a dense accumulator x, the updates of all earlier
   pivots are applied (only where x is nonzero at their pivot rows), then
   the largest remaining entry is chosen as the pivot. L entries keep
   ORIGINAL row indices; [prow] records which original row became the
   k-th pivot and [perm] which caller column was processed k-th.

   Each factor is stored twice in flat compressed arrays: by column for
   [solve] and by row for [solve_transpose], so both solves scatter and
   skip zero entries. *)

(* Compressed sparse vectors: entries of vector k are
   [idx.(start.(k)) .. idx.(start.(k+1) - 1)] with values in [v]. *)
type csr = { start : int array; idx : int array; v : float array }

type t = {
  n : int;
  perm : int array;  (* pivot position k -> caller column *)
  prow : int array;  (* pivot position k -> original row *)
  u_diag : float array;
  l_col : csr;  (* L column k: original rows pivoted after k *)
  u_col : csr;  (* U column k: positions < k *)
  l_row : csr;  (* L row of pivot position p: positions < p *)
  u_row : csr;  (* U row k: positions > k *)
  ws : float array;  (* solve workspace, length n *)
}

exception Singular of int

(* Growable (index, value) buffer, frozen into a [csr] once all [n]
   vectors have been pushed in order. *)
type buf = {
  mutable bi : int array;
  mutable bv : float array;
  mutable len : int;
  bstart : int array;
}

let buf_create n =
  {
    bi = Array.make 64 0;
    bv = Array.make 64 0.0;
    len = 0;
    bstart = Array.make (n + 1) 0;
  }

let buf_push b i x =
  if b.len = Array.length b.bi then begin
    let cap = 2 * b.len in
    let bi = Array.make cap 0 and bv = Array.make cap 0.0 in
    Array.blit b.bi 0 bi 0 b.len;
    Array.blit b.bv 0 bv 0 b.len;
    b.bi <- bi;
    b.bv <- bv
  end;
  b.bi.(b.len) <- i;
  b.bv.(b.len) <- x;
  b.len <- b.len + 1

(* Closes vector [k]: its entries are those pushed since vector [k-1]. *)
let buf_close b k = b.bstart.(k + 1) <- b.len

let buf_freeze b =
  { start = b.bstart; idx = Array.sub b.bi 0 b.len; v = Array.sub b.bv 0 b.len }

(* The same entries regrouped by [key idx]: vector k of the result holds
   (j, x) for every entry x at [idx] of vector j with [key idx = k]. *)
let transpose n key s =
  let start = Array.make (n + 1) 0 in
  Array.iter
    (fun i ->
      let k = key i in
      start.(k + 1) <- start.(k + 1) + 1)
    s.idx;
  for k = 0 to n - 1 do
    start.(k + 1) <- start.(k + 1) + start.(k)
  done;
  let fill = Array.sub start 0 n in
  let idx = Array.make (Array.length s.idx) 0 in
  let v = Array.make (Array.length s.v) 0.0 in
  for j = 0 to n - 1 do
    for e = s.start.(j) to s.start.(j + 1) - 1 do
      let k = key s.idx.(e) in
      idx.(fill.(k)) <- j;
      v.(fill.(k)) <- s.v.(e);
      fill.(k) <- fill.(k) + 1
    done
  done;
  { start; idx; v }

let factor ?(pivot_tol = 1e-11) cols =
  let n = Array.length cols in
  let perm = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> compare (Sparse.nnz cols.(a)) (Sparse.nnz cols.(b)))
    perm;
  let lb = buf_create n and ub = buf_create n in
  let u_diag = Array.make n 0.0 in
  let prow = Array.make n (-1) in
  let pos = Array.make n (-1) in
  let x = Array.make n 0.0 in
  let touched = Array.make n 0 in
  let marked = Array.make n false in
  (* the pivot positions whose L column is nonempty, increasing: only
     they change the accumulator, so only they are probed *)
  let elim = Array.make n 0 and nelim = ref 0 in
  for j = 0 to n - 1 do
    (* scatter column j; elimination can first touch it at the earliest
       pivot among its rows, so a column on unpivoted rows skips the
       probe loop entirely *)
    let ntouch = ref 0 in
    let first = ref j in
    Sparse.iter
      (fun i v ->
        if i >= n then invalid_arg "Lu.factor: row index out of range";
        x.(i) <- v;
        marked.(i) <- true;
        touched.(!ntouch) <- i;
        incr ntouch;
        if pos.(i) >= 0 && pos.(i) < !first then first := pos.(i))
      cols.(perm.(j));
    (* eliminate with the earlier pivots from [first] on, in pivot order *)
    let lo = ref 0 and hi = ref !nelim in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if elim.(mid) < !first then lo := mid + 1 else hi := mid
    done;
    for t = !lo to !nelim - 1 do
      let k = elim.(t) in
      let xk = x.(prow.(k)) in
      if xk <> 0.0 then begin
        buf_push ub k xk;
        for e = lb.bstart.(k) to lb.bstart.(k + 1) - 1 do
          let i = lb.bi.(e) in
          if not marked.(i) then begin
            marked.(i) <- true;
            touched.(!ntouch) <- i;
            incr ntouch
          end;
          x.(i) <- x.(i) -. (lb.bv.(e) *. xk)
        done
      end
    done;
    (* the pivots with an empty L column only take their U entries *)
    for t = 0 to !ntouch - 1 do
      let i = touched.(t) in
      let k = pos.(i) in
      if k >= 0 && lb.bstart.(k + 1) = lb.bstart.(k) && x.(i) <> 0.0 then
        buf_push ub k x.(i)
    done;
    buf_close ub j;
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
    if !piv < 0 || !best < pivot_tol then raise (Singular perm.(j));
    let r = !piv in
    prow.(j) <- r;
    pos.(r) <- j;
    u_diag.(j) <- x.(r);
    (* L column: remaining un-pivoted nonzeros, scaled *)
    let d = 1.0 /. x.(r) in
    for t = 0 to !ntouch - 1 do
      let i = touched.(t) in
      if pos.(i) < 0 && x.(i) <> 0.0 then buf_push lb i (x.(i) *. d);
      x.(i) <- 0.0;
      marked.(i) <- false
    done;
    buf_close lb j;
    if lb.bstart.(j + 1) > lb.bstart.(j) then begin
      elim.(!nelim) <- j;
      incr nelim
    end
  done;
  let l_col = buf_freeze lb and u_col = buf_freeze ub in
  {
    n;
    perm;
    prow;
    u_diag;
    l_col;
    u_col;
    l_row = transpose n (fun i -> pos.(i)) l_col;
    u_row = transpose n Fun.id u_col;
    ws = Array.make n 0.0;
  }

let dim t = t.n

let nnz t = t.n + Array.length t.l_col.idx + Array.length t.u_col.idx

(* A x = b:  L y = P b (forward, over original rows), then U z = y, then
   x.(perm k) = z_k. Only the result is allocated: the solves are on the
   simplex's per-pivot path, and arrays this long are allocated on the
   major heap. *)
let solve t b =
  let n = t.n in
  let w = t.ws in
  Array.blit b 0 w 0 n;
  (* forward: after step k, w.(prow k) holds y_k *)
  let l = t.l_col in
  for k = 0 to n - 1 do
    let yk = w.(t.prow.(k)) in
    if yk <> 0.0 then
      for e = l.start.(k) to l.start.(k + 1) - 1 do
        w.(l.idx.(e)) <- w.(l.idx.(e)) -. (l.v.(e) *. yk)
      done
  done;
  (* gather y by pivot position *)
  let z = Array.init n (fun k -> w.(t.prow.(k))) in
  (* backward: U z = y, U stored by column *)
  let u = t.u_col in
  for j = n - 1 downto 0 do
    let zj = z.(j) /. t.u_diag.(j) in
    z.(j) <- zj;
    if zj <> 0.0 then
      for e = u.start.(j) to u.start.(j + 1) - 1 do
        z.(u.idx.(e)) <- z.(u.idx.(e)) -. (u.v.(e) *. zj)
      done
  done;
  Array.blit z 0 w 0 n;
  Array.iteri (fun k c -> z.(c) <- w.(k)) t.perm;
  z

(* A^T x = c:  U^T w = Q^T c (forward over positions), then L^T v = w,
   then x.(prow k) = v_k. Both passes scatter a finished component
   through its row of U or L, so zero components cost nothing. *)
let solve_transpose t c =
  let n = t.n in
  let w = t.ws in
  Array.iteri (fun k col -> w.(k) <- c.(col)) t.perm;
  let u = t.u_row in
  for k = 0 to n - 1 do
    let wk = w.(k) /. t.u_diag.(k) in
    w.(k) <- wk;
    if wk <> 0.0 then
      for e = u.start.(k) to u.start.(k + 1) - 1 do
        w.(u.idx.(e)) <- w.(u.idx.(e)) -. (u.v.(e) *. wk)
      done
  done;
  (* L^T v = w backward: v_p is final once every later position has been
     scattered through its L row *)
  let l = t.l_row in
  let x = Array.make n 0.0 in
  for p = n - 1 downto 0 do
    let vp = w.(p) in
    x.(t.prow.(p)) <- vp;
    if vp <> 0.0 then
      for e = l.start.(p) to l.start.(p + 1) - 1 do
        w.(l.idx.(e)) <- w.(l.idx.(e)) -. (l.v.(e) *. vp)
      done
  done;
  x
