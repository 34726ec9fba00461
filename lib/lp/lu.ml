(* Left-looking sparse LU with partial pivoting, slack-first column order,
   factoring only the structural kernel.

   P A Q = L U with unit-diagonal L. Q takes the columns in increasing
   nonzero count (a stable sort), so the singleton columns of a simplex
   basis (its slacks, and any structural singletons) come first. Each
   pivots on its own row: those leading positions have empty L and U
   columns, and their U rows hold only the entries of the later columns
   on their rows, the off-kernel block A_{R,S} (R the singleton rows, S
   the other columns), which elimination never changes. So only the
   kernel K = A_{T,S} on the remaining rows T is eliminated: each column
   of S is scattered into a dense accumulator x over rows, its R entries
   set aside, the updates of the earlier kernel pivots applied (only
   where x is nonzero at their pivot rows), then the largest remaining
   entry is chosen as the pivot. [prow] records which original row became
   the k-th pivot and [perm] which caller column was processed k-th.

   The kernel factors are stored in flat compressed arrays by kernel
   position, by column for [solve] and by row for [solve_transpose], and
   so is A_{R,S}. The solves sweep the kernel positions only; the
   singleton positions are reached through A_{R,S} by scatter. *)

(* Compressed sparse vectors: entries of vector k are
   [idx.(start.(k)) .. idx.(start.(k+1) - 1)] with values in [v]. *)
type csr = { start : int array; idx : int array; v : float array }

type t = {
  n : int;
  ns : int;  (* positions 0 .. ns-1 are the leading singletons *)
  perm : int array;  (* pivot position k -> caller column *)
  cpos : int array;  (* caller column -> pivot position *)
  prow : int array;  (* pivot position k -> original row *)
  rpos : int array;  (* original row -> pivot position *)
  u_diag : float array;  (* by pivot position *)
  (* the kernel factors, over kernel positions k - ns *)
  l_col : csr;  (* L column: later kernel positions *)
  u_col : csr;  (* U column: earlier kernel positions *)
  l_row : csr;  (* L row: earlier kernel positions *)
  u_row : csr;  (* U row: later kernel positions *)
  (* A_{R,S}: by kernel column over the caller columns of the singleton
     positions, and by singleton position over kernel columns *)
  r_col : csr;
  r_row : csr;
  kw : float array;  (* kernel workspace, all-zero between solves *)
  sing : int array;  (* solve_transpose workspace: singleton positions *)
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

(* The same entries regrouped by index: vector k of the result (one of
   [n]) holds (j, x) for every entry x at index k of vector j. *)
let transpose n s =
  let start = Array.make (n + 1) 0 in
  Array.iter (fun k -> start.(k + 1) <- start.(k + 1) + 1) s.idx;
  for k = 0 to n - 1 do
    start.(k + 1) <- start.(k + 1) + start.(k)
  done;
  let fill = Array.sub start 0 n in
  let idx = Array.make (Array.length s.idx) 0 in
  let v = Array.make (Array.length s.v) 0.0 in
  for j = 0 to Array.length s.start - 2 do
    for e = s.start.(j) to s.start.(j + 1) - 1 do
      let k = s.idx.(e) in
      idx.(fill.(k)) <- j;
      v.(fill.(k)) <- s.v.(e);
      fill.(k) <- fill.(k) + 1
    done
  done;
  { start; idx; v }

let factor ?(pivot_tol = 1e-11) cols =
  let n = Array.length cols in
  (* the columns in increasing nonzero count, stably: a counting sort *)
  let perm = Array.make n 0 in
  let first = Array.make (n + 2) 0 in
  Array.iter
    (fun c ->
      let k = min (Sparse.nnz c) n in
      first.(k + 1) <- first.(k + 1) + 1)
    cols;
  for k = 0 to n do
    first.(k + 1) <- first.(k + 1) + first.(k)
  done;
  Array.iteri
    (fun j c ->
      let k = min (Sparse.nnz c) n in
      perm.(first.(k)) <- j;
      first.(k) <- first.(k) + 1)
    cols;
  let u_diag = Array.make n 0.0 in
  let prow = Array.make n (-1) in
  let pos = Array.make n (-1) in
  let check_row i =
    if i >= n then invalid_arg "Lu.factor: row index out of range"
  in
  (* the leading singletons pivot on their own rows, unless a row is
     taken twice or the entry is below the pivot tolerance *)
  let ns = ref 0 in
  while !ns < n && Sparse.nnz cols.(perm.(!ns)) <= 1 do
    let j = !ns in
    Sparse.iter
      (fun i v ->
        check_row i;
        if pos.(i) >= 0 || not (abs_float v >= pivot_tol) then
          raise (Singular perm.(j));
        prow.(j) <- i;
        pos.(i) <- j;
        u_diag.(j) <- v)
      cols.(perm.(j));
    if prow.(j) < 0 then raise (Singular perm.(j));
    incr ns
  done;
  let ns = !ns in
  let nk = n - ns in
  let lb = buf_create nk and ub = buf_create nk in
  let x = Array.make n 0.0 in
  let touched = Array.make n 0 in
  let marked = Array.make n false in
  (* the earlier kernel pivots that can change column j: those with a
     nonempty L column reachable from its rows through the L columns
     (Gilbert & Peierls 1988); [seen] holds the column that last reached
     a pivot *)
  let reach = Array.make nk 0 and stack = Array.make nk 0 in
  let seen = Array.make nk (-1) in
  let has_l k = lb.bstart.(k + 1) > lb.bstart.(k) in
  for j = 0 to nk - 1 do
    (* scatter column j, leaving out its R entries (A_{R,S}) *)
    let ntouch = ref 0 in
    Sparse.iter
      (fun i v ->
        check_row i;
        let p = pos.(i) in
        if p < 0 || p >= ns then begin
          x.(i) <- v;
          marked.(i) <- true;
          touched.(!ntouch) <- i;
          incr ntouch
        end)
      cols.(perm.(ns + j));
    let nreach = ref 0 and top = ref 0 in
    let visit k =
      if seen.(k) <> j && has_l k then begin
        seen.(k) <- j;
        stack.(!top) <- k;
        incr top
      end
    in
    for t = 0 to !ntouch - 1 do
      let p = pos.(touched.(t)) in
      if p >= 0 then visit (p - ns)
    done;
    while !top > 0 do
      decr top;
      let k = stack.(!top) in
      reach.(!nreach) <- k;
      incr nreach;
      for e = lb.bstart.(k) to lb.bstart.(k + 1) - 1 do
        let p = pos.(lb.bi.(e)) in
        if p >= 0 then visit (p - ns)
      done
    done;
    (* eliminate with them in pivot order; a pivot whose entry has
       cancelled to zero is skipped *)
    Hvec.sort_prefix reach !nreach;
    for t = 0 to !nreach - 1 do
      let k = reach.(t) in
      let xk = x.(prow.(ns + k)) in
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
      let k = pos.(i) - ns in
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
    if !piv < 0 || !best < pivot_tol then raise (Singular perm.(ns + j));
    let r = !piv in
    prow.(ns + j) <- r;
    pos.(r) <- ns + j;
    u_diag.(ns + j) <- x.(r);
    (* L column: remaining un-pivoted nonzeros, scaled *)
    let d = 1.0 /. x.(r) in
    for t = 0 to !ntouch - 1 do
      let i = touched.(t) in
      if pos.(i) < 0 && x.(i) <> 0.0 then buf_push lb i (x.(i) *. d);
      x.(i) <- 0.0;
      marked.(i) <- false
    done;
    buf_close lb j
  done;
  (* L entries were pushed by row; every row now has its position *)
  let l_col = buf_freeze lb in
  Array.iteri (fun e i -> l_col.idx.(e) <- pos.(i) - ns) l_col.idx;
  let u_col = buf_freeze ub in
  (* A_{R,S}, read off the kernel columns once every row has its
     position: count by row, then fill by column and by row at once *)
  let r_count = Array.make (ns + 1) 0 in
  for j = 0 to nk - 1 do
    Sparse.iter
      (fun i _ ->
        let p = pos.(i) in
        if p < ns then r_count.(p + 1) <- r_count.(p + 1) + 1)
      cols.(perm.(ns + j))
  done;
  for p = 0 to ns - 1 do
    r_count.(p + 1) <- r_count.(p + 1) + r_count.(p)
  done;
  let nr = r_count.(ns) in
  let r_row = { start = r_count; idx = Array.make nr 0; v = Array.make nr 0.0 } in
  let r_col =
    { start = Array.make (nk + 1) 0; idx = Array.make nr 0; v = Array.make nr 0.0 }
  in
  let fill = Array.sub r_row.start 0 ns and e = ref 0 in
  for j = 0 to nk - 1 do
    Sparse.iter
      (fun i v ->
        let p = pos.(i) in
        if p < ns then begin
          r_row.idx.(fill.(p)) <- j;
          r_row.v.(fill.(p)) <- v;
          fill.(p) <- fill.(p) + 1;
          r_col.idx.(!e) <- perm.(p);
          r_col.v.(!e) <- v;
          incr e
        end)
      cols.(perm.(ns + j));
    r_col.start.(j + 1) <- !e
  done;
  let cpos = Array.make n 0 in
  Array.iteri (fun k c -> cpos.(c) <- k) perm;
  {
    n;
    ns;
    perm;
    cpos;
    prow;
    rpos = pos;
    u_diag;
    l_col;
    u_col;
    l_row = transpose nk l_col;
    u_row = transpose nk u_col;
    r_col;
    r_row;
    kw = Array.make nk 0.0;
    sing = Array.make ns 0;
  }

let dim t = t.n

let kernel_dim t = t.n - t.ns

let nnz t =
  t.n + Array.length t.l_col.idx + Array.length t.u_col.idx
  + Array.length t.r_row.idx

(* A x = b. On the kernel: L y = b_T (forward), then U z = y (backward);
   each finished z_j is scattered through its A_{R,S} column into the
   singleton targets, which [out] lists first, so they accumulate in
   decreasing kernel position, and are divided by their diagonal once the
   kernel is done. *)
let solve t (b : Hvec.t) (out : Hvec.t) =
  let ns = t.ns and nk = t.n - t.ns in
  let kw = t.kw in
  for e = 0 to b.nnz - 1 do
    let i = b.idx.(e) in
    let bi = b.v.(i) in
    if i < t.n && bi <> 0.0 then begin
      let p = t.rpos.(i) in
      if p >= ns then kw.(p - ns) <- bi else Hvec.set out t.perm.(p) bi
    end
  done;
  let l = t.l_col in
  for k = 0 to nk - 1 do
    let yk = kw.(k) in
    if yk <> 0.0 then
      for e = l.start.(k) to l.start.(k + 1) - 1 do
        kw.(l.idx.(e)) <- kw.(l.idx.(e)) -. (l.v.(e) *. yk)
      done
  done;
  let u = t.u_col and r = t.r_col in
  for j = nk - 1 downto 0 do
    let zj = kw.(j) /. t.u_diag.(ns + j) in
    kw.(j) <- zj;
    if zj <> 0.0 then begin
      for e = u.start.(j) to u.start.(j + 1) - 1 do
        kw.(u.idx.(e)) <- kw.(u.idx.(e)) -. (u.v.(e) *. zj)
      done;
      (* [Hvec.add] written out: a call per entry cost a third of the
         FTRAN *)
      for e = r.start.(j) to r.start.(j + 1) - 1 do
        let c = r.idx.(e) in
        if not out.on.(c) then begin
          out.on.(c) <- true;
          out.idx.(out.nnz) <- c;
          out.nnz <- out.nnz + 1
        end;
        out.v.(c) <- out.v.(c) -. (r.v.(e) *. zj)
      done
    end
  done;
  for e = 0 to out.nnz - 1 do
    let c = out.idx.(e) in
    out.v.(c) <- out.v.(c) /. t.u_diag.(t.cpos.(c))
  done;
  for j = 0 to nk - 1 do
    let zj = kw.(j) in
    kw.(j) <- 0.0;
    if zj <> 0.0 then Hvec.set out t.perm.(ns + j) zj
  done

(* A^T x = c:  U^T w = Q^T c (forward over positions), then L^T v = w,
   then x.(prow k) = v_k. The singleton positions come first in the
   forward pass: each is final at once and is scattered through its
   A_{R,S} row into the kernel, in increasing position. Then both kernel
   passes scatter a finished component through its row of U or L, so
   zero components cost nothing. *)
let solve_transpose t (c : Hvec.t) (out : Hvec.t) =
  let ns = t.ns and nk = t.n - t.ns in
  let kw = t.kw in
  let nsing = ref 0 in
  for e = 0 to c.nnz - 1 do
    let col = c.idx.(e) in
    let x = c.v.(col) in
    if col < t.n && x <> 0.0 then begin
      let p = t.cpos.(col) in
      if p >= ns then kw.(p - ns) <- x
      else begin
        t.sing.(!nsing) <- p;
        incr nsing
      end
    end
  done;
  Hvec.sort_prefix t.sing !nsing;
  let r = t.r_row in
  for s = 0 to !nsing - 1 do
    let p = t.sing.(s) in
    let wp = c.v.(t.perm.(p)) /. t.u_diag.(p) in
    Hvec.set out t.prow.(p) wp;
    if wp <> 0.0 then
      for e = r.start.(p) to r.start.(p + 1) - 1 do
        kw.(r.idx.(e)) <- kw.(r.idx.(e)) -. (r.v.(e) *. wp)
      done
  done;
  let u = t.u_row in
  for k = 0 to nk - 1 do
    let wk = kw.(k) /. t.u_diag.(ns + k) in
    kw.(k) <- wk;
    if wk <> 0.0 then
      for e = u.start.(k) to u.start.(k + 1) - 1 do
        kw.(u.idx.(e)) <- kw.(u.idx.(e)) -. (u.v.(e) *. wk)
      done
  done;
  (* L^T v = w backward: v_p is final once every later position has been
     scattered through its L row *)
  let l = t.l_row in
  for p = nk - 1 downto 0 do
    let vp = kw.(p) in
    kw.(p) <- 0.0;
    if vp <> 0.0 then begin
      Hvec.set out t.prow.(ns + p) vp;
      for e = l.start.(p) to l.start.(p + 1) - 1 do
        kw.(l.idx.(e)) <- kw.(l.idx.(e)) -. (l.v.(e) *. vp)
      done
    end
  done
