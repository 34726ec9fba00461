(* B^-1 = G_k ... G_1 (diag(LU, I))^-1 where each G is either an eta
   transformation from a pivot (r, w) — identity except for column r,
   with E[r][r] = 1/w_r and E[i][r] = -w_i / w_r — or a border extension
   from an appended row: for B' = [[B, 0]; [bc^T, -1]] the inverse is
   [[B^-1, 0]; [bc^T B^-1, -1]], i.e. G computes v_bd <- bc . v - v_bd
   after the inner operators have been applied to the head. *)

type counters = {
  mutable ftrans : int;
  mutable btrans : int;
  mutable updates : int;
  mutable factorisations : int;
  mutable extensions : int;
  mutable factor_nnz : int;
  mutable basis_nnz : int;
  mutable factor_dim : int;
  mutable kernel_dim : int;
}

let fresh_counters () =
  {
    ftrans = 0;
    btrans = 0;
    updates = 0;
    factorisations = 0;
    extensions = 0;
    factor_nnz = 0;
    basis_nnz = 0;
    factor_dim = 0;
    kernel_dim = 0;
  }

exception Zero_pivot of { row : int; magnitude : float }

type op =
  | Eta of { r : int; wr : float; nz_idx : int array; nz_val : float array }
      (* off-pivot nonzeros of the pivot column (index <> r), increasing *)
  | Border of { bd : int; bc : Sparse.t }
      (* appended row [bd]; [bc] is the new row over basis positions < bd *)

type t = {
  lu : Lu.t;
  mutable trail : op array;  (* oldest first; [len] entries are live *)
  mutable len : int;
  mutable count : int;  (* etas in the trail *)
  mutable extra : int;  (* borders in the trail *)
  mutable tnnz : int;  (* nonzeros stored across the trail *)
  mutable work : Hvec.t;  (* zero between solves, length >= dim *)
  ops : counters;
}

let create ?counters ?pivot_tol cols =
  let ops = match counters with Some c -> c | None -> fresh_counters () in
  let lu = Lu.factor ?pivot_tol cols in
  ops.factorisations <- ops.factorisations + 1;
  ops.factor_nnz <- ops.factor_nnz + Lu.nnz lu;
  ops.basis_nnz <-
    ops.basis_nnz + Array.fold_left (fun acc c -> acc + Sparse.nnz c) 0 cols;
  ops.factor_dim <- ops.factor_dim + Lu.dim lu;
  ops.kernel_dim <- ops.kernel_dim + Lu.kernel_dim lu;
  {
    lu;
    trail = [||];
    len = 0;
    count = 0;
    extra = 0;
    tnnz = 0;
    work = Hvec.create (Lu.dim lu);
    ops;
  }

let push t op =
  if t.len = Array.length t.trail then begin
    let grown = Array.make (max 16 (2 * t.len)) op in
    Array.blit t.trail 0 grown 0 t.len;
    t.trail <- grown
  end;
  t.trail.(t.len) <- op;
  t.len <- t.len + 1

let dim t = Lu.dim t.lu + t.extra

let trail_nnz t = t.tnnz

let lu_nnz t = Lu.nnz t.lu

(* (G v), oldest operator already applied to v. *)
let apply_forward (v : Hvec.t) op =
  match op with
  | Eta e ->
      let x = v.v.(e.r) in
      if x <> 0.0 then begin
        let vr = x /. e.wr in
        (* [Hvec.add] written out: a call per entry cost a third of the
           FTRAN *)
        for i = 0 to Array.length e.nz_idx - 1 do
          let j = e.nz_idx.(i) in
          if not v.on.(j) then begin
            v.on.(j) <- true;
            v.idx.(v.nnz) <- j;
            v.nnz <- v.nnz + 1
          end;
          v.v.(j) <- v.v.(j) -. (e.nz_val.(i) *. vr)
        done;
        v.v.(e.r) <- vr
      end
  | Border b ->
      let x = v.v.(b.bd) in
      let s = Sparse.dot_dense b.bc v.v -. x in
      if s <> 0.0 || x <> 0.0 then Hvec.set v b.bd s

(* (G^T c): eta adjoints touch only component r; border adjoints negate
   the border component and scatter it into the head. *)
let apply_adjoint (v : Hvec.t) op =
  match op with
  | Eta e ->
      let s = ref 0.0 in
      for i = 0 to Array.length e.nz_idx - 1 do
        s := !s +. (e.nz_val.(i) *. v.v.(e.nz_idx.(i)))
      done;
      let x = v.v.(e.r) in
      let vr = (x -. !s) /. e.wr in
      if vr <> 0.0 || x <> 0.0 then Hvec.set v e.r vr
  | Border b ->
      let vd = v.v.(b.bd) in
      if vd <> 0.0 then begin
        v.v.(b.bd) <- -.vd;
        Sparse.iter (fun j a -> Hvec.add v j (vd *. a)) b.bc
      end

(* The zero work vector of length >= dim, for right-hand sides the
   solves build themselves. *)
let work t =
  if Hvec.dim t.work < dim t then
    t.work <- Hvec.create (max (dim t) (2 * Hvec.dim t.work));
  t.work

(* The border tail of [src] (entries at or beyond the LU dimension) is
   the tail of the solution before the trail is applied. *)
let copy_tail t (src : Hvec.t) x =
  if t.extra > 0 then begin
    let n = Lu.dim t.lu in
    for e = 0 to src.nnz - 1 do
      let i = src.idx.(e) in
      if i >= n then Hvec.set x i src.v.(i)
    done
  end

let ftran t b x =
  t.ops.ftrans <- t.ops.ftrans + 1;
  Hvec.clear x;
  Lu.solve t.lu b x;
  copy_tail t b x;
  for k = 0 to t.len - 1 do
    apply_forward x t.trail.(k)
  done

let ftran_sparse t sp x =
  let b = work t in
  Sparse.iter (Hvec.set b) sp;
  ftran t b x;
  Hvec.clear b

(* B^-T v for the right-hand side the caller placed in [work t]:
   adjoints newest first, then the transposed LU solve; leaves the
   work vector zeroed. *)
let btran_work t x =
  t.ops.btrans <- t.ops.btrans + 1;
  let v = t.work in
  for k = t.len - 1 downto 0 do
    apply_adjoint v t.trail.(k)
  done;
  Hvec.clear x;
  Lu.solve_transpose t.lu v x;
  copy_tail t v x;
  Hvec.clear v

let btran t (c : Hvec.t) x =
  let v = work t in
  for e = 0 to c.nnz - 1 do
    let i = c.idx.(e) in
    Hvec.set v i c.v.(i)
  done;
  btran_work t x

let btran_unit t r x =
  Hvec.set (work t) r 1.0;
  btran_work t x

let update ?(tol = 1e-12) t r (w : Hvec.t) =
  if abs_float w.v.(r) < tol then
    raise (Zero_pivot { row = r; magnitude = abs_float w.v.(r) });
  t.ops.updates <- t.ops.updates + 1;
  Hvec.sort w (dim t);
  let nz = ref 0 in
  for e = 0 to w.nnz - 1 do
    let i = w.idx.(e) in
    if i <> r && w.v.(i) <> 0.0 then incr nz
  done;
  let nz_idx = Array.make !nz 0 and nz_val = Array.make !nz 0.0 in
  let p = ref 0 in
  for e = 0 to w.nnz - 1 do
    let i = w.idx.(e) in
    if i <> r && w.v.(i) <> 0.0 then begin
      nz_idx.(!p) <- i;
      nz_val.(!p) <- w.v.(i);
      incr p
    end
  done;
  push t (Eta { r; wr = w.v.(r); nz_idx; nz_val });
  t.count <- t.count + 1;
  t.tnnz <- t.tnnz + !nz + 1

let append_row t bc =
  if Sparse.max_index bc >= dim t then
    invalid_arg "Basis.append_row: row index out of range";
  t.ops.extensions <- t.ops.extensions + 1;
  push t (Border { bd = dim t; bc });
  t.extra <- t.extra + 1;
  t.tnnz <- t.tnnz + Sparse.nnz bc + 1
