type t = { v : float array; idx : int array; on : bool array; mutable nnz : int }

let create n =
  { v = Array.make n 0.0; idx = Array.make n 0; on = Array.make n false; nnz = 0 }

let dim t = Array.length t.v

let clear t =
  for k = 0 to t.nnz - 1 do
    let i = t.idx.(k) in
    t.v.(i) <- 0.0;
    t.on.(i) <- false
  done;
  t.nnz <- 0

let mark t i =
  if not t.on.(i) then begin
    t.on.(i) <- true;
    t.idx.(t.nnz) <- i;
    t.nnz <- t.nnz + 1
  end

let set t i x =
  mark t i;
  t.v.(i) <- x

let add t i x =
  mark t i;
  t.v.(i) <- t.v.(i) +. x

(* Insertion sort of a.(lo .. hi). *)
let insertion (a : int array) lo hi =
  for k = lo + 1 to hi do
    let x = a.(k) in
    let p = ref (k - 1) in
    while !p >= lo && a.(!p) > x do
      a.(!p + 1) <- a.(!p);
      decr p
    done;
    a.(!p + 1) <- x
  done

(* Quicksort on the median of three, finished by insertion sort. It
   compares ints inline: [Array.sort Int.compare] calls its comparison
   through a closure, and made the summed solve of the paper-size
   [lp-sweep] about 9% slower. *)
let rec quick (a : int array) lo hi =
  if hi - lo < 16 then insertion a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let swap i j =
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    in
    if a.(mid) < a.(lo) then swap mid lo;
    if a.(hi) < a.(lo) then swap hi lo;
    if a.(hi) < a.(mid) then swap hi mid;
    let pivot = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    quick a lo !j;
    quick a !i hi
  end

let sort_prefix a n = quick a 0 (n - 1)

(* A list longer than a sixteenth of the bound is rebuilt by one pass
   over the flags instead: that pass is cheaper than sorting it. *)
let sort t bound =
  if 16 * t.nnz < bound then sort_prefix t.idx t.nnz
  else begin
    let on = t.on and idx = t.idx in
    let k = ref 0 in
    for i = 0 to bound - 1 do
      if on.(i) then begin
        idx.(!k) <- i;
        incr k
      end
    done
  end
