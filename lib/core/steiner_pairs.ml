module Point = Lubt_geom.Point
module Tree = Lubt_topo.Tree

type t = { t : int; bits : Bytes.t }

let create t = { t; bits = Bytes.make (((t * (t - 1) / 2) + 7) / 8) '\000' }

(* pairs are numbered row by row over the upper triangle: the row of [i]
   starts at [first s i] and holds the pairs (i, i+1) .. (i, t-1) *)
let first s i = i * ((2 * s.t) - i - 1) / 2

let bit s k = Char.code (Bytes.get s.bits (k lsr 3)) land (1 lsl (k land 7)) <> 0

let index s i j =
  if not (0 <= i && i < j && j < s.t) then invalid_arg "Steiner_pairs: bad pair";
  first s i + (j - i - 1)

let mem s i j = bit s (index s i j)

let add s i j =
  let k = index s i j in
  Bytes.set s.bits (k lsr 3)
    (Char.chr (Char.code (Bytes.get s.bits (k lsr 3)) lor (1 lsl (k land 7))))

(* Offers [item] to the [count] kept items of smallest key, sorted by key
   and then by arrival (latest first when [latest_first]), with room for
   [Array.length keys]; returns the new count. *)
let offer ?(latest_first = false) keys items count key item =
  let p = ref count in
  while
    !p > 0
    &&
    let c = Float.compare keys.(!p - 1) key in
    c > 0 || (latest_first && c = 0)
  do
    decr p
  done;
  let k = Array.length keys in
  if !p < k then begin
    let last = min count (k - 1) in
    Array.blit keys !p keys (!p + 1) (last - !p);
    Array.blit items !p items (!p + 1) (last - !p);
    keys.(!p) <- key;
    items.(!p) <- item
  end;
  min k (count + 1)

let nearest terms k f =
  let t = Array.length terms in
  let k = max 0 (min k (t - 1)) in
  let keys = Array.make k 0.0 and items = Array.make k 0 in
  for i = 0 to t - 1 do
    let _, pi = terms.(i) in
    let count = ref 0 in
    for j = 0 to t - 1 do
      if j <> i then count := offer keys items !count (Point.dist pi (snd terms.(j))) j
    done;
    for q = 0 to !count - 1 do
      f i items.(q)
    done
  done

let violations ?(stop = fun () -> false) s terms tree d ~threshold ~batch =
  let t = Array.length terms in
  let node = Array.map fst terms in
  let xs = Array.map (fun (_, p) -> p.Point.x) terms in
  let ys = Array.map (fun (_, p) -> p.Point.y) terms in
  (* the batch is kept by selection as the scan goes: the largest
     shortfalls, ties to the later-scanned pair *)
  let batch = max 0 batch in
  let keys = Array.make batch 0.0 and items = Array.make batch (0, 0) in
  let kept = ref 0 and found = ref 0 in
  let cut = ref false and i = ref 0 in
  while (not !cut) && !i < t do
    if stop () then cut := true
    else begin
      let i = !i in
      let a = node.(i) and row = first s i - i - 1 in
      for j = i + 1 to t - 1 do
        if not (bit s (row + j)) then begin
          let need = abs_float (xs.(i) -. xs.(j)) +. abs_float (ys.(i) -. ys.(j)) in
          if need > 0.0 then begin
            let b = node.(j) in
            let have = d.(a) +. d.(b) -. (2.0 *. d.(Tree.lca tree a b)) in
            let viol = need -. have in
            if viol > threshold then begin
              incr found;
              kept := offer ~latest_first:true keys items !kept (-.viol) (i, j)
            end
          end
        end
      done
    end;
    incr i
  done;
  (!found, Array.to_list (Array.sub items 0 !kept), !cut)
