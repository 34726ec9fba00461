module Buckets = struct
  let log ~lo ~hi ~count =
    if not (lo > 0.0 && hi > lo) then
      invalid_arg "Metrics.Buckets.log: need 0 < lo < hi";
    if count < 2 then invalid_arg "Metrics.Buckets.log: need count >= 2";
    let step = (Float.log hi -. Float.log lo) /. float_of_int (count - 1) in
    Array.init count (fun i ->
        if i = count - 1 then hi (* exact, no rounding drift at the top *)
        else exp (Float.log lo +. (float_of_int i *. step)))

  let index bounds v =
    let n = Array.length bounds in
    (* [not (v <= top)] also routes nan to the overflow bucket *)
    if not (v <= bounds.(n - 1)) then n
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if v <= bounds.(mid) then hi := mid else lo := mid + 1
      done;
      !lo
    end

  let quantile ~bounds ~counts q =
    let n = Array.length bounds in
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then 0.0
    else begin
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
      let rank = min rank total in
      let cum = ref 0 and i = ref 0 in
      while !cum < rank do
        cum := !cum + counts.(!i);
        incr i
      done;
      (* ranks in the overflow bucket report the last finite bound *)
      bounds.(min (!i - 1) (n - 1))
    end
end

let default_buckets = Buckets.log ~lo:0.01 ~hi:10_000.0 ~count:28

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type kind =
  | KCounter
  | KGauge of float Atomic.t
  | KHist of float array

type def = {
  m_id : int;
  m_name : string;
  m_help : string;
  m_labels : (string * string) list;
  m_kind : kind;
}

type counter = def
type gauge = def
type histogram = def

let enabled_flag = Atomic.make false
let generation = Atomic.make 0
let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

let defs_lock = Mutex.create ()
let defs : def list ref = ref [] (* newest first *)
let next_id = ref 0

let kind_name = function
  | KCounter -> "counter"
  | KGauge _ -> "gauge"
  | KHist _ -> "histogram"

let same_kind a b =
  match (a, b) with
  | KCounter, KCounter | KGauge _, KGauge _ -> true
  | KHist b1, KHist b2 -> b1 = b2
  | _ -> false

(* Registration is rare (module init), so a linear scan under the lock
   is fine. Same (name, labels) returns the original handle so two
   libraries can register the same metric without coordination. *)
let register ?(help = "") ?(labels = []) name kind =
  Mutex.protect defs_lock (fun () ->
      match
        List.find_opt
          (fun d -> d.m_name = name && d.m_labels = labels)
          !defs
      with
      | Some d ->
        if not (same_kind d.m_kind kind) then
          invalid_arg
            (Printf.sprintf
               "Metrics: %s already registered as a %s (requested %s)" name
               (kind_name d.m_kind) (kind_name kind));
        d
      | None ->
        let d =
          {
            m_id = !next_id;
            m_name = name;
            m_help = help;
            m_labels = labels;
            m_kind = kind;
          }
        in
        incr next_id;
        defs := d :: !defs;
        d)

let counter ?help ?labels name = register ?help ?labels name KCounter
let gauge ?help ?labels name = register ?help ?labels name (KGauge (Atomic.make 0.0))

let histogram ?help ?labels ?(buckets = default_buckets) name =
  if Array.length buckets < 1 then
    invalid_arg "Metrics.histogram: empty bucket layout";
  let b = Array.copy buckets in
  Array.sort compare b;
  register ?help ?labels name (KHist b)

(* ------------------------------------------------------------------ *)
(* Per-domain cells                                                    *)
(* ------------------------------------------------------------------ *)

(* One block of cells per domain, indexed by metric id, registered in
   a global list so [snapshot] can merge blocks of finished domains —
   DLS data dies with its domain (same discipline as [Trace]). Blocks
   grow on demand because metrics can be registered after a domain
   already allocated its block; the recording domain publishes the
   bigger array with a plain write, so a concurrent snapshot at worst
   reads the old (shorter) array and misses the newest cells. *)
type cell =
  | C_empty
  | C_counter of { mutable c : float }
  | C_hist of { counts : int array; mutable sum : float }

type block = { blk_gen : int; mutable cells : cell array }

let blocks_lock = Mutex.create ()
let blocks : block list ref = ref []

let block_key : block option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let fresh_block () =
  let b = { blk_gen = Atomic.get generation; cells = Array.make 16 C_empty } in
  Mutex.protect blocks_lock (fun () -> blocks := b :: !blocks);
  b

let my_block () =
  let cell = Domain.DLS.get block_key in
  match !cell with
  | Some b when b.blk_gen = Atomic.get generation -> b
  | _ ->
    let b = fresh_block () in
    cell := Some b;
    b

let cell_for (d : def) =
  let b = my_block () in
  let n = Array.length b.cells in
  if d.m_id >= n then begin
    let grown = Array.make (max (d.m_id + 1) (2 * n)) C_empty in
    Array.blit b.cells 0 grown 0 n;
    b.cells <- grown
  end;
  match b.cells.(d.m_id) with
  | C_empty ->
    let c =
      match d.m_kind with
      | KCounter -> C_counter { c = 0.0 }
      | KHist bounds ->
        C_hist
          { counts = Array.make (Array.length bounds + 1) 0; sum = 0.0 }
      | KGauge _ -> C_empty (* gauges live in the def, not in blocks *)
    in
    b.cells.(d.m_id) <- c;
    c
  | c -> c

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let incr ?(by = 1.0) (d : counter) =
  if Atomic.get enabled_flag then
    match cell_for d with C_counter c -> c.c <- c.c +. by | _ -> ()

let set (d : gauge) v =
  if Atomic.get enabled_flag then
    match d.m_kind with KGauge a -> Atomic.set a v | _ -> ()

let observe (d : histogram) v =
  if Atomic.get enabled_flag then
    match (d.m_kind, cell_for d) with
    | KHist bounds, C_hist h ->
      let i = Buckets.index bounds v in
      h.counts.(i) <- h.counts.(i) + 1;
      if Float.is_finite v then h.sum <- h.sum +. v
    | _ -> ()

let reset () =
  Mutex.protect blocks_lock (fun () ->
      Atomic.incr generation;
      blocks := []);
  Mutex.protect defs_lock (fun () ->
      List.iter
        (fun d -> match d.m_kind with KGauge a -> Atomic.set a 0.0 | _ -> ())
        !defs)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type histogram_snapshot = {
  h_bounds : float array;
  h_counts : int array;
  h_sum : float;
  h_count : int;
}

type value =
  | Counter of float
  | Gauge of float
  | Histogram of histogram_snapshot

type sample = {
  s_name : string;
  s_help : string;
  s_labels : (string * string) list;
  s_value : value;
}

let merge_histogram a b =
  if a.h_bounds <> b.h_bounds then
    invalid_arg "Metrics.merge_histogram: bucket layouts differ";
  {
    h_bounds = a.h_bounds;
    h_counts = Array.map2 ( + ) a.h_counts b.h_counts;
    h_sum = a.h_sum +. b.h_sum;
    h_count = a.h_count + b.h_count;
  }

let quantile h q = Buckets.quantile ~bounds:h.h_bounds ~counts:h.h_counts q

let live_blocks () =
  let gen = Atomic.get generation in
  Mutex.protect blocks_lock (fun () ->
      List.filter (fun b -> b.blk_gen = gen) !blocks)

(* One metric merged over the [live] blocks: the single merge behind
   [snapshot] and the per-handle reads. *)
let value_of live d =
  let cells =
    List.filter_map
      (fun b ->
        if d.m_id < Array.length b.cells then
          match b.cells.(d.m_id) with C_empty -> None | c -> Some c
        else None)
      live
  in
  match d.m_kind with
  | KGauge a -> Gauge (Atomic.get a)
  | KCounter ->
    Counter
      (List.fold_left
         (fun acc c -> match c with C_counter x -> acc +. x.c | _ -> acc)
         0.0 cells)
  | KHist bounds ->
    let counts = Array.make (Array.length bounds + 1) 0 in
    let sum = ref 0.0 in
    List.iter
      (fun c ->
        match c with
        | C_hist h ->
          Array.iteri (fun i v -> counts.(i) <- counts.(i) + v) h.counts;
          sum := !sum +. h.sum
        | _ -> ())
      cells;
    (* the total is derived from the merged buckets, not kept per
       cell: a snapshot racing an owner's [observe] then still has
       [h_count] equal to the sum of [h_counts] *)
    Histogram
      {
        h_bounds = Array.copy bounds;
        h_counts = counts;
        h_sum = !sum;
        h_count = Array.fold_left ( + ) 0 counts;
      }

let read_counter (d : counter) =
  match value_of (live_blocks ()) d with
  | Counter v -> v
  | _ -> invalid_arg "Metrics.read_counter: not a counter"

let read_histogram (d : histogram) =
  match value_of (live_blocks ()) d with
  | Histogram h -> h
  | _ -> invalid_arg "Metrics.read_histogram: not a histogram"

let snapshot () =
  let live = live_blocks () in
  let ds = Mutex.protect defs_lock (fun () -> List.rev !defs) in
  List.map
    (fun d ->
      { s_name = d.m_name; s_help = d.m_help; s_labels = d.m_labels;
        s_value = value_of live d })
    ds
