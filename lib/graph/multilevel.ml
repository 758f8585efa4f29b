(* Multilevel recursive-bisection graph partitioning (METIS-style):
   the heavyweight partitioner Han & Tseng positioned GPART against.
   Used here as an alternative seed/data partitioner in the ablations.

   Pipeline per bisection:
     1. coarsen by heavy-edge matching until the graph is small,
        accumulating node and edge weights;
     2. bisect the coarsest graph by weighted BFS order;
     3. uncoarsen, refining at every level with a boundary
        Kernighan-Lin/FM pass (positive-gain moves under a balance
        constraint).
   k-way partitions come from recursive bisection with proportional
   weight splits, so k need not be a power of two. *)

type wgraph = {
  n : int;
  row_ptr : int array;
  col : int array;
  ewgt : int array;  (* edge weights, parallel to col *)
  nwgt : int array;  (* node weights *)
}

let of_csr (g : Csr.t) =
  {
    n = Csr.num_nodes g;
    row_ptr = g.Csr.row_ptr;
    col = g.Csr.col;
    ewgt = Array.make (Array.length g.Csr.col) 1;
    nwgt = Array.make (Csr.num_nodes g) 1;
  }

let total_weight g = Array.fold_left ( + ) 0 g.nwgt

(* ------------------------------------------------------------------ *)
(* Coarsening: heavy-edge matching                                     *)

(* Match each unmatched node with its heaviest-edge unmatched neighbor.
   Returns the coarse graph and the node -> coarse-node map. *)
let coarsen g =
  let match_of = Array.make g.n (-1) in
  let heaviest_unmatched v =
    let best = ref (-1) in
    let best_w = ref 0 in
    for idx = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
      let w = g.col.(idx) in
      if w <> v && match_of.(w) < 0 && g.ewgt.(idx) > !best_w then begin
        best := w;
        best_w := g.ewgt.(idx)
      end
    done;
    !best
  in
  for v = 0 to g.n - 1 do
    if match_of.(v) < 0 then begin
      let best = heaviest_unmatched v in
      if best >= 0 then begin
        match_of.(v) <- best;
        match_of.(best) <- v
      end
      else match_of.(v) <- v
    end
  done;
  (* Number the coarse nodes. *)
  let coarse_of = Array.make g.n (-1) in
  let n_coarse = ref 0 in
  for v = 0 to g.n - 1 do
    if coarse_of.(v) < 0 then begin
      coarse_of.(v) <- !n_coarse;
      if match_of.(v) <> v then coarse_of.(match_of.(v)) <- !n_coarse;
      incr n_coarse
    end
  done;
  let nc = !n_coarse in
  (* Coarse arcs by counting sort over the coarse source, then
     sort-and-merge each row: duplicates collapse and their weights
     sum. All int arrays — no per-node Hashtbls. *)
  let nwgt = Array.make nc 0 in
  let cand_ptr = Array.make (nc + 1) 0 in
  for v = 0 to g.n - 1 do
    let cv = coarse_of.(v) in
    nwgt.(cv) <- nwgt.(cv) + g.nwgt.(v);
    for idx = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
      if coarse_of.(g.col.(idx)) <> cv then
        cand_ptr.(cv + 1) <- cand_ptr.(cv + 1) + 1
    done
  done;
  for c = 1 to nc do
    cand_ptr.(c) <- cand_ptr.(c) + cand_ptr.(c - 1)
  done;
  let total = cand_ptr.(nc) in
  let dst = Array.make total 0 in
  let wgt = Array.make total 0 in
  let cursor = Array.copy cand_ptr in
  for v = 0 to g.n - 1 do
    let cv = coarse_of.(v) in
    for idx = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
      let cw = coarse_of.(g.col.(idx)) in
      if cw <> cv then begin
        dst.(cursor.(cv)) <- cw;
        wgt.(cursor.(cv)) <- g.ewgt.(idx);
        cursor.(cv) <- cursor.(cv) + 1
      end
    done
  done;
  (* Each coarse row sorts and merges inside its own [cand_ptr] span. *)
  let row_len = Array.make nc 0 in
  for c = 0 to nc - 1 do
    let lo = cand_ptr.(c) and hi = cand_ptr.(c + 1) in
    if hi > lo then begin
      Scratch.sort2_range dst wgt ~lo ~hi;
      let out = ref lo in
      for i = lo + 1 to hi - 1 do
        if dst.(i) = dst.(!out) then wgt.(!out) <- wgt.(!out) + wgt.(i)
        else begin
          incr out;
          dst.(!out) <- dst.(i);
          wgt.(!out) <- wgt.(i)
        end
      done;
      row_len.(c) <- !out - lo + 1
    end
  done;
  let row_ptr = Array.make (nc + 1) 0 in
  for c = 0 to nc - 1 do
    row_ptr.(c + 1) <- row_ptr.(c) + row_len.(c)
  done;
  let col = Array.make row_ptr.(nc) 0 in
  let ewgt = Array.make row_ptr.(nc) 0 in
  for c = 0 to nc - 1 do
    Array.blit dst cand_ptr.(c) col row_ptr.(c) row_len.(c);
    Array.blit wgt cand_ptr.(c) ewgt row_ptr.(c) row_len.(c)
  done;
  ({ n = nc; row_ptr; col; ewgt; nwgt }, coarse_of)

(* ------------------------------------------------------------------ *)
(* Initial bisection: weighted BFS order split                         *)

(* side.(v) = 0/1; the 0-side receives ~[left_share] of the weight. *)
let initial_bisection g ~left_share =
  let target = int_of_float (left_share *. float_of_int (total_weight g)) in
  let side = Array.make g.n 1 in
  let taken = ref 0 in
  let visited = Array.make g.n false in
  let queue = Queue.create () in
  let take v =
    side.(v) <- 0;
    taken := !taken + g.nwgt.(v)
  in
  (try
     for root = 0 to g.n - 1 do
       if not visited.(root) then begin
         visited.(root) <- true;
         Queue.add root queue;
         while not (Queue.is_empty queue) do
           let v = Queue.pop queue in
           if !taken >= target then raise Exit;
           take v;
           for idx = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
             let w = g.col.(idx) in
             if not visited.(w) then begin
               visited.(w) <- true;
               Queue.add w queue
             end
           done
         done
       end
     done
   with Exit -> ());
  side

(* ------------------------------------------------------------------ *)
(* Refinement: one boundary FM pass                                    *)

(* Gain of moving v to the other side: external - internal edge
   weight. Moves with positive gain are applied greedily while the
   balance constraint allows; one pass per level suffices for the
   quality we need. *)
let refine g side ~left_share =
  let total = total_weight g in
  let target = int_of_float (left_share *. float_of_int total) in
  let slack = max (total / 10) (Array.fold_left max 1 g.nwgt) in
  let left_weight = ref 0 in
  Array.iteri (fun v s -> if s = 0 then left_weight := !left_weight + g.nwgt.(v)) side;
  for v = 0 to g.n - 1 do
    let internal = ref 0 and external_ = ref 0 in
    for idx = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
      if side.(g.col.(idx)) = side.(v) then internal := !internal + g.ewgt.(idx)
      else external_ := !external_ + g.ewgt.(idx)
    done;
    if !external_ > !internal then begin
      (* Move if balance stays within the slack. *)
      let new_left =
        if side.(v) = 0 then !left_weight - g.nwgt.(v)
        else !left_weight + g.nwgt.(v)
      in
      if abs (new_left - target) <= abs (!left_weight - target) + slack then begin
        side.(v) <- 1 - side.(v);
        left_weight := new_left
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Multilevel bisection                                                *)

let rec bisect g ~left_share ~coarsen_to =
  if g.n <= coarsen_to then begin
    let side = initial_bisection g ~left_share in
    refine g side ~left_share;
    side
  end
  else begin
    let coarse, coarse_of = coarsen g in
    if coarse.n >= g.n then begin
      (* Matching made no progress (e.g. edgeless graph). *)
      let side = initial_bisection g ~left_share in
      refine g side ~left_share;
      side
    end
    else begin
      let coarse_side = bisect coarse ~left_share ~coarsen_to in
      let side = Array.init g.n (fun v -> coarse_side.(coarse_of.(v))) in
      refine g side ~left_share;
      side
    end
  end

(* Restrict a weighted graph to the nodes with side = s; returns the
   subgraph and the local -> global node map. *)
let subgraph g side s =
  let global_of = ref [] in
  let local_of = Array.make g.n (-1) in
  let nl = ref 0 in
  for v = 0 to g.n - 1 do
    if side.(v) = s then begin
      local_of.(v) <- !nl;
      global_of := v :: !global_of;
      incr nl
    end
  done;
  let globals = Array.of_list (List.rev !global_of) in
  let n = !nl in
  let deg = Array.make n 0 in
  Array.iteri
    (fun lv gv ->
      for idx = g.row_ptr.(gv) to g.row_ptr.(gv + 1) - 1 do
        if local_of.(g.col.(idx)) >= 0 then deg.(lv) <- deg.(lv) + 1
      done)
    globals;
  let row_ptr = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row_ptr.(v + 1) <- row_ptr.(v) + deg.(v)
  done;
  let col = Array.make row_ptr.(n) 0 in
  let ewgt = Array.make row_ptr.(n) 0 in
  let cursor = Array.copy row_ptr in
  Array.iteri
    (fun lv gv ->
      for idx = g.row_ptr.(gv) to g.row_ptr.(gv + 1) - 1 do
        let lw = local_of.(g.col.(idx)) in
        if lw >= 0 then begin
          col.(cursor.(lv)) <- lw;
          ewgt.(cursor.(lv)) <- g.ewgt.(idx);
          cursor.(lv) <- cursor.(lv) + 1
        end
      done)
    globals;
  let nwgt = Array.map (fun gv -> g.nwgt.(gv)) globals in
  ({ n; row_ptr; col; ewgt; nwgt }, globals)

(* Recursive bisection into [k] parts with proportional splits. *)
let rec kway g ~k ~coarsen_to ~assign ~globals ~first_part =
  if k <= 1 then
    Array.iter (fun gv -> assign.(gv) <- first_part) globals
  else begin
    let k_left = (k + 1) / 2 in
    let left_share = float_of_int k_left /. float_of_int k in
    let side = bisect g ~left_share ~coarsen_to in
    let g0, l0 = subgraph g side 0 in
    let g1, l1 = subgraph g side 1 in
    let globals0 = Array.map (fun lv -> globals.(lv)) l0 in
    let globals1 = Array.map (fun lv -> globals.(lv)) l1 in
    kway g0 ~k:k_left ~coarsen_to ~assign ~globals:globals0 ~first_part;
    kway g1 ~k:(k - k_left) ~coarsen_to ~assign ~globals:globals1
      ~first_part:(first_part + k_left)
  end

(* [partition g ~n_parts] multilevel-partitions [g] into [n_parts]
   (approximately balanced) parts. *)
let partition (g : Csr.t) ~n_parts =
  if n_parts <= 0 then invalid_arg "Multilevel.partition: n_parts";
  let n = Csr.num_nodes g in
  if n = 0 then Partition.make ~n_parts:0 ~assign:[||]
  else begin
    let wg = of_csr g in
    let assign = Array.make n 0 in
    let globals = Array.init n (fun v -> v) in
    kway wg ~k:(min n_parts n) ~coarsen_to:64 ~assign ~globals
      ~first_part:0;
    Partition.make ~n_parts:(min n_parts n) ~assign
  end

(* Convenience: parts sized for [part_size] nodes. *)
let partition_by_size g ~part_size =
  if part_size <= 0 then invalid_arg "Multilevel.partition_by_size";
  let n = Csr.num_nodes g in
  partition g ~n_parts:(max 1 ((n + part_size - 1) / part_size))
