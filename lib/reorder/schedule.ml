(* Executor schedules for sparse-tiled loop chains: the run-time
   realization of sched(t, l) from Section 5.4. For each tile, for each
   loop of the chain, the member iterations in ascending (current)
   iteration order. The executor walks tiles outermost, loops within a
   tile, iterations within a loop — Figure 14's

     do t = 1, num_tiles
       do i4 in sched(t,1) ...
       do j4 in sched(t,2) ...
       do k4 in sched(t,3) ...

   Representation: flat CSR. Row [tile * n_loops + loop] of [items]
   spans [row_ptr.(row) .. row_ptr.(row + 1) - 1]; there is no per-tile
   or per-loop boxing, so the executor streams one contiguous int array
   front to back. A tile's rows are adjacent, so a whole tile's
   iterations occupy the contiguous block
   [row_ptr.(tile * n_loops) .. row_ptr.((tile + 1) * n_loops) - 1],
   which makes tile weights O(1) and tile renumbering a blit.

   Invariant (validated at construction, preserved by every operation
   here): [row_ptr] is monotone with row_ptr.(0) = 0 and final entry
   [Array.length items], and for each loop [l] the rows of [l] across
   all tiles partition [0, size_l) where size_l is the length of the
   tile function the loop was built from — provided [remap_loop] is
   only applied with a permutation of size size_l, which is what data
   reordering does. Executors re-check the cheap O(rows) consequence
   [check_fits] against their own loop sizes and may then stream with
   [Array.unsafe_get]. *)

type t = {
  n_tiles : int;
  n_loops : int;
  row_ptr : int array; (* length n_tiles * n_loops + 1 *)
  items : int array;   (* row tile*n_loops+loop = that loop's members *)
  (* Validation memos: the loop_sizes argument of the last successful
     [check_fits] / [check_coverage], so replaying a schedule out of
     the plan cache (the same entry object every hit) does not pay the
     O(rows) / O(iterations) scan again on every executor run. Reset
     by every transformation; a failed check is never memoized. *)
  mutable fits_ok : int array option;
  mutable coverage_ok : int array option;
}

let invalid fmt = Fmt.kstr invalid_arg fmt

let c_builds = Rtrt_obs.Metrics.counter "hotpath.schedule.builds"
let c_fits_skips = Rtrt_obs.Metrics.counter "plancache.schedule_check_skips"
let c_coverage_skips = Rtrt_obs.Metrics.counter "plancache.coverage_check_skips"

let n_tiles s = s.n_tiles
let n_loops s = s.n_loops
let row_ptr s = s.row_ptr
let flat_items s = s.items

(* Semantic equality: same tiling, same member order. The validation
   memos are deliberately ignored — whether a schedule has already
   been checked against some loop sizes is execution history, not
   identity (a cache-replayed schedule is validated on load, a fresh
   one only when first run). *)
let equal a b =
  a.n_tiles = b.n_tiles && a.n_loops = b.n_loops
  && a.row_ptr = b.row_ptr && a.items = b.items

let row s ~tile ~loop =
  if tile < 0 || tile >= s.n_tiles then invalid "Schedule.row: tile %d" tile;
  if loop < 0 || loop >= s.n_loops then invalid "Schedule.row: loop %d" loop;
  let r = (tile * s.n_loops) + loop in
  (s.row_ptr.(r), s.row_ptr.(r + 1))

(* Copying accessor for cold paths and tests; hot paths read [row_ptr]
   and [items] directly. *)
let items s ~tile ~loop =
  let lo, hi = row s ~tile ~loop in
  Array.sub s.items lo (hi - lo)

let of_tile_fns (tiles : Sparse_tile.tile_fn array) =
  let n_loops = Array.length tiles in
  if n_loops = 0 then invalid "Schedule.of_tile_fns: no loops";
  let n_tiles = tiles.(0).Sparse_tile.n_tiles in
  Array.iter
    (fun (t : Sparse_tile.tile_fn) ->
      if t.Sparse_tile.n_tiles <> n_tiles then
        invalid "Schedule.of_tile_fns: inconsistent tile counts")
    tiles;
  let n_rows = n_tiles * n_loops in
  let row_ptr = Array.make (n_rows + 1) 0 in
  (* Counting sort, pass 1: row lengths (shifted by one for the prefix
     sum), validating every tile id on the way — this is the
     "validated once" half of the validated-once-then-unsafe story.
     Both passes are plain loops over each tile function. *)
  for l = 0 to n_loops - 1 do
    let tile_of = tiles.(l).Sparse_tile.tile_of in
    for it = 0 to Array.length tile_of - 1 do
      let t = tile_of.(it) in
      if t < 0 || t >= n_tiles then
        invalid "Schedule.of_tile_fns: tile id %d out of range (loop %d)" t l;
      let r = (t * n_loops) + l + 1 in
      row_ptr.(r) <- row_ptr.(r) + 1
    done
  done;
  for r = 1 to n_rows do
    row_ptr.(r) <- row_ptr.(r) + row_ptr.(r - 1)
  done;
  let items = Array.make row_ptr.(n_rows) 0 in
  (* Pass 2: scatter. Scanning [tile_of] in ascending iteration order
     leaves every row ascending. *)
  let cursor = Array.sub row_ptr 0 n_rows in
  for l = 0 to n_loops - 1 do
    let tile_of = tiles.(l).Sparse_tile.tile_of in
    for it = 0 to Array.length tile_of - 1 do
      let r = (Array.unsafe_get tile_of it * n_loops) + l in
      let c = cursor.(r) in
      Array.unsafe_set items c it;
      cursor.(r) <- c + 1
    done
  done;
  Rtrt_obs.Metrics.incr c_builds;
  (* The counting sort just validated every tile id and scattered each
     iteration of each loop exactly once, so coverage for the loops'
     own sizes is proven by construction. *)
  let sizes =
    Array.map (fun (tf : Sparse_tile.tile_fn) -> Array.length tf.Sparse_tile.tile_of) tiles
  in
  { n_tiles; n_loops; row_ptr; items; fits_ok = None; coverage_ok = Some sizes }

(* The schedule whose flat CSR is [row_ptr] and [items], validated in
   one pass over the rows: the pointers run from 0 to the item count
   without decreasing, each row names iterations of its loop in
   strictly ascending order, and no iteration of a loop is in two of
   its rows; then each loop's rows hold as many iterations as it has,
   so they cover it exactly once. That is what a rebuild through
   [tile_fns_of_rows] and [of_tile_fns] accepts (ascending rows are
   the order [of_tile_fns] leaves), without the tile functions, the
   rebuilt copy or a comparison. The arrays are not copied. *)
let of_rows ~n_tiles ~row_ptr ~items ~loop_sizes =
  let nl = Array.length loop_sizes in
  if n_tiles <= 0 || nl = 0 then
    invalid "Schedule.of_rows: %d tiles x %d loops" n_tiles nl;
  let n_rows = n_tiles * nl and n_items = Array.length items in
  if Array.length row_ptr <> n_rows + 1 then
    invalid "Schedule.of_rows: %d row pointers for %d rows"
      (Array.length row_ptr) n_rows;
  if row_ptr.(0) <> 0 || row_ptr.(n_rows) <> n_items then
    invalid "Schedule.of_rows: row pointers do not span the items";
  (* Loop [l]'s iterations are bits [base.(l)] on of [seen]. *)
  let base = Array.make (nl + 1) 0 in
  for l = 0 to nl - 1 do
    base.(l + 1) <- base.(l) + loop_sizes.(l)
  done;
  let seen = Bytes.make ((base.(nl) + 7) / 8) '\000' in
  let placed = Array.make nl 0 in
  for r = 0 to n_rows - 1 do
    let l = r mod nl and lo = row_ptr.(r) and hi = row_ptr.(r + 1) in
    if hi < lo || hi > n_items then
      invalid "Schedule.of_rows: row pointers decrease at row %d" r;
    let n = loop_sizes.(l) and b = base.(l) in
    let prev = ref (-1) in
    for i = lo to hi - 1 do
      let it = items.(i) in
      if it <= !prev || it >= n then
        invalid "Schedule.of_rows: row %d is not ascending in [0, %d)" r n;
      let bit = b + it in
      let byte = Bytes.get_uint8 seen (bit lsr 3) in
      let m = 1 lsl (bit land 7) in
      if byte land m <> 0 then
        invalid "Schedule.of_rows: iteration %d of loop %d is in two rows" it l;
      Bytes.set_uint8 seen (bit lsr 3) (byte lor m);
      prev := it
    done;
    placed.(l) <- placed.(l) + (hi - lo)
  done;
  Array.iteri
    (fun l n ->
      if placed.(l) <> n then
        invalid "Schedule.of_rows: loop %d has %d of its %d iterations" l
          placed.(l) n)
    loop_sizes;
  {
    n_tiles;
    n_loops = nl;
    row_ptr;
    items;
    fits_ok = None;
    coverage_ok = Some (Array.copy loop_sizes);
  }

(* Execution order of loop [l]'s iterations: the concatenation of its
   per-tile member lists. *)
let loop_order s l =
  if l < 0 || l >= s.n_loops then invalid "Schedule.loop_order: loop %d" l;
  let total = ref 0 in
  for t = 0 to s.n_tiles - 1 do
    let r = (t * s.n_loops) + l in
    total := !total + s.row_ptr.(r + 1) - s.row_ptr.(r)
  done;
  let out = Array.make !total 0 in
  let pos = ref 0 in
  for t = 0 to s.n_tiles - 1 do
    let r = (t * s.n_loops) + l in
    let lo = s.row_ptr.(r) and hi = s.row_ptr.(r + 1) in
    Array.blit s.items lo out !pos (hi - lo);
    pos := !pos + (hi - lo)
  done;
  out

(* The iteration reordering delta induced on loop [l] by tiled
   execution: forward old_iter = position in the concatenated order. *)
let perm_of_loop s l =
  let order = loop_order s l in
  Perm.of_inverse order

(* Remap the iteration ids of [loop] through a permutation and keep
   each tile's member list ascending — how a data reordering after
   sparse tiling renames the identity-mapped loops' iterations
   (T_{I3->I4}: i4 = tp(i3)). Row lengths are unchanged, so [row_ptr]
   is shared. The inspector renames those loops' tile functions
   instead and builds its schedule once; this is the reference that
   test_fused holds it to. *)
let remap_loop s ~loop perm =
  if loop < 0 || loop >= s.n_loops then invalid "Schedule.remap_loop: loop %d" loop;
  let items = Array.copy s.items in
  for t = 0 to s.n_tiles - 1 do
    let r = (t * s.n_loops) + loop in
    let lo = s.row_ptr.(r) and hi = s.row_ptr.(r + 1) in
    for i = lo to hi - 1 do
      items.(i) <- Perm.forward perm items.(i)
    done;
    Irgraph.Scratch.sort_range items ~lo ~hi
  done;
  { s with items; fits_ok = None; coverage_ok = None }

(* Renumber tiles: new tile [t] is old tile [order.(t)]. Used by the
   parallel engine to make tile ids level-major, so that serial
   execution order of the result coincides with the per-level parallel
   order. [order] must be a permutation of [0, n_tiles). Each tile's
   iterations are one contiguous block, so this is a blit per tile. *)
let permute_tiles s ~order =
  if Array.length order <> s.n_tiles then
    invalid "Schedule.permute_tiles: order size %d <> %d tiles"
      (Array.length order) s.n_tiles;
  let seen = Array.make s.n_tiles false in
  Array.iter
    (fun t ->
      if t < 0 || t >= s.n_tiles || seen.(t) then
        invalid "Schedule.permute_tiles: order is not a permutation";
      seen.(t) <- true)
    order;
  let nl = s.n_loops in
  let n_rows = s.n_tiles * nl in
  let row_ptr = Array.make (n_rows + 1) 0 in
  let items = Array.make (Array.length s.items) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun t_new t_old ->
      let lo = s.row_ptr.(t_old * nl) and hi = s.row_ptr.((t_old + 1) * nl) in
      Array.blit s.items lo items !pos (hi - lo);
      let delta = !pos - lo in
      for l = 0 to nl - 1 do
        row_ptr.((t_new * nl) + l) <- s.row_ptr.((t_old * nl) + l) + delta
      done;
      pos := !pos + (hi - lo))
    order;
  row_ptr.(n_rows) <- !pos;
  { s with row_ptr; items; fits_ok = None; coverage_ok = None }

(* Move individual iterations between rows of the same loop without
   rebuilding the whole CSR from tile functions: the plan-repair path
   under graph churn, where only the iterations whose dependence
   neighborhoods changed can change tile. One linear pass allocates the
   new [items]/[row_ptr]; untouched rows are blitted, touched rows are
   rebuilt by a sorted merge of (old members minus leavers) with the
   joiners, so every row stays ascending exactly as [of_tile_fns]
   leaves it. Unlike [of_tile_fns] there is no per-item tile-id
   validation or counting sort over full tile functions — cost is
   O(total items) worth of blits plus O(row) merges for touched rows
   only, and the validation memos carry over: a splice moves members
   between rows of one loop, so per-loop totals (check_fits) and
   exactly-once coverage (check_coverage) are preserved. *)
let splice s ~moves =
  if Array.length moves = 0 then s
  else begin
    let nl = s.n_loops in
    let n_rows = s.n_tiles * nl in
    (* Per-row leaver/joiner lists, validated. *)
    let leavers = Array.make n_rows [] in
    let joiners = Array.make n_rows [] in
    let seen = Hashtbl.create (Array.length moves) in
    Array.iter
      (fun (loop, it, t_old, t_new) ->
        if loop < 0 || loop >= nl then
          invalid "Schedule.splice: loop %d" loop;
        if t_old < 0 || t_old >= s.n_tiles || t_new < 0 || t_new >= s.n_tiles
        then invalid "Schedule.splice: tile %d -> %d out of range" t_old t_new;
        if t_old = t_new then
          invalid "Schedule.splice: iteration %d does not move" it;
        if Hashtbl.mem seen (loop, it) then
          invalid "Schedule.splice: duplicate move for loop %d iteration %d"
            loop it;
        Hashtbl.add seen (loop, it) ();
        leavers.((t_old * nl) + loop) <- it :: leavers.((t_old * nl) + loop);
        joiners.((t_new * nl) + loop) <- it :: joiners.((t_new * nl) + loop))
      moves;
    let row_ptr = Array.make (n_rows + 1) 0 in
    for r = 0 to n_rows - 1 do
      let old_len = s.row_ptr.(r + 1) - s.row_ptr.(r) in
      let len =
        old_len - List.length leavers.(r) + List.length joiners.(r)
      in
      if len < 0 then invalid "Schedule.splice: row %d underflow" r;
      row_ptr.(r + 1) <- row_ptr.(r) + len
    done;
    let items = Array.make row_ptr.(n_rows) 0 in
    let sorted l = Array.of_list (List.sort_uniq compare l) in
    for r = 0 to n_rows - 1 do
      let lo = s.row_ptr.(r) and hi = s.row_ptr.(r + 1) in
      match (leavers.(r), joiners.(r)) with
      | [], [] -> Array.blit s.items lo (items : int array) row_ptr.(r) (hi - lo)
      | ls, js ->
        let ls = sorted ls and js = sorted js in
        let nls = Array.length ls and njs = Array.length js in
        (* Merge (old row minus leavers) with joiners; both ascending. *)
        let li = ref 0 and ji = ref 0 and out = ref row_ptr.(r) in
        for i = lo to hi - 1 do
          let it = s.items.(i) in
          if !li < nls && ls.(!li) = it then incr li
          else begin
            while !ji < njs && js.(!ji) < it do
              items.(!out) <- js.(!ji);
              incr out;
              incr ji
            done;
            items.(!out) <- it;
            incr out
          end
        done;
        while !ji < njs do
          items.(!out) <- js.(!ji);
          incr out;
          incr ji
        done;
        if !li <> nls then
          invalid "Schedule.splice: leaver absent from row %d" r;
        if !out <> row_ptr.(r + 1) then
          invalid "Schedule.splice: row %d length mismatch" r
    done;
    (* A splice permutes members between rows of one loop: per-loop
       totals and exactly-once coverage are invariant, so the proofs
       carry over. *)
    { s with row_ptr; items }
  end

let memo_hit memo sizes =
  match memo with Some m -> m = sizes | None -> false

(* The inverse of [of_tile_fns], in one pass over each loop's rows:
   the per-loop tile functions, and whether every loop's rows name each
   of its iterations exactly once. The verdict is false when a row
   names an iteration outside its loop or one an earlier row already
   named (neither is placed), or when a loop's rows place fewer
   iterations than it has; without a duplicate, that count is exactly
   the number covered. An iteration no row names keeps tile [-1]. *)
let tile_fns_of_rows ~n_tiles ~row_ptr ~items ~loop_sizes =
  let nl = Array.length loop_sizes in
  if Array.length row_ptr <> (n_tiles * nl) + 1 then
    invalid "Schedule.tile_fns_of_rows: %d row pointers for %d x %d rows"
      (Array.length row_ptr) n_tiles nl;
  let covered = ref true in
  let tiles =
    Array.mapi
      (fun l n ->
        let tile_of = Array.make n (-1) in
        let placed = ref 0 in
        for t = 0 to n_tiles - 1 do
          let r = (t * nl) + l in
          for i = row_ptr.(r) to row_ptr.(r + 1) - 1 do
            let it = items.(i) in
            if it < 0 || it >= n || tile_of.(it) >= 0 then covered := false
            else begin
              tile_of.(it) <- t;
              incr placed
            end
          done
        done;
        if !placed <> n then covered := false;
        { Sparse_tile.n_tiles; tile_of })
      loop_sizes
  in
  (tiles, !covered)

let check_coverage s ~loop_sizes =
  if Array.length loop_sizes <> s.n_loops then
    invalid "Schedule.check_coverage: loop count";
  if memo_hit s.coverage_ok loop_sizes then begin
    Rtrt_obs.Metrics.incr c_coverage_skips;
    true
  end
  else begin
    let ok =
      snd
        (tile_fns_of_rows ~n_tiles:s.n_tiles ~row_ptr:s.row_ptr ~items:s.items
           ~loop_sizes)
    in
    if ok then s.coverage_ok <- Some (Array.copy loop_sizes);
    ok
  end

(* Cheap O(rows) executor guard: [loop_sizes] gives the iteration count
   of each chain position; a schedule whose [n_loops] is a multiple of
   the chain length (time-step tiling unrolls the chain) fits when the
   rows of loop [l] hold exactly [loop_sizes.(l mod chain)] iterations
   in total. Together with the construction invariant (each loop's rows
   partition [0, size_l)) this makes unsafe streaming over data arrays
   of those sizes sound. *)
let check_fits s ~loop_sizes =
  let k = Array.length loop_sizes in
  if k = 0 || s.n_loops mod k <> 0 then false
  else if memo_hit s.fits_ok loop_sizes then begin
    Rtrt_obs.Metrics.incr c_fits_skips;
    true
  end
  else begin
    let ok = ref true in
    for l = 0 to s.n_loops - 1 do
      let total = ref 0 in
      for t = 0 to s.n_tiles - 1 do
        let r = (t * s.n_loops) + l in
        total := !total + s.row_ptr.(r + 1) - s.row_ptr.(r)
      done;
      if !total <> loop_sizes.(l mod k) then ok := false
    done;
    if !ok then s.fits_ok <- Some (Array.copy loop_sizes);
    !ok
  end

let total_iterations s = Array.length s.items

let pp ppf s =
  Fmt.pf ppf "schedule(%d tiles x %d loops, %d iterations)" s.n_tiles s.n_loops
    (total_iterations s)
