(* Sparse tiling: run-time iteration-reordering transformations whose
   inspectors traverse *data dependences* rather than data mappings
   (Section 2.3). A tile function assigns every iteration of every loop
   in a subspace to a tile; the executor then runs tiles atomically, in
   tile order, visiting each loop's member iterations inside the tile.

   Two growth strategies are provided:
   - full sparse tiling (Strout et al. 2001): tiles grow side-by-side
     from a seed partitioning of any loop, backward with min and
     forward with max over the dependence edges;
   - cache blocking (Douglas et al. 2000): the seed partitioning is on
     the first loop and later loops' partitions shrink, with all
     boundary iterations falling into one leftover tile executed last. *)

type tile_fn = {
  n_tiles : int;
  tile_of : int array; (* iteration -> tile id *)
}

let invalid fmt = Fmt.kstr invalid_arg fmt

(* Inspector-cost accounting (per growth pass; one branch each when
   tracing is off). *)
let c_growth_passes = Rtrt_obs.Metrics.counter "sparse_tile.growth_passes"
let c_deps_traversed = Rtrt_obs.Metrics.counter "sparse_tile.deps_traversed"
let c_tiles_grown = Rtrt_obs.Metrics.counter "sparse_tile.tiles_grown"

(* Row [r] of a set with arity [k] and row pointer [ptr] is
   [dat.(row_lo k ptr r) .. dat.(row_hi k ptr r - 1)], as in Access.t.
   Computed here from the fields: the dev profile compiles every
   module -opaque, so a per-row call into Access is never inlined. *)
let[@inline] row_lo k ptr r = if k > 0 then k * r else ptr.(r)
let[@inline] row_hi k ptr r = if k > 0 then k * (r + 1) else ptr.(r + 1)

let count_growth ~(conn : Access.t) n_tiles =
  Rtrt_obs.Metrics.incr c_growth_passes;
  Rtrt_obs.Metrics.add c_deps_traversed (Access.n_touches conn);
  Rtrt_obs.Metrics.add c_tiles_grown n_tiles

let tile_fn_of_partition p =
  {
    n_tiles = Irgraph.Partition.n_parts p;
    tile_of = Irgraph.Partition.assignment p;
  }

(* [conn] maps each iteration of the loop being assigned to the
   already-assigned adjacent loop's iterations it has dependence edges
   with. Backward growth (this loop runs before the assigned one):
   every successor's tile is an upper bound, so take the min; an
   iteration without dependences may go anywhere — tile 0 keeps it
   earliest. The growers are plain loops over the set's fields with
   [Int.min]/[Int.max], so besides their output they allocate nothing
   per iteration. *)
let grow_backward ~(conn : Access.t) ~(next : tile_fn) =
  if Access.n_data conn <> Array.length next.tile_of then
    invalid "grow_backward: conn/next size mismatch";
  let n = Access.n_iter conn in
  let k = conn.Access.arity and ptr = conn.Access.ptr in
  let dat = conn.Access.dat in
  let next_of = next.tile_of in
  let tile_of = Array.make n 0 in
  for a = 0 to n - 1 do
    let t = ref max_int in
    for idx = row_lo k ptr a to row_hi k ptr a - 1 do
      t := Int.min !t next_of.(dat.(idx))
    done;
    if !t <> max_int then tile_of.(a) <- !t
  done;
  count_growth ~conn next.n_tiles;
  { n_tiles = next.n_tiles; tile_of }

(* Backward growth walking the *predecessor* rows: where
   [grow_backward] gathers min over successor rows, this scatters min
   over the same edge multiset read from [conn] (each iteration of the
   assigned loop pushes its tile to its predecessors). min is
   order-independent, so the result is bit-identical to
   [grow_backward ~conn:(Access.transpose conn)] without ever
   materializing the transpose. *)
let grow_backward_scatter ~(conn : Access.t) ~(next : tile_fn) =
  if Access.n_iter conn <> Array.length next.tile_of then
    invalid "grow_backward_scatter: conn/next size mismatch";
  let n = Access.n_data conn in
  let k = conn.Access.arity and ptr = conn.Access.ptr in
  let dat = conn.Access.dat in
  let tile_of = Array.make n max_int in
  for b = 0 to Access.n_iter conn - 1 do
    let t = next.tile_of.(b) in
    for idx = row_lo k ptr b to row_hi k ptr b - 1 do
      let a = dat.(idx) in
      if t < tile_of.(a) then tile_of.(a) <- t
    done
  done;
  for a = 0 to n - 1 do
    if tile_of.(a) = max_int then tile_of.(a) <- 0
  done;
  count_growth ~conn next.n_tiles;
  { n_tiles = next.n_tiles; tile_of }

(* Forward growth (this loop runs after the assigned one): every
   predecessor's tile is a lower bound, so take the max. *)
let grow_forward ~(conn : Access.t) ~(prev : tile_fn) =
  if Access.n_data conn <> Array.length prev.tile_of then
    invalid "grow_forward: conn/prev size mismatch";
  let n = Access.n_iter conn in
  let k = conn.Access.arity and ptr = conn.Access.ptr in
  let dat = conn.Access.dat in
  let prev_of = prev.tile_of in
  let tile_of = Array.make n 0 in
  for b = 0 to n - 1 do
    let t = ref 0 in
    for idx = row_lo k ptr b to row_hi k ptr b - 1 do
      t := Int.max !t prev_of.(dat.(idx))
    done;
    tile_of.(b) <- !t
  done;
  count_growth ~conn prev.n_tiles;
  { n_tiles = prev.n_tiles; tile_of }

(* Forward growth walking the *successor* rows: each iteration of the
   assigned loop pushes its tile to its successors, max over the same
   edge multiset [grow_forward] gathers from the predecessor rows.
   Both start every iteration at tile 0, so the results are
   bit-identical. *)
let grow_forward_scatter ~(conn : Access.t) ~(prev : tile_fn) =
  if Access.n_iter conn <> Array.length prev.tile_of then
    invalid "grow_forward_scatter: conn/prev size mismatch";
  let k = conn.Access.arity and ptr = conn.Access.ptr in
  let dat = conn.Access.dat in
  let prev_of = prev.tile_of in
  let tile_of = Array.make (Access.n_data conn) 0 in
  for a = 0 to Access.n_iter conn - 1 do
    let t = prev_of.(a) in
    for idx = row_lo k ptr a to row_hi k ptr a - 1 do
      let b = dat.(idx) in
      if t > tile_of.(b) then tile_of.(b) <- t
    done
  done;
  count_growth ~conn prev.n_tiles;
  { n_tiles = prev.n_tiles; tile_of }

(* Cache-blocking growth: keep an iteration in tile t only when all of
   its predecessors are in tile t; otherwise it falls into the shared
   [leftover] tile (executed last). An iteration without predecessors
   goes to tile 0. *)
let grow_cache_block ~leftover ~(conn : Access.t) ~(prev : tile_fn) =
  if Access.n_data conn <> Array.length prev.tile_of then
    invalid "grow_cache_block: conn/prev size mismatch";
  let n = Access.n_iter conn in
  let k = conn.Access.arity and ptr = conn.Access.ptr in
  let dat = conn.Access.dat in
  let prev_of = prev.tile_of in
  let tile_of = Array.make n 0 in
  for b = 0 to n - 1 do
    let lo = row_lo k ptr b and hi = row_hi k ptr b in
    if hi > lo then begin
      let t0 = prev_of.(dat.(lo)) in
      let t = ref (if t0 = leftover then leftover else t0) in
      for idx = lo + 1 to hi - 1 do
        if prev_of.(dat.(idx)) <> t0 then t := leftover
      done;
      tile_of.(b) <- !t
    end
  done;
  count_growth ~conn (leftover + 1);
  { n_tiles = leftover + 1; tile_of }

(* The same rule over the successor rows: the first tile pushed to an
   iteration is kept unless it is the leftover, and any different tile
   pushed later sends it to the leftover. Agreement of all
   predecessors does not depend on the order they are seen in, so this
   is bit-identical to [grow_cache_block]. *)
let grow_cache_block_scatter ~leftover ~(conn : Access.t) ~(prev : tile_fn) =
  if Access.n_iter conn <> Array.length prev.tile_of then
    invalid "grow_cache_block_scatter: conn/prev size mismatch";
  let k = conn.Access.arity and ptr = conn.Access.ptr in
  let dat = conn.Access.dat in
  let prev_of = prev.tile_of in
  let tile_of = Array.make (Access.n_data conn) (-1) in
  for a = 0 to Access.n_iter conn - 1 do
    let t = prev_of.(a) in
    for idx = row_lo k ptr a to row_hi k ptr a - 1 do
      let b = dat.(idx) in
      let cur = tile_of.(b) in
      if cur < 0 then tile_of.(b) <- t
      else if cur <> t then tile_of.(b) <- leftover
    done
  done;
  for b = 0 to Array.length tile_of - 1 do
    if tile_of.(b) < 0 then tile_of.(b) <- 0
  done;
  count_growth ~conn (leftover + 1);
  { n_tiles = leftover + 1; tile_of }

(* ------------------------------------------------------------------ *)
(* Loop chains                                                         *)

(* One dependence set between adjacent loops [l] and [l + 1], stored in
   the orientation its kernel has at hand: predecessor rows (each
   iteration of loop [l + 1] lists the loop-[l] iterations it depends
   on) or successor rows (each iteration of loop [l] lists the
   loop-[l + 1] iterations that depend on it). Either holds the same
   edge multiset, and every traversal below is a min, a max or a
   comparison over that multiset, so it reads either form with
   bit-identical results. *)
type deps = Preds of Access.t | Succs of Access.t

(* A chain of loops executed in sequence (inside an outer loop), with
   one dependence set between each adjacent pair. *)
type chain = {
  loop_sizes : int array;        (* iterations per loop *)
  conn : deps array;             (* length = n_loops - 1 *)
}

let n_loops chain = Array.length chain.loop_sizes

let make_oriented_chain ~loop_sizes ~conn =
  if Array.length conn <> Array.length loop_sizes - 1 then
    invalid "Sparse_tile.make_chain: need one conn per adjacent pair";
  Array.iteri
    (fun l deps ->
      let rows, entries, (a : Access.t) =
        match deps with
        | Preds a -> (loop_sizes.(l + 1), loop_sizes.(l), a)
        | Succs a -> (loop_sizes.(l), loop_sizes.(l + 1), a)
      in
      if Access.n_iter a <> rows then invalid "make_chain: conn %d n_iter" l;
      if Access.n_data a <> entries then invalid "make_chain: conn %d n_data" l)
    conn;
  { loop_sizes; conn }

let make_chain ~loop_sizes ~conn =
  make_oriented_chain ~loop_sizes ~conn:(Array.map (fun a -> Preds a) conn)

(* The chain with every set in the orientation that growth from
   [seed] gathers over: successor rows before the seed, predecessor
   rows after it. Each set stored the other way is transposed, so this
   is the two-set baseline of the symmetric-dependence elision. *)
let gather_oriented ~chain ~seed =
  let conn =
    Array.mapi
      (fun l deps ->
        match deps with
        | Preds a when l < seed -> Succs (Access.transpose a)
        | Succs a when l >= seed -> Preds (Access.transpose a)
        | d -> d)
      chain.conn
  in
  { chain with conn }

(* Full sparse tiling over a chain from a seed partitioning of loop
   [seed]. Returns one tile function per loop (all with the same
   n_tiles). Each set is walked once, in the orientation the chain
   stores it: backward growth gathers over successor rows or scatters
   over predecessor rows, forward growth gathers over predecessor rows
   or scatters over successor rows. So a kernel whose two dependence
   sets are both the interaction access (the paper's symmetric
   dependences, Section 6) builds no transpose at all. *)
let full ~chain ~seed ~(seed_tiles : tile_fn) () =
  let l_count = n_loops chain in
  if seed < 0 || seed >= l_count then invalid "Sparse_tile.full: seed";
  if Array.length seed_tiles.tile_of <> chain.loop_sizes.(seed) then
    invalid "Sparse_tile.full: seed partition size";
  let tiles = Array.make l_count seed_tiles in
  for l = seed - 1 downto 0 do
    let next = tiles.(l + 1) in
    tiles.(l) <-
      (match chain.conn.(l) with
      | Succs conn -> grow_backward ~conn ~next
      | Preds conn -> grow_backward_scatter ~conn ~next)
  done;
  for l = seed + 1 to l_count - 1 do
    let prev = tiles.(l - 1) in
    tiles.(l) <-
      (match chain.conn.(l - 1) with
      | Preds conn -> grow_forward ~conn ~prev
      | Succs conn -> grow_forward_scatter ~conn ~prev)
  done;
  tiles

(* Cache blocking over a chain: seed on loop 0, shrink forward, one
   shared leftover tile for the whole chain. *)
let cache_block ~chain ~(seed_tiles : tile_fn) =
  let l_count = n_loops chain in
  let leftover = seed_tiles.n_tiles in
  let tiles = Array.make l_count seed_tiles in
  for l = 1 to l_count - 1 do
    let prev = tiles.(l - 1) in
    tiles.(l) <-
      (match chain.conn.(l - 1) with
      | Preds conn -> grow_cache_block ~leftover ~conn ~prev
      | Succs conn -> grow_cache_block_scatter ~leftover ~conn ~prev)
  done;
  let n_tiles = leftover + 1 in
  Array.map (fun t -> { t with n_tiles }) tiles

(* Run-time legality check: every dependence edge a -> b between
   adjacent loops must satisfy tile(a) <= tile(b). Returns the list of
   violated (loop_pair, a, b) triples (empty = legal), in the order
   the stored rows list them. Plain loops over the fields, so a legal
   chain allocates nothing per edge. *)
let check_legality ~chain ~tiles =
  let violations = ref [] in
  Array.iteri
    (fun l deps ->
      let src = tiles.(l).tile_of and dst = tiles.(l + 1).tile_of in
      match deps with
      | Preds (conn : Access.t) ->
        let k = conn.Access.arity and ptr = conn.Access.ptr in
  let dat = conn.Access.dat in
        for b = 0 to Access.n_iter conn - 1 do
          let tb = dst.(b) in
          for idx = row_lo k ptr b to row_hi k ptr b - 1 do
            let a = dat.(idx) in
            if src.(a) > tb then violations := (l, a, b) :: !violations
          done
        done
      | Succs conn ->
        let k = conn.Access.arity and ptr = conn.Access.ptr in
  let dat = conn.Access.dat in
        for a = 0 to Access.n_iter conn - 1 do
          let ta = src.(a) in
          for idx = row_lo k ptr a to row_hi k ptr a - 1 do
            let b = dat.(idx) in
            if ta > dst.(b) then violations := (l, a, b) :: !violations
          done
        done)
    chain.conn;
  List.rev !violations

let pp_tile_fn ppf t =
  Fmt.pf ppf "tile_fn(%d tiles over %d iterations)" t.n_tiles
    (Array.length t.tile_of)
