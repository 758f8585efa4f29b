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

let count_growth ~(conn : Access.t) n_tiles =
  Rtrt_obs.Metrics.incr c_growth_passes;
  Rtrt_obs.Metrics.add c_deps_traversed (Access.n_touches conn);
  Rtrt_obs.Metrics.add c_tiles_grown n_tiles

let tile_fn_of_partition p =
  {
    n_tiles = Irgraph.Partition.n_parts p;
    tile_of = Array.copy (Irgraph.Partition.assignment p);
  }

(* [conn] maps each iteration of the loop being assigned to the
   already-assigned adjacent loop's iterations it has dependence edges
   with. Backward growth (this loop runs before the assigned one):
   every successor's tile is an upper bound, so take the min; an
   iteration without dependences may go anywhere — tile 0 keeps it
   earliest. The growers are plain loops over [ptr]/[dat] with
   [Int.min]/[Int.max], so besides their output they allocate nothing
   per iteration. *)
let grow_backward ~(conn : Access.t) ~(next : tile_fn) =
  if Access.n_data conn <> Array.length next.tile_of then
    invalid "grow_backward: conn/next size mismatch";
  let n = Access.n_iter conn in
  let ptr = conn.Access.ptr and dat = conn.Access.dat in
  let next_of = next.tile_of in
  let tile_of = Array.make n 0 in
  for a = 0 to n - 1 do
    let t = ref max_int in
    for idx = ptr.(a) to ptr.(a + 1) - 1 do
      t := Int.min !t next_of.(dat.(idx))
    done;
    if !t <> max_int then tile_of.(a) <- !t
  done;
  count_growth ~conn next.n_tiles;
  { n_tiles = next.n_tiles; tile_of }

(* Backward growth walking only the *predecessor* dependence set: the
   paper's symmetric-dependence overhead reduction generalized. Where
   [grow_backward] gathers min over successors (and therefore needs
   the successor connectivity — a transpose, unless a symmetric twin
   is shared), this scatters min over the same edge multiset read from
   [conn] (each iteration of the assigned loop pushes its tile to its
   predecessors). min is order-independent, so the result is
   bit-identical to [grow_backward ~conn:(Access.transpose conn)]
   without ever materializing the transpose. *)
let grow_backward_scatter ~(conn : Access.t) ~(next : tile_fn) =
  if Access.n_iter conn <> Array.length next.tile_of then
    invalid "grow_backward_scatter: conn/next size mismatch";
  let n = Access.n_data conn in
  let ptr = conn.Access.ptr and dat = conn.Access.dat in
  let tile_of = Array.make n max_int in
  for b = 0 to Access.n_iter conn - 1 do
    let t = next.tile_of.(b) in
    for idx = ptr.(b) to ptr.(b + 1) - 1 do
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
  let ptr = conn.Access.ptr and dat = conn.Access.dat in
  let prev_of = prev.tile_of in
  let tile_of = Array.make n 0 in
  for b = 0 to n - 1 do
    let t = ref 0 in
    for idx = ptr.(b) to ptr.(b + 1) - 1 do
      t := Int.max !t prev_of.(dat.(idx))
    done;
    tile_of.(b) <- !t
  done;
  count_growth ~conn prev.n_tiles;
  { n_tiles = prev.n_tiles; tile_of }

(* Cache-blocking growth: keep an iteration in tile t only when all of
   its predecessors are in tile t; otherwise it falls into the shared
   [leftover] tile (executed last). *)
let grow_cache_block ~leftover ~(conn : Access.t) ~(prev : tile_fn) =
  if Access.n_data conn <> Array.length prev.tile_of then
    invalid "grow_cache_block: conn/prev size mismatch";
  let n = Access.n_iter conn in
  let tile_of =
    Array.init n (fun b ->
        let ts = Access.touches conn b in
        if Array.length ts = 0 then 0
        else
          let t0 = prev.tile_of.(ts.(0)) in
          if t0 <> leftover && Array.for_all (fun a -> prev.tile_of.(a) = t0) ts
          then t0
          else leftover)
  in
  count_growth ~conn (leftover + 1);
  { n_tiles = leftover + 1; tile_of }

(* ------------------------------------------------------------------ *)
(* Loop chains                                                         *)

(* A chain of loops executed in sequence (inside an outer loop), with
   dependence connectivity between adjacent loops. [conn.(l)] maps each
   iteration of loop [l+1] to the iterations of loop [l] it depends on
   (predecessors). *)
type chain = {
  loop_sizes : int array;        (* iterations per loop *)
  conn : Access.t array;         (* length = n_loops - 1 *)
}

let n_loops chain = Array.length chain.loop_sizes

let make_chain ~loop_sizes ~conn =
  if Array.length conn <> Array.length loop_sizes - 1 then
    invalid "Sparse_tile.make_chain: need one conn per adjacent pair";
  Array.iteri
    (fun l (a : Access.t) ->
      if Access.n_iter a <> loop_sizes.(l + 1) then
        invalid "make_chain: conn %d n_iter" l;
      if Access.n_data a <> loop_sizes.(l) then
        invalid "make_chain: conn %d n_data" l)
    conn;
  { loop_sizes; conn }

(* Full sparse tiling over a chain from a seed partitioning of loop
   [seed]. Returns one tile function per loop (all with the same
   n_tiles). Backward growth needs successor connectivity — the
   transpose of [conn] — unless [shared_succ] already provides it
   (the paper's symmetric-dependence overhead reduction, Section 6:
   when two dependence sets satisfy the same constraints the inspector
   traverses only one). *)
let full ?(shared_succ = []) ?grow_backward:gb ~chain ~seed
    ~(seed_tiles : tile_fn) () =
  let l_count = n_loops chain in
  if seed < 0 || seed >= l_count then invalid "Sparse_tile.full: seed";
  if Array.length seed_tiles.tile_of <> chain.loop_sizes.(seed) then
    invalid "Sparse_tile.full: seed partition size";
  let tiles = Array.make l_count seed_tiles in
  for l = seed - 1 downto 0 do
    tiles.(l) <-
      (match gb with
      | Some grow ->
        (* A substituted grower (scatter-min) walks the predecessor
           set [conn.(l)] directly, so neither the shared symmetric
           twin nor a transpose is needed. *)
        grow ~conn:chain.conn.(l) ~next:tiles.(l + 1)
      | None ->
        let succ_conn =
          match List.assoc_opt l shared_succ with
          | Some shared -> shared
          | None -> Access.transpose chain.conn.(l)
        in
        grow_backward ~conn:succ_conn ~next:tiles.(l + 1))
  done;
  for l = seed + 1 to l_count - 1 do
    tiles.(l) <- grow_forward ~conn:chain.conn.(l - 1) ~prev:tiles.(l - 1)
  done;
  tiles

(* Cache blocking over a chain: seed on loop 0, shrink forward, one
   shared leftover tile for the whole chain. *)
let cache_block ~chain ~(seed_tiles : tile_fn) =
  let l_count = n_loops chain in
  let leftover = seed_tiles.n_tiles in
  let tiles = Array.make l_count seed_tiles in
  for l = 1 to l_count - 1 do
    tiles.(l) <-
      grow_cache_block ~leftover ~conn:chain.conn.(l - 1) ~prev:tiles.(l - 1)
  done;
  let n_tiles = leftover + 1 in
  Array.map (fun t -> { t with n_tiles }) tiles

(* Run-time legality check: every dependence edge a -> b between
   adjacent loops must satisfy tile(a) <= tile(b). Returns the list of
   violated (loop_pair, a, b) triples (empty = legal). Plain loops over
   [ptr]/[dat], so a legal chain allocates nothing per iteration. *)
let check_legality ~chain ~tiles =
  let violations = ref [] in
  Array.iteri
    (fun l (conn : Access.t) ->
      let src = tiles.(l).tile_of and dst = tiles.(l + 1).tile_of in
      for b = 0 to Access.n_iter conn - 1 do
        for idx = conn.Access.ptr.(b) to conn.Access.ptr.(b + 1) - 1 do
          let a = conn.Access.dat.(idx) in
          if src.(a) > dst.(b) then violations := (l, a, b) :: !violations
        done
      done)
    chain.conn;
  List.rev !violations

let pp_tile_fn ppf t =
  Fmt.pf ppf "tile_fn(%d tiles over %d iterations)" t.n_tiles
    (Array.length t.tile_of)
