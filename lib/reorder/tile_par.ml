(* Tile-level parallelism (Sections 2.3 and 4): sparse tiling provides
   a coarser granularity of parallelism than iteration-level run-time
   parallelization — "by mapping all independent tiles to the same
   tile number, parallelism between tiles can be expressed".

   From a tiled loop chain we build the tile dependence DAG (an edge
   t1 -> t2 whenever some dependence crosses from an iteration in t1
   to an iteration in t2 with t1 <> t2), levelize it, and model the
   parallel makespan. Two same-level tiles may still update shared
   reduction locations; [shared_data_conflicts] counts those pairs so
   callers know how much combining/privatization parallel execution
   would need. *)

type t = {
  n_tiles : int;
  n_levels : int;
  level_of : int array;      (* tile -> level *)
  levels : int array array;  (* level -> tiles *)
  tile_cost : int array;     (* iterations per tile *)
}

(* Tile DAG edges from the chain's dependences: collect packed int
   keys [ta * n_tiles + tb] into a pooled scratch buffer, then
   sort-and-dedup — no Hashtbl, no tuple boxing per touch. Each set is
   read in its stored orientation; sort-and-dedup makes the result
   independent of the order the edges come in. *)
let tile_edges ~(chain : Sparse_tile.chain) ~(tiles : Sparse_tile.tile_fn array) =
  let n_tiles = tiles.(0).Sparse_tile.n_tiles in
  Irgraph.Scratch.with_buf @@ fun buf ->
  let push ta tb = if ta <> tb then Irgraph.Scratch.push buf ((ta * n_tiles) + tb) in
  Array.iteri
    (fun l (deps : Sparse_tile.deps) ->
      let src = tiles.(l).Sparse_tile.tile_of in
      let dst = tiles.(l + 1).Sparse_tile.tile_of in
      match deps with
      | Sparse_tile.Preds conn ->
        for b = 0 to Access.n_iter conn - 1 do
          let tb = dst.(b) in
          Access.iter_touches conn b (fun a -> push src.(a) tb)
        done
      | Sparse_tile.Succs conn ->
        for a = 0 to Access.n_iter conn - 1 do
          let ta = src.(a) in
          Access.iter_touches conn a (fun b -> push ta dst.(b))
        done)
    chain.Sparse_tile.conn;
  Irgraph.Scratch.sort_dedup buf;
  Array.init (Irgraph.Scratch.length buf) (fun i ->
      let key = Irgraph.Scratch.get buf i in
      (key / n_tiles, key mod n_tiles))

(* Levelize an explicit (deduplicated) edge array over [n_tiles]
   tiles. Legality guarantees ta <= tb on every dependence, so the
   DAG's edges all point from lower to higher tile ids and a single
   ascending pass levelizes it. *)
let of_edges ~n_tiles ~tile_cost edges =
  if Array.length tile_cost <> n_tiles then
    invalid_arg "Tile_par.of_edges: tile_cost size";
  let preds = Array.make n_tiles [] in
  Array.iter
    (fun (ta, tb) ->
      if ta > tb then invalid_arg "Tile_par.of_edges: illegal tiling";
      preds.(tb) <- ta :: preds.(tb))
    edges;
  let level_of = Array.make n_tiles 0 in
  let n_levels = ref 1 in
  for t = 0 to n_tiles - 1 do
    let lvl =
      List.fold_left (fun acc p -> max acc (level_of.(p) + 1)) 0 preds.(t)
    in
    level_of.(t) <- lvl;
    if lvl + 1 > !n_levels then n_levels := lvl + 1
  done;
  let counts = Array.make !n_levels 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) level_of;
  let levels = Array.map (fun c -> Array.make c 0) counts in
  let cursor = Array.make !n_levels 0 in
  Array.iteri
    (fun t l ->
      levels.(l).(cursor.(l)) <- t;
      cursor.(l) <- cursor.(l) + 1)
    level_of;
  { n_tiles; n_levels = !n_levels; level_of; levels; tile_cost }

let analyze ~(chain : Sparse_tile.chain) ~(tiles : Sparse_tile.tile_fn array) =
  let n_tiles = tiles.(0).Sparse_tile.n_tiles in
  let edges = tile_edges ~chain ~tiles in
  let tile_cost = Array.make n_tiles 0 in
  Array.iter
    (fun (tf : Sparse_tile.tile_fn) ->
      Array.iter
        (fun t -> tile_cost.(t) <- tile_cost.(t) + 1)
        tf.Sparse_tile.tile_of)
    tiles;
  of_edges ~n_tiles ~tile_cost edges

let average_parallelism t =
  float_of_int t.n_tiles /. float_of_int t.n_levels

(* Pairs of same-level tiles whose interaction-loop iterations touch a
   common datum (reduction conflicts a parallel runtime must combine).
   Scans each datum's touchers in iteration order and compares
   consecutive ones, so the count is a lower bound on all conflicting
   pairs — enough to gauge how much privatization parallel execution
   would need. *)
let shared_data_conflicts t ~(access : Access.t)
    ~(tile_of_iter : int array) =
  let n_data = Access.n_data access in
  let touchers = Array.make n_data (-1) in
  (* Collect the (possibly duplicated) conflicting pairs, then let the
     conflict graph collapse multiplicity: [Csr.of_edges] keeps
     duplicates by design and [num_distinct_edges] counts each
     conflicting pair once. *)
  Irgraph.Scratch.with_buf @@ fun pairs ->
  for it = 0 to Access.n_iter access - 1 do
    let tile = tile_of_iter.(it) in
    Access.iter_touches access it (fun d ->
        let prev = touchers.(d) in
        if prev >= 0 && prev <> tile && t.level_of.(prev) = t.level_of.(tile)
        then
          Irgraph.Scratch.push pairs
            ((min prev tile * t.n_tiles) + max prev tile);
        touchers.(d) <- tile)
  done;
  let edges =
    Array.init (Irgraph.Scratch.length pairs) (fun i ->
        let key = Irgraph.Scratch.get pairs i in
        (key / t.n_tiles, key mod t.n_tiles))
  in
  Irgraph.Csr.num_distinct_edges (Irgraph.Csr.of_edges ~n:t.n_tiles edges)

(* Greedy list-scheduled makespan (longest-processing-time within each
   level, barrier between levels), with tile cost = iteration count. *)
let makespan t ~processors =
  if processors <= 0 then invalid_arg "Tile_par.makespan: processors";
  Array.fold_left
    (fun acc tiles_in_level ->
      let costs =
        Array.map (fun tile -> t.tile_cost.(tile)) tiles_in_level
      in
      Array.sort (fun a b -> compare b a) costs;
      let procs = Array.make processors 0 in
      Array.iter
        (fun c ->
          let m = ref 0 in
          for p = 1 to processors - 1 do
            if procs.(p) < procs.(!m) then m := p
          done;
          procs.(!m) <- procs.(!m) + c)
        costs;
      acc + Array.fold_left max 0 procs)
    0 t.levels

(* Serial cost for speedup computations. *)
let serial_cost t = Array.fold_left ( + ) 0 t.tile_cost

let speedup t ~processors =
  float_of_int (serial_cost t) /. float_of_int (makespan t ~processors)

let pp ppf t =
  Fmt.pf ppf "tile-par(%d tiles, %d levels, avg parallelism %.1f)" t.n_tiles
    t.n_levels (average_parallelism t)
