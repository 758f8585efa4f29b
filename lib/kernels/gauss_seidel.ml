(* Gauss-Seidel smoothing over an irregular mesh — the computation
   sparse tiling was originally developed for (Section 2.3: "until
   now, it has only been applied to Gauss-Seidel"). Including it here
   exercises full sparse tiling across iterations of an *outer* loop
   (the convergence loop), the second pattern the paper describes.

   The smoother solves A u = f for the graph Laplacian-like operator

     u(v) <- ( f(v) + sum_{w in adj(v)} u(w) ) / (deg(v) + c)

   updated in place, nodes in numbering order, for [sweeps] sweeps.

   Sparse-tiled execution runs tiles atomically: within a tile, sweeps
   in order; within a sweep, member nodes in numbering order. The tile
   function theta(v, s) must respect every Gauss-Seidel dependence:

     C1 (within sweep) : adjacent v < w        => theta(v,s) <= theta(w,s)
     C2 (cross sweep)  : adjacent v, w, any id => theta(w,s) <= theta(v,s+1)
     C3 (self)         :                          theta(v,s) <= theta(v,s+1)

   Growth starts from a seed partitioning (nodes renumbered so the
   seed is monotone), proceeds min-backward / max-forward as in
   Section 2.3, then repairs within-sweep violations to a fixpoint.
   [check_constraints] verifies all three constraint families, and the
   tiled executor is bitwise-equal to the plain one because every
   value version matches. *)

type t = {
  graph : Irgraph.Csr.t;
  u : float array;
  f : float array;
}

let damping = 1.0

let create ~graph ~f =
  let n = Irgraph.Csr.num_nodes graph in
  { graph; u = Array.make n 0.0; f = Array.copy f }

let copy t = { t with u = Array.copy t.u; f = Array.copy t.f }

let update t v =
  let acc = ref t.f.(v) in
  Irgraph.Csr.iter_neighbors t.graph v (fun w -> acc := !acc +. t.u.(w));
  t.u.(v) <- !acc /. (float_of_int (Irgraph.Csr.degree t.graph v) +. damping)

let run_plain t ~sweeps =
  let n = Irgraph.Csr.num_nodes t.graph in
  for _s = 1 to sweeps do
    for v = 0 to n - 1 do
      update t v
    done
  done

(* ------------------------------------------------------------------ *)
(* Tile functions across sweeps                                        *)

type tiling = {
  n_tiles : int;
  sweeps : int;
  theta : int array array; (* theta.(s).(v) = tile of node v at sweep s *)
}

(* Enforce C1 within one sweep by raising tiles: a node may not be
   tiled earlier than any lower-numbered neighbor. One ascending pass
   reaches the fixpoint because each node only looks at lower ids. *)
let repair_raise graph theta_s =
  let n = Irgraph.Csr.num_nodes graph in
  for v = 0 to n - 1 do
    Irgraph.Csr.iter_neighbors graph v (fun w ->
        if w < v && theta_s.(w) > theta_s.(v) then theta_s.(v) <- theta_s.(w))
  done

(* Enforce C1 by lowering: a node may not be tiled later than any
   higher-numbered neighbor. One descending pass reaches the fixpoint. *)
let repair_lower graph theta_s =
  let n = Irgraph.Csr.num_nodes graph in
  for v = n - 1 downto 0 do
    Irgraph.Csr.iter_neighbors graph v (fun w ->
        if w > v && theta_s.(w) < theta_s.(v) then theta_s.(v) <- theta_s.(w))
  done

(* Grow a tiling from a seed partitioning of the nodes at sweep
   [seed_sweep]. The seed must already satisfy C1 (monotone among
   adjacent nodes) — renumber the nodes by the partition first. *)
let grow graph ~seed ~seed_sweep ~sweeps =
  let n = Irgraph.Csr.num_nodes graph in
  if Array.length seed.Reorder.Sparse_tile.tile_of <> n then
    invalid_arg "Gauss_seidel.grow: seed size";
  let n_tiles = seed.Reorder.Sparse_tile.n_tiles in
  let theta = Array.init sweeps (fun _ -> Array.make n 0) in
  Array.blit seed.Reorder.Sparse_tile.tile_of 0 theta.(seed_sweep) 0 n;
  repair_raise graph theta.(seed_sweep);
  (* Backward: min over closed neighborhood, then lower-repair C1. *)
  for s = seed_sweep - 1 downto 0 do
    for v = 0 to n - 1 do
      let m = ref theta.(s + 1).(v) in
      Irgraph.Csr.iter_neighbors graph v (fun w ->
          if theta.(s + 1).(w) < !m then m := theta.(s + 1).(w));
      theta.(s).(v) <- !m
    done;
    repair_lower graph theta.(s)
  done;
  (* Forward: max over closed neighborhood, then raise-repair C1. *)
  for s = seed_sweep + 1 to sweeps - 1 do
    for v = 0 to n - 1 do
      let m = ref theta.(s - 1).(v) in
      Irgraph.Csr.iter_neighbors graph v (fun w ->
          if theta.(s - 1).(w) > !m then m := theta.(s - 1).(w));
      theta.(s).(v) <- !m
    done;
    repair_raise graph theta.(s)
  done;
  { n_tiles; sweeps; theta }

(* All C1/C2/C3 violations; empty = the tiled execution is exactly
   plain Gauss-Seidel. *)
let check_constraints graph tiling =
  let n = Irgraph.Csr.num_nodes graph in
  let violations = ref [] in
  for s = 0 to tiling.sweeps - 1 do
    let th = tiling.theta.(s) in
    for v = 0 to n - 1 do
      Irgraph.Csr.iter_neighbors graph v (fun w ->
          if v < w && th.(v) > th.(w) then violations := (`C1, s, v, w) :: !violations);
      if s + 1 < tiling.sweeps then begin
        let th' = tiling.theta.(s + 1) in
        if th.(v) > th'.(v) then violations := (`C3, s, v, v) :: !violations;
        Irgraph.Csr.iter_neighbors graph v (fun w ->
            if th.(w) > th'.(v) then violations := (`C2, s, w, v) :: !violations)
      end
    done
  done;
  List.rev !violations

(* The tiling as a flat executor schedule: sweep [s] is chain position
   [s], member nodes ascending within each (tile, sweep) row. *)
let schedule tiling =
  Reorder.Schedule.of_tile_fns
    (Array.map
       (fun th ->
         { Reorder.Sparse_tile.n_tiles = tiling.n_tiles; tile_of = th })
       tiling.theta)

(* The update as a Walker loop function over a row's items. [update]
   itself stays bounds-checked (it chases graph adjacency). *)
let update_items t fl lo hi =
  for idx = lo to hi - 1 do
    update t fl.(idx)
  done

(* Walk one tile of the flat schedule: sweeps in order, member nodes in
   numbering order. *)
let run_tile t (sched : Reorder.Schedule.t) ~tile =
  let nl = Reorder.Schedule.n_loops sched in
  let rp = Reorder.Schedule.row_ptr sched in
  for s = 0 to nl - 1 do
    let r = (tile * nl) + s in
    update_items t (Reorder.Schedule.flat_items sched) rp.(r) rp.(r + 1)
  done

(* Walk a flat schedule directly — tiles in order, sweeps (chain
   positions) in order within a tile, member nodes in row order —
   through the pair kernels' walker. [run_tiled] is [run_sched] of
   [schedule tiling]. *)
let run_sched t sched = Walker.walk_items [| update_items |] t sched

let run_tiled t tiling = run_sched t (schedule tiling)

(* Execute [total_sweeps] as consecutive slabs of the tiling's depth:
   temporal blocking in the usual sense. Tile growth smears by one
   graph layer per sweep away from the seed, so deep tilings
   degenerate; re-tiling every [tiling.sweeps] sweeps keeps tiles
   compact while preserving exact Gauss-Seidel semantics (each slab is
   exactly [tiling.sweeps] plain sweeps). [total_sweeps] must be a
   multiple of the slab depth. *)
let run_tiled_slabbed t tiling ~total_sweeps =
  if total_sweeps mod tiling.sweeps <> 0 then
    invalid_arg "Gauss_seidel.run_tiled_slabbed: sweeps not a multiple";
  for _slab = 1 to total_sweeps / tiling.sweeps do
    run_tiled t tiling
  done

(* Tile dependence DAG of a tiling, levelized. Edges follow the three
   constraint families, which all ascend in tile id when the tiling is
   legal (an illegal tiling makes [Tile_par.of_edges] raise): C1 links
   within-sweep adjacent nodes in different tiles, C2 links a node's
   sweep-s neighbors to its sweep-(s+1) tile, C3 links a node's own
   consecutive-sweep tiles. Any two tiles that share any value version
   of u are therefore connected, so same-level tiles are fully
   independent and may run concurrently with bitwise-serial results. *)
let tile_dag graph tiling =
  let n = Irgraph.Csr.num_nodes graph in
  let n_tiles = tiling.n_tiles in
  Irgraph.Scratch.with_buf @@ fun buf ->
  let add ta tb =
    if ta <> tb then Irgraph.Scratch.push buf ((ta * n_tiles) + tb)
  in
  for s = 0 to tiling.sweeps - 1 do
    let th = tiling.theta.(s) in
    for v = 0 to n - 1 do
      Irgraph.Csr.iter_neighbors graph v (fun w ->
          if v < w then add th.(v) th.(w));
      if s + 1 < tiling.sweeps then begin
        let th' = tiling.theta.(s + 1) in
        add th.(v) th'.(v);
        Irgraph.Csr.iter_neighbors graph v (fun w -> add th.(w) th'.(v))
      end
    done
  done;
  let tile_cost = Array.make n_tiles 0 in
  Array.iter
    (fun th -> Array.iter (fun t -> tile_cost.(t) <- tile_cost.(t) + 1) th)
    tiling.theta;
  Irgraph.Scratch.sort_dedup buf;
  let edges =
    Array.init (Irgraph.Scratch.length buf) (fun i ->
        let key = Irgraph.Scratch.get buf i in
        (key / n_tiles, key mod n_tiles))
  in
  Reorder.Tile_par.of_edges ~n_tiles ~tile_cost edges

(* Run the tiling with same-level tiles concurrent (tiles atomic:
   sweeps in order, member nodes in numbering order, exactly as
   [run_tiled]). Bitwise equal to [run_tiled]: conflicting tile pairs
   all have DAG edges and execute in the same relative order, and
   edge-free pairs touch disjoint value versions. *)
let run_tiled_par ~pool t tiling (par : Reorder.Tile_par.t) =
  let sched = schedule tiling in
  Rtrt_par.Exec.run_levels ~pool ~levels:par.Reorder.Tile_par.levels
    ~weight:(fun tile -> par.Reorder.Tile_par.tile_cost.(tile))
    (fun tile -> run_tile t sched ~tile)

(* Dependences of one Gauss-Seidel sweep for wavefront scheduling:
   node [v] depends on its lower-numbered neighbors (whose
   current-sweep values it reads). Higher-numbered neighbors list [v]
   as a predecessor in turn, so adjacent nodes never share a wavefront
   level and in-place parallel execution of a level is exact. *)
let wavefront_preds graph =
  let n = Irgraph.Csr.num_nodes graph in
  Reorder.Access.of_touches ~sort_rows:true ~n_iter:n ~n_data:n (fun v emit ->
      Irgraph.Csr.iter_neighbors graph v (fun w -> if w < v then emit w))

(* [sweeps] plain sweeps with each wavefront level's nodes updated
   concurrently; bitwise equal to [run_plain] because a level never
   contains two adjacent nodes (each reads only values written in
   earlier or later levels, the same versions the serial sweep
   reads). All sweeps execute inside one pool dispatch
   ([~rounds:sweeps]), synchronized by in-job barriers. *)
let run_wavefront_par ~pool t (w : Reorder.Wavefront.t) ~sweeps =
  let weight v = Irgraph.Csr.degree t.graph v in
  Rtrt_par.Exec.run_levels ~rounds:sweeps ~pool
    ~levels:w.Reorder.Wavefront.levels ~weight (update t)

(* Traced executors for the cache model: u and f are the two arrays. *)
let trace_update graph ~touch_u ~touch_f v =
  touch_f v;
  Irgraph.Csr.iter_neighbors graph v (fun w -> ignore (touch_u w : unit));
  touch_u v

let run_traced t ~sweeps ~layout ~access =
  let addr_u = Cachesim.Layout.addresser layout "u" in
  let addr_f = Cachesim.Layout.addresser layout "f" in
  let touch_u v = access (addr_u v) in
  let touch_f v = access (addr_f v) in
  let n = Irgraph.Csr.num_nodes t.graph in
  for _s = 1 to sweeps do
    for v = 0 to n - 1 do
      trace_update t.graph ~touch_u ~touch_f v
    done
  done

let run_tiled_traced ?(slabs = 1) t tiling ~layout ~access =
  let addr_u = Cachesim.Layout.addresser layout "u" in
  let addr_f = Cachesim.Layout.addresser layout "f" in
  let touch_u v = access (addr_u v) in
  let touch_f v = access (addr_f v) in
  let sched = schedule tiling in
  let nl = Reorder.Schedule.n_loops sched in
  let rp = Reorder.Schedule.row_ptr sched in
  let fl = Reorder.Schedule.flat_items sched in
  for _slab = 1 to slabs do
    for tile = 0 to Reorder.Schedule.n_tiles sched - 1 do
      for s = 0 to nl - 1 do
        let r = (tile * nl) + s in
        for i = rp.(r) to rp.(r + 1) - 1 do
          trace_update t.graph ~touch_u ~touch_f fl.(i)
        done
      done
    done
  done

let layout t =
  let n = Irgraph.Csr.num_nodes t.graph in
  Cachesim.Layout.grouped ~groups:[ [ ("u", n); ("f", n) ] ] ()

(* Renumber the mesh so a partition's blocks are consecutive; returns
   the permuted problem, the permutation, and the seed tile function
   (which is monotone in the new numbering by construction). *)
let renumber_by_partition graph ~f ~partition =
  let members = Irgraph.Partition.members partition in
  let n = Irgraph.Csr.num_nodes graph in
  let inv = Array.make n 0 in
  let pos = ref 0 in
  Array.iter
    (fun part -> Array.iter (fun v -> inv.(!pos) <- v; incr pos) part)
    members;
  let sigma = Reorder.Perm.of_inverse inv in
  let fwd = Reorder.Perm.to_forward_array sigma in
  let edges =
    Array.map (fun (a, b) -> (fwd.(a), fwd.(b))) (Irgraph.Csr.edges graph)
  in
  let graph' = Irgraph.Csr.of_edges ~n edges in
  let f' = Reorder.Perm.apply_to_float_array sigma f in
  let tile_of = Array.make n 0 in
  Array.iteri
    (fun v part -> tile_of.(fwd.(v)) <- part)
    (Irgraph.Partition.assignment partition);
  ( graph',
    f',
    sigma,
    { Reorder.Sparse_tile.n_tiles = Irgraph.Partition.n_parts partition; tile_of } )
