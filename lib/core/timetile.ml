(* Sparse tiling across the outer time-stepping loop (Section 2.3:
   sparse tiles "cut between loops or across an outer loop"). The
   within-step loop chain is unrolled [depth] times; adjacent steps are
   connected by the kernel's cross-step connectivity (first loop of
   step s+1 depends on the last loop of step s). Tiles grown over this
   unrolled chain execute [depth] whole time steps slab-wise, reusing
   each tile's data across steps — the same temporal blocking the
   Gauss-Seidel kernel applies to its convergence loop, here available
   to all three benchmarks.

   The generalized tiled executors interpret a schedule whose loop
   count is a multiple of the chain length (position c runs the body of
   loop c mod chain-length), so the resulting schedule plugs into the
   ordinary [run_tiled]/[run_tiled_traced] entry points with
   steps = slabs. *)

open Reorder

let invalid fmt = Fmt.kstr invalid_arg fmt

(* The unrolled chain: loop sizes repeated [depth] times; the sets are
   the within-step sets plus the wrap set between copies, each in the
   orientation the kernel stores it. *)
let unrolled_chain (kernel : Kernels.Kernel.t) ~depth =
  if depth < 1 then invalid "Timetile: depth %d" depth;
  let access = kernel.Kernels.Kernel.access in
  let base = kernel.Kernels.Kernel.chain_of_access access in
  let wrap = kernel.Kernels.Kernel.wrap_conn_of_access access in
  let l = Array.length base.Sparse_tile.loop_sizes in
  let loop_sizes =
    Array.init (depth * l) (fun c -> base.Sparse_tile.loop_sizes.(c mod l))
  in
  let conn =
    Array.init
      ((depth * l) - 1)
      (fun c ->
        if (c + 1) mod l = 0 then wrap else base.Sparse_tile.conn.(c mod l))
  in
  Sparse_tile.make_oriented_chain ~loop_sizes ~conn

type t = {
  schedule : Schedule.t; (* depth * chain-length loops *)
  depth : int;           (* time steps per slab *)
  n_tiles : int;
}

(* Grow tiles over [depth] unrolled time steps from a block seed on the
   interaction loop of the middle step. *)
let tile (kernel : Kernels.Kernel.t) ~depth ~seed_part_size =
  let chain = unrolled_chain kernel ~depth in
  let l = Array.length kernel.Kernels.Kernel.loop_sizes in
  let seed_step = depth / 2 in
  let seed_loop = (seed_step * l) + kernel.Kernels.Kernel.seed_loop in
  let seed_tiles =
    Sparse_tile.tile_fn_of_partition
      (Irgraph.Partition.block
         ~n:chain.Sparse_tile.loop_sizes.(seed_loop)
         ~part_size:seed_part_size)
  in
  let tiles = Sparse_tile.full ~chain ~seed:seed_loop ~seed_tiles () in
  (match Sparse_tile.check_legality ~chain ~tiles with
  | [] -> ()
  | (lp, a, b) :: _ ->
    invalid "Timetile: illegal tiling (loop pair %d: %d -> %d)" lp a b);
  let schedule = Schedule.of_tile_fns tiles in
  if
    not
      (Schedule.check_coverage schedule
         ~loop_sizes:chain.Sparse_tile.loop_sizes)
  then invalid "Timetile: schedule does not cover the unrolled chain";
  { schedule; depth; n_tiles = Schedule.n_tiles schedule }

(* Execute [total_steps] time steps as consecutive slabs of [depth]
   (must divide evenly); exactly equivalent to [total_steps] plain
   steps when the tiling is legal. *)
let run (kernel : Kernels.Kernel.t) t ~total_steps =
  if total_steps mod t.depth <> 0 then
    invalid "Timetile.run: %d steps not a multiple of depth %d" total_steps
      t.depth;
  kernel.Kernels.Kernel.run_tiled t.schedule ~steps:(total_steps / t.depth)

let run_traced (kernel : Kernels.Kernel.t) t ~total_steps ~layout ~access =
  if total_steps mod t.depth <> 0 then
    invalid "Timetile.run_traced: steps not a multiple of depth";
  kernel.Kernels.Kernel.run_tiled_traced t.schedule
    ~steps:(total_steps / t.depth) ~layout ~access
