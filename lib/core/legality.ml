(* Run-time legality verification for composed transformations.

   The framework's compile-time rules (Section 4) constrain *which*
   transformations may be composed — {!Plan.validate} and
   {!Symbolic.apply} enforce those. This module verifies the *run-time
   reordering functions* the inspectors actually produced: for every
   dependence p -> q of the (transformed) program, the executor must
   visit p before q. *)

open Reorder

let ( let* ) r f = Result.bind r f

(* [Schedule.tile_fns_of_rows] over a schedule's own rows: the tile
   functions and the coverage verdict, in one pass. *)
let tile_fns sched ~loop_sizes =
  Schedule.tile_fns_of_rows ~n_tiles:(Schedule.n_tiles sched)
    ~row_ptr:(Schedule.row_ptr sched) ~items:(Schedule.flat_items sched)
    ~loop_sizes

let tile_fns_of_schedule sched ~loop_sizes = fst (tile_fns sched ~loop_sizes)

(* Check a tiled executor against the final kernel: coverage (every
   iteration exactly once) and dependence order (tile(p) <= tile(q)
   for every dependence edge between adjacent loops). The kernel's
   chain holds its access itself, so the check walks each dependence
   set once, in the orientation the kernel declares, and transposes
   nothing. *)
let check_tiled (kernel : Kernels.Kernel.t) sched =
  let loop_sizes = kernel.Kernels.Kernel.loop_sizes in
  let* () =
    if Schedule.n_loops sched = Array.length loop_sizes then Ok ()
    else
      Error
        (Fmt.str "schedule has %d loops, the kernel chain %d"
           (Schedule.n_loops sched) (Array.length loop_sizes))
  in
  let tiles, covered = tile_fns sched ~loop_sizes in
  let* () =
    if covered then Ok ()
    else Error "schedule does not cover every iteration exactly once"
  in
  (* Coverage puts every iteration in exactly one row, so every tile
     function is total. *)
  let chain = kernel.Kernels.Kernel.chain_of_access kernel.Kernels.Kernel.access in
  match Sparse_tile.check_legality ~chain ~tiles with
  | [] -> Ok ()
  | (l, a, b) :: _ ->
    Error
      (Fmt.str "dependence violated between loops %d and %d: %d -> %d" l
         (l + 1) a b)

(* Check an untransformed-shape executor: with only data and
   interaction-loop reorderings, legality reduces to (a) both
   reordering functions being bijections (checked on construction) and
   (b) the interaction loop carrying only reduction dependences, which
   the kernel descriptions assert (Section 4, footnote 3). We verify
   (a) dynamically as belt and braces. *)
let check_plain (result : Inspector.result) =
  let check_perm name p n =
    if Perm.size p <> n then Error (Fmt.str "%s has wrong size" name) else Ok ()
  in
  let k = result.Inspector.kernel in
  let* () =
    check_perm "sigma" result.Inspector.sigma_total k.Kernels.Kernel.n_nodes
  in
  check_perm "delta" result.Inspector.delta_total k.Kernels.Kernel.n_inter

(* Full verification of an inspector result. *)
let check (result : Inspector.result) =
  let* () = check_plain result in
  match result.Inspector.schedule with
  | None -> Ok ()
  | Some sched -> check_tiled result.Inspector.kernel sched
