(** Run-time verification that inspector-generated reordering functions
    respect every dependence of the transformed program. *)

(** Per-loop tile functions of a schedule
    ({!Reorder.Schedule.tile_fns_of_rows} without the coverage
    verdict). An iteration no row names keeps tile [-1]. *)
val tile_fns_of_schedule :
  Reorder.Schedule.t ->
  loop_sizes:int array ->
  Reorder.Sparse_tile.tile_fn array

(** Coverage + dependence-order check of a tiled executor against the
    final kernel's chain. Coverage is checked in the pass that rebuilds
    the tile functions ({!Reorder.Schedule.tile_fns_of_rows}), and each dependence set is walked once in the
    orientation the kernel's chain stores it, so no transpose is
    built. *)
val check_tiled :
  Kernels.Kernel.t -> Reorder.Schedule.t -> (unit, string) result

(** Bijectivity/size sanity of the composed reordering functions. *)
val check_plain : Inspector.result -> (unit, string) result

(** Full verification of an inspector result. *)
val check : Inspector.result -> (unit, string) result
