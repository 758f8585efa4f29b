(** Tile packing (tilePack): consecutive packing of data over the
    sparse-tiled execution order, so each tile's data is contiguous. *)

(** A loop's iterations in tiled execution order: tiles ascending, each
    tile's members ascending (a stable counting sort of the tile
    function), the order of the loop's rows in [Schedule.of_tile_fns]. *)
val order : Sparse_tile.tile_fn -> int array

(** [run ~tiles ~accesses ~n_data] traverses tiles in order and,
    within each tile, the members of each listed [(loop, access)] in
    {!order}, first-touch packing every location; returns the data
    reordering sigma_tp. [tiles] holds one tile function per loop, as
    sparse tiling returns them. *)
val run :
  tiles:Sparse_tile.tile_fn array ->
  accesses:(int * Access.t) list ->
  n_data:int ->
  Perm.t
