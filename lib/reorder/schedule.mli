(** Executor schedules for sparse-tiled loop chains: sched(t, l) of
    Section 5.4 / Figure 14, stored as flat CSR.

    Row [tile * n_loops + loop] of [items] spans
    [row_ptr.(row) .. row_ptr.(row + 1) - 1]. A tile's rows are
    adjacent, so one tile's iterations form a single contiguous block
    of [items]. Construction ([of_tile_fns]) validates that each
    loop's rows partition its iteration space, and every operation
    below preserves that invariant — consumers that re-check
    {!check_fits} against their own loop sizes may stream [items] with
    [Array.unsafe_get] (see README "Hot paths"). *)

type t = private {
  n_tiles : int;
  n_loops : int;
  row_ptr : int array;  (** length [n_tiles * n_loops + 1] *)
  items : int array;    (** all member iterations, row-contiguous *)
  mutable fits_ok : int array option;
      (** last loop sizes proven by {!check_fits}; internal memo so
          cache-replayed schedules skip the O(rows) scan *)
  mutable coverage_ok : int array option;
      (** last loop sizes proven by {!check_coverage} (set at
          construction: [of_tile_fns] proves its own loops' coverage) *)
}

val n_tiles : t -> int
val n_loops : t -> int

val equal : t -> t -> bool
(** Same tiling and member order. Ignores the validation memos —
    polymorphic [=] on [t] is unreliable because the memo fields
    record execution history (what has been checked so far), not
    schedule identity. *)

val row_ptr : t -> int array
(** The CSR row pointers themselves, without copying. Do not mutate. *)

val flat_items : t -> int array
(** The flat iteration array itself, without copying. Do not mutate. *)

val row : t -> tile:int -> loop:int -> int * int
(** Bounds [(lo, hi)] of [loop]'s members inside [tile]:
    [flat_items.(lo) .. flat_items.(hi - 1)], ascending. *)

val items : t -> tile:int -> loop:int -> int array
(** Copy of [loop]'s members inside [tile], ascending. Allocates; hot
    paths should use {!row} / the record fields instead. *)

(** Build from per-loop tile functions (which must agree on the number
    of tiles, as {!Sparse_tile.full} guarantees). Validates every tile
    id; raises [Invalid_argument] on an out-of-range id. *)
val of_tile_fns : Sparse_tile.tile_fn array -> t

(** [of_rows ~n_tiles ~row_ptr ~items ~loop_sizes] is the schedule
    with this flat CSR ([n_tiles * Array.length loop_sizes] rows, as in
    {!t}), validated in one pass: the row pointers run from 0 to
    [Array.length items] without decreasing, each row names iterations
    of its loop in strictly ascending order, and each loop [l]'s rows
    name every iteration of [0, loop_sizes.(l)) exactly once. Exactly
    the schedules {!of_tile_fns} builds, so coverage for [loop_sizes]
    is proven ({!check_coverage} is memoized). The arrays are not
    copied. Raises [Invalid_argument] on anything else. *)
val of_rows :
  n_tiles:int ->
  row_ptr:int array ->
  items:int array ->
  loop_sizes:int array ->
  t

(** Concatenated per-tile execution order of loop [l]. *)
val loop_order : t -> int -> int array

(** The iteration reordering induced on loop [l] by tiled execution. *)
val perm_of_loop : t -> int -> Perm.t

(** Remap the iteration ids of one loop through a permutation, keeping
    tile member lists ascending: a data reordering's renaming of an
    identity-mapped loop after sparse tiling. The inspector renames
    tile functions instead and builds its schedule once; this is the
    reference its tests compare against. *)
val remap_loop : t -> loop:int -> Perm.t -> t

(** Renumber tiles: new tile [t] is old tile [order.(t)]; raises
    [Invalid_argument] unless [order] is a permutation of the tile
    ids. One blit per tile thanks to block contiguity. *)
val permute_tiles : t -> order:int array -> t

(** Move iterations between rows of one loop:
    [(loop, iteration, old_tile, new_tile)] per move. The plan-repair
    splice under graph churn — one linear pass that blits untouched
    rows and rebuilds touched rows by sorted merge, so rows stay
    ascending exactly as [of_tile_fns] leaves them — the result is
    [equal] to a full rebuild from the updated tile functions. Per-loop totals and exactly-once coverage are invariant
    under a splice, so the {!check_fits}/{!check_coverage} memos carry
    over. Raises [Invalid_argument] on out-of-range tiles, duplicate
    moves, or a leaver that is not in its claimed row; an empty move
    array returns the schedule unchanged. *)
val splice : t -> moves:(int * int * int * int) array -> t

(** The inverse of {!of_tile_fns}: per-loop tile functions rebuilt
    from CSR rows ([n_tiles * Array.length loop_sizes] of them, as in
    {!t}), and whether each loop [l]'s rows name every iteration of
    [0, loop_sizes.(l)) exactly once. An iteration no row names keeps
    tile [-1]; one outside its loop, or named again, is not placed.
    One pass over the items. Raises [Invalid_argument] if [row_ptr]
    has the wrong length. *)
val tile_fns_of_rows :
  n_tiles:int ->
  row_ptr:int array ->
  items:int array ->
  loop_sizes:int array ->
  Sparse_tile.tile_fn array * bool

(** Each iteration of each loop appears exactly once. O(iterations)
    the first time; subsequent calls with the same sizes on the same
    schedule value return via the memo in O(loops) and bump the
    [plancache.coverage_check_skips] counter. *)
val check_coverage : t -> loop_sizes:int array -> bool

(** Cheap O(rows) executor guard. [loop_sizes] lists the chain's
    per-position iteration counts; [n_loops] must be a positive
    multiple of the chain length (time-step tiling unrolls the chain),
    and loop [l]'s rows must hold exactly [loop_sizes.(l mod chain)]
    iterations in total. Executors call this once per run, then stream
    with [Array.unsafe_get]. Successful checks are memoized per
    schedule value (and counted as [plancache.schedule_check_skips]
    when re-used), so cache-replayed schedules pay the scan once. *)
val check_fits : t -> loop_sizes:int array -> bool

val total_iterations : t -> int
val pp : t Fmt.t
