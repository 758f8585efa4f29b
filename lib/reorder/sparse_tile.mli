(** Sparse tiling (Section 2.3): iteration-reordering transformations
    whose inspectors traverse data dependences. Includes full sparse
    tiling (Strout et al.) and cache blocking (Douglas et al.). *)

type tile_fn = {
  n_tiles : int;
  tile_of : int array; (** iteration -> tile id *)
}

(** The partition as a tile function, one tile per part. The result
    shares the partition's assignment array, without a copy; no
    function of this module writes into a tile function it is given. *)
val tile_fn_of_partition : Irgraph.Partition.t -> tile_fn

(** Backward growth: [conn] maps each iteration of the loop being
    assigned to its *successors* in the already-assigned loop; the
    result takes the min successor tile (dependence-free iterations go
    to tile 0). *)
val grow_backward : conn:Access.t -> next:tile_fn -> tile_fn

(** Backward growth over predecessor rows: [conn] maps each iteration
    of the already-assigned loop to its predecessors in the loop being
    assigned. Scatter-min over the same edge multiset {!grow_backward}
    gathers from successor rows, so bit-identical to
    [grow_backward ~conn:(Access.transpose conn) ~next] without
    materializing the transpose (the paper's symmetric-dependence
    elision, generalized to asymmetric chains).

    Precondition: [conn] must carry the {e complete} dependence edge
    multiset between the two loops. If backward edges existed that are
    not the transpose of [conn]'s rows, the scatter would never see
    them and the resulting tile function could violate them.
    {!Compose.Repair} relies on this: under churn it re-runs growth
    per damaged iteration over the updated interaction rows alone,
    which is only sound because those rows are the whole dependence
    set. *)
val grow_backward_scatter : conn:Access.t -> next:tile_fn -> tile_fn

(** Forward growth: [conn] maps each iteration to its *predecessors*;
    takes the max predecessor tile (0 without predecessors). *)
val grow_forward : conn:Access.t -> prev:tile_fn -> tile_fn

(** Cache-blocking growth: keep the tile only when all predecessors
    agree (and none is the leftover), otherwise fall into the shared
    [leftover] tile (executed last). [conn] holds predecessor rows. *)
val grow_cache_block : leftover:int -> conn:Access.t -> prev:tile_fn -> tile_fn

(** One dependence set between adjacent loops [l] and [l + 1], stored
    in one orientation. Both forms hold the same edge multiset, and
    every traversal below ({!full}, {!cache_block},
    {!check_legality}, [Tile_par.tile_edges]) reads either one with
    bit-identical results, so a kernel hands the chain whichever form
    it already has — for the bundled kernels, the interaction access
    itself — and nothing transposes it. *)
type deps =
  | Preds of Access.t
      (** rows: the iterations of loop [l + 1]; entries: the loop-[l]
          iterations each depends on *)
  | Succs of Access.t
      (** rows: the iterations of loop [l]; entries: the
          loop-[l + 1] iterations that depend on each *)

(** A chain of loops executed in sequence. [conn.(l)] is the
    dependence set between loops [l] and [l + 1]. *)
type chain = private {
  loop_sizes : int array;
  conn : deps array;
}

val n_loops : chain -> int

(** A chain whose sets are all predecessor rows: [conn.(l)] maps each
    iteration of loop [l + 1] to its predecessor iterations in loop
    [l]. *)
val make_chain : loop_sizes:int array -> conn:Access.t array -> chain

(** A chain with each set in the orientation given. Raises
    [Invalid_argument] unless each set's rows and entries match the
    sizes of the loops its orientation names. *)
val make_oriented_chain : loop_sizes:int array -> conn:deps array -> chain

(** [chain] with every set in the orientation growth from [seed]
    gathers over: successor rows for the pairs before [seed],
    predecessor rows from [seed] on ([seed] 0 for {!cache_block}).
    Each set stored the other way is transposed, so this is the
    two-set baseline of the symmetric-dependence elision
    ([share_symmetric_deps:false]); it tiles exactly as [chain]
    does. *)
val gather_oriented : chain:chain -> seed:int -> chain

(** Full sparse tiling from a seed partitioning of loop [seed]; one
    tile function per loop, side-by-side growth (min backward, max
    forward). Each set is walked once in its stored orientation:
    backward growth gathers over successor rows ({!grow_backward}) or
    scatters min over predecessor rows ({!grow_backward_scatter});
    forward growth gathers over predecessor rows ({!grow_forward}) or
    scatters max over successor rows, bit-identical to
    [grow_forward ~conn:(Access.transpose conn)]. No transpose is
    built. *)
val full :
  chain:chain ->
  seed:int ->
  seed_tiles:tile_fn ->
  unit ->
  tile_fn array

(** Cache blocking: seed on loop 0, shrink forward, leftover tile
    last. Reads either orientation. *)
val cache_block : chain:chain -> seed_tiles:tile_fn -> tile_fn array

(** All dependence edges a -> b with tile(a) > tile(b); empty = legal.
    The triples come in the order the stored rows list the edges, so
    two orientations of one chain give the same set in different
    orders. *)
val check_legality :
  chain:chain -> tiles:tile_fn array -> (int * int * int) list

val pp_tile_fn : tile_fn Fmt.t
