(** Sparse tiling (Section 2.3): iteration-reordering transformations
    whose inspectors traverse data dependences. Includes full sparse
    tiling (Strout et al.) and cache blocking (Douglas et al.). *)

type tile_fn = {
  n_tiles : int;
  tile_of : int array; (** iteration -> tile id *)
}

val tile_fn_of_partition : Irgraph.Partition.t -> tile_fn

(** Backward growth: [conn] maps each iteration of the loop being
    assigned to its *successors* in the already-assigned loop; the
    result takes the min successor tile (dependence-free iterations go
    to tile 0). *)
val grow_backward : conn:Access.t -> next:tile_fn -> tile_fn

(** Backward growth walking only the predecessor set: scatter-min over
    the same edge multiset [grow_backward] would gather from the
    transposed connectivity, so bit-identical to
    [grow_backward ~conn:(Access.transpose conn) ~next] without
    materializing the transpose (the paper's symmetric-dependence
    elision, generalized to asymmetric chains).

    Precondition (the symmetric-dependence halving): [conn] here is
    the {e predecessor} connectivity — the chain's own
    [conn.(l)], mapping each already-assigned iteration of loop [l+1]
    to its predecessors in the loop being assigned — and it must carry
    the {e complete} dependence edge multiset between the two loops.
    That holds exactly when the forward and backward dependences
    between the loop pair are constrained by the same index arrays
    (a [Kernels.Kernel.symmetric_backward] pair, e.g. moldyn's
    force-scatter/velocity-gather both keyed by left/right), or when
    the chain is asymmetric but [conn.(l)] was built as the full
    transpose of the successor relation. If backward edges existed
    that are {e not} the transpose of [conn]'s rows, the scatter would
    never see them and the resulting tile function could violate
    them. {!Compose.Repair} relies on this precondition: under churn
    it re-runs growth per damaged iteration over the updated
    predecessor rows alone, which is only sound because those rows
    are the whole dependence set. *)
val grow_backward_scatter : conn:Access.t -> next:tile_fn -> tile_fn

(** Forward growth: [conn] maps each iteration to its *predecessors*;
    takes the max predecessor tile. *)
val grow_forward : conn:Access.t -> prev:tile_fn -> tile_fn

(** Cache-blocking growth: keep the tile only when all predecessors
    agree (and none is the leftover), otherwise fall into the shared
    [leftover] tile (executed last). *)
val grow_cache_block : leftover:int -> conn:Access.t -> prev:tile_fn -> tile_fn

(** A chain of loops executed in sequence. [conn.(l)] maps each
    iteration of loop [l+1] to its predecessor iterations in loop [l]. *)
type chain = private {
  loop_sizes : int array;
  conn : Access.t array;
}

val n_loops : chain -> int

val make_chain : loop_sizes:int array -> conn:Access.t array -> chain

(** Full sparse tiling from a seed partitioning of loop [seed]; one
    tile function per loop, side-by-side growth (min backward, max
    forward). [shared_succ] supplies precomputed successor connectivity
    for backward loops (the Section 6 symmetric-dependence elision).
    [grow_backward] substitutes the backward growth pass (e.g.
    {!grow_backward_scatter}): it receives the *predecessor*
    connectivity [conn.(l)] directly, [shared_succ] is then unused,
    and it must be bit-identical to {!grow_backward} over the
    transpose. *)
val full :
  ?shared_succ:(int * Access.t) list ->
  ?grow_backward:(conn:Access.t -> next:tile_fn -> tile_fn) ->
  chain:chain ->
  seed:int ->
  seed_tiles:tile_fn ->
  unit ->
  tile_fn array

(** Cache blocking: seed on loop 0, shrink forward, leftover tile
    last. *)
val cache_block : chain:chain -> seed_tiles:tile_fn -> tile_fn array

(** All dependence edges a -> b with tile(a) > tile(b); empty = legal. *)
val check_legality :
  chain:chain -> tiles:tile_fn array -> (int * int * int) list

val pp_tile_fn : tile_fn Fmt.t
