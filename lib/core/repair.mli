(** Incremental plan repair under graph churn.

    Every other entry point in this library inspects a frozen access
    pattern once. Real MD re-neighbors every few hundred steps; after
    k% of interactions are rewired ({!Datagen.Churn.rewire}), a cold
    re-inspection throws away an almost-entirely-valid composed
    permutation and schedule. Repair keeps both: the old plan's
    composed reorderings (sigma, delta) and its seed tiling are frozen
    and replayed onto the churned kernel, and tile growth is re-run
    {e only} for the iterations whose dependence neighborhoods
    intersect the damage set — every other iteration's grown tile is
    the min/max of an unchanged set and cannot move. The recomputed
    memberships are spliced back into the flat-CSR schedule
    ({!Reorder.Schedule.splice}).

    Adjacency maintenance, regrowth and the splice's row merges cost
    O(damage): the node -> interactions adjacency is a set of flat
    arrays (the transpose of the final access, the one transpose
    {!prepare} builds) edited in place. The
    splice blits the untouched rows in one pass. One part stays
    O(dataset) whatever the damage: the replay of the frozen
    reorderings ({!Inspector.remap}, one kernel rebuild). At a few
    percent churn it dominates a repair. A damage set that raises a node's degree
    (which {!Datagen.Churn.rewire} never produces) also rebuilds the
    adjacency from the churned access.

    {2 Contract}

    [repair state kernel ~damage] is {b bit-identical} to the frozen
    cold path {!regrow} — replaying the same frozen reorderings and
    re-running full growth from the frozen seed tiling over the whole
    churned access ([Reorder.Sparse_tile.full], whose scatters over
    the interaction access — min backward, max forward — repair's
    per-node rule mirrors; see the [grow_backward_scatter]
    precondition in [sparse_tile.mli]) — in
    both the schedule ([Reorder.Schedule.equal]) and every executor
    result. Growth over min/max is order-independent and the damage
    set is exactly the set of iterations whose predecessor/successor
    multisets changed, so the equivalence is by construction;
    [~verify:true] re-checks it on every call.

    Against a {e true} cold re-inspection ([Compose.Inspector.run] on
    the churned kernel, which re-derives fresh reorderings) the
    repaired plan is equally {e legal} but generally picks different
    permutations, trading a little executor locality for a much
    cheaper inspector — the trade [Harness.Churnbench] measures
    (repair-vs-cold time ratio and steps-to-amortize).

    {2 Fallback}

    Past a damage threshold the incremental path stops paying: repair
    still replays both composed permutations and the splice touches
    every damaged row, while cold inspection re-derives better
    orderings. [`Auto] (the default) compares a machine-calibrated
    cost model of the repair — measured replay seconds plus a
    per-dependence-touch cost calibrated from the last cold
    inspection on this machine, the same ns-on-the-machine-clock
    costing style {!Harness.Autotune} scores plans with — against the
    measured cold inspector seconds, and falls back to
    [Compose.Inspector.run] when repair is not modeled to win (or when
    the plan is unsupported: cache-block growth, or a chain whose
    non-seed loops are not seed-adjacent node loops). After a
    fallback the state is re-seeded from the fresh inspection, so
    later rounds repair incrementally again.

    {2 Caching and specialization}

    Plan-cache keys are content-addressed over the access pattern, so
    churn re-fingerprints by construction: the pre-churn entry can
    never replay against the churned kernel. Repaired results are not
    cached: a lookup would have to hash the whole churned access, which
    costs more than the incremental work a hit could skip. Only a cold
    fallback reads and fills the cache, as {!Compose.Inspector.run}
    does. The spliced schedule is a new value
    (fresh [items]/[row_ptr]), so a shape index pinned to the old
    schedule ([Shape.for_schedule]) can never serve a stale
    specialization.

    Observability: counters [repair.rounds], [repair.fallbacks_cold],
    [repair.nodes_recomputed], [repair.tiles_moved],
    [repair.damaged_edges]; gauges
    [repair.last_seconds], [repair.last_modeled_seconds]. *)

type state

(** Capture the repair state of a completed inspection: the frozen
    composed reorderings, the frozen seed tiling and per-loop tile
    functions (from the schedule), and the dependence adjacency of the
    inspected access in final coordinates. [plan] and [result] must be
    the very pair passed to / returned by {!Compose.Inspector.run}; a
    cold fallback re-inspects with [run]'s default strategy and
    symmetric-dependence sharing. *)
val prepare : Plan.t -> Inspector.result -> state

(** [Ok ()] when the incremental path applies; [Error reason] when
    every [repair] call will fall back to full re-inspection (plans
    without full-growth sparse tiling repair by pure replay and are
    supported). *)
val supported : state -> (unit, string) result

(** The current (latest repaired) schedule, [None] for non-tiling
    plans. *)
val schedule : state -> Reorder.Schedule.t option

type info = {
  fell_back : bool;  (** took the full re-inspection path *)
  fallback_reason : string option;
  damaged_edges : int;
  damaged_nodes : int;
  nodes_recomputed : int;  (** growth re-evaluations performed *)
  tiles_moved : int;  (** schedule memberships that actually changed *)
  seconds : float;  (** wall time of this repair (or fallback) *)
  modeled_repair_seconds : float;
      (** the cost model's estimate for the incremental path *)
  cold_seconds_ref : float;
      (** the cold-inspection seconds the model compared against *)
  verified : bool option;  (** [Some] when [~verify] ran *)
}

(** Repair the plan for [kernel] — a fresh kernel over the churned
    dataset, in the {e original} (pre-reordering) coordinates, shaped
    exactly like the kernel the state was prepared from. [damage] is
    the churn's damage set in original coordinates. Returns the
    repaired (or, on fallback, freshly inspected) result plus what
    happened. The state is updated in place either way: successive
    churn rounds keep repairing incrementally.

    [policy] overrides the auto fallback: [`Repair] forces the
    incremental path (still subject to plan support), [`Cold] forces
    full re-inspection. [verify] (default [false]) re-checks the
    bit-identity contract against {!regrow} before returning. [cache]
    feeds only the cold fallback's {!Compose.Inspector.run}. *)
val repair :
  ?cache:Rtrt_plancache.Cache.t ->
  ?policy:[ `Auto | `Repair | `Cold ] ->
  ?verify:bool ->
  state ->
  Kernels.Kernel.t ->
  damage:Datagen.Churn.damage ->
  Inspector.result * info

(** The frozen cold path repair must reproduce bit for bit: replay the
    frozen reorderings onto [kernel] and re-run {e full} growth from
    the frozen seed tiling over the whole churned access. Reads only
    the frozen parts of the state (never mutates it), so it can be
    called after {!repair} on the same round for an independent
    check. *)
val regrow : state -> Kernels.Kernel.t -> Inspector.result

val pp_info : info Fmt.t
