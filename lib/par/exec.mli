(** The parallel tiled-executor engine: level-major tile renumbering,
    per-lane slices pinned at plan time, phase-major execution with
    in-job barriers per (level, chain position), step batching, an
    auto-fallback serial tier, and stash/apply reduction combining
    that reproduces the serial executor's float operations bit for
    bit. *)

type t

(** Which execution strategy {!run} uses. [Serial] runs the plain
    tile-major loop on the calling domain — bitwise identical by
    construction — and is what {!decide} selects when the modeled
    parallel step cannot beat the serial one. *)
type tier = Parallel | Serial

val tier_name : tier -> string

(** The auto-fallback decision and the model behind it, for reporting.
    With [d_par_frac] the fraction of a step's iterations living in
    parallel levels and [d_lanes] the pool width,
    [d_modeled_par_ns_per_step] =
    serial x (1 - [d_par_frac])
    + serial x [d_par_frac] / [d_lanes]
    + barriers-per-step x {!Pool.barrier_cost_ns}
    + {!Pool.dispatch_cost_ns} / batch.
    [d_tier] is [Parallel] exactly when
    [d_modeled_par_ns_per_step <= d_serial_ns_per_step] (and the pool
    has more than one lane with at least one parallel level). *)
type decision = {
  d_tier : tier;
  d_serial_ns_per_step : float;
  d_modeled_par_ns_per_step : float;
  d_barriers_per_step : int;
  d_barrier_cost_ns : float;
  d_dispatch_cost_ns : float;
  d_par_frac : float;
  d_lanes : int;
}

(** [make ~pool ~sched ~level_of ~is_reduction ~left ~right ~n_data]
    renumbers [sched] level-major (per [level_of], the tile dependence
    DAG levelization) and precomputes per-lane slices — each lane's
    chunk of every level's tiles and of every reduction position's
    data, chunked once per plan, not per step — plus, for every chain
    position where [is_reduction pos] holds, the per-datum combine
    lists derived from the [left]/[right] endpoint arrays ([n_data]
    data locations). *)
val make :
  pool:Pool.t ->
  sched:Reorder.Schedule.t ->
  level_of:int array ->
  is_reduction:(int -> bool) ->
  left:int array ->
  right:int array ->
  n_data:int ->
  t

(** The level-major renumbered schedule; the serial twin to compare a
    parallel run against (also a legal schedule). *)
val schedule : t -> Reorder.Schedule.t

val n_levels : t -> int

(** [decide t ~serial_ns_per_step ~batch] evaluates the auto-fallback
    model against a measured serial step time and picks the tier.
    Triggers the pool's one-shot barrier/dispatch calibration on first
    use. *)
val decide : t -> serial_ns_per_step:float -> batch:int -> decision

(** [run t ~steps ~body ~stash ~apply] executes the plan. [body ~pos
    items lo hi] is the serial loop body for chain position [pos]
    (used for serial levels and non-reduction positions); it runs the
    iterations [items.(lo) .. items.(hi - 1)] — a row of the flat
    schedule, handed over without copying. For reduction positions of
    parallel levels, [stash ~pos items lo hi] computes each
    iteration's contribution into per-iteration scratch, and
    [apply ~pos ~datum refs lo hi] folds [refs.(lo..hi-1)] — packed as
    [(iter lsl 1) lor slot], slot 0 = left (+), 1 = right (-) — into
    [datum] in serial order.

    [batch] (default 1) executes up to that many whole time steps per
    pool dispatch; lanes synchronize through in-job barriers, so one
    wake-up amortizes over the batch. Results are bitwise independent
    of [batch]. [tier] (default [Parallel]) selects the strategy —
    pass [(decide t ...).d_tier] for the auto-fallback. [profile]
    forces per-lane pool accounting on or off for the dispatches
    (default: whether tracing is enabled). *)
val run :
  ?batch:int ->
  ?tier:tier ->
  ?profile:bool ->
  t ->
  steps:int ->
  body:(pos:int -> int array -> int -> int -> unit) ->
  stash:(pos:int -> int array -> int -> int -> unit) ->
  apply:(pos:int -> datum:int -> int array -> int -> int -> unit) ->
  unit
