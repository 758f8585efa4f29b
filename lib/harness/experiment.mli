(** Measurement of one (plan, kernel, machine) combination: inspector
    cost, executor wall clock, and modeled cycles from the cache
    simulator. *)

(** Multicore execution of the tiled schedule vs. the serial executor
    on the identical (level-major renumbered) schedule, plus the
    Tile_par makespan model's prediction. The executor runs at
    whatever tier the auto-fallback decision picked ([par_tier],
    {!Rtrt_par.Exec.tier_name}) with [par_batch] steps per pool
    dispatch; the pool's calibrated barrier cost and the per-step
    dispatch/barrier wait observed during the run separate
    synchronization overhead from work. *)
type par_measurement = {
  domains : int;
  serial_seconds_per_step : float;
  par_seconds_per_step : float;
  measured_speedup : float;
  modeled_speedup : float;
  modeled_makespan : int;
  bitwise_equal : bool;
  par_tier : string;  (** "parallel" or "serial" (auto-fallback) *)
  par_batch : int;  (** steps per pool dispatch *)
  modeled_par_seconds_per_step : float;
      (** the tier decision's modeled parallel step time *)
  barrier_cost_ns : float;  (** pool calibration, {!Rtrt_par.Pool.barrier_cost_ns} *)
  dispatch_wait_ns_per_step : float;
      (** per-step [pool.dispatch_wait] during the parallel run *)
  barrier_wait_ns_per_step : float;
      (** per-step per-lane barrier wait during the parallel run *)
}

(** Plan-cache traffic around one measurement. When [pc_hit], the
    measurement's [inspector_seconds] is the replay cost of a cache
    hit; [pc_cold_inspector_seconds] is what the cold inspection paid,
    so both sides of the amortization argument are available. *)
type plancache_report = {
  pc_hit : bool;
  pc_cold_inspector_seconds : float;
  pc_hits : int;  (** cumulative cache hits after this measurement *)
  pc_misses : int;
}

type measurement = {
  plan_name : string;
  inspector_seconds : float;
  executor_seconds_per_step : float;
  modeled_cycles_per_step : float;
  misses_per_step : float;
  accesses_per_step : float;
  miss_ratio : float;
  n_data_remaps : int;
  n_tiles : int; (** 1 when not sparse tiled *)
  par : par_measurement option;
      (** parallel run, when a multi-domain pool was given and the plan
          sparse-tiles with Full growth *)
  plancache : plancache_report option;  (** when a cache was given *)
  profile : Rtrt_obs.Profile.phase list;
      (** per-phase GC + monotonic timing deltas (inspect, cache_model,
          wall_clock, and par when measured) *)
}

(** Run the inspector and verify the result (raises on an illegal
    plan/result). [cache] is passed through to
    {!Compose.Inspector.run}. *)
val inspect :
  ?cache:Rtrt_plancache.Cache.t ->
  ?strategy:Compose.Inspector.strategy ->
  ?share_symmetric_deps:bool ->
  Compose.Plan.t ->
  Kernels.Kernel.t ->
  Compose.Inspector.result

(** Run an inspected kernel through the cache model: [warmup] steps
    warm the hierarchy, [steps] steps are counted. Returns per-step
    (modeled cycles, L1 misses, accesses) and the overall miss ratio —
    the locality half of the autotuner's cost model. *)
val trace_steps :
  ?layout_of:(Kernels.Kernel.t -> Cachesim.Layout.t) ->
  Compose.Inspector.result ->
  machine:Cachesim.Machine.t ->
  warmup:int ->
  steps:int ->
  float * float * float * float

(** Wall-clock seconds per step of the inspected kernel's executor.
    With a schedule, execution dispatches through
    {!Compose.Specialize}: shape-specialized (Tier A) when profitable,
    compiled (Tier B) when [--specialize]/[RTRT_SPECIALIZE] is on,
    interpreted otherwise — the tier is chosen and bitwise-verified
    outside the timed region. *)
val wall_clock_steps : Compose.Inspector.result -> steps:int -> float

(** Measure one plan: [warmup] steps warm the modeled cache,
    [trace_steps_n] steps are counted, [wall_steps] steps are timed.
    When [pool] has more than one domain and the plan sparse-tiles
    with Full growth, the tiled executor additionally runs on the
    pool and the serial-vs-parallel comparison lands in [par]. When
    [cache] is given, the inspection goes through the plan cache and
    [plancache] reports the hit/miss traffic. The inspection itself
    is serial. At the end of a measurement the calling domain's
    scratch pool is trimmed to [scratch_keep_bytes] bytes (default
    1 MiB), so transient inspector working sets do not linger between
    plans. *)
val measure :
  ?cache:Rtrt_plancache.Cache.t ->
  ?pool:Rtrt_par.Pool.t ->
  ?strategy:Compose.Inspector.strategy ->
  ?share_symmetric_deps:bool ->
  ?layout_of:(Kernels.Kernel.t -> Cachesim.Layout.t) ->
  ?warmup:int ->
  ?trace_steps_n:int ->
  ?wall_steps:int ->
  ?scratch_keep_bytes:int ->
  machine:Cachesim.Machine.t ->
  plan:Compose.Plan.t ->
  Kernels.Kernel.t ->
  measurement

(** Pair each measurement with (modeled, wall-clock) ratios against the
    first (base) measurement — Figures 6/7. *)
val normalize :
  measurement list -> (measurement * float * float) list

(** Outer-loop iterations to amortize the inspector against the
    per-step executor savings (Figures 8/9); [None] when the
    transformation does not save time. *)
val amortization : base:measurement -> measurement -> float option

(** Modeled-cycles variant of {!amortization}. *)
val amortization_modeled : base:measurement -> measurement -> float option

(** Hit/miss-aware amortization: [(uncached, cached)] outer-loop
    iterations to pay off, respectively, a full inspection and what
    this run actually spent (a replay on a hit). [None] without a
    cache or when the plan does not save time. *)
val amortization_cached :
  base:measurement -> measurement -> (float * float) option

val pp_plancache_report : plancache_report Fmt.t
val pp_par_measurement : par_measurement Fmt.t
val pp_measurement : measurement Fmt.t
