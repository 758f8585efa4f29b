(** Measurement of one (plan, kernel, machine) combination: inspector
    cost, executor wall clock, and modeled cycles from the cache
    simulator. *)

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
  plancache : plancache_report option;  (** when a cache was given *)
  profile : Rtrt_obs.Profile.phase list;
      (** per-phase GC + monotonic timing deltas (inspect, cache_model,
          wall_clock) *)
}

(** Run the inspector and verify the result (raises on an illegal
    plan/result). [cache] is passed through to
    {!Compose.Inspector.run}. *)
val inspect :
  ?cache:Rtrt_plancache.Cache.t ->
  ?strategy:Compose.Inspector.strategy ->
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
    interpreted otherwise — the tier is chosen and bitwise-verified
    outside the timed region. *)
val wall_clock_steps : Compose.Inspector.result -> steps:int -> float

(** Measure one plan, inspected with the default (remap-once,
    shared symmetric dependences) inspector: one step warms the
    modeled cache, [trace_steps_n] steps are counted, [wall_steps]
    steps are timed on the serial executor. When [cache] is given,
    the inspection goes through the plan cache and [plancache] reports
    the hit/miss traffic. At the end of a measurement the calling
    domain's scratch pool is trimmed to 1 MiB, so transient inspector
    working sets do not linger between plans. *)
val measure :
  ?cache:Rtrt_plancache.Cache.t ->
  ?layout_of:(Kernels.Kernel.t -> Cachesim.Layout.t) ->
  ?trace_steps_n:int ->
  ?wall_steps:int ->
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

(** One measurement as a row labelled [plan]: modeled cycles, misses
    and miss ratio per step, inspector and executor seconds, tiles,
    then the plan-cache traffic when present. *)
val row : measurement -> Table.row
