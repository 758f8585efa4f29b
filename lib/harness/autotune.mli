(** Plan autotuning (ROADMAP item 3): search the validated composition
    space over {cpack, gpart, lexGroup, lexSort, FST, tilePack},
    scoring each candidate with the cache-model locality cost
    (modeled cycles per step on the machine's clock) of the serial
    executor. Winners are memoized in
    {!Rtrt_plancache.Tuned} keyed by (access-pattern fingerprint,
    machine, candidate space); since the key hashes every candidate's
    transform list, an entry names its winner and no longer stores a
    serialized plan. The hand-named standard suite is a subset of the
    candidate space, so the winner matches or beats the best
    hand-named plan on the model by construction. *)

(** The candidate space for a kernel, sized for a machine's L1 (same
    sizing rule as {!Figures.suite_for}). *)
val candidates_for :
  machine:Cachesim.Machine.t -> Kernels.Kernel.t -> Compose.Plan.t list

(** One scored candidate: its modeled nanoseconds per step,
    {!Cachesim.Machine.ns_of_cycles} of {!Experiment.trace_steps}'
    cycles (one warm-up step, [trace_steps] counted). *)
type scored

(** The paper's Section 7 guidance: rank [plans] for a run of
    [iterations] outer steps by predicted total seconds on the machine
    model's clock, [iterations] times the modeled ns per step plus the
    measured inspector seconds times one factor per ranking: the base
    plan's modeled over its measured host ns per step (best of 3
    multi-step runs). The cache model counts [trace_steps] steps per
    plan. The first row, without labels, holds the factor
    ([model_ns_per_host_ns]) and, with two or more plans, the pick's
    margin: the second-cheapest plan as the [runner_up] note and
    [lead_over_next], its total over the cheapest. Then one row per
    plan ([total_seconds], [inspector_seconds],
    [modeled_ns_per_step]), cheapest total first. Raises
    [Invalid_argument] on an empty list. *)
val guide :
  trace_steps:int ->
  machine:Cachesim.Machine.t ->
  iterations:int ->
  plans:Compose.Plan.t list ->
  Kernels.Kernel.t ->
  Table.t

(** {!guide}'s plan rows, without its summary row ([trace_steps]
    defaults to 2). *)
val rank :
  ?trace_steps:int ->
  machine:Cachesim.Machine.t ->
  iterations:int ->
  plans:Compose.Plan.t list ->
  Kernels.Kernel.t ->
  Table.t

(** A tuning outcome. [at_details] is empty when the winner was served
    from the tuned store ([at_cached]). *)
type t = {
  at_winner : Compose.Plan.t;
  at_winner_score_ns : float;
  at_scores : (string * float) list;
  at_details : scored list;
  at_cached : bool;
  at_key_hex : string;
}

(** [tune ~machine kernel] scores every plan of {!candidates_for} and
    returns the argmin. [tuned] consults/updates the winner store (a
    stored winner whose name is not in the space is searched afresh);
    [cache] routes inspections through the plan cache. Publishes
    [autotune.*] metrics. *)
val tune :
  ?cache:Rtrt_plancache.Cache.t ->
  ?tuned:Rtrt_plancache.Tuned.t ->
  ?trace_steps:int ->
  machine:Cachesim.Machine.t ->
  Kernels.Kernel.t ->
  t

(** Tune every (bench, dataset, machine) cell of the paper's pairings
    on power3 and pentium4, and measure the winner's and the best
    hand-named plan's wall clocks (best of 3; timed once when the two
    share their transform list, so their speedup reads exactly 1). One
    row per cell, with the winner and the best named plan as notes,
    followed by one row per candidate score. *)
val measure : config:Figures.config -> unit -> Table.t

val pp_result : t Fmt.t
