(** Plan autotuning (ROADMAP item 3): search the validated composition
    space over {cpack, gpart, lexGroup, lexSort, FST, tilePack},
    scoring each candidate with the cache-model locality cost
    (modeled cycles per step on the machine's clock) composed with the
    {!Rtrt_par.Exec.decide} makespan model for Full-growth tiled
    candidates on a live pool. Winners are memoized in
    {!Rtrt_plancache.Tuned} keyed by (access-pattern fingerprint,
    machine, candidate space). The hand-named standard suite is a
    subset of the candidate space, so the winner matches or beats the
    best hand-named plan on the model by construction. *)

(** Serialize / parse a plan (name + transform list) as the JSON
    string stored in {!Rtrt_plancache.Tuned} entries. [plan_of_string]
    re-validates with {!Compose.Plan.validate}. *)
val plan_to_string : Compose.Plan.t -> string

val plan_of_string : string -> (Compose.Plan.t, string) result

(** The candidate space for a kernel, sized for a machine's L1 (same
    sizing rule as {!Figures.suite_for}). *)
val candidates_for :
  machine:Cachesim.Machine.t -> Kernels.Kernel.t -> Compose.Plan.t list

(** The tuned-winner cache key: kernel shape and access pattern,
    machine name, and the candidate space's transforms. *)
val fingerprint :
  machine:Cachesim.Machine.t ->
  space:Compose.Plan.t list ->
  Kernels.Kernel.t ->
  Rtrt_plancache.Fingerprint.t

(** One scored candidate. [sc_score_ns] is the effective modeled
    nanoseconds per step: the locality model alone, or the cheaper of
    serial locality and the makespan model's parallel prediction when
    the candidate Full-growth-tiles on a multi-lane pool. *)
type scored = {
  sc_plan : Compose.Plan.t;
  sc_locality_ns : float;
  sc_makespan_ns : float option;
  sc_tier : string;
  sc_score_ns : float;
  sc_miss_ratio : float;
}

(** Score one candidate (inspect, trace, optionally makespan). Returns
    the inspection result alongside so callers can reuse it. *)
val score :
  ?cache:Rtrt_plancache.Cache.t ->
  ?pool:Rtrt_par.Pool.t ->
  ?trace_steps:int ->
  ?batch:int ->
  machine:Cachesim.Machine.t ->
  Compose.Plan.t ->
  Kernels.Kernel.t ->
  scored * Compose.Inspector.result

(** The paper's Section 7 guidance: rank [plans] for a run of
    [iterations] outer steps by predicted total seconds, the measured
    inspector seconds plus [iterations] times {!score}'s modeled ns per
    step. One row per plan ([total_seconds], [inspector_seconds],
    [modeled_ns_per_step]), cheapest total first; raises
    [Invalid_argument] on an empty list. *)
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

(** [tune ~machine kernel] scores every candidate and returns the
    argmin. [candidates] overrides the space (each entry re-checked
    with {!Compose.Plan.validate}; raises [Invalid_argument] on an
    invalid or empty space). [tuned] consults/updates the winner
    store; [cache] routes inspections through the plan cache; [pool]
    enables makespan scoring. Publishes [autotune.*] metrics. *)
val tune :
  ?cache:Rtrt_plancache.Cache.t ->
  ?pool:Rtrt_par.Pool.t ->
  ?tuned:Rtrt_plancache.Tuned.t ->
  ?trace_steps:int ->
  ?batch:int ->
  ?candidates:Compose.Plan.t list ->
  machine:Cachesim.Machine.t ->
  Kernels.Kernel.t ->
  t

(** Tune every (bench, dataset, machine) cell of the paper's pairings
    on power3 and pentium4, and measure the winner's and the best
    hand-named plan's wall clocks (best of 3). One row per cell, with
    the winner and the best named plan as notes, followed by one row
    per candidate score. *)
val measure : config:Figures.config -> unit -> Table.t

val pp_scored : scored Fmt.t
val pp_result : t Fmt.t
