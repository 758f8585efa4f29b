(** Drivers regenerating every measured table/figure of the paper; the
    CLI, the bench suites and the tests all consume these. *)

type config = {
  scale : int;       (** dataset node-count divisor; 1 = paper size *)
  trace_steps : int; (** time steps counted by the cache model *)
  wall_steps : int;  (** time steps for wall-clock measurement *)
  domains : int;
      (** OCaml domains; > 1 additionally runs Full-growth tiled
          executors on a domain pool and reports measured speedup *)
  plan_cache : Rtrt_plancache.Cache.t option;
      (** inspections go through the plan cache when set *)
}

val default_config : config

(** The paper's benchmark/dataset pairings (Figures 6-9). *)
val pairings : (string * string list) list

(** Instantiate a kernel on a dataset / a dataset at the config's
    scale (raises on unknown names). *)
val kernel_of : name:string -> Datagen.Dataset.t -> Kernels.Kernel.t

val dataset_of : config:config -> string -> Datagen.Dataset.t

(** Run [f] with one pool for a whole table when [config.domains > 1]
    (rows share the domains and the one-shot barrier calibration),
    or with [None] otherwise. *)
val with_config_pool :
  config:config -> (Rtrt_par.Pool.t option -> 'a) -> 'a

(** Gpart nodes-per-partition for a cache-byte target. *)
val gpart_size_for : target_bytes:int -> Kernels.Kernel.t -> int

(** FST seed-block size (interactions) for a cache-byte target; see
    EXPERIMENTS.md for the calibration. *)
val seed_size_for : target_bytes:int -> Kernels.Kernel.t -> int

(** The eight standard compositions, sized for a machine's L1. *)
val suite_for : machine:Cachesim.Machine.t -> Kernels.Kernel.t -> Compose.Plan.t list

(** Measure the full suite on one kernel. [pool] reuses an existing
    domain pool across measurements (the figure drivers thread one
    pool through every row so repeated measurements never pay domain
    spawn or recalibration cost); without it, a pool is created for
    this call when [config.domains > 1]. *)
val run_suite :
  ?pool:Rtrt_par.Pool.t ->
  machine:Cachesim.Machine.t ->
  config:config ->
  Kernels.Kernel.t ->
  Experiment.measurement list

(** Section 2.4 dataset table. *)
type dataset_row = {
  ds_name : string;
  gen_nodes : int;
  gen_edges : int;
  paper_nodes : int;
  paper_edges : int;
  footprint_mb : (string * float) list;
      (** per-benchmark working set at paper size (Figure 8's MB
          labels) *)
}

val dataset_table : config:config -> unit -> dataset_row list
val pp_dataset_table : dataset_row list Fmt.t

(** Figures 6/7: normalized executor time without overhead. *)
type exec_row = {
  bench : string;
  dataset : string;
  per_plan : (string * float * float) list;
      (** plan, normalized modeled cycles, normalized wall clock *)
  per_plan_par : (string * Experiment.par_measurement) list;
      (** plans that additionally ran on a domain pool *)
  per_plan_profile : (string * Rtrt_obs.Profile.phase list) list;
      (** per-plan GC + phase-timing profiles, same order as [per_plan] *)
}

val executor_time :
  machine:Cachesim.Machine.t -> config:config -> unit -> exec_row list

val pp_exec_rows : exec_row list Fmt.t

(** Figures 8/9: outer-loop iterations to amortize the inspector. *)
type amort_row = {
  a_bench : string;
  a_dataset : string;
  a_per_plan : (string * float option * float option) list;
      (** plan, modeled-based, wall-clock-based *)
}

val amortization :
  machine:Cachesim.Machine.t -> config:config -> unit -> amort_row list

val pp_amort_rows : amort_row list Fmt.t

(** Figure 16: inspector-overhead reduction from remapping once. *)
type remap_row = {
  r_bench : string;
  r_dataset : string;
  r_plan : string;
  seconds_each : float;
  seconds_once : float;
  reduction_pct : float;
}

val remap_overhead :
  ?repeats:int ->
  machine:Cachesim.Machine.t ->
  config:config ->
  unit ->
  remap_row list

val pp_remap_rows : remap_row list Fmt.t

(** Figure 17: executor time vs cache-size target. *)
type sweep_row = {
  s_bench : string;
  s_dataset : string;
  s_target_kb : int;
  s_gl : float;
  s_fst : float;
}

val cache_target_sweep :
  ?targets_kb:int list ->
  machine:Cachesim.Machine.t ->
  config:config ->
  unit ->
  sweep_row list

val pp_sweep_rows : sweep_row list Fmt.t

(** Plot-ready CSV renderings of the figure tables. *)

val csv_exec_rows : exec_row list -> string
val csv_amort_rows : amort_row list -> string
val csv_sweep_rows : sweep_row list -> string

(** Machine-readable renderings of the figure tables ([rtrt json]);
    amortization cells that never pay off render as JSON null. *)

val json_dataset_rows : dataset_row list -> Rtrt_obs.Json.t
val json_exec_rows : exec_row list -> Rtrt_obs.Json.t
val json_amort_rows : amort_row list -> Rtrt_obs.Json.t
val json_remap_rows : remap_row list -> Rtrt_obs.Json.t
val json_sweep_rows : sweep_row list -> Rtrt_obs.Json.t
