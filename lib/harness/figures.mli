(** Drivers regenerating every measured table/figure of the paper, each
    as a {!Table.t}; the CLI, the bench suites and the tests all
    consume these. Every figure table opens with a summary row without
    labels (scale, trace_steps, wall_steps). Every measurement runs
    the serial executor. *)

type config = {
  scale : int;       (** dataset node-count divisor; 1 = paper size *)
  trace_steps : int; (** time steps counted by the cache model *)
  wall_steps : int;  (** time steps for wall-clock measurement *)
  plan_cache : Rtrt_plancache.Cache.t option;
      (** inspections go through the plan cache when set *)
}

(** The paper's benchmark/dataset pairings (Figures 6-9). *)
val pairings : (string * string list) list

(** Instantiate a kernel on a dataset / a dataset at the config's
    scale (raises on unknown names). *)
val kernel_of : name:string -> Datagen.Dataset.t -> Kernels.Kernel.t

val dataset_of : config:config -> string -> Datagen.Dataset.t

(** Gpart nodes-per-partition for a cache-byte target. *)
val gpart_size_for : target_bytes:int -> Kernels.Kernel.t -> int

(** FST seed-block size (interactions) for a cache-byte target; see
    EXPERIMENTS.md for the calibration. *)
val seed_size_for : target_bytes:int -> Kernels.Kernel.t -> int

(** The ten standard compositions, sized for a machine's L1. *)
val suite_for : machine:Cachesim.Machine.t -> Kernels.Kernel.t -> Compose.Plan.t list

(** Measure the full suite on one kernel. *)
val run_suite :
  machine:Cachesim.Machine.t ->
  config:config ->
  Kernels.Kernel.t ->
  Experiment.measurement list

(** Section 2.4 dataset table: one row per dataset with the generated
    [nodes]/[edges], the paper's [paper_nodes]/[paper_edges] and each
    benchmark's working set at paper size
    ([paper_footprint_mb_irreg], [_nbf], [_moldyn]; Figure 8's MB
    labels). *)
val dataset_table : config:config -> unit -> Table.t

(** Figures 6/7: [normalized_cycles] and [normalized_wall] (against
    base) per (bench, dataset, plan); then each plan's phase profile
    rows. *)
val executor_time :
  machine:Cachesim.Machine.t -> config:config -> unit -> Table.t

(** Figures 8/9: outer-loop iterations to amortize the inspector,
    [amortize_modeled] and [amortize_wall], per (bench, dataset, plan)
    but base. A plan that never pays off reads NaN ([null] on disk);
    both metrics are informational. *)
val amortization :
  machine:Cachesim.Machine.t -> config:config -> unit -> Table.t

(** Figure 16: [seconds_remap_each], [seconds_remap_once] (best of
    [repeats], default 3) and [reduction_pct] per (bench, dataset,
    plan). *)
val remap_overhead :
  ?repeats:int ->
  machine:Cachesim.Machine.t ->
  config:config ->
  unit ->
  Table.t

(** Figure 17: normalized modeled cycles of Gpart+lexGroup ([gl]) and
    CL+FST ([cl_fst]) per (bench, dataset, [target_kb]). *)
val cache_target_sweep :
  machine:Cachesim.Machine.t -> config:config -> unit -> Table.t

(** A figure: its subcommand and [rtrt json] name, a one-line
    description, and its table (named after the figure). *)
type figure = {
  name : string;
  doc : string;
  table : config -> Table.t;
}

(** datasets, figure6, figure7, figure8, figure9, figure16, figure17:
    the figure subcommands, [rtrt json FIGURE] and [rtrt all]. *)
val all : figure list
