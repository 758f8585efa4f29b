(** Cold-inspection cost benchmark for composed plans: the Remap_each
    inspector as the baseline vs the one-pass Remap_once composition,
    serial and on a domain pool, on GC and the full-sparse-tiling
    compositions. Every timed variant is verified bit-identical to the
    Remap_each baseline. Results feed BENCH_INSPECTOR.json and the
    [inspctime.*] gauges. *)

type timing = {
  t_config : string;  (** "remap-each", "remap-once", or "remap-once+pN" *)
  t_domains : int;  (** 0 when no pool was used *)
  t_seconds : float;  (** best cold [inspector_seconds] of the repeats *)
  t_speedup : float;  (** remap-each best / this best *)
  t_identical : bool;  (** output bit-identical to the remap-each run *)
}

type row = {
  row_plan : string;
  row_serial_seconds : float;  (** remap-each best *)
  row_timings : timing list;  (** remap-each first, then remap-once *)
}

type report = {
  rep_scale : int;
  rep_repeats : int;
  rep_domains : int list;
  rows : row list;
  rep_profile : Rtrt_obs.Profile.phase list;
      (** GC + monotonic timing, one phase per plan row *)
}

(** Time one plan's cold inspections (best of [repeats]) under
    Remap_each, serial Remap_once, and Remap_once on a fresh pool per
    domain count in [domains]; each variant's result is compared
    against the Remap_each baseline. *)
val measure_plan :
  repeats:int ->
  domains:int list ->
  Compose.Plan.t ->
  Kernels.Kernel.t ->
  row

(** The whole table on moldyn/mol1: GC (Gpart then CPACK) plus the
    CL+FST and GL+FST sparse-tiling compositions, part/seed size 64.
    Defaults: best of 5, pools of 1, 2, and 4 domains. *)
val measure : ?repeats:int -> ?domains:int list -> scale:int -> unit -> report

(** Whether every timed variant matched the Remap_each baseline bit
    for bit. *)
val identical : report -> bool

val json_of_report : report -> Rtrt_obs.Json.t
val write_json : path:string -> report -> unit
val pp_report : report Fmt.t
