(** Hot-path microbenchmarks for the flat-CSR schedule representation:
    schedule-walk bandwidth (flat + unsafe streaming vs the pre-flat
    nested-array reference), moldyn tiled-vs-plain executor steady
    state, the specialized-executor tiers (interpreted vs Tier A
    shaped vs Tier B compiled, {!Compose.Specialize}), and the
    inspector's per-span phase breakdown. Results feed
    BENCH_HOTPATH.json and the [hotpath.*] gauges. *)

type walk_result = {
  walk_items : int;  (** schedule items per pass *)
  walk_passes : int;
  nested_seconds : float;
  flat_seconds : float;
  nested_gbps : float;
  flat_gbps : float;
  walk_speedup : float;  (** nested_seconds / flat_seconds *)
}

type exec_result = {
  exec_steps : int;
  plain_seconds_per_step : float;
  tiled_seconds_per_step : float;
  tiled_over_plain : float;
}

(** One kernel × plan comparison of the three executor tiers on the
    same frozen schedule. GB/s figures are nominal schedule bandwidth
    (8 bytes per schedule item per step); speedups are ratios of the
    interpreted walk's best time over the tier's best time. *)
type spec_row = {
  spec_kernel : string;
  spec_plan : string;
  spec_tier : string;  (** best tier reached: interp / shaped / codegen *)
  spec_items : int;  (** schedule iterations per step *)
  spec_steps : int;  (** steps per timed round *)
  spec_runs : int;  (** contiguous runs in the schedule *)
  spec_identity_rows : int;
  spec_avg_run_len : float;
  spec_interp_gbps : float;
  spec_shaped_gbps : float;
  spec_shaped_speedup : float;  (** interp_seconds / shaped_seconds *)
  spec_codegen_gbps : float option;  (** [None] when Tier B unavailable *)
  spec_codegen_speedup : float option;
  spec_compile_seconds : float;
  spec_cmxs_cache_hit : bool;
  spec_bitwise : bool;  (** final states of all tiers bitwise equal *)
}

type phase = {
  phase_name : string;
  phase_count : int;
  phase_total_s : float;
  phase_self_s : float;
}

type report = {
  rep_scale : int;
  rep_plan : string;
  walk : walk_result;
  exec : exec_result;
  spec : spec_row list;
  phases : phase list;
  rep_profile : Rtrt_obs.Profile.phase list;
      (** GC + monotonic timing per benchmark section *)
}

(** Walk every (tile, loop) row of [sched] both ways; passes are
    calibrated so one timing round of the nested walk takes roughly
    [min_seconds], and each side reports the minimum of five rounds
    (rejects scheduler noise). *)
val bench_walk : ?min_seconds:float -> Reorder.Schedule.t -> walk_result

(** Tiled executor (from the inspector result) vs the plain executor
    on the untransformed kernel, seconds per time step after one
    warmup step each. Raises if the plan produced no schedule. *)
val bench_exec :
  ?steps:int -> Kernels.Kernel.t -> Compose.Inspector.result -> exec_result

(** Time the interpreted, shaped (Tier A), and compiled (Tier B)
    executors on the inspected schedule. The step count is calibrated
    so one timing round takes roughly [min_seconds / rounds]; each
    tier then runs one warmup step plus the best of [rounds] timed
    rounds on its own copy of the transformed kernel. Tier B is
    requested explicitly; a missing toolchain or emitter refusal
    leaves the codegen columns [None]. Asserts the tiers' final
    states are bitwise equal; raises if the plan produced no
    schedule. *)
val bench_spec :
  ?min_seconds:float ->
  ?rounds:int ->
  plan_name:string ->
  Compose.Inspector.result ->
  spec_row

(** Re-run the inspector under an in-memory trace sink and return the
    per-span-name aggregates (descending total time). *)
val inspector_phases : Compose.Plan.t -> Kernels.Kernel.t -> phase list

(** The whole table: the walk, executor and phase sections on
    moldyn/mol1 with the Full-sparse-tiling plan, and tier rows for
    moldyn, nbf, irreg and cg. *)
val measure : scale:int -> unit -> report

val json_of_report : report -> Rtrt_obs.Json.t
val pp_report : report Fmt.t
