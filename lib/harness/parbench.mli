(** Parallel speedup table (serial vs domain-pool execution of the
    Full-growth tiled executors, next to the Tile_par makespan model's
    prediction). Run by [rtrt bench --only par]; the JSON feeds
    BENCH_PAR.json. *)

type row = {
  pb_bench : string;
  pb_dataset : string;
  pb_plan : string;
  pb_par : Experiment.par_measurement;
}

type report = {
  rep_domains : int;
  rep_scale : int;
  rep_lane_count_stable : bool;
      (** every row ran on a pool of exactly [rep_domains] lanes;
          [measure] raises when this fails, so a written report always
          has [true] *)
  rows : row list;
  rep_profile : Rtrt_obs.Profile.phase list;
}

(** Run the Figures 6/7 suite with [config] (domains/scale taken from
    it) and keep the plans that ran on the pool. All rows share one
    domain pool (and its one-shot barrier calibration); raises
    [Invalid_argument] if any row's lane count deviates from
    [config.domains]. *)
val measure :
  machine:Cachesim.Machine.t -> config:Figures.config -> unit -> report

val json_of_report : report -> Rtrt_obs.Json.t
val pp_report : report Fmt.t
