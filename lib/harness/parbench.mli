(** Parallel speedup table (serial vs domain-pool execution of the
    Full-growth tiled executors, next to the Tile_par makespan model's
    prediction). Run by [rtrt bench --only par]; the JSON feeds
    BENCH_PAR.json. *)

(** Run the Figures 6/7 suite with [config] (domains/scale taken from
    it) and keep the plans that ran on the pool: one row per (bench,
    dataset, plan) holding {!Experiment.par_cells} (the executor tier
    the auto-fallback chose is a note). All rows share one domain pool
    (and its one-shot barrier calibration); raises [Invalid_argument]
    if any row's lane count deviates from [config.domains]. *)
val measure :
  machine:Cachesim.Machine.t -> config:Figures.config -> unit -> Table.t
