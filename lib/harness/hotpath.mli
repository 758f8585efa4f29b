(** Hot-path microbenchmarks for the executors over the flat-CSR
    schedule: moldyn tiled-vs-plain executor steady state, the
    generated executor against the interpreted walk
    ({!Compose.Specialize}), and the inspector's per-span phase
    breakdown. Results feed BENCH_HOTPATH.json and the [hotpath.*]
    gauges. *)

(** The whole table on moldyn/mol1 with the Full-sparse-tiling plan:
    one [executor] row (tiled vs plain seconds per step) and one
    [specialize] row per kernel and plan (the interpreted walk vs the
    generated executor, final states asserted bitwise equal), both
    timed the same way: after one warm-up step each, interleaved
    best-of-five rounds of a step count calibrated so a round lasts
    about 0.05 s; then one [inspector_phases] row per span name, and
    the profile rows. *)
val measure : scale:int -> unit -> Table.t
