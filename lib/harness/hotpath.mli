(** Hot-path microbenchmarks for the flat-CSR schedule representation:
    schedule-walk bandwidth (flat + unsafe streaming vs the pre-flat
    nested-array reference), moldyn tiled-vs-plain executor steady
    state, the generated executor against the interpreted walk
    ({!Compose.Specialize}), and the
    inspector's per-span phase breakdown. Results feed
    BENCH_HOTPATH.json and the [hotpath.*] gauges. *)

(** The whole table on moldyn/mol1 with the Full-sparse-tiling plan:
    one [schedule_walk] row (nested vs flat walk, passes calibrated to
    about 0.2 s, best of five rounds), one [executor] row (tiled vs
    plain seconds per step after a warmup step), one [specialize] row
    per kernel and plan (the interpreted walk vs the generated
    executor, interleaved best-of-five rounds, final states asserted
    bitwise equal),
    one [inspector_phases] row per span name, and the profile rows. *)
val measure : scale:int -> unit -> Table.t
