(** Cold-inspection cost benchmark for composed plans: the Remap_each
    inspector as the baseline vs the one-pass Remap_once composition,
    on GC and the full-sparse-tiling compositions. Every timed variant
    is verified bit-identical to the Remap_each baseline. Results feed
    BENCH_INSPECTOR.json and the [inspctime.*] gauges. *)

(** The whole table on moldyn/mol1: GC (Gpart then CPACK) plus the
    CL+FST and GL+FST sparse-tiling compositions, part/seed size 64.
    Each plan's cold inspections (best of 5) run under Remap_each and
    Remap_once, one row per (plan, config): best seconds, speedup over
    Remap_each, and whether the result is bit-identical to the
    Remap_each baseline. One profile row per plan. *)
val measure : scale:int -> unit -> Table.t
