(** Repair-vs-cold re-inspection under graph churn (the
    {!Compose.Repair} trade). For each (benchmark, plan, churn level)
    cell: churn the dataset, repair the frozen plan incrementally, and
    compare against a true cold re-inspection — inspector seconds,
    executor steady-state seconds on both resulting plans, the
    steps-to-amortize break-even, and the bit-identity of repair
    against frozen regrowth. Shared by [rtrt churn] and
    [rtrt bench --only churn]; the JSON feeds BENCH_CHURN.json. *)

(** Executor steps after which the cold path's better plan has paid
    back its dearer inspector, from the per-round step seconds of the
    repaired and the cold plan. [0] when the two min-max ranges
    overlap: no measurable executor difference. [-1] when the repaired
    range lies wholly below the cold one: the cold path never catches
    up. Otherwise (cold_s - repair_s) / (min repaired - min cold). *)
val steps_to_amortize :
  repair_s:float ->
  cold_s:float ->
  repaired_steps:float list ->
  cold_steps:float list ->
  float

(** Run the churn suite: moldyn/mol1 and cg/foil under CL+FST and
    GL+FST, churned at 1/2/5/10% for [rounds] (default 5) chained
    rounds per cell, one row per (bench, dataset, plan, churn_pct).
    Timings are best-of-rounds (each round rewires the same fraction,
    and the min resists GC and throttling spikes); damage counts are
    per-round medians; [bit_identical] holds when every round's repair
    was bit-identical (schedule and executor output) to frozen
    regrowth, and [fell_back] when any round took the cold fallback.
    Deterministic datasets and churn (figure RNG). Sets the
    [churnbench.min_repair_speedup] and [churnbench.bit_identical]
    gauges. *)
val measure : ?rounds:int -> scale:int -> unit -> Table.t
