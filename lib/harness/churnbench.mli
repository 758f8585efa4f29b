(** Repair-vs-cold re-inspection under graph churn (the
    {!Compose.Repair} trade). For each (benchmark, plan, churn level)
    cell: churn the dataset, repair the frozen plan incrementally, and
    compare against a true cold re-inspection — inspector seconds,
    executor steady-state seconds on both resulting plans, the
    steps-to-amortize break-even, and the bit-identity of repair
    against frozen regrowth. Shared by [rtrt churn] and
    [rtrt bench --only churn]; the JSON feeds BENCH_CHURN.json. *)

type row = {
  cb_bench : string;
  cb_dataset : string;
  cb_plan : string;
  cb_churn_pct : float;  (** churn level, percent of interactions *)
  cb_rounds : int;
      (** chained churn rounds: timings are best-of-rounds (each round
          rewires the same fraction, and the min resists GC/throttling
          spikes), damage counts are medians *)
  cb_damaged_edges : int;  (** median damaged interactions per round *)
  cb_damaged_nodes : int;
  cb_tiles_moved : int;  (** median schedule memberships changed *)
  cb_fell_back : bool;  (** any round took the cold fallback *)
  cb_bit_identical : bool;
      (** every round's repair was bit-identical (schedule and
          executor output) to frozen regrowth *)
  cb_repair_seconds : float;  (** best-of-rounds repair wall seconds *)
  cb_cold_inspect_seconds : float;
      (** best-of-rounds true cold [Compose.Inspector.run] wall
          seconds *)
  cb_repair_speedup : float;  (** cold / repair *)
  cb_repaired_step_seconds : float;
      (** steady-state executor seconds per step on the repaired plan *)
  cb_cold_step_seconds : float;  (** same on the cold re-inspected plan *)
  cb_steps_to_amortize : float;
      (** see {!steps_to_amortize} *)
}

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

type report = {
  rep_scale : int;
  rep_domains : int;
  rep_rounds : int;
  rows : row list;
}

(** Run the churn suite: moldyn/mol1 and cg/foil under CL+FST and
    GL+FST, churned at 1/2/5/10% for [rounds] (default 5) chained
    rounds per cell. Deterministic datasets and churn (figure RNG);
    pooled growth and inspection when [domains > 1]. Sets the
    [churnbench.min_repair_speedup] and [churnbench.bit_identical]
    gauges. *)
val measure : ?rounds:int -> scale:int -> domains:int -> unit -> report

val json_of_report : report -> Rtrt_obs.Json.t
val pp_report : report Fmt.t
