(* Churn benchmark: repair-vs-cold re-inspection after rewiring k% of
   interactions. Each cell freezes one inspected plan, then chains
   churn rounds: rewire -> incremental repair (timed) -> bit-check
   against frozen regrowth -> true cold re-inspection (timed) ->
   steady-state executor seconds on both resulting plans. Shared by
   `rtrt churn` and `rtrt bench --only churn`; the JSON lands in
   BENCH_CHURN.json for the CI perf trajectory (the repair_speedup and
   bit_identical fields are the dimensionless ones the ratios-only
   gate compares). *)

module I = Compose.Inspector
module R = Compose.Repair

type row = {
  cb_bench : string;
  cb_dataset : string;
  cb_plan : string;
  cb_churn_pct : float;
  cb_rounds : int;
  cb_damaged_edges : int;
  cb_damaged_nodes : int;
  cb_tiles_moved : int;
  cb_fell_back : bool;
  cb_bit_identical : bool;
  cb_repair_seconds : float;
  cb_cold_inspect_seconds : float;
  cb_repair_speedup : float;
  cb_repaired_step_seconds : float;
  cb_cold_step_seconds : float;
  cb_steps_to_amortize : float;
}

type report = {
  rep_scale : int;
  rep_rounds : int;
  rows : row list;
}

(* Timings are best-of-rounds: each chained round rewires the same
   fraction, so rounds are exchangeable timing samples, and the min is
   far more stable than the median against GC pauses and cgroup
   throttling spikes — the ratios-only CI gate compares these. Damage
   counts use the median (they vary with the churn, not the clock). *)
let min_f xs = List.fold_left Float.min infinity xs

let median_i xs =
  match List.sort compare xs with
  | [] -> 0
  | s -> List.nth s (List.length s / 2)

(* Executor steps after which the cold path's dearer inspection has paid
   for its better plan. The step times differ by a few microseconds, so
   the sign of (repaired - cold) is decided by the min-max ranges over
   the rounds, not by the two best times: overlapping ranges are no
   measurable executor difference, reported as 0 (perfbench's
   tier_b_breakeven_steps convention); -1 is a repaired plan that is
   never slower; only a repaired range wholly above the cold one gets
   the break-even, from the best times. *)
let steps_to_amortize ~repair_s ~cold_s ~repaired_steps ~cold_steps =
  let max_f xs = List.fold_left Float.max neg_infinity xs in
  let rstep = min_f repaired_steps and cstep = min_f cold_steps in
  if max_f repaired_steps < cstep then -1.0
  else if rstep <= max_f cold_steps then 0.0
  else (cold_s -. repair_s) /. (rstep -. cstep)

(* ------------------------------------------------------------------ *)
(* Bit-identity of a repaired result against frozen regrowth, executor
   output included (same check the churn test suite makes). *)

let schedules_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Reorder.Schedule.equal a b
  | _ -> false

let exec_bits (r : I.result) =
  let k = r.I.kernel.Kernels.Kernel.copy () in
  (match r.I.schedule with
  | Some s -> k.Kernels.Kernel.run_tiled s ~steps:2
  | None -> k.Kernels.Kernel.run ~steps:2);
  k.Kernels.Kernel.snapshot ()

let results_equal (a : I.result) (b : I.result) =
  Reorder.Perm.equal a.I.sigma_total b.I.sigma_total
  && Reorder.Perm.equal a.I.delta_total b.I.delta_total
  && schedules_equal a.I.schedule b.I.schedule
  && Kernels.Kernel.snapshots_equal_bits (exec_bits a) (exec_bits b)

(* ------------------------------------------------------------------ *)
(* Steady-state executor seconds per step for an inspected plan. *)

let wall_steps = 3

let step_seconds (r : I.result) =
  let k = r.I.kernel.Kernels.Kernel.copy () in
  let run steps =
    match r.I.schedule with
    | Some s -> k.Kernels.Kernel.run_tiled s ~steps
    | None -> k.Kernels.Kernel.run ~steps
  in
  run 1;
  let t0 = Rtrt_obs.Clock.now_s () in
  run wall_steps;
  (Rtrt_obs.Clock.now_s () -. t0) /. float_of_int wall_steps

(* ------------------------------------------------------------------ *)

let run_cell ~rounds ~fraction ~bench ~dataset_name ~of_dataset ~plan d0 =
  let cold0 = I.run plan (of_dataset d0) in
  let state = R.prepare plan cold0 in
  (* Untimed warm-up round on a throwaway state: first-touch, code-path
     and GC-growth costs land outside the measured rounds, and the
     measured chain below starts undisturbed from [d0]. *)
  (let ws = R.prepare plan cold0 in
   let wd, wdamage =
     Datagen.Churn.rewire ~rng:(Datagen.Rng.create 0xA11) ~fraction d0
   in
   let wk = of_dataset wd in
   ignore (R.repair ws wk ~damage:wdamage);
   ignore (I.run plan wk));
  (* Each level chains its own churn trajectory from the pristine
     dataset, deterministically per level. *)
  let rng =
    Datagen.Rng.create (0x5EED + int_of_float (fraction *. 10_000.))
  in
  let d = ref d0 in
  let repair_ss = ref [] and cold_ss = ref [] in
  let rstep_ss = ref [] and cstep_ss = ref [] in
  let dedges = ref [] and dnodes = ref [] and moved = ref [] in
  let bit = ref true and fell = ref false in
  for _round = 1 to rounds do
    let churned, damage = Datagen.Churn.rewire ~rng ~fraction !d in
    d := churned;
    let kernel' = of_dataset churned in
    let repaired, info = R.repair state kernel' ~damage in
    bit := !bit && results_equal repaired (R.regrow state kernel');
    fell := !fell || info.R.fell_back;
    (* The honest competitor: a true cold re-inspection that re-derives
       fresh reorderings for the churned kernel. *)
    let cold = I.run plan kernel' in
    repair_ss := info.R.seconds :: !repair_ss;
    cold_ss := cold.I.inspector_seconds :: !cold_ss;
    rstep_ss := step_seconds repaired :: !rstep_ss;
    cstep_ss := step_seconds cold :: !cstep_ss;
    dedges := info.R.damaged_edges :: !dedges;
    dnodes := info.R.damaged_nodes :: !dnodes;
    moved := info.R.tiles_moved :: !moved
  done;
  let repair_s = min_f !repair_ss and cold_s = min_f !cold_ss in
  let rstep = min_f !rstep_ss and cstep = min_f !cstep_ss in
  {
    cb_bench = bench;
    cb_dataset = dataset_name;
    cb_plan = Compose.Plan.name plan;
    cb_churn_pct = fraction *. 100.0;
    cb_rounds = rounds;
    cb_damaged_edges = median_i !dedges;
    cb_damaged_nodes = median_i !dnodes;
    cb_tiles_moved = median_i !moved;
    cb_fell_back = !fell;
    cb_bit_identical = !bit;
    cb_repair_seconds = repair_s;
    cb_cold_inspect_seconds = cold_s;
    cb_repair_speedup = (if repair_s > 0.0 then cold_s /. repair_s else 0.0);
    cb_repaired_step_seconds = rstep;
    cb_cold_step_seconds = cstep;
    cb_steps_to_amortize =
      steps_to_amortize ~repair_s ~cold_s ~repaired_steps:!rstep_ss
        ~cold_steps:!cstep_ss;
  }

let levels = [ 0.01; 0.02; 0.05; 0.10 ]

let measure ?(rounds = 5) ~scale () =
  let cells =
    [
      ("moldyn", "mol1", fun d -> Kernels.Moldyn.of_dataset d);
      ("cg", "foil", fun d -> Kernels.Cg.of_dataset d);
    ]
  in
  let plans =
    [
      Compose.Plan.with_fst ~seed_part_size:64 Compose.Plan.cpack_lexgroup;
      Compose.Plan.with_fst ~seed_part_size:64
        (Compose.Plan.gpart_lexgroup ~part_size:64);
    ]
  in
  let rows =
    List.concat_map
      (fun (bench, dataset_name, of_dataset) ->
        let d0 = Option.get (Datagen.Generators.by_name ~scale dataset_name) in
        List.concat_map
          (fun plan ->
            List.map
              (fun fraction ->
                run_cell ~rounds ~fraction ~bench ~dataset_name ~of_dataset
                  ~plan d0)
              levels)
          plans)
      cells
  in
  (if rows <> [] then
     let worst =
       List.fold_left
         (fun acc r -> Float.min acc r.cb_repair_speedup)
         infinity rows
     in
     Rtrt_obs.Metrics.set
       (Rtrt_obs.Metrics.gauge "churnbench.min_repair_speedup")
       worst);
  Rtrt_obs.Metrics.set
    (Rtrt_obs.Metrics.gauge "churnbench.bit_identical")
    (if List.for_all (fun r -> r.cb_bit_identical) rows then 1.0 else 0.0);
  { rep_scale = scale; rep_rounds = rounds; rows }

(* ------------------------------------------------------------------ *)

let json_of_report r =
  Rtrt_obs.Json.(
    Obj
      [
        ("scale", Int r.rep_scale);
        ("rounds", Int r.rep_rounds);
        ( "rows",
          List
            (List.map
               (fun row ->
                 Obj
                   [
                     ("bench", String row.cb_bench);
                     ("dataset", String row.cb_dataset);
                     ("plan", String row.cb_plan);
                     ("churn_pct", Float row.cb_churn_pct);
                     ("rounds", Int row.cb_rounds);
                     ("damaged_edges", Int row.cb_damaged_edges);
                     ("damaged_nodes", Int row.cb_damaged_nodes);
                     ("tiles_moved", Int row.cb_tiles_moved);
                     ("fell_back", Bool row.cb_fell_back);
                     ("bit_identical", Bool row.cb_bit_identical);
                     ("repair_seconds", Float row.cb_repair_seconds);
                     ( "cold_inspect_seconds",
                       Float row.cb_cold_inspect_seconds );
                     ("repair_speedup", Float row.cb_repair_speedup);
                     ( "repaired_step_seconds",
                       Float row.cb_repaired_step_seconds );
                     ("cold_step_seconds", Float row.cb_cold_step_seconds);
                     ("steps_to_amortize", Float row.cb_steps_to_amortize);
                   ])
               r.rows) );
      ])

let pp_report ppf r =
  Fmt.pf ppf "scale %d, %d chained churn rounds per cell@." r.rep_scale
    r.rep_rounds;
  List.iter
    (fun row ->
      Fmt.pf ppf
        "  %-8s %-6s %-24s %5.1f%%: repair %8.2fms vs cold %8.2fms \
         (%6.1fx)%s, %d moved, amortize %s  %s@."
        row.cb_bench row.cb_dataset row.cb_plan row.cb_churn_pct
        (row.cb_repair_seconds *. 1e3)
        (row.cb_cold_inspect_seconds *. 1e3)
        row.cb_repair_speedup
        (if row.cb_fell_back then " [fell back]" else "")
        row.cb_tiles_moved
        (if row.cb_steps_to_amortize < 0.0 then "never"
         else if row.cb_steps_to_amortize = 0.0 then
           "n/a (no measurable executor difference)"
         else Fmt.str "%.0f steps" row.cb_steps_to_amortize)
        (if row.cb_bit_identical then "bit-identical" else "OUTPUT DIFFERS"))
    r.rows;
  if r.rows = [] then Fmt.pf ppf "  (no cells)@."
