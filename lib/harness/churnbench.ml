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

let exec_bits (r : I.result) =
  let k = r.I.kernel.Kernels.Kernel.copy () in
  (match r.I.schedule with
  | Some s -> k.Kernels.Kernel.run_tiled s ~steps:2
  | None -> k.Kernels.Kernel.run ~steps:2);
  k.Kernels.Kernel.snapshot ()

let results_equal (a : I.result) (b : I.result) =
  Reorder.Perm.equal a.I.sigma_total b.I.sigma_total
  && Reorder.Perm.equal a.I.delta_total b.I.delta_total
  && Option.equal Reorder.Schedule.equal a.I.schedule b.I.schedule
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
  Table.row
    [
      ("bench", bench);
      ("dataset", dataset_name);
      ("plan", Compose.Plan.name plan);
      ("churn_pct", Fmt.str "%g" (fraction *. 100.0));
    ]
    [
      Table.count "rounds" rounds;
      Table.count "damaged_edges" (median_i !dedges);
      Table.count "damaged_nodes" (median_i !dnodes);
      Table.count "tiles_moved" (median_i !moved);
      Table.flag Table.Info "fell_back" !fell;
      Table.flag Table.Higher "bit_identical" !bit;
      Table.lower "repair_seconds" "s" repair_s;
      Table.lower "cold_inspect_seconds" "s" cold_s;
      Table.higher "repair_speedup" "ratio"
        (if repair_s > 0.0 then cold_s /. repair_s else 0.0);
      Table.lower "repaired_step_seconds" "s" (min_f !rstep_ss);
      Table.lower "cold_step_seconds" "s" (min_f !cstep_ss);
      Table.info "steps_to_amortize" "steps"
        (steps_to_amortize ~repair_s ~cold_s ~repaired_steps:!rstep_ss
           ~cold_steps:!cstep_ss);
    ]

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
  let values name =
    List.filter_map
      (fun r ->
        Option.map
          (fun (m : Table.metric) -> m.value)
          (Table.find_metric r name))
      rows
  in
  if rows <> [] then
    Rtrt_obs.Metrics.set
      (Rtrt_obs.Metrics.gauge "churnbench.min_repair_speedup")
      (List.fold_left Float.min infinity (values "repair_speedup"));
  Rtrt_obs.Metrics.set
    (Rtrt_obs.Metrics.gauge "churnbench.bit_identical")
    (if List.for_all (( = ) 1.0) (values "bit_identical") then 1.0 else 0.0);
  {
    Table.name = "churn";
    rows =
      Table.row []
        [
          Table.info "scale" "divisor" (float_of_int scale);
          Table.count "rounds" rounds;
        ]
      :: rows;
  }
