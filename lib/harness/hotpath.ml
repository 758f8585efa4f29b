(* Hot-path microbenchmarks for the executors over the flat-CSR
   schedule:

   - executor steady state: moldyn's tiled executor against the plain
     executor, seconds per time step (the tiled executor must stay
     within a small factor of plain at default scale — its payoff is
     locality, not raw dispatch);
   - specialized executors: the interpreted [run_tiled] walk against
     the generated executor ([Compose.Specialize]) on the same frozen
     schedule, per kernel, on a contiguous-run-rich plan (tilePack on)
     plus a run-poor comparison, nominal schedule GB/s for each;
   - inspector phase breakdown: the composed inspector re-run under an
     in-memory trace sink, per-span-name totals via [Rtrt_obs.Report].

   Both timed sections go through [best_of_rounds]. Results land in
   BENCH_HOTPATH.json (the CI perf trajectory) and in the [hotpath.*]
   gauges. *)

module T = Table

let g_exec_ratio = Rtrt_obs.Metrics.gauge "hotpath.exec.tiled_over_plain"
let g_spec_shaped = Rtrt_obs.Metrics.gauge "hotpath.spec.shaped_speedup"

let time f = snd (Rtrt_obs.Clock.time f)

(* Two walks of [steps] steps each, timed as the best of five
   alternating rounds (a round, b round, repeat), so ambient machine
   drift lands on both equally and the best-of-rounds ratio stays
   stable. [steps] is calibrated off [a]'s first step, which (like
   [b]'s) is a warm-up, so that one round lasts about 0.05 s. Each
   walk runs 1 + 5 * steps steps in all. Returns [steps] and each
   walk's best round in seconds. *)
let best_of_rounds a b =
  let rounds = 5 and min_seconds = 0.25 in
  let one = time (fun () -> a ~steps:1) in
  b ~steps:1;
  let steps =
    max 3 (int_of_float (min_seconds /. float_of_int rounds /. max 1e-9 one))
  in
  let best_a = ref infinity and best_b = ref infinity in
  for _ = 1 to rounds do
    let keep cell t = if t < !cell then cell := t in
    keep best_a (time (fun () -> a ~steps));
    keep best_b (time (fun () -> b ~steps))
  done;
  (steps, !best_a, !best_b)

(* ------------------------------------------------------------------ *)
(* Executor steady state                                               *)

let bench_exec (kernel : Kernels.Kernel.t) (result : Compose.Inspector.result)
    =
  match result.Compose.Inspector.schedule with
  | None -> invalid_arg "Hotpath.bench_exec: plan produced no schedule"
  | Some sched ->
    let k = result.Compose.Inspector.kernel in
    let plain = Kernels.Kernel.(kernel.copy ()) in
    let tiled = Kernels.Kernel.(k.copy ()) in
    let steps, plain_best, tiled_best =
      best_of_rounds plain.Kernels.Kernel.run
        (tiled.Kernels.Kernel.run_tiled sched)
    in
    let plain_s = plain_best /. float_of_int steps in
    let tiled_s = tiled_best /. float_of_int steps in
    let tiled_over_plain = tiled_s /. max 1e-12 plain_s in
    Rtrt_obs.Metrics.set g_exec_ratio tiled_over_plain;
    T.row
      [ ("section", "executor") ]
      [
        T.count "steps" steps;
        T.lower "plain_seconds_per_step" "s" plain_s;
        T.lower "tiled_seconds_per_step" "s" tiled_s;
        T.lower "tiled_over_plain" "ratio" tiled_over_plain;
      ]

(* ------------------------------------------------------------------ *)
(* Specialized executors                                               *)

let bench_spec ~plan_name (result : Compose.Inspector.result) =
  match result.Compose.Inspector.schedule with
  | None -> invalid_arg "Hotpath.bench_spec: plan produced no schedule"
  | Some sched ->
    let k = result.Compose.Inspector.kernel in
    let items = Reorder.Schedule.total_iterations sched in
    (* Each walk runs on its own copy of the transformed kernel, the
       same number of steps, so the final states must be bitwise
       equal — asserted below. Construction verifies bitwise on
       throwaway copies. *)
    let interp_k = Kernels.Kernel.(k.copy ()) in
    let shaped_k = Kernels.Kernel.(k.copy ()) in
    let spec = Compose.Specialize.make shaped_k sched in
    let steps, interp_seconds, shaped_seconds =
      best_of_rounds
        (interp_k.Kernels.Kernel.run_tiled sched)
        spec.Compose.Specialize.run
    in
    let bitwise =
      Kernels.Kernel.snapshots_equal_bits
        (interp_k.Kernels.Kernel.snapshot ())
        (shaped_k.Kernels.Kernel.snapshot ())
    in
    if not bitwise then failwith "Hotpath.bench_spec: walks diverged";
    let sm = spec.Compose.Specialize.summary in
    let gbps sec =
      float_of_int (8 * items * steps) /. max 1e-12 sec /. 1e9
    in
    let shaped_speedup = interp_seconds /. max 1e-12 shaped_seconds in
    Rtrt_obs.Metrics.set g_spec_shaped shaped_speedup;
    T.row
      [
        ("section", "specialize");
        ("bench", k.Kernels.Kernel.name);
        ("plan", plan_name);
      ]
      [
        T.count "items" items;
        T.count "steps" steps;
        T.count "runs" sm.Reorder.Shape.runs;
        T.count "identity_rows" sm.Reorder.Shape.identity_rows;
        T.info "avg_run_len" "items" sm.Reorder.Shape.avg_run_len;
        T.higher "interp_gbps" "GB/s" (gbps interp_seconds);
        T.higher "shaped_gbps" "GB/s" (gbps shaped_seconds);
        T.higher "shaped_speedup" "ratio" shaped_speedup;
        T.flag T.Higher "bitwise" bitwise;
      ]

(* ------------------------------------------------------------------ *)
(* Inspector phase breakdown                                           *)

let inspector_phases plan kernel =
  let sink, events = Rtrt_obs.Sink.memory () in
  Rtrt_obs.set_sink sink;
  Fun.protect ~finally:Rtrt_obs.disable (fun () ->
      ignore (Experiment.inspect plan kernel));
  List.map
    (fun (a : Rtrt_obs.Report.agg) ->
      T.row
        [
          ("section", "inspector_phases"); ("span", a.Rtrt_obs.Report.agg_name);
        ]
        [
          T.count "count" a.count;
          T.lower "total_seconds" "s" a.total_s;
          T.lower "self_seconds" "s" a.self_s;
        ])
    (Rtrt_obs.Report.summarize (events ()))

(* ------------------------------------------------------------------ *)
(* The whole table                                                     *)

let measure ~scale () =
  let dataset = Option.get (Datagen.Generators.by_name ~scale "mol1") in
  let kernel = (Option.get (Kernels.by_name "moldyn")) dataset in
  let plan =
    Compose.Plan.with_fst ~seed_part_size:64 Compose.Plan.cpack_lexgroup_twice
  in
  let result = Experiment.inspect plan kernel in
  let exec, ph_exec =
    Rtrt_obs.Profile.record ~name:"exec" (fun () -> bench_exec kernel result)
  in
  let spec, ph_spec =
    Rtrt_obs.Profile.record ~name:"specialize" (fun () ->
        (* Run-rich rows: the top-level plan tilePacks, so its rows are
           long contiguous runs — the shape the generated executor
           streams. The moldyn CL+FST row drops tilePack for a run-poor
           comparison on the same kernel. *)
        let row p kname dname =
          let dataset = Option.get (Datagen.Generators.by_name ~scale dname) in
          let k = (Option.get (Kernels.by_name kname)) dataset in
          bench_spec ~plan_name:(Compose.Plan.name p)
            (Experiment.inspect p k)
        in
        let rich =
          Compose.Plan.with_fst ~seed_part_size:128
            Compose.Plan.cpack_lexgroup_twice
        in
        let poor =
          Compose.Plan.with_fst ~tile_pack:false ~seed_part_size:64
            Compose.Plan.cpack_lexgroup
        in
        let cl =
          Compose.Plan.with_fst ~seed_part_size:64 Compose.Plan.cpack_lexgroup
        in
        [
          bench_spec ~plan_name:(Compose.Plan.name plan) result;
          row rich "nbf" "foil";
          row rich "irreg" "foil";
          row poor "moldyn" "mol1";
          row cl "cg" "auto";
        ])
  in
  let phases, ph_insp =
    Rtrt_obs.Profile.record ~name:"inspector_phases" (fun () ->
        inspector_phases plan kernel)
  in
  {
    T.name = "hotpath";
    rows =
      [
        T.row
          ~notes:[ ("plan", Compose.Plan.name plan) ]
          [] [ T.info "scale" "divisor" (float_of_int scale) ];
        exec;
      ]
      @ spec @ phases
      @ T.profile_rows [ ph_exec; ph_spec; ph_insp ];
  }
