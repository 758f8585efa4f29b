(* Hot-path microbenchmarks for the flat-CSR schedule representation:

   - schedule walk: stream every (tile, loop) row of a real sparse-tiled
     schedule, flat CSR with validated-once [Array.unsafe_get] against a
     locally synthesized nested [int array array array] reference (the
     pre-flat representation), reporting GB/s for both and the ratio;
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

   Results land in BENCH_HOTPATH.json (the CI perf trajectory) and in
   the [hotpath.*] gauges. *)

module T = Table

let g_flat_gbps = Rtrt_obs.Metrics.gauge "hotpath.walk.flat_gbps"
let g_walk_speedup = Rtrt_obs.Metrics.gauge "hotpath.walk.speedup"
let g_exec_ratio = Rtrt_obs.Metrics.gauge "hotpath.exec.tiled_over_plain"
let g_spec_shaped = Rtrt_obs.Metrics.gauge "hotpath.spec.shaped_speedup"

let time f = snd (Rtrt_obs.Clock.time f)

(* ------------------------------------------------------------------ *)
(* Schedule walk                                                       *)

(* The pre-flat representation, synthesized from the same schedule so
   both walks visit identical items in identical order. Rows are
   allocated loop-major, as the nested [of_tile_fns] built them (one
   loop's rows at a time), so the tile-major walk below hops between
   allocations exactly as the old executors did. *)
let nested_of_schedule s =
  let nt = Reorder.Schedule.n_tiles s and nl = Reorder.Schedule.n_loops s in
  let nested = Array.init nt (fun _ -> Array.make nl [||]) in
  for loop = 0 to nl - 1 do
    for tile = 0 to nt - 1 do
      nested.(tile).(loop) <- Reorder.Schedule.items s ~tile ~loop
    done
  done;
  nested

(* The old executors fetched each row through [Schedule.items], a
   cross-module call the compiler did not inline. *)
let[@inline never] nested_row (nested : int array array array) tile loop =
  nested.(tile).(loop)

let walk_nested (nested : int array array array) =
  let acc = ref 0 in
  for tile = 0 to Array.length nested - 1 do
    for loop = 0 to Array.length nested.(tile) - 1 do
      let row = nested_row nested tile loop in
      for i = 0 to Array.length row - 1 do
        acc := !acc + row.(i)
      done
    done
  done;
  !acc

(* Row-major flat walk, one row-pointer read per row (rows are
   contiguous, so the previous row's end is the next row's start) —
   the executors' access pattern. *)
let walk_flat s =
  let rp = Reorder.Schedule.row_ptr s
  and fl = Reorder.Schedule.flat_items s in
  let n_rows = Reorder.Schedule.n_tiles s * Reorder.Schedule.n_loops s in
  let acc = ref 0 in
  let lo = ref 0 in
  for r = 0 to n_rows - 1 do
    let hi = Array.unsafe_get rp (r + 1) in
    for i = !lo to hi - 1 do
      acc := !acc + Array.unsafe_get fl i
    done;
    lo := hi
  done;
  !acc

let bench_walk ?(min_seconds = 0.2) sched =
  let nested = nested_of_schedule sched in
  let items = Reorder.Schedule.total_iterations sched in
  let check = walk_flat sched in
  if walk_nested nested <> check then failwith "Hotpath.bench_walk: mismatch";
  (* Calibrate the pass count on the nested walk, then time both sides
     as the best of several rounds of [passes] walks each — the
     minimum is the least scheduler-perturbed round, so the ratio is
     stable run to run. *)
  let sink = ref 0 in
  let one = time (fun () -> sink := !sink + walk_nested nested) in
  let rounds = 5 in
  let passes =
    max 3 (int_of_float (min_seconds /. float_of_int rounds /. max 1e-9 one))
  in
  let run walk =
    let best = ref infinity in
    for _ = 1 to rounds do
      let t =
        time (fun () ->
            for _ = 1 to passes do
              sink := !sink + walk ()
            done)
      in
      if t < !best then best := t
    done;
    !best
  in
  let nested_seconds = run (fun () -> walk_nested nested) in
  let flat_seconds = run (fun () -> walk_flat sched) in
  ignore (Sys.opaque_identity !sink);
  let gbps sec =
    float_of_int (8 * items * passes) /. max 1e-12 sec /. 1e9
  in
  let speedup = nested_seconds /. max 1e-12 flat_seconds in
  Rtrt_obs.Metrics.set g_flat_gbps (gbps flat_seconds);
  Rtrt_obs.Metrics.set g_walk_speedup speedup;
  T.row
    [ ("section", "schedule_walk") ]
    [
      T.count "items" items;
      T.count "passes" passes;
      T.lower "nested_seconds" "s" nested_seconds;
      T.lower "flat_seconds" "s" flat_seconds;
      T.higher "nested_gbps" "GB/s" (gbps nested_seconds);
      T.higher "flat_gbps" "GB/s" (gbps flat_seconds);
      T.higher "speedup" "ratio" speedup;
    ]

(* ------------------------------------------------------------------ *)
(* Executor steady state                                               *)

let bench_exec ?(steps = 3) (kernel : Kernels.Kernel.t)
    (result : Compose.Inspector.result) =
  match result.Compose.Inspector.schedule with
  | None -> invalid_arg "Hotpath.bench_exec: plan produced no schedule"
  | Some sched ->
    let k = result.Compose.Inspector.kernel in
    let plain = Kernels.Kernel.(kernel.copy ()) in
    let tiled = Kernels.Kernel.(k.copy ()) in
    (* One warmup step each, then the timed steady state. *)
    plain.Kernels.Kernel.run ~steps:1;
    tiled.Kernels.Kernel.run_tiled sched ~steps:1;
    let plain_s =
      time (fun () -> plain.Kernels.Kernel.run ~steps) /. float_of_int steps
    in
    let tiled_s =
      time (fun () -> tiled.Kernels.Kernel.run_tiled sched ~steps)
      /. float_of_int steps
    in
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

let bench_spec ?(min_seconds = 0.25) ?(rounds = 5) ~plan_name
    (result : Compose.Inspector.result) =
  match result.Compose.Inspector.schedule with
  | None -> invalid_arg "Hotpath.bench_spec: plan produced no schedule"
  | Some sched ->
    let k = result.Compose.Inspector.kernel in
    let items = Reorder.Schedule.total_iterations sched in
    (* Calibrate the step count off the interpreted walk's warmup step
       so one timing round lasts roughly [min_seconds / rounds] — the
       per-step times here are far too short to gate on raw. Each
       walk runs on its own copy of the transformed kernel; the rounds
       alternate (interpreted round, generated round, repeat) so
       ambient machine drift lands on both equally and the
       best-of-rounds ratio stays stable. Both execute the same
       1 + rounds*steps walks, so the final states must be bitwise
       equal — asserted below. *)
    let interp_k = Kernels.Kernel.(k.copy ()) in
    let one =
      time (fun () -> interp_k.Kernels.Kernel.run_tiled sched ~steps:1)
    in
    let steps =
      max 3
        (int_of_float
           (min_seconds /. float_of_int rounds /. max 1e-9 one))
    in
    (* Construction verifies bitwise on throwaway copies. *)
    let shaped_k = Kernels.Kernel.(k.copy ()) in
    let spec = Compose.Specialize.make shaped_k sched in
    (* Warmup (the calibration step already warmed interp_k). *)
    spec.Compose.Specialize.run ~steps:1;
    let interp_best = ref infinity and shaped_best = ref infinity in
    for _ = 1 to rounds do
      let keep cell t = if t < !cell then cell := t in
      keep interp_best
        (time (fun () -> interp_k.Kernels.Kernel.run_tiled sched ~steps));
      keep shaped_best (time (fun () -> spec.Compose.Specialize.run ~steps))
    done;
    let interp_seconds = !interp_best in
    let shaped_seconds = !shaped_best in
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
  let sched =
    match result.Compose.Inspector.schedule with
    | Some s -> s
    | None -> invalid_arg "Hotpath.measure: plan produced no schedule"
  in
  let walk, ph_walk =
    Rtrt_obs.Profile.record ~name:"walk" (fun () -> bench_walk sched)
  in
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
        walk;
        exec;
      ]
      @ spec @ phases
      @ T.profile_rows [ ph_walk; ph_exec; ph_spec; ph_insp ];
  }
