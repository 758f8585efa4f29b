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
     the Tier A shape-specialized executor and the Tier B compiled
     executor ([Compose.Specialize]) on the same frozen schedule, per
     kernel, on a contiguous-run-rich plan (tilePack on) plus a
     run-poor comparison, nominal schedule GB/s for each;
   - inspector phase breakdown: the composed inspector re-run under an
     in-memory trace sink, per-span-name totals via [Rtrt_obs.Report].

   Results land in BENCH_HOTPATH.json (the CI perf trajectory) and in
   the [hotpath.*] gauges. *)

let g_flat_gbps = Rtrt_obs.Metrics.gauge "hotpath.walk.flat_gbps"
let g_walk_speedup = Rtrt_obs.Metrics.gauge "hotpath.walk.speedup"
let g_exec_ratio = Rtrt_obs.Metrics.gauge "hotpath.exec.tiled_over_plain"
let g_spec_shaped = Rtrt_obs.Metrics.gauge "hotpath.spec.shaped_speedup"
let g_spec_codegen = Rtrt_obs.Metrics.gauge "hotpath.spec.codegen_speedup"

type walk_result = {
  walk_items : int;  (** schedule items per pass *)
  walk_passes : int;
  nested_seconds : float;
  flat_seconds : float;
  nested_gbps : float;
  flat_gbps : float;
  walk_speedup : float;  (** nested_seconds / flat_seconds *)
}

type exec_result = {
  exec_steps : int;
  plain_seconds_per_step : float;
  tiled_seconds_per_step : float;
  tiled_over_plain : float;
}

type spec_row = {
  spec_kernel : string;
  spec_plan : string;
  spec_tier : string;  (** best tier reached: interp / shaped / codegen *)
  spec_items : int;  (** schedule iterations per step *)
  spec_steps : int;  (** steps per timed round *)
  spec_runs : int;  (** contiguous runs in the schedule *)
  spec_identity_rows : int;
  spec_avg_run_len : float;
  spec_interp_gbps : float;
  spec_shaped_gbps : float;
  spec_shaped_speedup : float;  (** interp_seconds / shaped_seconds *)
  spec_codegen_gbps : float option;  (** [None] when Tier B unavailable *)
  spec_codegen_speedup : float option;
  spec_compile_seconds : float;
  spec_cmxs_cache_hit : bool;
  spec_bitwise : bool;  (** final states of all tiers bitwise equal *)
}

type phase = {
  phase_name : string;
  phase_count : int;
  phase_total_s : float;
  phase_self_s : float;
}

type report = {
  rep_scale : int;
  rep_plan : string;
  walk : walk_result;
  exec : exec_result;
  spec : spec_row list;
  phases : phase list;
  rep_profile : Rtrt_obs.Profile.phase list;
}

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
  let r =
    {
      walk_items = items;
      walk_passes = passes;
      nested_seconds;
      flat_seconds;
      nested_gbps = gbps nested_seconds;
      flat_gbps = gbps flat_seconds;
      walk_speedup = nested_seconds /. max 1e-12 flat_seconds;
    }
  in
  Rtrt_obs.Metrics.set g_flat_gbps r.flat_gbps;
  Rtrt_obs.Metrics.set g_walk_speedup r.walk_speedup;
  r

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
    let r =
      {
        exec_steps = steps;
        plain_seconds_per_step = plain_s;
        tiled_seconds_per_step = tiled_s;
        tiled_over_plain = tiled_s /. max 1e-12 plain_s;
      }
    in
    Rtrt_obs.Metrics.set g_exec_ratio r.tiled_over_plain;
    r

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
       variant runs on its own copy of the transformed kernel; the
       rounds are interleaved across the tiers (interp round, shaped
       round, codegen round, repeat) so ambient machine drift lands on
       every tier equally and the best-of-rounds ratios stay stable.
       Every variant executes the same 1 + rounds*steps walks, so the
       final states must be bitwise equal — asserted below. *)
    let interp_k = Kernels.Kernel.(k.copy ()) in
    let one =
      time (fun () -> interp_k.Kernels.Kernel.run_tiled sched ~steps:1)
    in
    let steps =
      max 3
        (int_of_float
           (min_seconds /. float_of_int rounds /. max 1e-9 one))
    in
    let shaped_k = Kernels.Kernel.(k.copy ()) in
    let shape = Reorder.Shape.analyze sched in
    (* Tier B on its own copy; construction verifies bitwise on
       throwaway copies and degrades to a counted fallback when the
       toolchain is missing. *)
    let cg_k = Kernels.Kernel.(k.copy ()) in
    let cg = Compose.Specialize.make ~tier_b:true cg_k sched in
    let have_cg = cg.Compose.Specialize.tier = Compose.Specialize.Codegen in
    (* Warmups (the calibration step already warmed interp_k). *)
    shaped_k.Kernels.Kernel.run_tiled_shaped sched shape ~steps:1;
    if have_cg then cg.Compose.Specialize.run ~steps:1;
    let interp_best = ref infinity
    and shaped_best = ref infinity
    and cg_best = ref infinity in
    for _ = 1 to rounds do
      let keep cell t = if t < !cell then cell := t in
      keep interp_best
        (time (fun () -> interp_k.Kernels.Kernel.run_tiled sched ~steps));
      keep shaped_best
        (time (fun () ->
             shaped_k.Kernels.Kernel.run_tiled_shaped sched shape ~steps));
      if have_cg then
        keep cg_best (time (fun () -> cg.Compose.Specialize.run ~steps))
    done;
    let interp_seconds = !interp_best in
    let shaped_seconds = !shaped_best in
    let codegen_seconds = if have_cg then Some !cg_best else None in
    let eq a b =
      Kernels.Kernel.snapshots_equal_bits
        (a.Kernels.Kernel.snapshot ())
        (b.Kernels.Kernel.snapshot ())
    in
    let bitwise =
      eq interp_k shaped_k
      && (codegen_seconds = None || eq interp_k cg_k)
    in
    if not bitwise then failwith "Hotpath.bench_spec: tiers diverged";
    let sm = cg.Compose.Specialize.summary in
    let gbps sec =
      float_of_int (8 * items * steps) /. max 1e-12 sec /. 1e9
    in
    let shaped_speedup = interp_seconds /. max 1e-12 shaped_seconds in
    let codegen_speedup =
      Option.map (fun s -> interp_seconds /. max 1e-12 s) codegen_seconds
    in
    Rtrt_obs.Metrics.set g_spec_shaped shaped_speedup;
    Option.iter (Rtrt_obs.Metrics.set g_spec_codegen) codegen_speedup;
    {
      spec_kernel = k.Kernels.Kernel.name;
      spec_plan = plan_name;
      spec_tier = Compose.Specialize.tier_name cg.Compose.Specialize.tier;
      spec_items = items;
      spec_steps = steps;
      spec_runs = sm.Reorder.Shape.runs;
      spec_identity_rows = sm.Reorder.Shape.identity_rows;
      spec_avg_run_len = sm.Reorder.Shape.avg_run_len;
      spec_interp_gbps = gbps interp_seconds;
      spec_shaped_gbps = gbps shaped_seconds;
      spec_shaped_speedup = shaped_speedup;
      spec_codegen_gbps = Option.map gbps codegen_seconds;
      spec_codegen_speedup = codegen_speedup;
      spec_compile_seconds = cg.Compose.Specialize.compile_seconds;
      spec_cmxs_cache_hit = cg.Compose.Specialize.cmxs_cache_hit;
      spec_bitwise = bitwise;
    }

(* ------------------------------------------------------------------ *)
(* Inspector phase breakdown                                           *)

let inspector_phases plan kernel =
  let sink, events = Rtrt_obs.Sink.memory () in
  Rtrt_obs.set_sink sink;
  Fun.protect ~finally:Rtrt_obs.disable (fun () ->
      ignore (Experiment.inspect plan kernel));
  List.map
    (fun (a : Rtrt_obs.Report.agg) ->
      {
        phase_name = a.Rtrt_obs.Report.agg_name;
        phase_count = a.count;
        phase_total_s = a.total_s;
        phase_self_s = a.self_s;
      })
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
           long contiguous runs — the shape the Tier A streaming
           executors exploit. The moldyn CL+FST row drops tilePack for
           a run-poor comparison on the same kernel. The cg row has no
           Tier B emitter (it falls back), so every kernel's walks get
           an interpreted and a shaped row. *)
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
    rep_scale = scale;
    rep_plan = Compose.Plan.name plan;
    walk;
    exec;
    spec;
    phases;
    rep_profile = [ ph_walk; ph_exec; ph_spec; ph_insp ];
  }

let json_of_report r =
  Rtrt_obs.Json.(
    Obj
      [
        ("scale", Int r.rep_scale);
        ("plan", String r.rep_plan);
        ( "schedule_walk",
          Obj
            [
              ("items", Int r.walk.walk_items);
              ("passes", Int r.walk.walk_passes);
              ("nested_seconds", Float r.walk.nested_seconds);
              ("flat_seconds", Float r.walk.flat_seconds);
              ("nested_gbps", Float r.walk.nested_gbps);
              ("flat_gbps", Float r.walk.flat_gbps);
              ("speedup", Float r.walk.walk_speedup);
            ] );
        ( "executor",
          Obj
            [
              ("steps", Int r.exec.exec_steps);
              ("plain_seconds_per_step", Float r.exec.plain_seconds_per_step);
              ("tiled_seconds_per_step", Float r.exec.tiled_seconds_per_step);
              ("tiled_over_plain", Float r.exec.tiled_over_plain);
            ] );
        ( "specialize",
          List
            (List.map
               (fun s ->
                 Obj
                   ([
                      ("bench", String s.spec_kernel);
                      ("plan", String s.spec_plan);
                      ("tier", String s.spec_tier);
                      ("items", Int s.spec_items);
                      ("steps", Int s.spec_steps);
                      ("runs", Int s.spec_runs);
                      ("identity_rows", Int s.spec_identity_rows);
                      ("avg_run_len", Float s.spec_avg_run_len);
                      ("interp_gbps", Float s.spec_interp_gbps);
                      ("shaped_gbps", Float s.spec_shaped_gbps);
                      ("shaped_speedup", Float s.spec_shaped_speedup);
                    ]
                   @ (match (s.spec_codegen_gbps, s.spec_codegen_speedup) with
                     | Some g, Some sp ->
                       [
                         ("codegen_gbps", Float g);
                         ("codegen_speedup", Float sp);
                       ]
                     | _ -> [])
                   @ [
                       ("compile_seconds", Float s.spec_compile_seconds);
                       ("cmxs_cache_hit", Bool s.spec_cmxs_cache_hit);
                       ("bitwise", Bool s.spec_bitwise);
                     ]))
               r.spec) );
        ( "inspector_phases",
          List
            (List.map
               (fun p ->
                 Obj
                   [
                     ("name", String p.phase_name);
                     ("count", Int p.phase_count);
                     ("total_seconds", Float p.phase_total_s);
                     ("self_seconds", Float p.phase_self_s);
                   ])
               r.phases) );
        ("profile", Rtrt_obs.Profile.json_of_phases r.rep_profile);
      ])

let write_json ~path r =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Rtrt_obs.Json.to_string (json_of_report r));
      output_char oc '\n')

let pp_report ppf r =
  Fmt.pf ppf
    "plan %s, scale %d@.  schedule walk: %d items, %d passes: nested %.3f \
     GB/s, flat %.3f GB/s (%.2fx)@.  executor: plain %.6fs/step, tiled \
     %.6fs/step (tiled/plain %.3fx)@."
    r.rep_plan r.rep_scale r.walk.walk_items r.walk.walk_passes
    r.walk.nested_gbps r.walk.flat_gbps r.walk.walk_speedup
    r.exec.plain_seconds_per_step r.exec.tiled_seconds_per_step
    r.exec.tiled_over_plain;
  Fmt.pf ppf "  specialized executors:@.";
  List.iter
    (fun s ->
      Fmt.pf ppf
        "    %-8s %-18s tier %-7s interp %.3f GB/s, shaped %.3f GB/s \
         (%.2fx)%s, runs %d avg %.1f%s@."
        s.spec_kernel s.spec_plan s.spec_tier s.spec_interp_gbps
        s.spec_shaped_gbps s.spec_shaped_speedup
        (match (s.spec_codegen_gbps, s.spec_codegen_speedup) with
        | Some g, Some sp -> Fmt.str ", codegen %.3f GB/s (%.2fx)" g sp
        | _ -> "")
        s.spec_runs s.spec_avg_run_len
        (if s.spec_compile_seconds > 0.0 then
           Fmt.str ", compile %.2fs" s.spec_compile_seconds
         else if s.spec_cmxs_cache_hit then ", cmxs cached"
         else ""))
    r.spec;
  Fmt.pf ppf "  inspector phases:@.";
  List.iter
    (fun p ->
      Fmt.pf ppf "    %-32s %3dx total %.4fs self %.4fs@." p.phase_name
        p.phase_count p.phase_total_s p.phase_self_s)
    r.phases
