(* Measuring one (plan, kernel, machine) combination: inspector cost,
   executor wall-clock, and modeled cycles from the cache simulator.

   The cache-model measurement warms the cache for [warmup] time steps,
   then counts over [steps] steps, mirroring the paper's reporting of
   executor time per outer-loop iteration with overhead excluded. *)

(* Multicore execution of the tiled schedule, measured against the
   serial executor on the identical (level-major renumbered) schedule.
   [modeled_*] come from the Tile_par DAG makespan model, so figure
   tables can show measured next to modeled. [par_tier] is which tier
   the auto-fallback decision selected for the timed run (fed by the
   measured serial step time); the dispatch/barrier waits come from
   pool accounting deltas around the run, separating synchronization
   overhead from work in BENCH_PAR.json. *)
type par_measurement = {
  domains : int;
  serial_seconds_per_step : float;
  par_seconds_per_step : float;
  measured_speedup : float;
  modeled_speedup : float;
  modeled_makespan : int;
  bitwise_equal : bool;
  par_tier : string;
  par_batch : int;
  modeled_par_seconds_per_step : float;
  barrier_cost_ns : float;
  dispatch_wait_ns_per_step : float;
  barrier_wait_ns_per_step : float;
}

(* Plan-cache traffic around one measurement. [pc_hit] says whether
   THIS measurement's inspection was served from the cache (its
   [inspector_seconds] is then the replay cost, not a full
   inspection); [pc_cold_inspector_seconds] is what the cold run paid,
   so cached-vs-uncached amortization can put both on the same
   footing. *)
type plancache_report = {
  pc_hit : bool;
  pc_cold_inspector_seconds : float;
  pc_hits : int; (* cumulative cache hits after this measurement *)
  pc_misses : int;
}

type measurement = {
  plan_name : string;
  inspector_seconds : float;
  executor_seconds_per_step : float;
  modeled_cycles_per_step : float;
  misses_per_step : float;
  accesses_per_step : float;
  miss_ratio : float;
  n_data_remaps : int;
  n_tiles : int; (* 1 when not sparse tiled *)
  par : par_measurement option; (* parallel run, when a pool was given *)
  plancache : plancache_report option; (* when a cache was given *)
  profile : Rtrt_obs.Profile.phase list;
      (* per-phase GC + monotonic timing deltas *)
}

let time f = Rtrt_obs.Clock.time f

(* Run the inspector and verify the result. *)
let inspect ?cache ?strategy plan kernel =
  Rtrt_obs.Span.with_ ~name:"experiment.inspect"
    ~attrs:[ ("plan", Rtrt_obs.Json.String (Compose.Plan.name plan)) ]
  @@ fun () ->
  let result = Compose.Inspector.run ?cache ?strategy plan kernel in
  (match Compose.Legality.check result with
  | Ok () -> ()
  | Error msg ->
    Fmt.invalid_arg "experiment: plan %s produced illegal result: %s"
      (Compose.Plan.name plan) msg);
  result

let trace_steps ?(layout_of = Kernels.Kernel.layout)
    (result : Compose.Inspector.result) ~machine ~warmup ~steps =
  Rtrt_obs.Span.with_ ~name:"experiment.trace"
    ~attrs:
      [
        ("machine", Rtrt_obs.Json.String machine.Cachesim.Machine.name);
        ("steps", Rtrt_obs.Json.Int steps);
      ]
  @@ fun () ->
  let kernel = result.Compose.Inspector.kernel in
  let layout = layout_of kernel in
  let hierarchy = Cachesim.Machine.hierarchy machine in
  let access = Cachesim.Hierarchy.access hierarchy in
  (match result.Compose.Inspector.schedule with
  | None ->
    kernel.Kernels.Kernel.run_traced ~steps:warmup ~layout ~access;
    Cachesim.Hierarchy.reset_counters hierarchy;
    kernel.Kernels.Kernel.run_traced ~steps ~layout ~access
  | Some sched ->
    kernel.Kernels.Kernel.run_tiled_traced sched ~steps:warmup ~layout ~access;
    Cachesim.Hierarchy.reset_counters hierarchy;
    kernel.Kernels.Kernel.run_tiled_traced sched ~steps ~layout ~access);
  Cachesim.Hierarchy.publish_metrics hierarchy;
  let misses = float_of_int (Cachesim.Hierarchy.l1_misses hierarchy) in
  let accesses = float_of_int (Cachesim.Hierarchy.accesses hierarchy) in
  let cycles = Cachesim.Hierarchy.modeled_cycles hierarchy in
  ( cycles /. float_of_int steps,
    misses /. float_of_int steps,
    accesses /. float_of_int steps,
    Cachesim.Hierarchy.miss_ratio hierarchy )

let wall_clock_steps (result : Compose.Inspector.result) ~steps =
  Rtrt_obs.Span.with_ ~name:"experiment.wall_clock"
    ~attrs:[ ("steps", Rtrt_obs.Json.Int steps) ]
  @@ fun () ->
  let kernel = result.Compose.Inspector.kernel in
  match result.Compose.Inspector.schedule with
  | None ->
    let (), seconds = time (fun () -> kernel.Kernels.Kernel.run ~steps) in
    seconds /. float_of_int steps
  | Some sched ->
    (* The staged tier choice (interpreted / shaped / compiled) is made
       at plan time, outside the timed region; construction verifies
       the chosen tier bitwise against the interpreted walk on
       two-step copies, so the timed executor is provably the same
       computation. *)
    let spec = Compose.Specialize.make kernel sched in
    let (), seconds = time (fun () -> spec.Compose.Specialize.run ~steps) in
    seconds /. float_of_int steps

(* Only Full growth guarantees that same-level tiles at non-adjacent
   chain positions never share data (conn-path transitivity), which the
   phase-major parallel executor's bitwise claim rests on; Cache_block
   tilings are excluded from parallel measurement. *)
let plan_full_growth plan =
  List.exists
    (function
      | Compose.Transform.Sparse_tile { growth = Compose.Transform.Full; _ } ->
        true
      | _ -> false)
    (Compose.Plan.transforms plan)

(* Derive the tile DAG post-hoc from the schedule, build the parallel
   executor, and time it against the engine's own serial tier running
   the SAME (level-major renumbered) schedule on an identical kernel
   copy. The serial reference is the engine's [Serial] tier — not the
   kernel's [run_tiled] — so the two sides run identical code whenever
   the auto-fallback picks serial (the ratio then centers on 1.0
   instead of measuring an incidental codegen difference between two
   serial loops), and a parallel-tier row measures the engine against
   its exact serial twin, which is also what the makespan model
   predicts against. *)
let measure_par ~pool (result : Compose.Inspector.result) sched ~wall_steps =
  let domains = Rtrt_par.Pool.size pool in
  Rtrt_obs.Span.with_ ~name:"experiment.measure_par"
    ~attrs:
      [
        ("domains", Rtrt_obs.Json.Int domains);
        ("steps", Rtrt_obs.Json.Int wall_steps);
      ]
  @@ fun () ->
  let k = result.Compose.Inspector.kernel in
  let tiles =
    Compose.Legality.tile_fns_of_schedule sched
      ~loop_sizes:k.Kernels.Kernel.loop_sizes
  in
  let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
  let par = Reorder.Tile_par.analyze ~chain ~tiles in
  let k_ser = k.Kernels.Kernel.copy () in
  let k_par = k.Kernels.Kernel.copy () in
  let pe_ser =
    k_ser.Kernels.Kernel.plan_par ~pool sched
      ~level_of:par.Reorder.Tile_par.level_of
  in
  let pe =
    k_par.Kernels.Kernel.plan_par ~pool sched
      ~level_of:par.Reorder.Tile_par.level_of
  in
  (* Measurement design, hardened against noisy hosts:

     - Correctness: [k_ser] runs one window at the engine's [Serial]
       tier, [k_par] one window at the [Parallel] tier, and their
       snapshots are compared bit for bit.

     - [measured_speedup] is always serial tier vs PARALLEL tier —
       the counterfactual the auto-fallback decides about — not vs
       whichever tier [decide] picked. Measuring the chosen tier would
       make serial-tier rows compare the executor against itself
       (identical code, so the ratio is pure timing noise around 1.0,
       and on throttled hosts that noise reaches +-20%); measuring the
       parallel tier instead lets the table genuinely audit the
       decision: a row whose measured parallel speedup clearly exceeds
       1 while [par_tier] says "serial" is a model failure, and a row
       whose speedup is below 1 with tier "serial" is the model
       earning its keep.

     - Timing: BOTH sides of the speedup run on the same kernel copy
       ([k_par]) and the same plan, alternating a serial-tier window
       with a parallel-tier window. One copy for both sides cancels
       allocation/placement luck between two otherwise-identical
       array sets, which otherwise shows up as a persistent phantom
       10-15% "speedup" on a random row.

     - The reported speedup is the median of the per-pair ratios, not
       the ratio of the two minima: a pair's windows are adjacent in
       time and share the same throttling/GC environment, so each
       ratio is stable even when absolute window times are not, while
       min/min can pair one side's lone clean window against the other
       side's stalled ones. Pairs alternate which side goes first so
       any systematic first-window penalty (CPU-quota replenishment,
       GC debt from the previous window) lands on both sides equally
       often. *)
  let reps = 7 in
  let steps_f = float_of_int wall_steps in
  let run_ser_check () =
    pe_ser.Kernels.Kernel.par_run ~batch:1 ~tier:Rtrt_par.Exec.Serial
      ~profile:false ~steps:wall_steps ()
  in
  let (), ser_warm = time run_ser_check in
  (* Auto-fallback tier: feed the measured serial step time into the
     engine's model (triggers the pool's one-shot barrier/dispatch
     calibration). The decision is REPORTED (and audited against the
     measured ratio); the timed windows below always run the parallel
     tier. *)
  let batch = max 1 (min wall_steps 8) in
  let serial_ns_per_step = ser_warm *. 1e9 /. steps_f in
  let decision = pe.Kernels.Kernel.par_decide ~serial_ns_per_step ~batch in
  let tier = decision.Rtrt_par.Exec.d_tier in
  let run_par ~profile () =
    pe.Kernels.Kernel.par_run ~batch ~tier:Rtrt_par.Exec.Parallel ~profile
      ~steps:wall_steps ()
  in
  run_par ~profile:false ();
  let bitwise_equal =
    Kernels.Kernel.snapshots_equal_bits
      (k_ser.Kernels.Kernel.snapshot ())
      (k_par.Kernels.Kernel.snapshot ())
  in
  (* Timed windows all advance [k_par]; the serial side reuses the
     same plan at the [Serial] tier. *)
  let run_ser () =
    pe.Kernels.Kernel.par_run ~batch:1 ~tier:Rtrt_par.Exec.Serial
      ~profile:false ~steps:wall_steps ()
  in
  (* Pool accounting deltas around the (force-profiled) runs isolate
     this measurement's dispatch/barrier waits. *)
  let barrier_total stats =
    Array.fold_left
      (fun acc (s : Rtrt_par.Pool.lane_stats) ->
        acc + s.Rtrt_par.Pool.barrier_ns)
      0 stats
  in
  let dw0 = Rtrt_par.Pool.dispatch_wait_ns pool in
  let bw0 = barrier_total (Rtrt_par.Pool.lane_stats pool) in
  let ser_times = Array.make reps 0.0 and par_times = Array.make reps 0.0 in
  for i = 0 to reps - 1 do
    if i land 1 = 0 then begin
      let (), s = time run_ser in
      ser_times.(i) <- s;
      let (), p = time (run_par ~profile:true) in
      par_times.(i) <- p
    end
    else begin
      let (), p = time (run_par ~profile:true) in
      par_times.(i) <- p;
      let (), s = time run_ser in
      ser_times.(i) <- s
    end
  done;
  let ser_seconds = Array.fold_left Float.min infinity ser_times in
  let par_seconds = Array.fold_left Float.min infinity par_times in
  let ratios =
    Array.init reps (fun i ->
        if par_times.(i) > 0.0 then ser_times.(i) /. par_times.(i) else 1.0)
  in
  Array.sort compare ratios;
  let median_speedup = ratios.(reps / 2) in
  let dw1 = Rtrt_par.Pool.dispatch_wait_ns pool in
  let bw1 = barrier_total (Rtrt_par.Pool.lane_stats pool) in
  (* The accounting deltas cover all timed reps, not just the best. *)
  let timed_steps_f = steps_f *. float_of_int reps in
  {
    domains;
    serial_seconds_per_step = ser_seconds /. steps_f;
    par_seconds_per_step = par_seconds /. steps_f;
    measured_speedup = median_speedup;
    modeled_speedup = Reorder.Tile_par.speedup par ~processors:domains;
    modeled_makespan = Reorder.Tile_par.makespan par ~processors:domains;
    bitwise_equal;
    par_tier = Rtrt_par.Exec.tier_name tier;
    par_batch = batch;
    modeled_par_seconds_per_step =
      decision.Rtrt_par.Exec.d_modeled_par_ns_per_step *. 1e-9;
    barrier_cost_ns = decision.Rtrt_par.Exec.d_barrier_cost_ns;
    dispatch_wait_ns_per_step = float_of_int (dw1 - dw0) /. timed_steps_f;
    barrier_wait_ns_per_step =
      float_of_int (bw1 - bw0) /. float_of_int domains /. timed_steps_f;
  }

let measure ?cache ?pool ?layout_of ?(trace_steps_n = 2) ?(wall_steps = 5)
    ~machine ~plan kernel =
  Rtrt_obs.Span.with_ ~name:"experiment.measure"
    ~attrs:
      [
        ("plan", Rtrt_obs.Json.String (Compose.Plan.name plan));
        ("machine", Rtrt_obs.Json.String machine.Cachesim.Machine.name);
      ]
  @@ fun () ->
  let pc_before = Option.map Rtrt_plancache.Cache.stats cache in
  let result, ph_inspect =
    Rtrt_obs.Profile.record ~name:"inspect" (fun () ->
        inspect ?cache plan (kernel : Kernels.Kernel.t))
  in
  let plancache =
    match (cache, pc_before) with
    | Some cache, Some before ->
      let after = Rtrt_plancache.Cache.stats cache in
      (* A replay reports its own (tiny) wall time; the stored entry
         remembers what the cold inspection cost. *)
      let key = Compose.Inspector.fingerprint plan kernel in
      let cold =
        match Rtrt_plancache.Cache.peek cache ~key with
        | Some e -> e.Rtrt_plancache.Cache.cold_inspector_seconds
        | None -> result.Compose.Inspector.inspector_seconds
      in
      Some
        {
          pc_hit = after.Rtrt_plancache.Cache.hits > before.Rtrt_plancache.Cache.hits;
          pc_cold_inspector_seconds = cold;
          pc_hits = after.Rtrt_plancache.Cache.hits;
          pc_misses = after.Rtrt_plancache.Cache.misses;
        }
    | _ -> None
  in
  let (cycles, misses, accesses, ratio), ph_model =
    Rtrt_obs.Profile.record ~name:"cache_model" (fun () ->
        trace_steps ?layout_of result ~machine ~warmup:1 ~steps:trace_steps_n)
  in
  let exec_seconds, ph_wall =
    Rtrt_obs.Profile.record ~name:"wall_clock" (fun () ->
        wall_clock_steps result ~steps:wall_steps)
  in
  let par, ph_par =
    match (pool, result.Compose.Inspector.schedule) with
    | Some pool, Some sched
      when Rtrt_par.Pool.size pool > 1 && plan_full_growth plan ->
      let p, ph =
        Rtrt_obs.Profile.record ~name:"par" (fun () ->
            measure_par ~pool result sched ~wall_steps)
      in
      (Some p, [ ph ])
    | _ -> (None, [])
  in
  (* Shed the scratch pool this measurement grew (the inspector's
     composition accumulators and workspaces would otherwise stay
     pinned at the largest inspection's size for the rest of the
     process), keeping a 1 MiB warm set. The high-water mark survives
     in the [scratch.peak_bytes] gauge. *)
  Irgraph.Scratch.trim ~max_bytes:(1 lsl 20) ();
  {
    plan_name = Compose.Plan.name plan;
    inspector_seconds = result.Compose.Inspector.inspector_seconds;
    executor_seconds_per_step = exec_seconds;
    modeled_cycles_per_step = cycles;
    misses_per_step = misses;
    accesses_per_step = accesses;
    miss_ratio = ratio;
    n_data_remaps = result.Compose.Inspector.n_data_remaps;
    n_tiles =
      (match result.Compose.Inspector.schedule with
      | None -> 1
      | Some s -> Reorder.Schedule.n_tiles s);
    par;
    plancache;
    profile = [ ph_inspect; ph_model; ph_wall ] @ ph_par;
  }

(* Normalized against the first (base) measurement, as Figures 6-7. *)
let normalize measurements =
  match measurements with
  | [] -> []
  | base :: _ ->
    List.map
      (fun m ->
        ( m,
          m.modeled_cycles_per_step /. base.modeled_cycles_per_step,
          m.executor_seconds_per_step /. base.executor_seconds_per_step ))
      measurements

(* Outer-loop iterations needed to amortize the inspector (Figures
   8-9): inspector time divided by per-step executor savings. [None]
   when the transformation does not save time. *)
let amortization ~base m =
  let savings = base.executor_seconds_per_step -. m.executor_seconds_per_step in
  if savings <= 0.0 then None
  else Some (m.inspector_seconds /. savings)

(* Modeled-cycle variant of amortization: inspector cost is converted
   to cycles at the measured executor cycles-per-second rate, so both
   quantities live on the machine model's clock. *)
let amortization_modeled ~base m =
  let savings = base.modeled_cycles_per_step -. m.modeled_cycles_per_step in
  if savings <= 0.0 then None
  else begin
    let cycles_per_second =
      if m.executor_seconds_per_step > 0.0 then
        m.modeled_cycles_per_step /. m.executor_seconds_per_step
      else 0.0
    in
    Some (m.inspector_seconds *. cycles_per_second /. savings)
  end

(* Hit/miss-aware amortization (the plan-cache variant of Figures
   8/9): executor steps to pay off a full (uncached) inspection next
   to the steps to pay off what this run actually spent (a replay on a
   hit). [None] without a cache or when the plan does not save time. *)
let amortization_cached ~base m =
  match m.plancache with
  | None -> None
  | Some pc ->
    let savings =
      base.executor_seconds_per_step -. m.executor_seconds_per_step
    in
    if savings <= 0.0 then None
    else
      Some
        ( pc.pc_cold_inspector_seconds /. savings,
          m.inspector_seconds /. savings )

(* ------------------------------------------------------------------ *)
(* Table cells                                                         *)

module T = Table

(* The parallel run as table cells, declared once for the Figures 6/7
   rows, BENCH_PAR and [rtrt raw]: the tier the auto-fallback chose is
   a note, the rest are metrics. *)
let par_cells p =
  ( [ ("tier", p.par_tier) ],
    [
      T.info "domains" "domains" (float_of_int p.domains);
      T.lower "serial_seconds_per_step" "s" p.serial_seconds_per_step;
      T.lower "par_seconds_per_step" "s" p.par_seconds_per_step;
      T.higher "measured_speedup" "ratio" p.measured_speedup;
      T.higher "modeled_speedup" "ratio" p.modeled_speedup;
      T.info "modeled_makespan" "tiles" (float_of_int p.modeled_makespan);
      T.flag T.Higher "bitwise_equal" p.bitwise_equal;
      T.count "batch" p.par_batch;
      T.lower "modeled_par_seconds_per_step" "s" p.modeled_par_seconds_per_step;
      T.lower "barrier_cost_ns" "ns" p.barrier_cost_ns;
      T.lower "dispatch_wait_ns_per_step" "ns" p.dispatch_wait_ns_per_step;
      T.lower "barrier_wait_ns_per_step" "ns" p.barrier_wait_ns_per_step;
    ] )

let row m =
  let cache_notes, cache_metrics =
    match m.plancache with
    | None -> ([], [])
    | Some pc ->
      ( [ ("plan_cache", if pc.pc_hit then "hit" else "miss") ],
        [
          T.lower "cold_inspector_seconds" "s" pc.pc_cold_inspector_seconds;
          T.count "cache_hits" pc.pc_hits;
          T.count "cache_misses" pc.pc_misses;
        ] )
  in
  let par_notes, par_metrics =
    match m.par with None -> ([], []) | Some p -> par_cells p
  in
  T.row
    ~notes:(cache_notes @ par_notes)
    [ ("plan", m.plan_name) ]
    ([
       T.lower "modeled_cycles_per_step" "cycles" m.modeled_cycles_per_step;
       T.lower "misses_per_step" "misses" m.misses_per_step;
       T.lower "miss_ratio" "ratio" m.miss_ratio;
       T.lower "inspector_seconds" "s" m.inspector_seconds;
       T.lower "executor_seconds_per_step" "s" m.executor_seconds_per_step;
       T.count "n_tiles" m.n_tiles;
     ]
    @ cache_metrics @ par_metrics)
