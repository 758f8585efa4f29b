(* Measuring one (plan, kernel, machine) combination: inspector cost,
   executor wall-clock, and modeled cycles from the cache simulator.

   The cache-model measurement warms the cache for [warmup] time steps,
   then counts over [steps] steps, mirroring the paper's reporting of
   executor time per outer-loop iteration with overhead excluded. *)

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
  plancache : plancache_report option; (* when a cache was given *)
  profile : Rtrt_obs.Profile.phase list;
      (* per-phase GC + monotonic timing deltas *)
}

let time f = Rtrt_obs.Clock.time f

(* Run the inspector and verify the result. The minor heap is emptied
   first, which also runs the major-GC slice it owes, so the inspector
   seconds do not include GC work that earlier allocation (the previous
   measurement's cache model and executor steps) left due. A warm
   replay is a large share of a small inspection's allocation and would
   otherwise often take that slice. *)
let inspect ?cache ?strategy plan kernel =
  Rtrt_obs.Span.with_ ~name:"experiment.inspect"
    ~attrs:[ ("plan", Rtrt_obs.Json.String (Compose.Plan.name plan)) ]
  @@ fun () ->
  Gc.minor ();
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
    (* The run index is built at plan time, outside the timed region;
       construction verifies the generated executor bitwise against the
       interpreted walk on two-step copies, so the timed executor is
       provably the same computation. *)
    let spec = Compose.Specialize.make kernel sched in
    let (), seconds = time (fun () -> spec.Compose.Specialize.run ~steps) in
    seconds /. float_of_int steps

let measure ?cache ?layout_of ?(trace_steps_n = 2) ?(wall_steps = 5)
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
    plancache;
    profile = [ ph_inspect; ph_model; ph_wall ];
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
  T.row ~notes:cache_notes
    [ ("plan", m.plan_name) ]
    ([
       T.lower "modeled_cycles_per_step" "cycles" m.modeled_cycles_per_step;
       T.lower "misses_per_step" "misses" m.misses_per_step;
       T.lower "miss_ratio" "ratio" m.miss_ratio;
       T.lower "inspector_seconds" "s" m.inspector_seconds;
       T.lower "executor_seconds_per_step" "s" m.executor_seconds_per_step;
       T.count "n_tiles" m.n_tiles;
     ]
    @ cache_metrics)
