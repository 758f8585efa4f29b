(* One seeded end-to-end benchmark over the reordering user's path:
   generate and scramble a dataset, build a kernel, then fingerprint /
   plan-cache lookup, inspection, legality, specialization, executor
   steps and churn repair. Every workload is a closed-loop batch job
   run from one process: a job finishes before the next starts.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]
              [--trace-file PATH]

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 it carries the per-layer metrics, computed from spans
   recorded around each layer call (Trace). Run it through run.py,
   which builds it and gives every run a fresh plan-cache directory. *)

module Clock = Rtrt_obs.Clock
module J = Rtrt_obs.Json
module K = Kernels.Kernel
module I = Compose.Inspector
module Sp = Compose.Specialize
module R = Compose.Repair
module Cache = Rtrt_plancache.Cache
module Exec = Rtrt_par.Exec
module Pool = Rtrt_par.Pool

let now = Clock.now_s

(* ------------------------------------------------------------------ *)
(* Measurement state                                                   *)

(* Operations attempted (layer calls and checks) and checks failed plus
   exceptions: [failed / attempted] is the run's error rate. *)
let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* Per-job sums, one table per timed job; the current job's table. *)
let job_sums : (string, float) Hashtbl.t list ref = ref []
let cur_sums : (string, float) Hashtbl.t ref = ref (Hashtbl.create 1)

(* Pooled samples. [job_sample] keeps only samples from timed jobs;
   [sample] keeps everything (set-up, checks, probes). *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 32
let timed = ref false

let add k v =
  Hashtbl.replace !cur_sums k
    (v +. Option.value (Hashtbl.find_opt !cur_sums k) ~default:0.)

let sample k v =
  Hashtbl.replace samples k
    (v :: Option.value (Hashtbl.find_opt samples k) ~default:[])

let job_sample k v = if !timed then sample k v

(* The current job's executor step times, ms. *)
let job_steps = ref []

(* Seconds of the current job that end-to-end metrics exclude: the
   generator's rewiring, per-job inputs, and correctness checks. *)
let excluded = ref 0.0
let job_start = ref 0.0
let job_elapsed () = now () -. !job_start -. !excluded

(* A call into a layer: one attempted operation, one span, and its
   duration summed per job under the span's name. [op_as] lets the
   name depend on the outcome. *)
let op_as f =
  incr attempted;
  let t0 = now () in
  let r, name = Trace.record (fun () -> let r, name = f () in ((r, name), name)) in
  add name (now () -. t0);
  r

let op name f = op_as (fun () -> (f (), name))

let excluded_span name f =
  let t0 = now () in
  Fun.protect
    ~finally:(fun () -> excluded := !excluded +. (now () -. t0))
    (fun () -> Trace.span name f)

(* The CPUs this run may use. Jobs and set-ups take turns on them, one
   CPU at a time: on the reference host each vCPU shares its core with
   other tenants, whose load slows memory-bound code on that CPU alone
   for stretches of seconds, and a process left unpinned stays on the
   CPU it started on, so its run measured that CPU's neighbours. *)
external affinity : unit -> int = "perfbench_affinity"
external set_affinity : int -> bool = "perfbench_set_affinity"

let all_cpus = affinity ()

let cpus =
  Array.of_list (List.filter (fun c -> all_cpus land (1 lsl c) <> 0) (List.init 62 Fun.id))

let pin i =
  if Array.length cpus > 1 then
    ignore (set_affinity (1 lsl cpus.(i mod Array.length cpus)))

let unpin () = if Array.length cpus > 1 then ignore (set_affinity all_cpus)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let quantile q = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let samples_of k = Option.value (Hashtbl.find_opt samples k) ~default:[]

(* The per-job sums of [k] over the timed jobs (0 where a job had none). *)
let per_job k =
  List.map
    (fun t -> Option.value (Hashtbl.find_opt t k) ~default:0.)
    !job_sums

let job_median k = median (per_job k)
let sum = List.fold_left ( +. ) 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ------------------------------------------------------------------ *)
(* Layer calls shared by the workloads                                 *)

let check_steps = 2

let schedule_of (r : I.result) =
  match r.I.schedule with
  | Some s -> s
  | None -> failwith "plan produced no schedule"

(* Inspection; with a cache, a hit is attributed to the plan cache (a
   replay) and a miss to the inspector (its lookup and store ride
   along). *)
let inspect ?cache ?pool plan k =
  let r =
    match cache with
    | None -> op "inspector.run" (fun () -> I.run ?pool plan k)
    | Some c ->
      op_as (fun () ->
          let h0 = (Cache.stats c).Cache.hits in
          let r = I.run ~cache:c ?pool plan k in
          ( r,
            if (Cache.stats c).Cache.hits > h0 then "plancache.replay"
            else "inspector.run" ))
  in
  sample "inspector.n_data_remaps" (float_of_int r.I.n_data_remaps);
  Option.iter
    (fun s -> sample "inspector.n_tiles" (float_of_int (Reorder.Schedule.n_tiles s)))
    r.I.schedule;
  r

let legality r =
  check "legality"
    (op "legality.check" (fun () -> Compose.Legality.check r) = Ok ())

let tier_level = function Sp.Interp -> 0. | Sp.Shaped -> 1. | Sp.Codegen -> 2.

let specialize ~tier_b (r : I.result) =
  let sp =
    op "specialize.make" (fun () ->
        Sp.make ~tier_b ~verify:false r.I.kernel (schedule_of r))
  in
  (* The highest tier reached in the job. *)
  let prev = Option.value (Hashtbl.find_opt !cur_sums "specialize.tier") ~default:0. in
  Hashtbl.replace !cur_sums "specialize.tier" (Float.max prev (tier_level sp.Sp.tier));
  sp

(* Bytes one step computes with: the schedule's index stream, both
   endpoints' node data per interaction, and one pass over the nodes.
   Computed, not measured: no workload reaches 4x the shared L3. *)
let computed_bytes (k : K.t) sched =
  float_of_int
    ((8 * Reorder.Schedule.total_iterations sched)
    + ((2 * k.K.n_inter) + k.K.n_nodes) * K.bytes_per_node k)

(* One timed executor step after the first. *)
let step ?(name = "kernels.step") ~bytes run =
  let t0 = now () in
  op name run;
  let dt = now () -. t0 in
  job_steps := (dt *. 1e3) :: !job_steps;
  add "kernels.bytes" bytes;
  add "kernels.step_s" dt

(* ------------------------------------------------------------------ *)
(* Correctness gate (excluded from every end-to-end metric)            *)

(* The independent reference: the untransformed executor on a copy of
   the original kernel, compared in original numbering. *)
let check_reference ~what ~(k0 : K.t) (r : I.result) transformed_snapshot =
  excluded_span "check.reference" (fun () ->
      let reference = k0.K.copy () in
      for _ = 1 to check_steps do
        let t0 = now () in
        reference.K.run ~steps:1;
        sample "check.plain_ms" ((now () -. t0) *. 1e3)
      done;
      check
        (what ^ ": transformed executor vs untransformed reference")
        (K.snapshots_close
           (K.unpermute_snapshot r.I.sigma_total (transformed_snapshot ()))
           (reference.K.snapshot ())))

(* The transformed kernel after [check_steps] interpreted steps, on a
   copy. *)
let tiled_snapshot (r : I.result) () =
  let t = r.I.kernel.K.copy () in
  t.K.run_tiled (schedule_of r) ~steps:check_steps;
  t.K.snapshot ()

(* The chosen tier against the interpreted walk, bit for bit. *)
let check_specialize ~what ~tier_b (r : I.result) =
  excluded_span "check.specialize" (fun () ->
      check
        (what ^ ": specialized tier vs interpreted walk")
        (match Sp.make ~tier_b ~verify:true r.I.kernel (schedule_of r) with
        | _ -> true
        | exception Failure _ -> false))

let schedules_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Reorder.Schedule.equal a b
  | _ -> false

let plans_equal (a : I.result) (b : I.result) =
  Reorder.Perm.equal a.I.sigma_total b.I.sigma_total
  && Reorder.Perm.equal a.I.delta_total b.I.delta_total
  && schedules_equal a.I.schedule b.I.schedule

(* Both kernels must still be in their inspected (unstepped) state. *)
let results_equal a b =
  plans_equal a b && K.snapshots_equal_bits (tiled_snapshot a ()) (tiled_snapshot b ())

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type scales = {
  md : int;
  mesh : int;
  reuse : int;
  steps : int;
  reuse_steps : int;
  burst : int;
}

let full = { md = 8; mesh = 8; reuse = 32; steps = 100; reuse_steps = 1000; burst = 34 }
let smoke = { md = 256; mesh = 256; reuse = 128; steps = 20; reuse_steps = 20; burst = 7 }

(* What the layer probes and the workload record look at after the
   jobs: each kernel's plan, original kernel and last inspection. *)
type subject = {
  plan : Compose.Plan.t;
  dataset : string;
  k0 : K.t;
  mutable result : I.result option;
}

type instance = {
  job : index:int -> gated:bool -> unit;
      (** [gated]: run the correctness gate in this job *)
  subjects : subject list;
  probes : unit -> unit;  (** workload-specific layer probes *)
  record : (string * J.t) list;  (** workload description *)
}

let md_plan =
  Compose.Plan.with_fst ~seed_part_size:64 Compose.Plan.cpack_lexgroup_twice

let cl_fst = Compose.Plan.with_fst ~seed_part_size:64 Compose.Plan.cpack_lexgroup

(* Set-up, timed as setup_s: generate, scramble with the run's seed,
   build the kernel. *)
let generate ~scale dataset =
  let t0 = now () in
  let d =
    Trace.span "datagen.generate" (fun () ->
        Option.get (Datagen.Generators.by_name ~scale dataset))
  in
  sample "datagen.generate_s" (now () -. t0);
  d

let build ~seed d make =
  let d = Trace.span "datagen.scramble" (fun () -> Datagen.Dataset.scramble ~seed d) in
  (d, Trace.span "kernels.build" (fun () -> make d))

let prepare ~seed ~scale ~dataset make = build ~seed (generate ~scale dataset) make

let pool_domains = 2

(* md-steady: moldyn on mol1, CLCL+FST, serial. The traced run's probes
   then inspect once more on a 2-domain pool and measure the par layer
   on that plan. *)
let md ~seed sc =
  let _, k0 = prepare ~seed ~scale:sc.md ~dataset:"mol1" Kernels.Moldyn.of_dataset in
  fun () ->
    let subject = { plan = md_plan; dataset = "mol1"; k0; result = None } in
    let level_of (k : K.t) sched =
      let tiles =
        Compose.Legality.tile_fns_of_schedule sched ~loop_sizes:k.K.loop_sizes
      in
      let chain = k.K.chain_of_access k.K.access in
      (Reorder.Tile_par.analyze ~chain ~tiles).Reorder.Tile_par.level_of
    in
    let job ~index:_ ~gated =
      let r = inspect md_plan k0 in
      legality r;
      let sched = schedule_of r in
      if gated then begin
        check_reference ~what:"md" ~k0 r (tiled_snapshot r);
        check_specialize ~what:"md" ~tier_b:false r
      end;
      let sp = specialize ~tier_b:false r in
      op "kernels.step" (fun () -> sp.Sp.run ~steps:1);
      add "first_step_s" (job_elapsed ());
      let bytes = computed_bytes r.I.kernel sched in
      for _ = 1 to sc.steps do
        step ~bytes (fun () -> sp.Sp.run ~steps:1)
      done;
      subject.result <- Some r
    in
    (* A pooled inspection; the parallel tier against the serial tier,
       bit for bit; the engine's tier decision from one serial step; then
       both tiers alternating, and the tier model's residual: measured
       parallel step over the modeled one. *)
    let par_probe pool =
      let t0 = now () in
      let r = I.run ~pool md_plan k0 in
      sample "probe.pooled_inspect_s" (now () -. t0);
      check "legality (pooled)" (Compose.Legality.check r = Ok ());
      let sched = schedule_of r in
      let level_of = level_of r.I.kernel sched in
      let ks = r.I.kernel.K.copy () and kp = r.I.kernel.K.copy () in
      (ks.K.plan_par ~pool sched ~level_of).K.par_run ~tier:Exec.Serial ~steps:check_steps ();
      (kp.K.plan_par ~pool sched ~level_of).K.par_run ~tier:Exec.Parallel ~steps:check_steps ();
      check "parallel tier vs serial tier"
        (K.snapshots_equal_bits (ks.K.snapshot ()) (kp.K.snapshot ()));
      check_reference ~what:"md pooled" ~k0 r kp.K.snapshot;
      let pe = r.I.kernel.K.plan_par ~pool sched ~level_of in
      let t0 = now () in
      pe.K.par_run ~tier:Exec.Serial ~steps:1 ();
      let d = pe.K.par_decide ~serial_ns_per_step:((now () -. t0) *. 1e9) ~batch:1 in
      sample "par.chosen_tier" (if d.Exec.d_tier = Exec.Parallel then 1. else 0.);
      sample "par.barrier_cost_ns" d.Exec.d_barrier_cost_ns;
      let lanes () =
        Array.fold_left
          (fun (b, a) (s : Pool.lane_stats) ->
            ( b + s.Pool.barrier_ns,
              a + s.Pool.work_ns + s.Pool.barrier_ns + s.Pool.idle_ns ))
          (0, 0) (Pool.lane_stats pool)
      in
      let b0, a0 = lanes () in
      for _ = 1 to 10 do
        List.iter
          (fun (tier, key) ->
            let t0 = now () in
            pe.K.par_run ~tier ~profile:true ~steps:1 ();
            sample key ((now () -. t0) *. 1e9))
          [ (Exec.Serial, "probe.serial_ns"); (Exec.Parallel, "probe.parallel_ns") ]
      done;
      let b1, a1 = lanes () in
      sample "par.barrier_share" (ratio (float_of_int (b1 - b0)) (float_of_int (a1 - a0)));
      let par_ns = median (samples_of "probe.parallel_ns") in
      sample "par.parallel_over_serial"
        (ratio par_ns (median (samples_of "probe.serial_ns")));
      sample "par.model_residual" (ratio par_ns d.Exec.d_modeled_par_ns_per_step);
      sample "par.modeled_barrier_share"
        (ratio
           (float_of_int d.Exec.d_barriers_per_step *. d.Exec.d_barrier_cost_ns)
           d.Exec.d_modeled_par_ns_per_step)
    in
    let probes () =
      let pool = Pool.create ~domains:pool_domains in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> par_probe pool)
    in
    {
      job;
      subjects = [ subject ];
      probes;
      record =
        [
          ("domains", J.Int 1);
          ("probe_pool_domains", J.Int pool_domains);
          ("scale", J.Int sc.md);
          ("steps_per_job", J.Int sc.steps);
          ("tier_b", J.Bool false);
          ("plan_cache", J.Bool false);
        ];
    }

let cache_dir () =
  match Cache.dir_from_env () with
  | Some d -> d
  | None -> failwith "RTRT_PLAN_CACHE_DIR must name a fresh directory (run.py sets it)"

let note_cache c =
  let s = Cache.stats c in
  add "plancache.hits" (float_of_int s.Cache.hits);
  add "plancache.misses" (float_of_int s.Cache.misses);
  add "plancache.disk_hits" (float_of_int s.Cache.disk_hits);
  add "plancache.disk_errors" (float_of_int s.Cache.disk_errors);
  add "plancache.bytes" (float_of_int s.Cache.bytes)

let job_cache index =
  op "plancache.create" (fun () ->
      Cache.create ~dir:(Filename.concat (cache_dir ()) (Printf.sprintf "plans-%d" index)) ())

(* mesh-churn: irreg on foil, CL+FST, plan cache on. One cold
   inspection, then chained 2% degree-preserving rewiring rounds, each
   repaired (policy `Auto) and followed by a short burst of steps. *)
let churn_rounds = 3
let churn_fraction = 0.02

let mesh ~seed sc =
  let d0, k0 = prepare ~seed ~scale:sc.mesh ~dataset:"foil" Kernels.Irreg.of_dataset in
  fun () ->
    let subject = { plan = cl_fst; dataset = "foil"; k0; result = None } in
    let job ~index:_ ~gated =
      let cache = op "plancache.create" (fun () -> Cache.create ()) in
      let r = inspect ~cache cl_fst k0 in
      legality r;
      if gated then begin
        check_reference ~what:"mesh-churn" ~k0 r (tiled_snapshot r);
        check_specialize ~what:"mesh-churn" ~tier_b:false r
      end;
      let sp = specialize ~tier_b:false r in
      op "kernels.step" (fun () -> sp.Sp.run ~steps:1);
      add "first_step_s" (job_elapsed ());
      subject.result <- Some r;
      let cold_s = Option.value (Hashtbl.find_opt !cur_sums "inspector.run") ~default:0. in
      let state = op "repair.prepare" (fun () -> R.prepare cl_fst r) in
      (* Every job replays the same churn trajectory from the pristine
         dataset, so jobs are exchangeable samples. *)
      let rng = Datagen.Rng.create (seed lxor 0x5EED) in
      let d = ref d0 in
      for _ = 1 to churn_rounds do
        let d', damage =
          excluded_span "datagen.rewire" (fun () ->
              Datagen.Churn.rewire ~rng ~fraction:churn_fraction !d)
        in
        d := d';
        job_sample "datagen.damaged_edges"
          (float_of_int (Datagen.Churn.damaged_edges damage));
        let k' = op "kernels.build" (fun () -> Kernels.Irreg.of_dataset d') in
        let t0 = now () -. !excluded in
        let r', info = op "repair.repair" (fun () -> R.repair ~cache state k' ~damage) in
        legality r';
        if gated then begin
          if not info.R.fell_back then
            excluded_span "check.regrow" (fun () ->
                check "repair vs frozen regrowth"
                  (results_equal r' (R.regrow state k')));
          check_reference ~what:"mesh-churn repaired" ~k0:k' r' (tiled_snapshot r');
          check_specialize ~what:"mesh-churn repaired" ~tier_b:false r'
        end;
        let sp' = specialize ~tier_b:false r' in
        let repair_ms = (now () -. !excluded -. t0) *. 1e3 in
        job_sample "repair_ms" repair_ms;
        job_sample "repair.over_cold" (ratio (repair_ms /. 1e3) cold_s);
        job_sample "repair.nodes_recomputed" (float_of_int info.R.nodes_recomputed);
        job_sample "repair.tiles_moved" (float_of_int info.R.tiles_moved);
        add "repair.rounds" 1.;
        if info.R.fell_back then add "repair.fallbacks" 1.
        else
          job_sample "repair.model_residual"
            (ratio info.R.seconds info.R.modeled_repair_seconds);
        let bytes = computed_bytes r'.I.kernel (schedule_of r') in
        for _ = 1 to sc.burst do
          step ~bytes (fun () -> sp'.Sp.run ~steps:1)
        done
      done;
      note_cache cache
    in
    {
      job;
      subjects = [ subject ];
      probes = (fun () -> ());
      record =
        [
          ("domains", J.Int 1);
          ("scale", J.Int sc.mesh);
          ("churn_rounds", J.Int churn_rounds);
          ("churn_fraction", J.Float churn_fraction);
          ("burst_steps", J.Int sc.burst);
          ("tier_b", J.Bool false);
          ("plan_cache", J.Bool true);
        ];
    }

(* plan-reuse: four kernels near L2, FST plans, Tier B on. A cold pass
   into an empty disk cache (misses, stores, cold ocamlopt compiles),
   then a warm pass through a fresh Cache over the same directory (disk
   hits, Tier B memo hits), then steps. Each job rescrambles its inputs
   so its schedules, and hence its compiles, are new. *)
let reuse_kernels =
  [
    ("moldyn", "mol1", Kernels.Moldyn.of_dataset);
    ("nbf", "foil", Kernels.Nbf.of_dataset);
    ("irreg", "foil", Kernels.Irreg.of_dataset);
    ("cg", "auto", Kernels.Cg.of_dataset);
  ]

let reuse ~seed sc =
  let generated = Hashtbl.create 3 in
  let inputs seed =
    List.map
      (fun (_, dataset, make) ->
        let d =
          match Hashtbl.find_opt generated dataset with
          | Some d -> d
          | None ->
            let d = generate ~scale:sc.reuse dataset in
            Hashtbl.replace generated dataset d;
            d
        in
        (dataset, snd (build ~seed d make)))
      reuse_kernels
  in
  let kernels = inputs seed in
  fun () ->
    let subjects =
      List.map (fun (dataset, k0) -> { plan = cl_fst; dataset; k0; result = None }) kernels
    in
    let compile_s = ref 0.0 in
    let last_warm = ref [] in
    let job_inputs index =
      if index = 0 then List.map snd kernels
      else
        excluded_span "datagen.prepare" (fun () ->
            List.map snd (inputs ((seed * 1009) + index)))
    in
    let job ~index ~gated =
      let ks = job_inputs index in
      let cold_cache = job_cache index in
      let cold =
        List.map
          (fun k ->
            let r = inspect ~cache:cold_cache cl_fst k in
            legality r;
            let sp = specialize ~tier_b:true r in
            (match sp.Sp.tier with
            | Sp.Codegen ->
              check "cold pass compiled its Tier B executor"
                (sp.Sp.compile_seconds > 0. && not sp.Sp.cmxs_cache_hit);
              add "specialize.tier_b_compile_s" sp.Sp.compile_seconds;
              add "specialize.tier_b_compiles" 1.
            | Sp.Interp | Sp.Shaped -> add "specialize.fallbacks" 1.);
            op "kernels.step" (fun () -> sp.Sp.run ~steps:1);
            (k, r))
          ks
      in
      let first = job_elapsed () in
      add "first_step_s" first;
      note_cache cold_cache;
      let warm_cache = job_cache index in
      let warm =
        List.map
          (fun (k, cold_r) ->
            let r = inspect ~cache:warm_cache cl_fst k in
            legality r;
            if gated then begin
              excluded_span "check.replay" (fun () ->
                  check "cache replay vs cold inspection" (plans_equal r cold_r));
              check_reference ~what:"plan-reuse" ~k0:k r (tiled_snapshot r);
              check_specialize ~what:"plan-reuse" ~tier_b:true r
            end;
            let t0 = now () in
            let sp = specialize ~tier_b:true r in
            if sp.Sp.tier = Sp.Codegen then sample "specialize.tier_b_hit_s" (now () -. t0);
            op "kernels.step" (fun () -> sp.Sp.run ~steps:1);
            (r, sp))
          cold
      in
      add "warm_first_step_s" (job_elapsed () -. first);
      note_cache warm_cache;
      (* A step of this batch job is one step of each of the four
         kernels, so the step samples stay unimodal. *)
      let bytes =
        sum (List.map (fun (r, _) -> computed_bytes r.I.kernel (schedule_of r)) warm)
      in
      for _ = 1 to sc.reuse_steps do
        step ~bytes (fun () -> List.iter (fun (_, sp) -> sp.Sp.run ~steps:1) warm)
      done;
      List.iter2 (fun s (r, _) -> s.result <- Some r) subjects warm;
      compile_s := Option.value (Hashtbl.find_opt !cur_sums "specialize.tier_b_compile_s") ~default:0.;
      last_warm := warm
    in
    (* Tier B against the interpreted walk on the same warm plan,
       alternating. Break-even = compile seconds over the per-step
       saving, reported only where the step-time quartiles separate
       (0 = no measurable difference). *)
    let probes () =
      let saving = ref 0.0 and ratios = ref [] in
      List.iter
        (fun ((r : I.result), (sp : Sp.t)) ->
          if sp.Sp.tier = Sp.Codegen then begin
            let sched = schedule_of r in
            let t = r.I.kernel.K.copy () in
            let interp = ref [] and cg = ref [] in
            for _ = 1 to 30 do
              let t0 = now () in
              t.K.run_tiled sched ~steps:1;
              let t1 = now () in
              sp.Sp.run ~steps:1;
              interp := (t1 -. t0) :: !interp;
              cg := (now () -. t1) :: !cg
            done;
            ratios := ratio (median !cg) (median !interp) :: !ratios;
            if quantile 0.75 !cg < quantile 0.25 !interp then
              saving := !saving +. (median !interp -. median !cg)
          end)
        !last_warm;
      sample "specialize.codegen_over_interp" (median !ratios);
      sample "specialize.tier_b_breakeven_steps"
        (if !saving > 0.0 then Float.ceil (!compile_s /. !saving) else 0.0)
    in
    {
      job;
      subjects;
      probes;
      record =
        [
          ("domains", J.Int 1);
          ("scale", J.Int sc.reuse);
          ("steps_per_job", J.Int sc.reuse_steps);
          ("tier_b", J.Bool true);
          ("plan_cache", J.Bool true);
        ];
    }

let workloads =
  [
    ("md-steady", md);
    ("mesh-churn", mesh);
    ("plan-reuse", reuse);
  ]

(* ------------------------------------------------------------------ *)
(* Driving a run                                                       *)

let min_jobs = 3

(* Set-up times in order; the k-th set-up runs on the k-th CPU in turn. *)
let setup_times = ref []

let setup make =
  pin (List.length !setup_times);
  Gc.compact ();
  let r, t = Clock.time make in
  setup_times := t :: !setup_times;
  r

(* setup_s: the median over rounds of a round's fastest set-up, a round
   being [setup_round] set-ups in a row. Within one run, on one CPU, a
   set-up took anywhere from 0.06 to 0.2 s. *)
let setup_round = 4

let setup_s () =
  let a = Array.of_list (List.rev !setup_times) in
  let n = min setup_round (Array.length a) in
  median
    (List.init (Array.length a / n) (fun r ->
         Array.fold_left Float.min infinity (Array.sub a (r * n) n)))

(* Every job starts from a compacted heap. Without it, where the
   allocator placed a job's arrays carried over from earlier jobs, and
   mesh-churn's step p50 split into 8-10 ms and 12-13 ms modes from one
   run to the next. *)
let run_job ~index ~gated job =
  pin index;
  Gc.compact ();
  let sums = Hashtbl.create 32 in
  cur_sums := sums;
  timed := not gated;
  excluded := 0.0;
  job_steps := [];
  Trace.current_job := index;
  let t0 = now () in
  job_start := t0;
  let ok =
    match Trace.span "job" (fun () -> job ~index ~gated) with
    | () -> true
    | exception e ->
      incr failed;
      Printf.eprintf "perfbench: job %d raised %s\n%!" index (Printexc.to_string e);
      false
  in
  let wall = now () -. t0 in
  Trace.current_job := -1;
  timed := false;
  if ok && not gated then begin
    Hashtbl.replace sums "job_wall_s" wall;
    Hashtbl.replace sums "total_s" (wall -. !excluded);
    Hashtbl.replace sums "step_ms_p50" (quantile 0.5 !job_steps);
    Hashtbl.replace sums "step_ms_p90" (quantile 0.9 !job_steps);
    Hashtbl.replace sums "step_samples" (float_of_int (List.length !job_steps));
    job_sums := sums :: !job_sums
  end;
  wall

(* Job 0 runs the full correctness gate and warms up (calibration,
   code and heap growth); it is not sampled. Timed jobs then run while
   the next one, with the set-up repeated after it, is expected to
   finish within [seconds]. Repeating the set-up between jobs spreads
   its samples over the whole run. *)
let run_jobs ~seconds ~resetup job =
  ignore (run_job ~index:0 ~gated:true job);
  let t0 = now () in
  let rec loop i last =
    if i <= min_jobs || now () -. t0 +. last <= seconds then begin
      let t = now () in
      ignore (run_job ~index:i ~gated:false job);
      resetup ();
      loop (i + 1) (now () -. t)
    end
  in
  loop 1 0.0;
  unpin ()

(* Layer probes shared by every workload, run after the jobs on the
   traced run only: interpreted vs shaped walk, fingerprint and Tier A
   specialization cost, and whether the Tier B emitter would decline
   the schedule. *)
let common_probes subjects =
  List.iter
    (fun s ->
      match s.result with
      | None -> ()
      | Some r ->
        let sched = schedule_of r in
        let shape = Reorder.Shape.analyze sched in
        let t = r.I.kernel.K.copy () in
        for _ = 1 to 10 do
          let t0 = now () in
          t.K.run_tiled sched ~steps:1;
          let t1 = now () in
          t.K.run_tiled_shaped sched shape ~steps:1;
          sample "probe.interp_ms" ((t1 -. t0) *. 1e3);
          sample "probe.shaped_ms" ((now () -. t1) *. 1e3)
        done;
        for _ = 1 to 3 do
          let t0 = now () in
          ignore (I.fingerprint s.plan s.k0);
          let t1 = now () in
          ignore (Sp.make ~tier_b:false ~verify:false r.I.kernel sched);
          sample "probe.fingerprint_ms" ((t1 -. t0) *. 1e3);
          sample "probe.make_ms" ((now () -. t1) *. 1e3)
        done;
        sample "probe.emitter_declines"
          (if Sp.dump_source r.I.kernel sched = None then 1. else 0.))
    subjects

let layers =
  [ "datagen"; "kernels"; "plancache"; "inspector"; "legality"; "specialize";
    "repair"; "par" ]

(* Self-time shares of the timed jobs, and how far self times plus the
   unattributed share land from the independently measured job wall. *)
let sum_tolerance = 0.01

let shares () =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (sp : Trace.span) ->
      if sp.Trace.name = "job" && sp.Trace.job > 0 then
        Hashtbl.iter
          (fun layer ns ->
            Hashtbl.replace totals layer
              (ns + Option.value (Hashtbl.find_opt totals layer) ~default:0))
          (Trace.self_ns_by_layer ~job:sp.Trace.job))
    !Trace.finished;
  let wall = sum (per_job "job_wall_s") in
  let self_s l = Clock.to_s (Option.value (Hashtbl.find_opt totals l) ~default:0) in
  let covered = Hashtbl.fold (fun _ ns acc -> acc +. Clock.to_s ns) totals 0.0 in
  let err = ratio (Float.abs (covered -. wall)) wall in
  check
    (Printf.sprintf "layer self times sum to wall within %.0f%% (off by %.3f%%)"
       (sum_tolerance *. 100.) (err *. 100.))
    (err <= sum_tolerance);
  (List.map (fun l -> (l ^ ".share", ratio (self_s l) wall, "share")) layers
  @ [ ("unattributed_share", ratio (self_s "unattributed") wall, "share") ],
   err)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Timings are medians over timed jobs of per-job values. The reference
   host's memory system is shared with other tenants: a memory-bound
   step there runs 1.1 ms in some stretches and 1.8 ms in most, flipping
   within seconds, while a register-only loop does not slow at all. Jobs
   run on alternate CPUs and are short where the workload allows (40-75
   per run on md-steady and mesh-churn), so a run's median is taken over
   many such stretches. Each job takes at least 100 step samples, so 10
   or more lie beyond its p90. *)
let e2e_metrics setup_s =
  [
    ("setup_s", setup_s, "s");
    ("first_step_s", job_median "first_step_s", "s");
    ("step_ms_p50", job_median "step_ms_p50", "ms");
    ("step_ms_p90", job_median "step_ms_p90", "ms");
    ("total_s", job_median "total_s", "s");
    ("peak_heap_mb", peak_heap_mb (), "MB");
  ]

let layer_metrics () =
  let shares, sum_err = shares () in
  let smed k = median (samples_of k) in
  let ms k = job_median k *. 1e3 in
  let jobs_ratio a b = ratio (sum (per_job a)) (sum (per_job b)) in
  let per_job_ratio a b =
    median (List.map2 ratio (per_job a) (per_job b))
  in
  [
    ("kernels.interp_step_ms_p50", smed "probe.interp_ms", "ms");
    ("kernels.plain_step_ms_p50", smed "check.plain_ms", "ms");
    ("kernels.computed_gbps", jobs_ratio "kernels.bytes" "kernels.step_s" /. 1e9, "GB/s");
    ("kernels.step_samples", sum (per_job "step_samples"), "count");
    ("specialize.make_ms", smed "probe.make_ms", "ms");
    ("specialize.tier", job_median "specialize.tier", "tier");
    ("specialize.shaped_step_ms_p50", smed "probe.shaped_ms", "ms");
    ("specialize.emitter_declines", sum (samples_of "probe.emitter_declines"), "count");
    ("specialize.fallbacks", job_median "specialize.fallbacks", "count");
    ("specialize.tier_b_compiles", job_median "specialize.tier_b_compiles", "count");
    ("specialize.tier_b_compile_share",
     per_job_ratio "specialize.tier_b_compile_s" "first_step_s", "share");
    ("specialize.codegen_over_interp", smed "specialize.codegen_over_interp", "ratio");
    ("specialize.tier_b_breakeven_steps", smed "specialize.tier_b_breakeven_steps", "steps");
    ("plancache.fingerprint_ms", smed "probe.fingerprint_ms", "ms");
    ("plancache.hit_ratio",
     ratio (sum (per_job "plancache.hits"))
       (sum (per_job "plancache.hits") +. sum (per_job "plancache.misses")), "ratio");
    ("plancache.disk_hits", job_median "plancache.disk_hits", "count");
    ("plancache.disk_errors", sum (per_job "plancache.disk_errors"), "count");
    ("plancache.bytes", job_median "plancache.bytes", "B");
    ("plancache.warm_over_cold", per_job_ratio "warm_first_step_s" "first_step_s", "ratio");
    ("inspector.cold_s_p50", job_median "inspector.run", "s");
    ("inspector.n_data_remaps", smed "inspector.n_data_remaps", "count");
    ("inspector.n_tiles", smed "inspector.n_tiles", "count");
    ("legality.check_ms", ms "legality.check", "ms");
    ("repair.over_cold", smed "repair.over_cold", "ratio");
    ("repair.nodes_recomputed_p50", smed "repair.nodes_recomputed", "count");
    ("repair.tiles_moved_p50", smed "repair.tiles_moved", "count");
    ("repair.fallback_ratio", jobs_ratio "repair.fallbacks" "repair.rounds", "ratio");
    ("repair.model_residual", smed "repair.model_residual", "ratio");
    ("par.chosen_tier", smed "par.chosen_tier", "tier");
    ("par.pooled_inspect_over_serial",
     ratio (smed "probe.pooled_inspect_s") (job_median "inspector.run"), "ratio");
    ("par.parallel_over_serial", smed "par.parallel_over_serial", "ratio");
    ("par.model_residual", smed "par.model_residual", "ratio");
    ("par.barrier_share", smed "par.barrier_share", "share");
    ("par.modeled_barrier_share", smed "par.modeled_barrier_share", "share");
    ("datagen.generate_s", smed "datagen.generate_s", "s");
    ("datagen.damaged_edges_p50", smed "datagen.damaged_edges", "count");
    ("trace.total_s", job_median "total_s", "s");
    ("trace.sum_error", sum_err, "ratio");
  ]
  @ shares

(* The workload record printed with every result: what ran, at what
   size, and its working set against the reference host's 2 MiB L2 and
   300 MiB shared L3. *)
let describe name (inst : instance) =
  let mib = 1048576.0 in
  let kernel s =
    let k = s.k0 in
    let sched_bytes =
      match s.result with
      | Some r -> 8 * (Reorder.Schedule.total_iterations (schedule_of r))
      | None -> 0
    in
    let ws =
      float_of_int ((k.K.n_nodes * K.bytes_per_node k) + (16 * k.K.n_inter) + sched_bytes)
    in
    J.Obj
      [
        ("kernel", J.String k.K.name);
        ("dataset", J.String s.dataset);
        ("plan", J.String (Compose.Plan.name s.plan));
        ("nodes", J.Int k.K.n_nodes);
        ("interactions", J.Int k.K.n_inter);
        ("working_set_mib", J.Float (ws /. mib));
        ("over_l2_2mib", J.Float (ws /. (2.0 *. mib)));
        ("over_l3_300mib", J.Float (ws /. (300.0 *. mib)));
      ]
  in
  let breakeven = median (samples_of "specialize.tier_b_breakeven_steps") in
  J.Obj
    ([ ("workload", J.String name); ("kernels", J.List (List.map kernel inst.subjects)) ]
    @ inst.record
    @ [
        ("timed_jobs", J.Int (List.length !job_sums));
        ( "first_step_s_per_job",
          J.List (List.rev_map (fun v -> J.Float v) (per_job "first_step_s")) );
        ("total_s_per_job", J.List (List.rev_map (fun v -> J.Float v) (per_job "total_s")));
        ("step_samples", J.Float (sum (per_job "step_samples")));
        ("ocaml", J.String Sys.ocaml_version);
        ("par_decisions",
         J.List
           (List.map
              (fun k -> J.List (List.map (fun v -> J.Float v) (samples_of k)))
              [ "par.chosen_tier"; "par.barrier_cost_ns" ]));
        ("tier_b_compile_s_p50", J.Float (job_median "specialize.tier_b_compile_s"));
        ("tier_b_hit_ms_p50", J.Float (median (samples_of "specialize.tier_b_hit_s") *. 1e3));
        ("warm_first_step_s_p50", J.Float (job_median "warm_first_step_s"));
        ("repair_ms_p50", J.Float (median (samples_of "repair_ms")));
        ("repair_ms_p90", J.Float (quantile 0.9 (samples_of "repair_ms")));
        ( "tier_b_breakeven",
          J.String
            (if breakeven > 0.0 then Printf.sprintf "%.0f steps" breakeven
             else "no measurable difference") );
        ("error_rate", J.Float (ratio (float_of_int !failed) (float_of_int (max 1 !attempted))));
      ])

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--trace-file PATH]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) in
  let trace = ref (-1) and smoke_mode = ref false and trace_file = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--trace-file" :: v :: rest -> trace_file := v; parse rest
    | "--smoke" :: rest -> smoke_mode := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let make =
    match List.assoc_opt !workload workloads with Some w -> w | None -> usage ()
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  Trace.enabled := !trace = 1;
  let sc = if !smoke_mode then smoke else full in
  (* Set up once on each CPU from a compacted heap; the last set-up's
     inputs are used, earlier ones are dropped first. A pool made by the
     instance may use every CPU. *)
  let last = ref None in
  Array.iter
    (fun _ ->
      last := None;
      last := Some (setup (fun () -> make ~seed:!seed sc)))
    (if Array.length cpus > 1 then cpus else [| 0 |]);
  unpin ();
  let inst = (Option.get !last) () in
  let resetup () =
    let (_ : unit -> instance) = setup (fun () -> make ~seed:!seed sc) in
    ()
  in
  run_jobs ~seconds:!seconds ~resetup inst.job;
  if !Trace.enabled then begin
    inst.probes ();
    common_probes inst.subjects
  end;
  let metrics = if !Trace.enabled then layer_metrics () else e2e_metrics (setup_s ()) in
  if !trace_file <> "" && !Trace.enabled then
    Trace.write_jsonl ~path:!trace_file
      ~run_id:(Printf.sprintf "%s-seed%d-pid%d" !workload !seed (Unix.getpid ()));
  print_endline ("workload " ^ J.to_string (describe !workload inst));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (!failed = 0));
            ("attempted", J.Int !attempted);
            ("failed", J.Int !failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
                   metrics) );
          ]))
