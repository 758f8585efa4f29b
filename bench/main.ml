(* Benchmark harness: one section per measured table/figure of the
   paper. For each figure the harness prints the same rows/series the
   paper reports (via the Harness.Figures drivers, using the cache
   model), and additionally runs Bechamel wall-clock benchmarks of the
   executors and inspectors, one Test.make per composition.

   Everything runs at a laptop scale by default (RTRT_SCALE env var
   overrides; 1 = the paper's dataset sizes). *)

open Bechamel
open Toolkit

let default_scale = 24

let scale =
  Rtrt_obs.Config.env_int ~min:1 ~name:"RTRT_SCALE" ~default:default_scale ()

let config =
  { Harness.Figures.scale; trace_steps = 2; wall_steps = 3; domains = 1;
    plan_cache = None }

(* Domain count for the parallel-speedup table: RTRT_DOMAINS, but at
   least 2 so the table always measures an actual pool. *)
let par_domains = max 2 (Rtrt_par.Pool.domains_from_env ~default:2 ())

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing                                                   *)

let benchmark_tests tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> est
        | _ -> nan
      in
      (name, ns) :: acc)
    results []
  |> List.sort compare

let print_results header results =
  Fmt.pr "@.== %s (wall clock, Bechamel) ==@." header;
  List.iter (fun (name, ns) -> Fmt.pr "  %-36s %12.0f ns/run@." name ns) results

(* ------------------------------------------------------------------ *)
(* Executor benchmarks: one Test per composition (Figures 6/7 wall
   clock); the modeled-cycle versions of the same figures print below. *)

let executor_tests ~machine (kernel : Kernels.Kernel.t) =
  let plans = Harness.Figures.suite_for ~machine kernel in
  List.map
    (fun plan ->
      let result = Harness.Experiment.inspect plan kernel in
      let k = result.Compose.Inspector.kernel in
      let run () =
        match result.Compose.Inspector.schedule with
        | None -> k.Kernels.Kernel.run ~steps:1
        | Some sched -> k.Kernels.Kernel.run_tiled sched ~steps:1
      in
      Test.make ~name:(Compose.Plan.name plan) (Staged.stage run))
    plans

let bench_executors ~machine ~bench_name ~dataset_name =
  let dataset = Option.get (Datagen.Generators.by_name ~scale dataset_name) in
  let kernel = (Option.get (Kernels.by_name bench_name)) dataset in
  let tests =
    Test.make_grouped ~name:bench_name (executor_tests ~machine kernel)
  in
  let results = benchmark_tests tests in
  print_results
    (Fmt.str "executor %s/%s (one time step)" bench_name dataset_name)
    results

(* Inspector benchmarks: remap-each vs remap-once (Figure 16 wall
   clock). *)
let bench_inspectors ~bench_name ~dataset_name =
  let dataset = Option.get (Datagen.Generators.by_name ~scale dataset_name) in
  let kernel = (Option.get (Kernels.by_name bench_name)) dataset in
  let plan =
    Compose.Plan.with_fst ~seed_part_size:64 Compose.Plan.cpack_lexgroup_twice
  in
  let make_test strategy label =
    Test.make
      ~name:(Fmt.str "%s-%s" (Compose.Plan.name plan) label)
      (Staged.stage (fun () ->
           ignore (Compose.Inspector.run ~strategy plan kernel)))
  in
  let tests =
    Test.make_grouped ~name:bench_name
      [
        make_test Compose.Inspector.Remap_each "remap-each";
        make_test Compose.Inspector.Remap_once "remap-once";
      ]
  in
  print_results
    (Fmt.str "inspector %s/%s (Figure 16)" bench_name dataset_name)
    (benchmark_tests tests)

(* ------------------------------------------------------------------ *)
(* Figure tables via the cache model                                   *)

(* Every table re-seeds the global RNG from its own title so each
   section is run-to-run stable (and independent of section order) —
   serial/parallel comparisons must not drift between invocations. *)
let section title =
  Random.init (Hashtbl.hash ("rtrt-bench", title));
  Fmt.pr "@.==== %s ====@." title

(* ------------------------------------------------------------------ *)
(* Parallel speedup table: serial vs pool execution of the Full-growth
   tiled executors, with the Tile_par makespan model's prediction
   alongside (writes BENCH_PAR.json for the CI perf trajectory). *)

let bench_par_json_path =
  Option.value
    (Sys.getenv_opt "RTRT_BENCH_PAR_JSON")
    ~default:"BENCH_PAR.json"

(* The speedup ratio divides two short wall-clock timings, so it needs
   a longer window than the modeled tables: short windows leave the
   ratio wobbling tens of percent run to run on throttled cgroup hosts
   (a CPU-quota stall lands inside one window and not the other),
   defeating both the ratios-only CI gate and the tier-decision
   sanity check. 32 steps per window averages quota stalls into both
   sides roughly equally; together with the harness's interleaved
   best-of-N this keeps same-code ratios within a few percent of 1. *)
let par_wall_steps =
  Rtrt_obs.Config.env_int ~min:1 ~name:"RTRT_BENCH_PAR_STEPS" ~default:32 ()

let par_speedup_table () =
  let config =
    {
      config with
      Harness.Figures.domains = par_domains;
      wall_steps = par_wall_steps;
    }
  in
  let report =
    Harness.Parbench.measure ~machine:Cachesim.Machine.pentium4 ~config ()
  in
  Fmt.pr "%a" Harness.Parbench.pp_report report;
  (* Tier-selection tally: how often the auto-fallback chose to run
     serial because the pool's synchronization cost couldn't pay. *)
  let tally tier =
    List.length
      (List.filter
         (fun r ->
           r.Harness.Parbench.pb_par.Harness.Experiment.par_tier = tier)
         report.Harness.Parbench.rows)
  in
  Fmt.pr "tier selection: %d parallel, %d serial (auto-fallback)@."
    (tally "parallel") (tally "serial");
  Harness.Parbench.write_json ~path:bench_par_json_path report;
  Fmt.pr "wrote %s@." bench_par_json_path

let par_only =
  Rtrt_obs.Config.env_bool ~name:"RTRT_BENCH_PAR_ONLY" ~default:false ()

(* ------------------------------------------------------------------ *)
(* Plan-cache amortization table: the full suite measured twice
   through one cache — the first pass pays the inspections (misses),
   the second replays them (hits) — with the uncached-vs-cached
   break-even in outer iterations next to each plan (writes
   BENCH_PLANCACHE.json for the CI perf trajectory). When
   RTRT_PLAN_CACHE_DIR is set the disk tier carries entries across
   processes, so a rerun's first pass can already hit. *)

let bench_plancache_json_path =
  Option.value
    (Sys.getenv_opt "RTRT_BENCH_PLANCACHE_JSON")
    ~default:"BENCH_PLANCACHE.json"

let plancache_table () =
  let cache =
    Rtrt_plancache.Cache.create ?dir:(Rtrt_plancache.Cache.dir_from_env ()) ()
  in
  let config = { config with Harness.Figures.plan_cache = Some cache } in
  let machine = Cachesim.Machine.pentium4 in
  let kernel =
    (Option.get (Kernels.by_name "moldyn"))
      (Option.get (Datagen.Generators.by_name ~scale "mol1"))
  in
  let cold = Harness.Figures.run_suite ~machine ~config kernel in
  let warm = Harness.Figures.run_suite ~machine ~config kernel in
  (match cache |> Rtrt_plancache.Cache.dir with
  | Some d -> Fmt.pr "moldyn/mol1, scale %d, disk tier at %s@." scale d
  | None -> Fmt.pr "moldyn/mol1, scale %d, memory tier only@." scale);
  let rows =
    match warm with
    | [] -> []
    | base :: _ ->
      List.map2
        (fun (c : Harness.Experiment.measurement)
             (w : Harness.Experiment.measurement) ->
          let hit =
            match w.Harness.Experiment.plancache with
            | Some pc -> pc.Harness.Experiment.pc_hit
            | None -> false
          in
          (c, w, hit, Harness.Experiment.amortization_cached ~base w))
        cold warm
  in
  List.iter
    (fun ( (c : Harness.Experiment.measurement),
           (w : Harness.Experiment.measurement),
           hit,
           breakeven ) ->
      Fmt.pr "  %-24s insp first %.4fs  second %.4fs (%s)%t@."
        c.Harness.Experiment.plan_name c.Harness.Experiment.inspector_seconds
        w.Harness.Experiment.inspector_seconds
        (if hit then "cache hit" else "MISS")
        (fun ppf ->
          match breakeven with
          | Some (uncached, cached) ->
            Fmt.pf ppf "  break-even %.1f -> %.1f steps" uncached cached
          | None -> ()))
    rows;
  let st = Rtrt_plancache.Cache.stats cache in
  Fmt.pr "  cache: %a@." Rtrt_plancache.Cache.pp_stats st;
  let json =
    Rtrt_obs.Json.(
      Obj
        [
          ("scale", Int scale);
          ( "rows",
            List
              (List.map
                 (fun ( (c : Harness.Experiment.measurement),
                        (w : Harness.Experiment.measurement),
                        hit,
                        breakeven ) ->
                   Obj
                     [
                       ("plan", String c.Harness.Experiment.plan_name);
                       ( "first_inspector_seconds",
                         Float c.Harness.Experiment.inspector_seconds );
                       ( "second_inspector_seconds",
                         Float w.Harness.Experiment.inspector_seconds );
                       ("second_was_hit", Bool hit);
                       ( "breakeven_uncached_steps",
                         match breakeven with
                         | Some (u, _) -> Float u
                         | None -> Null );
                       ( "breakeven_cached_steps",
                         match breakeven with
                         | Some (_, cc) -> Float cc
                         | None -> Null );
                     ])
                 rows) );
          ( "cache",
            Obj
              [
                ("hits", Int st.Rtrt_plancache.Cache.hits);
                ("misses", Int st.Rtrt_plancache.Cache.misses);
                ("stores", Int st.Rtrt_plancache.Cache.stores);
                ("evictions", Int st.Rtrt_plancache.Cache.evictions);
                ("disk_hits", Int st.Rtrt_plancache.Cache.disk_hits);
                ("disk_errors", Int st.Rtrt_plancache.Cache.disk_errors);
                ("bytes", Int st.Rtrt_plancache.Cache.bytes);
              ] );
        ])
  in
  Out_channel.with_open_text bench_plancache_json_path (fun oc ->
      output_string oc (Rtrt_obs.Json.to_string json);
      output_char oc '\n');
  Fmt.pr "wrote %s@." bench_plancache_json_path

let plancache_only =
  Rtrt_obs.Config.env_bool ~name:"RTRT_BENCH_PLANCACHE_ONLY" ~default:false ()

(* ------------------------------------------------------------------ *)
(* Hot-path table: flat-CSR schedule-walk bandwidth vs the pre-flat
   nested reference, moldyn tiled-vs-plain steady state, and the
   inspector phase breakdown (writes BENCH_HOTPATH.json for the CI
   perf trajectory). *)

let bench_hotpath_json_path =
  Option.value
    (Sys.getenv_opt "RTRT_BENCH_HOTPATH_JSON")
    ~default:"BENCH_HOTPATH.json"

let hotpath_table () =
  let report = Harness.Hotpath.measure ~scale () in
  Fmt.pr "%a" Harness.Hotpath.pp_report report;
  Harness.Hotpath.write_json ~path:bench_hotpath_json_path report;
  Fmt.pr "wrote %s@." bench_hotpath_json_path

let hotpath_only =
  Rtrt_obs.Config.env_bool ~name:"RTRT_BENCH_HOTPATH_ONLY" ~default:false ()

(* ------------------------------------------------------------------ *)
(* Inspector cold-cost table: Remap_each vs the one-pass Remap_once
   composition, serial and pooled, with bit-identity checks (writes
   BENCH_INSPECTOR.json for the CI perf trajectory). *)

let bench_inspector_json_path =
  Option.value
    (Sys.getenv_opt "RTRT_BENCH_INSPECTOR_JSON")
    ~default:"BENCH_INSPECTOR.json"

let inspector_table () =
  let report = Harness.Inspctime.measure ~scale () in
  Fmt.pr "%a" Harness.Inspctime.pp_report report;
  if not (Harness.Inspctime.identical report) then
    Fmt.pr "WARNING: a remap-once variant diverged from remap-each@.";
  Harness.Inspctime.write_json ~path:bench_inspector_json_path report;
  Fmt.pr "wrote %s@." bench_inspector_json_path

let inspector_only =
  Rtrt_obs.Config.env_bool ~name:"RTRT_BENCH_INSPECTOR_ONLY" ~default:false ()

(* ------------------------------------------------------------------ *)
(* Autotune table: every (bench, dataset, machine) cell tuned over the
   candidate space, the winner's modeled score next to the best
   hand-named plan's, and both wall clocks (writes BENCH_AUTOTUNE.json
   for the CI perf trajectory). *)

let bench_autotune_json_path =
  Option.value
    (Sys.getenv_opt "RTRT_BENCH_AUTOTUNE_JSON")
    ~default:"BENCH_AUTOTUNE.json"

let autotune_table () =
  let config =
    { config with Harness.Figures.domains = par_domains; wall_steps = 8 }
  in
  let report = Harness.Autotune.measure ~config () in
  Fmt.pr "%a" Harness.Autotune.pp_report report;
  let beaten =
    List.length
      (List.filter
         (fun r -> r.Harness.Autotune.ab_winner_over_named_normalized <= 1.0)
         report.Harness.Autotune.rep_rows)
  in
  Fmt.pr "winner matches or beats the best hand-named plan on %d/%d cells@."
    beaten
    (List.length report.Harness.Autotune.rep_rows);
  Harness.Autotune.write_json ~path:bench_autotune_json_path report;
  Fmt.pr "wrote %s@." bench_autotune_json_path

let autotune_only =
  Rtrt_obs.Config.env_bool ~name:"RTRT_BENCH_AUTOTUNE_ONLY" ~default:false ()

(* ------------------------------------------------------------------ *)
(* Churn table: incremental plan repair vs cold re-inspection after
   rewiring 1/2/5/10% of interactions, with bit-identity checks and
   the steps-to-amortize break-even (writes BENCH_CHURN.json for the
   CI perf trajectory). *)

let bench_churn_json_path =
  Option.value
    (Sys.getenv_opt "RTRT_BENCH_CHURN_JSON")
    ~default:"BENCH_CHURN.json"

(* Unlike the speedup table, the churn table does not need a pool to
   be meaningful (repair is domain-count independent), so RTRT_DOMAINS
   is honoured as-is: the serial leg is the reproducible one the CI
   baseline gates on, the pooled leg checks the pooled growth paths. *)
let churn_domains = Rtrt_par.Pool.domains_from_env ~default:1 ()

let churn_table ~full () =
  let report =
    Harness.Churnbench.measure ~full ~scale ~domains:churn_domains ()
  in
  Fmt.pr "%a" Harness.Churnbench.pp_report report;
  Harness.Churnbench.write_json ~path:bench_churn_json_path report;
  Fmt.pr "wrote %s@." bench_churn_json_path

let churn_only =
  Rtrt_obs.Config.env_bool ~name:"RTRT_BENCH_CHURN_ONLY" ~default:false ()

let () =
  Rtrt_obs.Config.init ();
  Fmt.pr "rtrt bench harness; dataset scale %d (RTRT_SCALE overrides)@." scale;

  if par_only then (
    (* Fast mode for the CI bench job: only the speedup table + JSON. *)
    section "Parallel speedup (serial vs domain pool)";
    par_speedup_table ();
    exit 0);

  if plancache_only then (
    (* Fast mode for the CI plan-cache job: only the amortization
       table + JSON. *)
    section "Plan-cache amortization (cold vs warm inspection)";
    plancache_table ();
    exit 0);

  if hotpath_only then (
    (* Fast mode for the CI hotpath job: only the hot-path table +
       JSON. *)
    section "Hot paths (flat-CSR schedule walk, tiled steady state)";
    hotpath_table ();
    exit 0);

  if inspector_only then (
    (* Fast mode for the CI inspector job: only the inspector
       cold-cost table + JSON. *)
    section "Inspector cold cost (remap-each vs remap-once, serial/pool)";
    inspector_table ();
    exit 0);

  if autotune_only then (
    (* Fast mode for the CI autotune job: only the tuner table + JSON. *)
    section "Plan autotuning (cost-model search over the plan space)";
    autotune_table ();
    exit 0);

  if churn_only then (
    (* Fast mode for the CI churn job: only the repair-vs-cold table +
       JSON, without the irreg extra cell. *)
    section "Graph churn (incremental repair vs cold re-inspection)";
    churn_table ~full:false ();
    exit 0);

  section "Section 2.4: datasets";
  Fmt.pr "%a" Harness.Figures.pp_dataset_table
    (Harness.Figures.dataset_table ~config ());

  section "Figure 6: normalized executor time, Power3 model";
  Fmt.pr "%a" Harness.Figures.pp_exec_rows
    (Harness.Figures.executor_time ~machine:Cachesim.Machine.power3 ~config ());

  section "Figure 7: normalized executor time, Pentium 4 model";
  Fmt.pr "%a" Harness.Figures.pp_exec_rows
    (Harness.Figures.executor_time ~machine:Cachesim.Machine.pentium4 ~config ());

  section "Figure 8: amortization (outer iterations), Power3 model";
  Fmt.pr "%a" Harness.Figures.pp_amort_rows
    (Harness.Figures.amortization ~machine:Cachesim.Machine.power3 ~config ());

  section "Figure 9: amortization (outer iterations), Pentium 4 model";
  Fmt.pr "%a" Harness.Figures.pp_amort_rows
    (Harness.Figures.amortization ~machine:Cachesim.Machine.pentium4 ~config ());

  section "Figure 16: remap-once inspector overhead reduction";
  Fmt.pr "%a" Harness.Figures.pp_remap_rows
    (Harness.Figures.remap_overhead ~machine:Cachesim.Machine.pentium4 ~config
       ());

  section "Figure 17: cache-size-target sweep, Pentium 4 model";
  Fmt.pr "%a" Harness.Figures.pp_sweep_rows
    (Harness.Figures.cache_target_sweep ~machine:Cachesim.Machine.pentium4
       ~config ());

  section "Ablations A1-A6 (DESIGN.md section 5)";
  List.iter
    (Fmt.pr "%a" Harness.Ablations.pp_rows)
    (Harness.Ablations.all ~machine:Cachesim.Machine.pentium4
       ~config:{ config with Harness.Figures.scale = max config.Harness.Figures.scale 32 }
       ());

  section "Gauss-Seidel sparse tiling (E-GS)";
  (let dataset = Datagen.Generators.foil ~scale:(max scale 32) () in
   let graph = Datagen.Dataset.to_graph dataset in
   let n = Irgraph.Csr.num_nodes graph in
   let f = Array.init n (fun i -> 1.0 +. float_of_int (i mod 13)) in
   let slab = 3 and slabs = 8 in
   let partition = Irgraph.Partition.gpart graph ~part_size:32 in
   let graph', f', _sigma, seed =
     Kernels.Gauss_seidel.renumber_by_partition graph ~f ~partition
   in
   let tiling =
     Kernels.Gauss_seidel.grow graph' ~seed ~seed_sweep:(slab / 2) ~sweeps:slab
   in
   let machine = Cachesim.Machine.pentium4 in
   let misses run =
     let t = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
     let layout = Kernels.Gauss_seidel.layout t in
     let hierarchy = Cachesim.Machine.hierarchy machine in
     run t ~layout ~access:(Cachesim.Hierarchy.access hierarchy);
     Cachesim.Hierarchy.l1_misses hierarchy
   in
   let plain =
     misses (fun t ~layout ~access ->
         Kernels.Gauss_seidel.run_traced t ~sweeps:(slab * slabs) ~layout ~access)
   in
   let tiled =
     misses (fun t ~layout ~access ->
         Kernels.Gauss_seidel.run_tiled_traced ~slabs t tiling ~layout ~access)
   in
   Fmt.pr "plain %d misses, sparse tiled %d misses (%.0f%% fewer), %d tiles, \
           constraints ok: %b@."
     plain tiled
     (100.0 *. (1.0 -. (float_of_int tiled /. float_of_int plain)))
     tiling.Kernels.Gauss_seidel.n_tiles
     (Kernels.Gauss_seidel.check_constraints graph' tiling = []));

  section "Parallel speedup (serial vs domain pool)";
  par_speedup_table ();

  section "Plan-cache amortization (cold vs warm inspection)";
  plancache_table ();

  section "Hot paths (flat-CSR schedule walk, tiled steady state)";
  hotpath_table ();

  section "Inspector cold cost (remap-each vs remap-once, serial/pool)";
  inspector_table ();

  section "Plan autotuning (cost-model search over the plan space)";
  autotune_table ();

  section "Graph churn (incremental repair vs cold re-inspection)";
  churn_table ~full:true ();

  section "Wall-clock executor benchmarks (Figures 6/7 cross-check)";
  List.iter
    (fun (b, d) ->
      bench_executors ~machine:Cachesim.Machine.pentium4 ~bench_name:b
        ~dataset_name:d)
    [ ("irreg", "foil"); ("nbf", "foil"); ("moldyn", "mol1") ];

  section "Wall-clock inspector benchmarks (Figure 16 cross-check)";
  List.iter
    (fun (b, d) -> bench_inspectors ~bench_name:b ~dataset_name:d)
    [ ("irreg", "foil"); ("moldyn", "mol1") ]
