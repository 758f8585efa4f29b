(* Command-line driver regenerating every measured figure/table of the
   paper (see DESIGN.md for the experiment index):

     rtrt datasets            Section 2.4 dataset table
     rtrt figure6 / figure7   normalized executor time (Power3 / P4)
     rtrt figure8 / figure9   inspector amortization
     rtrt figure16            remap-once overhead reduction
     rtrt figure17            cache-size-target parameter sweep
     rtrt symbolic            Section 5 symbolic composition report
     rtrt codegen             Figures 10-15 generated pseudo-code
                              (--plan also prints the Tier B executor)
     rtrt gs                  Gauss-Seidel sparse tiling (E-GS)
     rtrt guide               Section 7 runtime composition selection
     rtrt ablations           design-choice ablations A1-A9
     rtrt raw                 absolute counts for one configuration
     rtrt autotune            cost-model plan search for one configuration
     rtrt churn               repair-vs-cold re-inspection under graph churn
     rtrt bench               one wall-clock table and its BENCH_*.json
                              (--only hotpath|inspector|par|autotune|
                               churn|plancache)
     rtrt bench-diff          regression gate between two BENCH_*.json files
     rtrt json                one figure's rows as JSON (jq-ready)
     rtrt trace-report        span-tree summary of a JSONL trace
     rtrt all                 the figure suite end to end

   Every command honours RTRT_TRACE (pretty | jsonl[:PATH]) and the
   --trace flag; see the README's Observability section. *)

open Cmdliner

let config_of ?(domains = 1) ?cache_dir ~scale ~steps () =
  let plan_cache =
    match cache_dir with
    | Some d when String.trim d <> "" ->
      Some (Rtrt_plancache.Cache.create ~dir:(String.trim d) ())
    | _ -> None
  in
  {
    Harness.Figures.scale;
    trace_steps = steps;
    wall_steps = max steps 3;
    domains;
    plan_cache;
  }

let trace_arg =
  let doc =
    "Trace the run (pretty sink on stderr). The RTRT_TRACE environment \
     variable (pretty | jsonl[:PATH] | off) takes precedence when set."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let setup_trace cli_trace =
  Rtrt_obs.Config.init
    ~default:(if cli_trace then Rtrt_obs.Config.Pretty else Rtrt_obs.Config.Off)
    ()

let specialize_arg =
  let doc =
    "Tier B executor specialization: compile each frozen schedule into a \
     table-driven native executor (ocamlopt -shared + Dynlink) and run \
     that instead of the interpreted walk. Equivalent to \
     RTRT_SPECIALIZE=1. Falls back to the shape-specialized executor when \
     no OCaml toolchain is available. Compiled modules are cached on disk \
     and verified bitwise against the interpreted executor."
  in
  Arg.(value & flag & info [ "specialize" ] ~doc)

let setup_specialize specialize =
  if specialize then Compose.Specialize.set_enabled true

let scale_arg =
  let doc =
    "Dataset scale divisor: node counts are the paper's divided by this \
     (1 = full size)."
  in
  Arg.(value & opt int 16 & info [ "scale" ] ~docv:"N" ~doc)

let steps_arg =
  let doc = "Time steps measured by the cache model." in
  Arg.(value & opt int 2 & info [ "steps" ] ~docv:"S" ~doc)

let domains_arg =
  let doc =
    "OCaml domains for parallel tiled execution (default: RTRT_DOMAINS or \
     1). With more than one, Full-growth sparse-tiled plans also run on a \
     domain pool and report measured speedup next to the modeled makespan."
  in
  Arg.(
    value
    & opt int (Rtrt_par.Pool.domains_from_env ())
    & info [ "domains" ] ~docv:"D" ~doc)

let plan_cache_arg =
  let doc =
    "Directory for the on-disk plan cache. Composed inspector results \
     (reordering functions and tile schedules) are stored there keyed by a \
     content hash of the kernel's access pattern and the plan, and repeated \
     inspections of the same (dataset, plan) pair replay the cached result \
     instead of re-running the inspectors — including across processes. \
     Measurements report hit/miss traffic and cached-vs-uncached \
     amortization."
  in
  let env = Cmd.Env.info "RTRT_PLAN_CACHE_DIR" in
  Arg.(
    value
    & opt (some string) None
    & info [ "plan-cache" ] ~docv:"DIR" ~env ~doc)

let run_datasets ?cache_dir domains scale steps =
  let config = config_of ?cache_dir ~domains ~scale ~steps () in
  let rows = Harness.Figures.dataset_table ~config () in
  Fmt.pr "Section 2.4 dataset table (generated at scale %d):@." scale;
  Fmt.pr "%a@." Harness.Figures.pp_dataset_table rows

let run_exec ?cache_dir ~machine ~label domains scale steps =
  let config = config_of ?cache_dir ~domains ~scale ~steps () in
  Fmt.pr "%s: normalized executor time without overhead on %a@." label
    Cachesim.Machine.pp machine;
  let rows = Harness.Figures.executor_time ~machine ~config () in
  Fmt.pr "%a@." Harness.Figures.pp_exec_rows rows

let run_amort ?cache_dir ~machine ~label domains scale steps =
  let config = config_of ?cache_dir ~domains ~scale ~steps () in
  Fmt.pr "%s: inspector amortization on %a@." label Cachesim.Machine.pp machine;
  let rows = Harness.Figures.amortization ~machine ~config () in
  Fmt.pr "%a@." Harness.Figures.pp_amort_rows rows

let run_remap ?cache_dir domains scale steps =
  let config = config_of ?cache_dir ~domains ~scale ~steps () in
  Fmt.pr "Figure 16: inspector overhead reduction from remapping once@.";
  let rows =
    Harness.Figures.remap_overhead ~machine:Cachesim.Machine.pentium4 ~config ()
  in
  Fmt.pr "%a@." Harness.Figures.pp_remap_rows rows

let run_sweep ?cache_dir domains scale steps =
  let config = config_of ?cache_dir ~domains ~scale ~steps () in
  let machine = Cachesim.Machine.pentium4 in
  Fmt.pr "Figure 17: executor time vs cache-size target on %a@."
    Cachesim.Machine.pp machine;
  let rows = Harness.Figures.cache_target_sweep ~machine ~config () in
  Fmt.pr "%a@." Harness.Figures.pp_sweep_rows rows

let machine_of name =
  match Cachesim.Machine.by_name name with
  | Some m -> m
  | None -> Fmt.invalid_arg "unknown machine %s" name

let kernel_of ~scale bench ds =
  let dataset =
    match Datagen.Generators.by_name ~scale ds with
    | Some d -> d
    | None -> Fmt.invalid_arg "unknown dataset %s" ds
  in
  match Kernels.by_name bench with
  | Some f -> (dataset, f dataset)
  | None -> Fmt.invalid_arg "unknown kernel %s" bench

(* The tuned-winner store shares the plan cache's directory when one
   was given (the file prefixes are disjoint). *)
let tuned_of config =
  let dir =
    Option.bind config.Harness.Figures.plan_cache Rtrt_plancache.Cache.dir
  in
  Rtrt_plancache.Tuned.create ?dir ()

let run_raw ?cache_dir bench ds machine_name plan domains scale steps =
  let config = config_of ?cache_dir ~domains ~scale ~steps () in
  let machine = machine_of machine_name in
  let dataset, kernel = kernel_of ~scale bench ds in
  Fmt.pr "%a; kernel %s (%d B/node)@." Datagen.Dataset.pp dataset bench
    (Kernels.Kernel.bytes_per_node kernel);
  match plan with
  | None ->
    let ms = Harness.Figures.run_suite ~machine ~config kernel in
    List.iter (fun m -> Fmt.pr "%a@." Harness.Experiment.pp_measurement m) ms
  | Some which ->
    Harness.Figures.with_config_pool ~config @@ fun pool ->
    let cache = config.Harness.Figures.plan_cache in
    let plan =
      if which = "auto" then begin
        let tuned = tuned_of config in
        let result =
          Harness.Autotune.tune ?cache ?pool ~tuned
            ~trace_steps:config.Harness.Figures.trace_steps ~machine kernel
        in
        Fmt.pr "%a@." Harness.Autotune.pp_result result;
        result.Harness.Autotune.at_winner
      end
      else
        let named =
          List.filter
            (fun p -> Compose.Plan.name p = which)
            (Harness.Autotune.candidates_for ~machine kernel)
        in
        match named with
        | p :: _ -> p
        | [] -> Fmt.invalid_arg "unknown plan %s (try rtrt autotune)" which
    in
    let m =
      Harness.Experiment.measure ?cache ?pool
        ~trace_steps_n:config.Harness.Figures.trace_steps
        ~wall_steps:config.Harness.Figures.wall_steps ~machine ~plan kernel
    in
    Fmt.pr "%a@." Harness.Experiment.pp_measurement m

let run_autotune ?cache_dir bench ds machine_name domains scale steps =
  let config = config_of ?cache_dir ~domains ~scale ~steps () in
  let machine = machine_of machine_name in
  let dataset, kernel = kernel_of ~scale bench ds in
  Fmt.pr "Autotune: %a; kernel %s on %a@." Datagen.Dataset.pp dataset bench
    Cachesim.Machine.pp machine;
  Harness.Figures.with_config_pool ~config @@ fun pool ->
  let tuned = tuned_of config in
  let result =
    Harness.Autotune.tune
      ?cache:config.Harness.Figures.plan_cache ?pool ~tuned
      ~trace_steps:config.Harness.Figures.trace_steps ~machine kernel
  in
  Fmt.pr "%a@." Harness.Autotune.pp_result result

let run_ablations ?cache_dir domains scale steps =
  ignore domains;
  let config = config_of ?cache_dir ~scale ~steps () in
  Fmt.pr "Ablations (see DESIGN.md section 5):@.";
  List.iter
    (Fmt.pr "%a" Harness.Ablations.pp_rows)
    (Harness.Ablations.all ~machine:Cachesim.Machine.pentium4 ~config ())

let run_symbolic () =
  Fmt.pr "Section 5: symbolic composition for simplified moldyn@.@.";
  let plan =
    Compose.Plan.with_fst ~seed_part_size:64 Compose.Plan.cpack_lexgroup_twice
  in
  Fmt.pr "plan: %a@.@." Compose.Plan.pp plan;
  let st =
    Compose.Symbolic.apply
      (Compose.Symbolic.create Compose.Symbolic.moldyn_program)
      plan
  in
  Fmt.pr "%a@." Compose.Symbolic.pp_report st

let run_gs ?cache_dir domains scale steps =
  ignore cache_dir;
  ignore steps;
  Rtrt_obs.Span.with_ ~name:"gs.run"
    ~attrs:[ ("scale", Rtrt_obs.Json.Int scale) ]
  @@ fun () ->
  let dataset = Datagen.Generators.foil ~scale () in
  let graph = Datagen.Dataset.to_graph dataset in
  let n = Irgraph.Csr.num_nodes graph in
  let f = Array.init n (fun i -> 1.0 +. float_of_int (i mod 13)) in
  let slab = 3 and slabs = 8 in
  let partition =
    Rtrt_obs.Span.with_ ~name:"gs.partition" (fun () ->
        Irgraph.Partition.gpart graph ~part_size:32)
  in
  let graph', f', _sigma, seed =
    Rtrt_obs.Span.with_ ~name:"gs.renumber" (fun () ->
        Kernels.Gauss_seidel.renumber_by_partition graph ~f ~partition)
  in
  let tiling =
    Rtrt_obs.Span.with_ ~name:"gs.grow" (fun () ->
        Kernels.Gauss_seidel.grow graph' ~seed ~seed_sweep:(slab / 2)
          ~sweeps:slab)
  in
  let machine = Cachesim.Machine.pentium4 in
  let misses name run =
    Rtrt_obs.Span.with_ ~name @@ fun () ->
    let t = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
    let layout = Kernels.Gauss_seidel.layout t in
    let hierarchy = Cachesim.Machine.hierarchy machine in
    run t ~layout ~access:(Cachesim.Hierarchy.access hierarchy);
    Cachesim.Hierarchy.publish_metrics hierarchy;
    Cachesim.Hierarchy.l1_misses hierarchy
  in
  let plain =
    misses "gs.run_plain" (fun t ~layout ~access ->
        Kernels.Gauss_seidel.run_traced t ~sweeps:(slab * slabs) ~layout ~access)
  in
  let tiled =
    misses "gs.run_tiled" (fun t ~layout ~access ->
        Kernels.Gauss_seidel.run_tiled_traced ~slabs t tiling ~layout ~access)
  in
  Fmt.pr
    "Gauss-Seidel sparse tiling (E-GS) on %a, %d sweeps in %d-sweep slabs:@."
    Cachesim.Machine.pp machine (slab * slabs) slab;
  Fmt.pr "  plain %d misses, tiled %d misses (%.0f%% fewer), %d tiles, \
          constraints ok: %b@."
    plain tiled
    (100.0 *. (1.0 -. (float_of_int tiled /. float_of_int plain)))
    tiling.Kernels.Gauss_seidel.n_tiles
    (Kernels.Gauss_seidel.check_constraints graph' tiling = []);
  if domains > 1 then
    Rtrt_par.Pool.with_pool ~domains @@ fun pool ->
    let dag = Kernels.Gauss_seidel.tile_dag graph' tiling in
    let serial = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
    let par_t = Kernels.Gauss_seidel.copy serial in
    Kernels.Gauss_seidel.run_tiled serial tiling;
    Kernels.Gauss_seidel.run_tiled_par ~pool par_t tiling dag;
    (* Bit patterns, not IEEE equality: [=] calls -0.0 equal to 0.0
       and a NaN unequal to itself. *)
    let bits_equal (a : Kernels.Gauss_seidel.t) (b : Kernels.Gauss_seidel.t) =
      Kernels.Kernel.snapshots_equal_bits
        [ ("u", a.Kernels.Gauss_seidel.u) ]
        [ ("u", b.Kernels.Gauss_seidel.u) ]
    in
    let tiled_eq = bits_equal par_t serial in
    Fmt.pr
      "  parallel tiles on %d domains: %a, modeled speedup %.2fx, bitwise \
       equal: %b@."
      domains Reorder.Tile_par.pp dag
      (Reorder.Tile_par.speedup dag ~processors:domains)
      tiled_eq;
    let w =
      Reorder.Wavefront.run (Kernels.Gauss_seidel.wavefront_preds graph')
    in
    let plain_t = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
    let wave_t = Kernels.Gauss_seidel.copy plain_t in
    Kernels.Gauss_seidel.run_plain plain_t ~sweeps:slab;
    Kernels.Gauss_seidel.run_wavefront_par ~pool wave_t w ~sweeps:slab;
    Fmt.pr "  parallel wavefront: %a, bitwise equal: %b@." Reorder.Wavefront.pp
      w (bits_equal wave_t plain_t)

let run_guide bench ds budget scale steps =
  let machine = Cachesim.Machine.pentium4 in
  let dataset =
    match Datagen.Generators.by_name ~scale ds with
    | Some d -> d
    | None -> Fmt.invalid_arg "unknown dataset %s" ds
  in
  let kernel =
    match Kernels.by_name bench with
    | Some f -> f dataset
    | None -> Fmt.invalid_arg "unknown kernel %s" bench
  in
  let plans =
    Harness.Figures.suite_for ~machine kernel
  in
  Fmt.pr
    "Guidance (Section 7): ranking compositions for %s/%s over %d outer      iterations on %a@.@."
    bench ds budget Cachesim.Machine.pp machine;
  let ranking =
    Harness.Guidance.select ~trace_steps:steps ~machine ~steps_budget:budget
      ~plans kernel
  in
  Fmt.pr "%a" Harness.Guidance.pp_ranking ranking

let run_export ?cache_dir dir domains scale steps =
  let config = config_of ?cache_dir ~domains ~scale ~steps () in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write name contents =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Fmt.pr "wrote %s@." path
  in
  List.iter
    (fun machine ->
      let tag = machine.Cachesim.Machine.name in
      write
        (Fmt.str "executor_time_%s.csv" tag)
        (Harness.Figures.csv_exec_rows
           (Harness.Figures.executor_time ~machine ~config ()));
      write
        (Fmt.str "amortization_%s.csv" tag)
        (Harness.Figures.csv_amort_rows
           (Harness.Figures.amortization ~machine ~config ())))
    [ Cachesim.Machine.power3; Cachesim.Machine.pentium4 ];
  write "cache_target_sweep_pentium4.csv"
    (Harness.Figures.csv_sweep_rows
       (Harness.Figures.cache_target_sweep ~machine:Cachesim.Machine.pentium4
          ~config ()))

let run_json ?cache_dir figure domains scale steps =
  let config = config_of ?cache_dir ~domains ~scale ~steps () in
  let module F = Harness.Figures in
  let rows =
    match figure with
    | "datasets" -> F.json_dataset_rows (F.dataset_table ~config ())
    | "figure6" ->
      F.json_exec_rows
        (F.executor_time ~machine:Cachesim.Machine.power3 ~config ())
    | "figure7" ->
      F.json_exec_rows
        (F.executor_time ~machine:Cachesim.Machine.pentium4 ~config ())
    | "figure8" ->
      F.json_amort_rows
        (F.amortization ~machine:Cachesim.Machine.power3 ~config ())
    | "figure9" ->
      F.json_amort_rows
        (F.amortization ~machine:Cachesim.Machine.pentium4 ~config ())
    | "figure16" ->
      F.json_remap_rows
        (F.remap_overhead ~machine:Cachesim.Machine.pentium4 ~config ())
    | "figure17" ->
      F.json_sweep_rows
        (F.cache_target_sweep ~machine:Cachesim.Machine.pentium4 ~config ())
    | f ->
      Fmt.invalid_arg
        "unknown figure %s (expected datasets | figure6 | figure7 | figure8 \
         | figure9 | figure16 | figure17)"
        f
  in
  print_endline
    (Rtrt_obs.Json.to_string
       (Rtrt_obs.Json.Obj
          [
            ("figure", Rtrt_obs.Json.String figure);
            ("scale", Rtrt_obs.Json.Int scale);
            ("trace_steps", Rtrt_obs.Json.Int steps);
            ("rows", rows);
          ]))

let print_trace_report events =
  Fmt.pr "Span summary (self = total minus child spans):@.%a"
    Rtrt_obs.Report.pp_summary
    (Rtrt_obs.Report.summarize events);
  let ms = Rtrt_obs.Report.metrics events in
  if ms <> [] then begin
    Fmt.pr "@.Counters and gauges:@.";
    List.iter
      (fun (m : Rtrt_obs.Sink.metric) ->
        Fmt.pr "  %-32s %g@." m.Rtrt_obs.Sink.m_name m.Rtrt_obs.Sink.m_value)
      ms
  end

let run_trace_report file scale steps =
  match file with
  | Some path ->
    let events =
      try Rtrt_obs.Report.events_of_jsonl path
      with Sys_error msg ->
        Fmt.epr "rtrt: cannot read trace: %s@." msg;
        exit 1
    in
    Fmt.pr "Trace report for %s@.@." path;
    print_trace_report events
  | None ->
    (* No trace file given: capture one instrumented suite run
       (moldyn/mol1, Pentium 4 model) in memory and report it. *)
    let config = config_of ~scale ~steps () in
    let sink, events = Rtrt_obs.Sink.memory () in
    Rtrt_obs.set_sink sink;
    let kernel =
      match
        ( Kernels.by_name "moldyn",
          Datagen.Generators.by_name ~scale "mol1" )
      with
      | Some f, Some d -> f d
      | _ -> assert false
    in
    ignore
      (Harness.Figures.run_suite ~machine:Cachesim.Machine.pentium4 ~config
         kernel);
    Rtrt_obs.Metrics.flush ();
    Rtrt_obs.disable ();
    Fmt.pr
      "Trace report for a fresh moldyn/mol1 suite run (scale %d; pass a \
       JSONL file to report an existing trace)@.@."
      scale;
    print_trace_report (events ())

let run_churn ?cache_dir domains scale steps =
  ignore cache_dir;
  ignore domains;
  let report = Harness.Churnbench.measure ~rounds:(max 2 steps) ~scale () in
  Fmt.pr
    "Repair vs cold re-inspection under graph churn (degree-preserving \
     rewires):@.";
  Fmt.pr "%a" Harness.Churnbench.pp_report report

let run_bench_diff old_path new_path tolerance ratios_only all =
  match
    Harness.Benchdiff.compare_files ~tolerance ~ratios_only ~old_path
      ~new_path ()
  with
  | rows ->
    Fmt.pr "bench-diff %s -> %s (tolerance %.0f%%%s)@.@." old_path new_path
      (tolerance *. 100.0)
      (if ratios_only then ", ratios only" else "");
    Harness.Benchdiff.pp_table ~all Fmt.stdout rows;
    if Harness.Benchdiff.has_regression rows then begin
      Fmt.epr "rtrt: bench-diff: regression detected@.";
      exit 1
    end
  | exception Failure msg ->
    Fmt.epr "rtrt: bench-diff: %s@." msg;
    exit 2

let run_codegen bench ds plan_name scale =
  let program =
    match Compose.Symbolic.program_by_name bench with
    | Some p -> p
    | None -> Fmt.invalid_arg "unknown program %s" bench
  in
  let plan =
    match plan_name with
    | None ->
      Compose.Plan.with_fst ~seed_part_size:64
        Compose.Plan.cpack_lexgroup_twice
    | Some which -> (
      let _, kernel = kernel_of ~scale bench ds in
      match
        List.filter
          (fun p -> Compose.Plan.name p = which)
          (Harness.Autotune.candidates_for
             ~machine:Cachesim.Machine.pentium4 kernel)
      with
      | p :: _ -> p
      | [] -> Fmt.invalid_arg "unknown plan %s (try rtrt autotune)" which)
  in
  Fmt.pr
    "Figures 10-15: generated specialized inspectors and executor for %s,@.\
     plan %a@.@."
    bench Compose.Plan.pp plan;
  let st = Compose.Symbolic.apply (Compose.Symbolic.create program) plan in
  print_string (Compose.Codegen.full_report st ~program);
  (* With an explicit plan, additionally freeze the schedule on the
     real dataset and print the Tier B executor module the specializer
     would compile for it. *)
  match plan_name with
  | None -> ()
  | Some _ -> (
    let _, kernel = kernel_of ~scale bench ds in
    let result = Harness.Experiment.inspect plan kernel in
    match result.Compose.Inspector.schedule with
    | None ->
      Fmt.pr
        "@.(plan does not sparse-tile: no frozen schedule, no Tier B \
         executor)@."
    | Some sched -> (
      match
        Compose.Specialize.dump_source result.Compose.Inspector.kernel sched
      with
      | None ->
        Fmt.pr
          "@.(Tier B emitter declined this schedule — source budget \
           exceeded)@."
      | Some src ->
        Fmt.pr
          "@.Tier B specialized executor (dataset %s, scale %d; what \
           --specialize compiles and loads):@.@."
          ds scale;
        print_string src))

let run_all ?cache_dir domains scale steps =
  run_datasets ?cache_dir domains scale steps;
  run_symbolic ();
  run_exec ?cache_dir ~machine:Cachesim.Machine.power3 ~label:"Figure 6"
    domains scale steps;
  run_exec ?cache_dir ~machine:Cachesim.Machine.pentium4 ~label:"Figure 7"
    domains scale steps;
  run_amort ?cache_dir ~machine:Cachesim.Machine.power3 ~label:"Figure 8"
    domains scale steps;
  run_amort ?cache_dir ~machine:Cachesim.Machine.pentium4 ~label:"Figure 9"
    domains scale steps;
  run_remap ?cache_dir domains scale steps;
  run_sweep ?cache_dir domains scale steps

let cmd_of ~name ~doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun trace specialize cache_dir domains scale steps ->
          setup_trace trace;
          setup_specialize specialize;
          f ?cache_dir domains scale steps)
      $ trace_arg $ specialize_arg $ plan_cache_arg $ domains_arg $ scale_arg
      $ steps_arg)

let datasets_cmd = cmd_of ~name:"datasets" ~doc:"Section 2.4 table" run_datasets

let figure6_cmd =
  cmd_of ~name:"figure6" ~doc:"Normalized executor time, Power3 model"
    (run_exec ~machine:Cachesim.Machine.power3 ~label:"Figure 6")

let figure7_cmd =
  cmd_of ~name:"figure7" ~doc:"Normalized executor time, Pentium 4 model"
    (run_exec ~machine:Cachesim.Machine.pentium4 ~label:"Figure 7")

let figure8_cmd =
  cmd_of ~name:"figure8" ~doc:"Inspector amortization, Power3 model"
    (run_amort ~machine:Cachesim.Machine.power3 ~label:"Figure 8")

let figure9_cmd =
  cmd_of ~name:"figure9" ~doc:"Inspector amortization, Pentium 4 model"
    (run_amort ~machine:Cachesim.Machine.pentium4 ~label:"Figure 9")

let figure16_cmd =
  cmd_of ~name:"figure16" ~doc:"Remap-once overhead reduction" run_remap

let figure17_cmd =
  cmd_of ~name:"figure17" ~doc:"Cache-size-target sweep" run_sweep

let raw_cmd =
  let bench =
    Arg.(value & opt string "moldyn" & info [ "bench" ] ~docv:"KERNEL")
  in
  let ds = Arg.(value & opt string "mol1" & info [ "dataset" ] ~docv:"DATA") in
  let machine =
    Arg.(value & opt string "pentium4" & info [ "machine" ] ~docv:"M")
  in
  let plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Measure a single plan instead of the whole standard suite: a \
             plan name from the candidate space (e.g. $(b,GL+FST)) or \
             $(b,auto) to run the autotuner and measure its winner.")
  in
  Cmd.v
    (Cmd.info "raw" ~doc:"Raw measurements for one kernel/dataset/machine")
    Term.(
      const
        (fun trace specialize cache_dir bench ds machine plan domains scale
             steps ->
          setup_trace trace;
          setup_specialize specialize;
          run_raw ?cache_dir bench ds machine plan domains scale steps)
      $ trace_arg $ specialize_arg $ plan_cache_arg $ bench $ ds $ machine
      $ plan $ domains_arg $ scale_arg $ steps_arg)

let autotune_cmd =
  let bench =
    Arg.(value & opt string "moldyn" & info [ "bench" ] ~docv:"KERNEL")
  in
  let ds = Arg.(value & opt string "mol1" & info [ "dataset" ] ~docv:"DATA") in
  let machine =
    Arg.(value & opt string "pentium4" & info [ "machine" ] ~docv:"M")
  in
  Cmd.v
    (Cmd.info "autotune"
       ~doc:
         "Search the validated plan space for one kernel/dataset/machine: \
          score every candidate with the cache model (plus the makespan \
          model when --domains > 1) and report the winner. With \
          --plan-cache, winners persist on disk and replay on repeat runs.")
    Term.(
      const (fun trace cache_dir bench ds machine domains scale steps ->
          setup_trace trace;
          run_autotune ?cache_dir bench ds machine domains scale steps)
      $ trace_arg $ plan_cache_arg $ bench $ ds $ machine $ domains_arg
      $ scale_arg $ steps_arg)

let ablations_cmd =
  cmd_of ~name:"ablations" ~doc:"Design-choice ablations" run_ablations

let churn_cmd =
  cmd_of ~name:"churn"
    ~doc:
      "Repair composed plans under graph churn instead of re-inspecting: \
       rewire 1/2/5/10% of interactions (degree-preserving), repair the \
       frozen plan incrementally, and compare against a true cold \
       re-inspection (--steps sets the chained churn rounds per cell)."
    run_churn

let gs_cmd = cmd_of ~name:"gs" ~doc:"Gauss-Seidel sparse tiling (E-GS)" run_gs

let export_cmd =
  let dir =
    Arg.(value & opt string "results" & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory for the CSV files.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write plot-ready CSVs for Figures 6-9 and 17")
    Term.(
      const (fun trace cache_dir dir domains scale steps ->
          setup_trace trace;
          run_export ?cache_dir dir domains scale steps)
      $ trace_arg $ plan_cache_arg $ dir $ domains_arg $ scale_arg $ steps_arg)

let guide_cmd =
  let bench =
    Arg.(value & opt string "moldyn" & info [ "bench" ] ~docv:"KERNEL")
  in
  let ds = Arg.(value & opt string "mol1" & info [ "dataset" ] ~docv:"DATA") in
  let budget =
    Arg.(value & opt int 100 & info [ "iterations" ] ~docv:"N"
           ~doc:"Outer-loop iterations the application will run.")
  in
  Cmd.v
    (Cmd.info "guide" ~doc:"Section 7 guidance: pick a composition at runtime")
    Term.(
      const (fun trace bench ds budget scale steps ->
          setup_trace trace;
          run_guide bench ds budget scale steps)
      $ trace_arg $ bench $ ds $ budget $ scale_arg $ steps_arg)

let codegen_cmd =
  let bench =
    Arg.(value & opt string "moldyn" & info [ "bench" ] ~docv:"KERNEL")
  in
  let ds = Arg.(value & opt string "mol1" & info [ "dataset" ] ~docv:"DATA") in
  let plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Also print the Tier B specialized executor source for this \
             plan's frozen schedule on the real dataset: a plan name from \
             the candidate space (e.g. $(b,CLCL+FST)). This is the exact \
             OCaml module $(b,--specialize) compiles and Dynlinks.")
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Generated specialized inspector/executor pseudo-code")
    Term.(
      const (fun trace bench ds plan scale ->
          setup_trace trace;
          run_codegen bench ds plan scale)
      $ trace_arg $ bench $ ds $ plan $ scale_arg)

let symbolic_cmd =
  Cmd.v
    (Cmd.info "symbolic" ~doc:"Section 5 symbolic composition report")
    Term.(
      const (fun trace () ->
          setup_trace trace;
          Rtrt_obs.Span.with_ ~name:"symbolic.report" run_symbolic)
      $ trace_arg $ const ())

let json_cmd =
  let figure =
    let names =
      [ "datasets"; "figure6"; "figure7"; "figure8"; "figure9"; "figure16";
        "figure17" ]
    in
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun n -> (n, n)) names))) None
      & info [] ~docv:"FIGURE"
          ~doc:
            "One of: datasets, figure6, figure7, figure8, figure9, figure16, \
             figure17.")
  in
  Cmd.v
    (Cmd.info "json"
       ~doc:"Emit one figure's rows as JSON on stdout (pipe into jq)")
    Term.(
      const (fun trace cache_dir figure domains scale steps ->
          setup_trace trace;
          run_json ?cache_dir figure domains scale steps)
      $ trace_arg $ plan_cache_arg $ figure $ domains_arg $ scale_arg
      $ steps_arg)

let bench_cmd =
  let suites = Harness.Suite.all in
  (* [enum] compares its values with [compare], which decides two
     suites on their distinct names before it reaches a closure. *)
  let only =
    Arg.(
      value
      & opt (enum (List.map (fun s -> (s.Harness.Suite.name, s)) suites))
          (List.hd suites)
      & info [ "only" ] ~docv:"TABLE"
          ~doc:
            ("Which wall-clock table to run. "
            ^ String.concat " "
                (List.map
                   (fun s ->
                     Fmt.str "$(b,%s): %s." s.Harness.Suite.name
                       s.Harness.Suite.doc)
                   suites)))
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            ("Path for the JSON results (default, by table: "
            ^ String.concat ", "
                (List.map Harness.Suite.default_out suites)
            ^ ")."))
  in
  let scale =
    Arg.(
      value
      & opt (some int) None
      & info [ "scale" ] ~docv:"N"
          ~doc:
            ("Dataset scale divisor (1 = full size; default, by table, the \
              scale its baseline in bench/baselines/ was recorded at: "
            ^ String.concat ", "
                (List.map
                   (fun s ->
                     Fmt.str "%s %d" s.Harness.Suite.name
                       s.Harness.Suite.scale)
                   suites)
            ^ ")."))
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run one wall-clock bench table and write its BENCH_*.json")
    Term.(
      const (fun trace specialize suite out domains scale ->
          setup_trace trace;
          setup_specialize specialize;
          Harness.Suite.run ?scale ~domains ?out suite)
      $ trace_arg $ specialize_arg $ only $ out $ domains_arg $ scale)

let bench_diff_cmd =
  let old_path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD.json" ~doc:"Baseline BENCH_*.json.")
  in
  let new_path =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW.json" ~doc:"Candidate BENCH_*.json.")
  in
  let tolerance =
    Arg.(
      value
      & opt float 0.1
      & info [ "tolerance" ] ~docv:"REL"
          ~doc:
            "Relative tolerance before a gated metric's change counts as a \
             regression or improvement (0.1 = 10%).")
  in
  let ratios_only =
    Arg.(
      value
      & flag
      & info [ "ratios-only" ]
          ~doc:
            "Gate only on dimensionless or modeled metrics (speedups, \
             normalized ratios, identity booleans) — absolute timings still \
             print but cannot fail the diff. For CI, where baseline and \
             candidate ran on different machines.")
  in
  let all =
    Arg.(
      value
      & flag
      & info [ "all" ]
          ~doc:"Print every metric row, including unchanged informational ones.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two BENCH_*.json files metric-by-metric; exit 1 on \
          regression")
    Term.(
      const run_bench_diff $ old_path $ new_path $ tolerance $ ratios_only
      $ all)

let trace_report_cmd =
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TRACE.jsonl"
          ~doc:
            "JSONL trace to summarize (as written by RTRT_TRACE=jsonl:PATH). \
             When omitted, a fresh instrumented moldyn/mol1 suite run is \
             captured and reported.")
  in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:"Summarize a span trace: total vs self time per span name")
    Term.(const run_trace_report $ file $ scale_arg $ steps_arg)

let all_cmd = cmd_of ~name:"all" ~doc:"Run every experiment" run_all

let () =
  let info =
    Cmd.info "rtrt" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Compile-time Composition of Run-time Data and \
         Iteration Reorderings' (PLDI 2003)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            datasets_cmd; figure6_cmd; figure7_cmd; figure8_cmd; figure9_cmd;
            figure16_cmd; figure17_cmd; symbolic_cmd; raw_cmd; autotune_cmd;
            ablations_cmd; churn_cmd; codegen_cmd; gs_cmd; guide_cmd;
            export_cmd;
            bench_cmd; bench_diff_cmd; json_cmd; trace_report_cmd; all_cmd;
          ]))
