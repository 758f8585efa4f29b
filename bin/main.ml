(* Command-line driver regenerating every measured figure/table of the
   paper (see DESIGN.md for the experiment index):

     rtrt datasets            Section 2.4 dataset table
     rtrt figure6 / figure7   normalized executor time (Power3 / P4)
     rtrt figure8 / figure9   inspector amortization
     rtrt figure16            remap-once overhead reduction
     rtrt figure17            cache-size-target parameter sweep
     rtrt symbolic            Section 5 symbolic composition report
     rtrt codegen             Figures 10-15 generated pseudo-code
     rtrt gs                  Gauss-Seidel sparse tiling (E-GS)
     rtrt guide               Section 7 runtime composition selection
     rtrt ablations           design-choice ablations A1-A9
     rtrt raw                 absolute counts for one configuration
     rtrt autotune            cost-model plan search for one configuration
     rtrt churn               repair-vs-cold re-inspection under graph churn
     rtrt bench               one wall-clock table and its BENCH_*.json
                              (--only hotpath|inspector|autotune|churn|
                               plancache)
     rtrt bench-diff          regression gate between two BENCH_*.json files
     rtrt json                one figure's table as rtrt.table/1 JSON
     rtrt trace-report        span-tree summary of a JSONL trace
     rtrt all                 the figure suite end to end

   Every command honours RTRT_TRACE (pretty | jsonl[:PATH]) and the
   --trace flag; see the README's Observability section. Every command
   runs the serial executor; Section 4's tile-level parallelism is
   modeled (rtrt gs, ablation A6), not run. *)

open Cmdliner

let config_of ?cache_dir ~scale ~steps () =
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

let scale_arg =
  let doc =
    "Dataset scale divisor: node counts are the paper's divided by this \
     (1 = full size)."
  in
  Arg.(value & opt int 16 & info [ "scale" ] ~docv:"N" ~doc)

let steps_arg =
  let doc = "Time steps measured by the cache model." in
  Arg.(value & opt int 2 & info [ "steps" ] ~docv:"S" ~doc)

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

(* One figure of Harness.Figures.all, printed as a table. *)
let run_figure (f : Harness.Figures.figure) ?cache_dir scale steps =
  let config = config_of ?cache_dir ~scale ~steps () in
  Fmt.pr "%s@.%a@." f.Harness.Figures.doc Harness.Table.pp
    (f.Harness.Figures.table config)

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

let run_raw ?cache_dir bench ds machine_name plan scale steps =
  let config = config_of ?cache_dir ~scale ~steps () in
  let machine = machine_of machine_name in
  let dataset, kernel = kernel_of ~scale bench ds in
  Fmt.pr "%a; kernel %s (%d B/node)@." Datagen.Dataset.pp dataset bench
    (Kernels.Kernel.bytes_per_node kernel);
  let measurements =
    match plan with
    | None -> Harness.Figures.run_suite ~machine ~config kernel
    | Some which ->
      let cache = config.Harness.Figures.plan_cache in
      let plan =
        if which = "auto" then begin
          let tuned = tuned_of config in
          let result =
            Harness.Autotune.tune ?cache ~tuned
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
      [
        Harness.Experiment.measure ?cache
          ~trace_steps_n:config.Harness.Figures.trace_steps
          ~wall_steps:config.Harness.Figures.wall_steps ~machine ~plan kernel;
      ]
  in
  Fmt.pr "%a" Harness.Table.pp
    {
      Harness.Table.name = "raw";
      rows = List.map Harness.Experiment.row measurements;
    }

let run_autotune ?cache_dir bench ds machine_name scale steps =
  let config = config_of ?cache_dir ~scale ~steps () in
  let machine = machine_of machine_name in
  let dataset, kernel = kernel_of ~scale bench ds in
  Fmt.pr "Autotune: %a; kernel %s on %a@." Datagen.Dataset.pp dataset bench
    Cachesim.Machine.pp machine;
  let tuned = tuned_of config in
  let result =
    Harness.Autotune.tune ?cache:config.Harness.Figures.plan_cache ~tuned
      ~trace_steps:config.Harness.Figures.trace_steps ~machine kernel
  in
  Fmt.pr "%a@." Harness.Autotune.pp_result result

let run_ablations scale steps =
  let config = config_of ~scale ~steps () in
  Fmt.pr "Ablations (see DESIGN.md section 5):@.";
  Fmt.pr "%a" Harness.Table.pp
    (Harness.Ablations.all ~machine:Cachesim.Machine.pentium4 ~config ())

let run_symbolic () =
  Fmt.pr "Section 5: symbolic composition for simplified moldyn@.@.";
  let plan =
    Compose.Plan.with_fst ~seed_part_size:64 Compose.Plan.cpack_lexgroup_twice
  in
  Fmt.pr "plan: %a@.@." Compose.Plan.pp plan;
  (* A program depends only on the kernel's declaration, so any
     dataset gives the same one. *)
  let _, moldyn = kernel_of ~scale:512 "moldyn" "mol1" in
  let st =
    Compose.Symbolic.(apply (create (program_of moldyn)) plan)
  in
  Fmt.pr "%a@." Compose.Symbolic.pp_report st

let run_gs scale =
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
  (* Section 4 models this parallelism rather than running it: the
     tile DAG's and the wavefront's makespans at a fixed processor
     count. *)
  let processors = 4 in
  let dag = Kernels.Gauss_seidel.tile_dag graph' tiling in
  Fmt.pr "  tile DAG: %a, modeled speedup %.2fx on %d processors@."
    Reorder.Tile_par.pp dag
    (Reorder.Tile_par.speedup dag ~processors)
    processors;
  let w = Reorder.Wavefront.run (Kernels.Gauss_seidel.wavefront_preds graph') in
  Fmt.pr "  wavefront: %a, modeled speedup %.2fx on %d processors@."
    Reorder.Wavefront.pp w
    (float_of_int n /. float_of_int (Reorder.Wavefront.makespan w ~processors))
    processors

let run_guide bench ds budget scale steps =
  let machine = Cachesim.Machine.pentium4 in
  let _, kernel = kernel_of ~scale bench ds in
  Fmt.pr
    "Section 7 guidance: ranking compositions for %s/%s over %d outer \
     iterations on %a@.@."
    bench ds budget Cachesim.Machine.pp machine;
  Fmt.pr "%a" Harness.Table.pp
    (Harness.Autotune.guide ~trace_steps:steps ~machine ~iterations:budget
       ~plans:(Harness.Figures.suite_for ~machine kernel)
       kernel)

let run_json (f : Harness.Figures.figure) ?cache_dir scale steps =
  let config = config_of ?cache_dir ~scale ~steps () in
  print_string (Harness.Table.to_string (f.Harness.Figures.table config))

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

let run_churn scale steps =
  let table = Harness.Churnbench.measure ~rounds:(max 2 steps) ~scale () in
  Fmt.pr
    "Repair vs cold re-inspection under graph churn (degree-preserving \
     rewires):@.";
  Fmt.pr "%a" Harness.Table.pp table

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
  let _, kernel = kernel_of ~scale bench ds in
  let program = Compose.Symbolic.program_of kernel in
  let plan =
    match plan_name with
    | None ->
      Compose.Plan.with_fst ~seed_part_size:64
        Compose.Plan.cpack_lexgroup_twice
    | Some which -> (
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
  print_string (Compose.Codegen.full_report st ~program)

let run_all ?cache_dir scale steps =
  run_symbolic ();
  List.iter (fun f -> run_figure f ?cache_dir scale steps) Harness.Figures.all

let cmd_of ~name ~doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun trace cache_dir scale steps ->
          setup_trace trace;
          f ?cache_dir scale steps)
      $ trace_arg $ plan_cache_arg $ scale_arg $ steps_arg)

let figure_cmds =
  List.map
    (fun (f : Harness.Figures.figure) ->
      cmd_of ~name:f.Harness.Figures.name ~doc:f.Harness.Figures.doc
        (run_figure f))
    Harness.Figures.all

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
      const (fun trace cache_dir bench ds machine plan scale steps ->
          setup_trace trace;
          run_raw ?cache_dir bench ds machine plan scale steps)
      $ trace_arg $ plan_cache_arg $ bench $ ds $ machine $ plan $ scale_arg
      $ steps_arg)

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
          score every candidate with the cache model and report the \
          winner. With --plan-cache, winners persist on disk and replay on \
          repeat runs.")
    Term.(
      const (fun trace cache_dir bench ds machine scale steps ->
          setup_trace trace;
          run_autotune ?cache_dir bench ds machine scale steps)
      $ trace_arg $ plan_cache_arg $ bench $ ds $ machine $ scale_arg
      $ steps_arg)

let ablations_cmd =
  Cmd.v
    (Cmd.info "ablations" ~doc:"Design-choice ablations")
    Term.(
      const (fun trace scale steps ->
          setup_trace trace;
          run_ablations scale steps)
      $ trace_arg $ scale_arg $ steps_arg)

let churn_cmd =
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Repair composed plans under graph churn instead of re-inspecting: \
          rewire 1/2/5/10% of interactions (degree-preserving), repair the \
          frozen plan incrementally, and compare against a true cold \
          re-inspection (--steps sets the chained churn rounds per cell).")
    Term.(
      const (fun trace scale steps ->
          setup_trace trace;
          run_churn scale steps)
      $ trace_arg $ scale_arg $ steps_arg)

let gs_cmd =
  Cmd.v
    (Cmd.info "gs" ~doc:"Gauss-Seidel sparse tiling (E-GS)")
    Term.(
      const (fun trace scale ->
          setup_trace trace;
          run_gs scale)
      $ trace_arg $ scale_arg)

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
            "The plan to report, a name from the candidate space (e.g. \
             $(b,CLCL+FST)); the default is CLCL+FST.")
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
      List.map (fun f -> f.Harness.Figures.name) Harness.Figures.all
    in
    (* [enum] compares its values with [compare], which decides two
       figures on their distinct names before it reaches a closure. *)
    Arg.(
      required
      & pos 0
          (some
             (enum
                (List.map
                   (fun f -> (f.Harness.Figures.name, f))
                   Harness.Figures.all)))
          None
      & info [] ~docv:"FIGURE"
          ~doc:("One of: " ^ String.concat ", " names ^ "."))
  in
  Cmd.v
    (Cmd.info "json"
       ~doc:
         "Print one figure's table as rtrt.table/1 JSON on stdout (one row per \
          line; rtrt bench-diff compares two of them)")
    Term.(
      const (fun trace cache_dir figure scale steps ->
          setup_trace trace;
          run_json figure ?cache_dir scale steps)
      $ trace_arg $ plan_cache_arg $ figure $ scale_arg $ steps_arg)

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
      const (fun trace suite out scale ->
          setup_trace trace;
          Harness.Suite.run ?scale ?out suite)
      $ trace_arg $ only $ out $ scale)

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
            "Gate only on metrics whose declared unit is dimensionless \
             ($(b,ratio) or $(b,bool): speedups, normalized ratios, identity \
             flags) — absolute timings still print but cannot fail the diff. \
             For CI, where baseline and candidate ran on different machines.")
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
         "Compare two BENCH_*.json tables metric-by-metric, in the direction \
          each metric declares; exit 1 on a regression, a gated metric \
          missing or not finite, exit 2 on a file that is not a table")
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
          (figure_cmds
          @ [
              symbolic_cmd; raw_cmd; autotune_cmd; ablations_cmd; churn_cmd;
              codegen_cmd; gs_cmd; guide_cmd; bench_cmd; bench_diff_cmd;
              json_cmd; trace_report_cmd; all_cmd;
            ])))
