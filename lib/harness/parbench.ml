(* Parallel speedup table: serial vs pool execution of the Full-growth
   tiled executors, with the Tile_par makespan model's prediction
   alongside. Run by `rtrt bench --only par`; the JSON lands in
   BENCH_PAR.json for the CI perf trajectory. *)

type row = {
  pb_bench : string;
  pb_dataset : string;
  pb_plan : string;
  pb_par : Experiment.par_measurement;
}

type report = {
  rep_domains : int;
  rep_scale : int;
  rep_lane_count_stable : bool;
  rows : row list;
  rep_profile : Rtrt_obs.Profile.phase list;
}

let measure ~machine ~(config : Figures.config) () =
  let exec_rows, profile =
    Rtrt_obs.Profile.record ~name:"executor_time" (fun () ->
        Figures.executor_time ~machine ~config ())
  in
  let rows =
    List.concat_map
      (fun (r : Figures.exec_row) ->
        List.map
          (fun (plan, p) ->
            {
              pb_bench = r.Figures.bench;
              pb_dataset = r.Figures.dataset;
              pb_plan = plan;
              pb_par = p;
            })
          r.Figures.per_plan_par)
      exec_rows
  in
  (* Every row must have run on the same pool width as configured —
     the figure driver threads one pool through the whole table, so a
     row with a different lane count means a pool was silently
     recreated (the per-row spawn cost this report exists to avoid). *)
  let lane_count_stable =
    List.for_all (fun row -> row.pb_par.Experiment.domains = config.Figures.domains) rows
  in
  if not lane_count_stable then
    invalid_arg "Parbench.measure: lane count varied across rows";
  {
    rep_domains = config.Figures.domains;
    rep_scale = config.Figures.scale;
    rep_lane_count_stable = lane_count_stable;
    rows;
    rep_profile = [ profile ];
  }

let json_of_report r =
  Rtrt_obs.Json.(
    Obj
      [
        ("domains", Int r.rep_domains);
        ("scale", Int r.rep_scale);
        ("lane_count_stable", Bool r.rep_lane_count_stable);
        ( "rows",
          List
            (List.map
               (fun row ->
                 let p = row.pb_par in
                 Obj
                   [
                     ("bench", String row.pb_bench);
                     ("dataset", String row.pb_dataset);
                     ("plan", String row.pb_plan);
                     ("domains", Int p.Experiment.domains);
                     ( "serial_seconds_per_step",
                       Float p.Experiment.serial_seconds_per_step );
                     ( "par_seconds_per_step",
                       Float p.Experiment.par_seconds_per_step );
                     ("measured_speedup", Float p.Experiment.measured_speedup);
                     ("modeled_speedup", Float p.Experiment.modeled_speedup);
                     ("modeled_makespan", Int p.Experiment.modeled_makespan);
                     ("bitwise_equal", Bool p.Experiment.bitwise_equal);
                     ("tier", String p.Experiment.par_tier);
                     ("batch", Int p.Experiment.par_batch);
                     ( "modeled_par_seconds_per_step",
                       Float p.Experiment.modeled_par_seconds_per_step );
                     ("barrier_cost_ns", Float p.Experiment.barrier_cost_ns);
                     ( "dispatch_wait_ns_per_step",
                       Float p.Experiment.dispatch_wait_ns_per_step );
                     ( "barrier_wait_ns_per_step",
                       Float p.Experiment.barrier_wait_ns_per_step );
                   ])
               r.rows) );
        ("profile", Rtrt_obs.Profile.json_of_phases r.rep_profile);
      ])

let pp_report ppf r =
  Fmt.pf ppf "domains %d, scale %d@." r.rep_domains r.rep_scale;
  List.iter
    (fun row ->
      let p = row.pb_par in
      Fmt.pf ppf
        "  %-8s %-6s %-24s %5.2fx measured (modeled %5.2fx, makespan %d) \
         [%s, batch %d, dispatch %.0fns/step, barrier %.0fns/step] %s@."
        row.pb_bench row.pb_dataset row.pb_plan
        p.Experiment.measured_speedup p.Experiment.modeled_speedup
        p.Experiment.modeled_makespan p.Experiment.par_tier
        p.Experiment.par_batch p.Experiment.dispatch_wait_ns_per_step
        p.Experiment.barrier_wait_ns_per_step
        (if p.Experiment.bitwise_equal then "bitwise equal"
         else "OUTPUT DIFFERS");
      ())
    r.rows;
  if r.rows = [] then
    Fmt.pf ppf "  (no Full-growth sparse-tiled plans produced a schedule)@.";
  (* How often the auto-fallback ran serial because the pool's
     synchronization cost could not pay. *)
  let tally tier =
    List.length
      (List.filter (fun row -> row.pb_par.Experiment.par_tier = tier) r.rows)
  in
  Fmt.pf ppf "tier selection: %d parallel, %d serial (auto-fallback)@."
    (tally "parallel") (tally "serial")
