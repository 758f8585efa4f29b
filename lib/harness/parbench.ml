(* Parallel speedup table: serial vs pool execution of the Full-growth
   tiled executors, with the Tile_par makespan model's prediction
   alongside. Run by `rtrt bench --only par`; the JSON lands in
   BENCH_PAR.json for the CI perf trajectory. *)

module T = Table

let measure ~machine ~(config : Figures.config) () =
  let exec_rows, profile =
    Rtrt_obs.Profile.record ~name:"executor_time" (fun () ->
        Figures.executor_time ~machine ~config ())
  in
  let pars =
    List.concat_map
      (fun (r : Figures.exec_row) ->
        List.map
          (fun (plan, p) -> (r.Figures.bench, r.Figures.dataset, plan, p))
          r.Figures.per_plan_par)
      exec_rows
  in
  (* Every row must have run on the same pool width as configured —
     the figure driver threads one pool through the whole table, so a
     row with a different lane count means a pool was silently
     recreated (the per-row spawn cost this table exists to avoid). *)
  let lane_count_stable =
    List.for_all
      (fun (_, _, _, p) -> p.Experiment.domains = config.Figures.domains)
      pars
  in
  if not lane_count_stable then
    invalid_arg "Parbench.measure: lane count varied across rows";
  let row (bench, dataset, plan, (p : Experiment.par_measurement)) =
    T.row
      ~notes:[ ("tier", p.par_tier) ]
      [ ("bench", bench); ("dataset", dataset); ("plan", plan) ]
      [
        T.info "domains" "domains" (float_of_int p.domains);
        T.lower "serial_seconds_per_step" "s" p.serial_seconds_per_step;
        T.lower "par_seconds_per_step" "s" p.par_seconds_per_step;
        T.higher "measured_speedup" "ratio" p.measured_speedup;
        T.higher "modeled_speedup" "ratio" p.modeled_speedup;
        T.info "modeled_makespan" "tiles" (float_of_int p.modeled_makespan);
        T.flag T.Higher "bitwise_equal" p.bitwise_equal;
        T.count "batch" p.par_batch;
        T.lower "modeled_par_seconds_per_step" "s"
          p.modeled_par_seconds_per_step;
        T.lower "barrier_cost_ns" "ns" p.barrier_cost_ns;
        T.lower "dispatch_wait_ns_per_step" "ns" p.dispatch_wait_ns_per_step;
        T.lower "barrier_wait_ns_per_step" "ns" p.barrier_wait_ns_per_step;
      ]
  in
  {
    T.name = "par";
    rows =
      T.row []
        [
          T.info "domains" "domains" (float_of_int config.Figures.domains);
          T.info "scale" "divisor" (float_of_int config.Figures.scale);
          T.flag T.Info "lane_count_stable" lane_count_stable;
        ]
      :: List.map row pars
      @ T.profile_rows [ profile ];
  }
