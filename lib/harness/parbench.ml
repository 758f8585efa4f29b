(* Parallel speedup table: serial vs pool execution of the Full-growth
   tiled executors, with the Tile_par makespan model's prediction
   alongside. Run by `rtrt bench --only par`; the JSON lands in
   BENCH_PAR.json for the CI perf trajectory. *)

module T = Table

let measure ~machine ~(config : Figures.config) () =
  let cells, profile =
    Rtrt_obs.Profile.record ~name:"executor_time" (fun () ->
        Figures.measure_pairings ~machine ~config ())
  in
  let rows =
    List.concat_map
      (fun (bench, dataset, ms) ->
        List.filter_map
          (fun (m : Experiment.measurement) ->
            Option.map
              (fun (p : Experiment.par_measurement) ->
                (* The figure driver threads one pool through the whole
                   table, so a row with a different lane count means a
                   pool was silently recreated (the per-row spawn cost
                   this table exists to avoid). *)
                if p.Experiment.domains <> config.Figures.domains then
                  invalid_arg "Parbench.measure: lane count varied across rows";
                let notes, metrics = Experiment.par_cells p in
                T.row ~notes
                  [ ("bench", bench); ("dataset", dataset);
                    ("plan", m.Experiment.plan_name) ]
                  metrics)
              m.Experiment.par)
          ms)
      cells
  in
  {
    T.name = "par";
    rows =
      T.row []
        [
          T.info "domains" "domains" (float_of_int config.Figures.domains);
          T.info "scale" "divisor" (float_of_int config.Figures.scale);
        ]
      :: rows
      @ T.profile_rows [ profile ];
  }
