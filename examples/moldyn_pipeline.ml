(* The full evaluation pipeline on the moldyn benchmark: every standard
   composition of the paper (base, CPACK, CL, GL, CLCL, and the full
   sparse tiling extensions) measured against both machine models.

   This is Figures 6/7 for one benchmark/dataset pair, with raw counts.

   Run with: dune exec examples/moldyn_pipeline.exe *)

let () =
  let dataset = Datagen.Generators.mol1 ~scale:48 () in
  Fmt.pr "dataset: %a@." Datagen.Dataset.pp dataset;
  let kernel = Kernels.Moldyn.of_dataset dataset in
  Fmt.pr "kernel: moldyn, %d bytes per molecule (the paper's 72)@.@."
    (Kernels.Kernel.bytes_per_node kernel);

  let config =
    { Harness.Figures.scale = 48; trace_steps = 2; wall_steps = 3;
      plan_cache = None }
  in
  List.iter
    (fun machine ->
      Fmt.pr "--- %a ---@." Cachesim.Machine.pp machine;
      let measurements = Harness.Figures.run_suite ~machine ~config kernel in
      Fmt.pr "%a" Harness.Table.pp
        {
          Harness.Table.name = machine.Cachesim.Machine.name;
          rows = List.map Harness.Experiment.row measurements;
        };
      (match Harness.Experiment.normalize measurements with
      | [] -> ()
      | normalized ->
        Fmt.pr "normalized modeled cycles:@.";
        List.iter
          (fun ((m : Harness.Experiment.measurement), cycles, _) ->
            Fmt.pr "  %-10s %.3f@." m.Harness.Experiment.plan_name cycles)
          normalized);
      Fmt.pr "@.")
    [ Cachesim.Machine.power3; Cachesim.Machine.pentium4 ];

  (* The composed inspector's cost and the remap-once saving
     (Section 6 / Figure 16). *)
  let plan =
    Compose.Plan.with_fst ~seed_part_size:64 Compose.Plan.cpack_lexgroup_twice
  in
  let seconds strategy =
    (Compose.Inspector.run ~strategy plan kernel)
      .Compose.Inspector.inspector_seconds
  in
  let each = seconds Compose.Inspector.Remap_each in
  let once = seconds Compose.Inspector.Remap_once in
  Fmt.pr "inspector for %s: remap-each %.1f ms, remap-once %.1f ms (%.0f%% \
          less)@."
    (Compose.Plan.name plan) (1000.0 *. each) (1000.0 *. once)
    (100.0 *. (each -. once) /. each);

  (* Amortized inspection through the plan cache: the second run with
     the same (dataset, plan) pair replays the cached reordering
     functions instead of re-running the inspectors. *)
  let cache = Rtrt_plancache.Cache.create () in
  let cold = Compose.Inspector.run ~cache plan kernel in
  let warm = Compose.Inspector.run ~cache plan kernel in
  Fmt.pr "plan cache: cold inspection %.1f ms, warm replay %.1f ms@."
    (1000.0 *. cold.Compose.Inspector.inspector_seconds)
    (1000.0 *. warm.Compose.Inspector.inspector_seconds)
