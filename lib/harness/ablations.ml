(* Ablation studies for the design choices DESIGN.md calls out:

   A1 data-reordering algorithm (CPACK / RCM / Gpart / Morton SFC),
      each followed by lexGroup;
   A2 FST seed partitioning: block vs Gpart-derived seed;
   A3 FST seed loop: the interaction loop (paper) vs loop 0;
   A4 inter-array regrouping on/off for the baseline layout;
   A5 symmetric-dependence elision on/off (inspector time);
   A6 tile-level parallelism of the sparse-tiled schedules
      (Sections 2.3/4).

   All report modeled misses per time step on a given machine, except
   A5 (inspector seconds), A6 (parallelism statistics) and A7 (modeled
   cycles). Each ablation is one section of rows, one row per
   variant. *)

module T = Table

let rows section variants =
  List.map
    (fun (variant, metrics) ->
      T.row [ ("section", section); ("variant", variant) ] metrics)
    variants

let misses_metric v = T.lower "misses_per_step" "misses/step" v
let inspector_metric v = T.lower "inspector_seconds" "s" v

(* One plan's modeled misses per step and inspector seconds. *)
let measured ~machine ~config kernel (label, plan) =
  let m =
    Experiment.measure ~trace_steps_n:config.Figures.trace_steps
      ~wall_steps:1 ~machine ~plan kernel
  in
  ( label,
    [
      misses_metric m.Experiment.misses_per_step;
      inspector_metric m.Experiment.inspector_seconds;
    ] )

let misses ?layout_of ~machine ~config ~plan kernel =
  (Experiment.measure ?layout_of
     ~trace_steps_n:config.Figures.trace_steps
     ~wall_steps:1 ~machine ~plan kernel)
    .Experiment.misses_per_step

(* A1: data-reordering algorithms, composed with lexGroup. The SFC
   reordering is applied directly (it needs coordinates, which the
   framework cannot derive — related work). *)
let data_reorderings ~machine ~config (dataset : Datagen.Dataset.t) =
  let kernel = Kernels.Irreg.of_dataset dataset in
  let gpart_size = Figures.gpart_size_for ~target_bytes:machine.Cachesim.Machine.l1_size kernel in
  let lex = Compose.Transform.Iter_reorder Compose.Transform.Lexgroup in
  let plan_rows =
    [
      ("base", Compose.Plan.base);
      ("cpack + lexGroup", Compose.Plan.cpack_lexgroup);
      ( "rcm + lexGroup",
        Compose.Plan.make ~name:"RL"
          [ Compose.Transform.Data_reorder Compose.Transform.Rcm; lex ] );
      ("gpart + lexGroup", Compose.Plan.gpart_lexgroup ~part_size:gpart_size);
      ( "multilevel + lexGroup",
        Compose.Plan.make ~name:"ML"
          [
            Compose.Transform.Data_reorder
              (Compose.Transform.Multilevel { part_size = gpart_size });
            lex;
          ] );
    ]
    |> List.map (measured ~machine ~config kernel)
  in
  (* Morton ordering from coordinates, then lexGroup via the plan
     machinery on the pre-permuted kernel. *)
  let sfc_row =
    match dataset.Datagen.Dataset.coords with
    | None -> []
    | Some coords ->
      let sigma = Reorder.Sfc_reorder.run coords in
      let kernel' = kernel.Kernels.Kernel.apply_data_perm sigma in
      let plan =
        Compose.Plan.make ~name:"SFC+L" [ lex ]
      in
      [
        ( "morton sfc + lexGroup",
          [ misses_metric (misses ~machine ~config ~plan kernel') ] );
      ]
  in
  rows "A1: data reordering algorithm (irreg)" (plan_rows @ sfc_row)

(* A2: block vs Gpart seed for full sparse tiling after CL. *)
let seed_partitioning ~machine ~config (dataset : Datagen.Dataset.t) =
  let kernel = Kernels.Irreg.of_dataset dataset in
  let target_bytes = machine.Cachesim.Machine.l1_size in
  let seed_size = Figures.seed_size_for ~target_bytes kernel in
  let fst_with seed =
    Compose.Plan.make ~name:"CL+FST"
      (Compose.Plan.transforms Compose.Plan.cpack_lexgroup
      @ [
          Compose.Transform.Sparse_tile { growth = Compose.Transform.Full; seed };
          Compose.Transform.Data_reorder Compose.Transform.Tile_pack;
        ])
  in
  let variants =
    [
      ( "block seed",
        fst_with (Compose.Transform.Seed_block { part_size = seed_size }) );
      ( "gpart seed",
        fst_with
          (Compose.Transform.Seed_gpart
             { part_size = Figures.gpart_size_for ~target_bytes kernel }) );
    ]
  in
  rows "A2: FST seed partitioning (irreg, after CL)"
    (List.map
       (fun (label, plan) ->
         (label, [ misses_metric (misses ~machine ~config ~plan kernel) ]))
       variants)

(* A3: seeding the chain on the interaction loop (the paper's choice
   after CL/GL) vs on loop 0. Implemented directly over the sparse
   tiling primitives since the Transform layer always seeds the
   interaction loop. *)
let seed_loop ~machine ~config (dataset : Datagen.Dataset.t) =
  let kernel = Kernels.Moldyn.of_dataset dataset in
  let result = Experiment.inspect Compose.Plan.cpack_lexgroup kernel in
  let kernel = result.Compose.Inspector.kernel in
  let target_bytes = machine.Cachesim.Machine.l1_size in
  let seed_size = Figures.seed_size_for ~target_bytes kernel in
  let chain = kernel.Kernels.Kernel.chain_of_access kernel.Kernels.Kernel.access in
  let tiled_misses seed_loop part_size =
    let seed =
      Reorder.Sparse_tile.tile_fn_of_partition
        (Irgraph.Partition.block
           ~n:kernel.Kernels.Kernel.loop_sizes.(seed_loop)
           ~part_size)
    in
    let tiles = Reorder.Sparse_tile.full ~chain ~seed:seed_loop ~seed_tiles:seed () in
    let sched = Reorder.Schedule.of_tile_fns tiles in
    let hierarchy = Cachesim.Machine.hierarchy machine in
    let access = Cachesim.Hierarchy.access hierarchy in
    let layout = Kernels.Kernel.layout kernel in
    kernel.Kernels.Kernel.run_tiled_traced sched ~steps:1 ~layout ~access;
    Cachesim.Hierarchy.reset_counters hierarchy;
    kernel.Kernels.Kernel.run_tiled_traced sched
      ~steps:config.Figures.trace_steps ~layout ~access;
    float_of_int (Cachesim.Hierarchy.l1_misses hierarchy)
    /. float_of_int config.Figures.trace_steps
  in
  rows "A3: FST seed loop (moldyn, after CL)"
    [
      ( "seed on j (interaction loop)",
        [
          misses_metric
            (tiled_misses kernel.Kernels.Kernel.seed_loop seed_size);
        ] );
      ( "seed on i (loop 0)",
        [
          misses_metric
            (tiled_misses 0 (Figures.gpart_size_for ~target_bytes kernel / 4));
        ] );
    ]

(* A4: inter-array regrouping on/off. *)
let regrouping ~machine ~config (dataset : Datagen.Dataset.t) =
  let kernel = Kernels.Moldyn.of_dataset dataset in
  let row label layout_of plan =
    (label, [ misses_metric (misses ~layout_of ~machine ~config ~plan kernel) ])
  in
  rows "A4: inter-array regrouping (moldyn)"
    [
      row "base, regrouped" Kernels.Kernel.layout Compose.Plan.base;
      row "base, separate arrays" Kernels.Kernel.layout_separate Compose.Plan.base;
      row "CL, regrouped" Kernels.Kernel.layout Compose.Plan.cpack_lexgroup;
      row "CL, separate arrays" Kernels.Kernel.layout_separate
        Compose.Plan.cpack_lexgroup;
    ]

(* A5: symmetric-dependence elision (Section 6), inspector seconds.
   Measured on a bare FST plan so the elided dependence traversal is
   not drowned by the data-reordering inspectors. *)
let symmetric_sharing ~config (dataset : Datagen.Dataset.t) =
  ignore config;
  let kernel = Kernels.Moldyn.of_dataset dataset in
  let plan =
    Compose.Plan.with_fst ~tile_pack:false ~seed_part_size:64 Compose.Plan.base
  in
  let best share =
    let run () =
      (Compose.Inspector.run ~share_symmetric_deps:share plan kernel)
        .Compose.Inspector.inspector_seconds
    in
    let r = ref (run ()) in
    for _ = 1 to 4 do
      r := min !r (run ())
    done;
    !r
  in
  rows "A5: symmetric-dependence elision (moldyn FST inspector)"
    [
      ("traverse both dependence sets", [ inspector_metric (best false) ]);
      ("traverse one (shared)", [ inspector_metric (best true) ]);
    ]

(* A6: tile-level parallelism of the sparse-tiled schedule. *)
let tile_parallelism ~machine ~config (dataset : Datagen.Dataset.t) =
  ignore config;
  let kernel = Kernels.Irreg.of_dataset dataset in
  let target_bytes = machine.Cachesim.Machine.l1_size in
  let plan =
    Compose.Plan.with_fst ~tile_pack:false
      ~seed_part_size:(Figures.seed_size_for ~target_bytes kernel)
      Compose.Plan.cpack_lexgroup
  in
  let result = Experiment.inspect plan kernel in
  let k = result.Compose.Inspector.kernel in
  let sched = Option.get result.Compose.Inspector.schedule in
  let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
  let tiles =
    Compose.Legality.tile_fns_of_schedule sched
      ~loop_sizes:k.Kernels.Kernel.loop_sizes
  in
  let par = Reorder.Tile_par.analyze ~chain ~tiles in
  let conflicts =
    Reorder.Tile_par.shared_data_conflicts par ~access:k.Kernels.Kernel.access
      ~tile_of_iter:tiles.(k.Kernels.Kernel.seed_loop).Reorder.Sparse_tile.tile_of
  in
  rows "A6: tile-level parallelism (irreg, CL+FST)"
    [
      ( Compose.Plan.name plan,
        [
          T.count "tiles" par.Reorder.Tile_par.n_tiles;
          T.count "levels" par.Reorder.Tile_par.n_levels;
          T.higher "average_parallelism" "tiles/level"
            (Reorder.Tile_par.average_parallelism par);
          T.higher "speedup_4_processors" "ratio"
            (Reorder.Tile_par.speedup par ~processors:4);
          T.higher "speedup_16_processors" "ratio"
            (Reorder.Tile_par.speedup par ~processors:16);
          T.count "reduction_conflict_tile_pairs" conflicts;
        ] );
    ]

(* A7: sparse tiling across the outer time-stepping loop (Section 2.3
   "across an outer loop", via Compose.Timetile): trades extra L1
   misses (tile halos) for much less memory traffic. Modeled cycles on
   the given machine, GL baseline. *)
let time_tiling ~machine ~config (dataset : Datagen.Dataset.t) =
  let kernel = Kernels.Moldyn.of_dataset dataset in
  let target_bytes = machine.Cachesim.Machine.l1_size in
  let gl =
    Experiment.inspect
      (Compose.Plan.gpart_lexgroup
         ~part_size:(Figures.gpart_size_for ~target_bytes kernel))
      kernel
  in
  let k = gl.Compose.Inspector.kernel in
  let layout = Kernels.Kernel.layout k in
  let steps = 4 * config.Figures.trace_steps in
  let cycles run =
    let h = Cachesim.Machine.hierarchy machine in
    run ~access:(Cachesim.Hierarchy.access h);
    Cachesim.Hierarchy.modeled_cycles h
  in
  let plain =
    cycles (fun ~access -> k.Kernels.Kernel.run_traced ~steps ~layout ~access)
  in
  let tiled depth =
    let tt = Compose.Timetile.tile k ~depth ~seed_part_size:64 in
    cycles (fun ~access ->
        Compose.Timetile.run_traced k tt ~total_steps:steps ~layout ~access)
  in
  let cycles_metric v = T.lower "modeled_cycles" "cycles" v in
  rows "A7: time-step sparse tiling (moldyn, after GL)"
    [
      ("GL, untiled steps", [ cycles_metric plain ]);
      ("GL + 2-step slabs", [ cycles_metric (tiled 2) ]);
      ("GL + 4-step slabs", [ cycles_metric (tiled 4) ]);
    ]

(* A8: the two sparse tiling growth strategies (Section 2.3): full
   sparse tiling (side-by-side growth) vs cache blocking (shrinking
   partitions + leftover tile). *)
let tiling_growth ~machine ~config (dataset : Datagen.Dataset.t) =
  let kernel = Kernels.Moldyn.of_dataset dataset in
  let target_bytes = machine.Cachesim.Machine.l1_size in
  let seed = Figures.seed_size_for ~target_bytes kernel in
  let row label plan =
    (label, [ misses_metric (misses ~machine ~config ~plan kernel) ])
  in
  rows "A8: sparse-tile growth strategy (moldyn, after CL)"
    [
      row "full sparse tiling"
        (Compose.Plan.with_fst ~seed_part_size:seed Compose.Plan.cpack_lexgroup);
      row "cache blocking"
        (Compose.Plan.with_cache_block
           ~seed_part_size:(Figures.gpart_size_for ~target_bytes kernel / 4)
           Compose.Plan.cpack_lexgroup);
    ]

(* A9: dependence-free iteration-reordering algorithms after CPACK
   (Section 2.2: the paper picked lexGroup for its
   performance-to-overhead trade-off). *)
let iter_reorderings ~machine ~config (dataset : Datagen.Dataset.t) =
  let kernel = Kernels.Irreg.of_dataset dataset in
  let plan_with name alg =
    Compose.Plan.make ~name
      [ Compose.Transform.Data_reorder Compose.Transform.Cpack;
        Compose.Transform.Iter_reorder alg ]
  in
  rows "A9: iteration-reordering algorithm (irreg, after CPACK)"
    (List.map
       (measured ~machine ~config kernel)
       [
         ("cpack only", Compose.Plan.cpack);
         ("+ lexGroup", plan_with "C+lg" Compose.Transform.Lexgroup);
         ("+ lexSort", plan_with "C+ls" Compose.Transform.Lexsort);
         ( "+ bucket tiling",
           plan_with "C+bt"
             (Compose.Transform.Bucket_tile
                { bucket_size = machine.Cachesim.Machine.l1_size / 16 / 2 }) );
       ])

let all ~machine ~config () =
  let foil = Option.get (Datagen.Generators.by_name ~scale:config.Figures.scale "foil") in
  let mol1 = Option.get (Datagen.Generators.by_name ~scale:config.Figures.scale "mol1") in
  {
    T.name = "ablations";
    rows =
      List.concat
        [
          data_reorderings ~machine ~config foil;
          seed_partitioning ~machine ~config foil;
          seed_loop ~machine ~config mol1;
          regrouping ~machine ~config mol1;
          symmetric_sharing ~config mol1;
          tile_parallelism ~machine ~config foil;
          time_tiling ~machine ~config mol1;
          tiling_growth ~machine ~config mol1;
          iter_reorderings ~machine ~config foil;
        ];
  }
