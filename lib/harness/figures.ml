(* Reproduction drivers for every measured table/figure in the paper:

   - Section 2.4 dataset table          -> [dataset_table]
   - Figures 6/7 (normalized executor time, Power3 / Pentium 4)
                                        -> [executor_time ~machine]
   - Figures 8/9 (inspector amortization in outer-loop iterations)
                                        -> [amortization ~machine]
   - Figure 16 (% inspector-overhead reduction from remap-once)
                                        -> [remap_overhead]
   - Figure 17 (executor time vs cache-size target)
                                        -> [cache_target_sweep ~machine]

   Each driver returns a [Table.t]: one row per bench/dataset/plan (or
   cache target) after a summary row of the config, so the CLI's
   figure commands, [rtrt json] and the tests all read the same rows.
   [all] is the one list of figures behind them. *)

type config = {
  scale : int;       (* dataset node-count divisor; 1 = paper size *)
  trace_steps : int; (* time steps counted by the cache model *)
  wall_steps : int;  (* time steps for wall-clock measurement *)
  domains : int;     (* OCaml domains; > 1 runs tiled executors in parallel *)
  plan_cache : Rtrt_plancache.Cache.t option;
      (* inspections go through the plan cache when set *)
}

let default_config =
  { scale = 16; trace_steps = 2; wall_steps = 5; domains = 1;
    plan_cache = None }

(* The paper's benchmark/dataset pairings (Figures 6-9). *)
let pairings =
  [ ("irreg", [ "foil"; "auto" ]); ("nbf", [ "foil"; "auto" ]);
    ("moldyn", [ "mol1"; "mol2" ]) ]

let kernel_of ~name dataset =
  match Kernels.by_name name with
  | Some f -> f dataset
  | None -> Fmt.invalid_arg "figures: unknown kernel %s" name

let dataset_of ~config name =
  match Datagen.Generators.by_name ~scale:config.scale name with
  | Some d -> d
  | None -> Fmt.invalid_arg "figures: unknown dataset %s" name

(* Partition sizes from a cache-byte target (Section 2.4: "we target
   the L1 cache when selecting parameters"):
   - Gpart: nodes per partition = target / bytes-per-node;
   - FST seed (a block of the interaction loop after CL/GL): each
     interaction touches two nodes, so a seed block of
     nodes_per_part / 4 interactions keeps the tile's distinct node
     data at roughly half the target, leaving the other half for the
     second-endpoint halo and the index arrays (measured optimum on
     all three kernels; see EXPERIMENTS.md). *)
let gpart_size_for ~target_bytes kernel =
  max 16 (target_bytes / Kernels.Kernel.bytes_per_node kernel)

let seed_size_for ~target_bytes (kernel : Kernels.Kernel.t) =
  max 16 (gpart_size_for ~target_bytes kernel / 4)

let suite_for ~machine kernel =
  let target_bytes = machine.Cachesim.Machine.l1_size in
  Compose.Plan.standard_suite
    ~gpart_size:(gpart_size_for ~target_bytes kernel)
    ~seed_part_size:(seed_size_for ~target_bytes kernel)

(* ------------------------------------------------------------------ *)
(* Section 2.4 dataset table                                           *)

module T = Table

(* Every figure table opens with the config it was measured under. *)
let summary config =
  T.row []
    [
      T.info "scale" "divisor" (float_of_int config.scale);
      T.info "trace_steps" "steps" (float_of_int config.trace_steps);
      T.info "wall_steps" "steps" (float_of_int config.wall_steps);
      T.info "domains" "domains" (float_of_int config.domains);
    ]

(* Working-set footprint per benchmark at the PAPER's size, in MB with
   4-byte index entries: the "10MB ... 61MB" labels of Figure 8 (e.g.
   moldyn/mol1: 131072*72 + 1179648*8 = 18.9 MB). *)
let footprint ~nodes ~edges ~bytes_per_node =
  float_of_int ((nodes * bytes_per_node) + (edges * 2 * 4)) /. (1024.0 *. 1024.0)

let dataset_table ~config () =
  {
    T.name = "datasets";
    rows =
      summary config
      :: List.map
           (fun (name, (paper_nodes, paper_edges)) ->
             let d = dataset_of ~config name in
             T.row
               [ ("dataset", name) ]
               ([
                  T.count "nodes" d.Datagen.Dataset.n_nodes;
                  T.count "edges" (Datagen.Dataset.n_interactions d);
                  T.count "paper_nodes" paper_nodes;
                  T.count "paper_edges" paper_edges;
                ]
               @ List.map
                   (fun (bench, bpn) ->
                     T.info
                       ("paper_footprint_mb_" ^ bench)
                       "MB"
                       (footprint ~nodes:paper_nodes ~edges:paper_edges
                          ~bytes_per_node:bpn))
                   [ ("irreg", 16); ("nbf", 48); ("moldyn", 72) ]))
           Datagen.Generators.paper_sizes;
  }

(* ------------------------------------------------------------------ *)
(* Figures 6/7: normalized executor time without overhead              *)

(* One pool for a whole figure table: every row's measurements reuse
   the same domains (and the same one-shot barrier calibration), so no
   row pays domain spawn cost, and the lane count is stable across a
   report, which Parbench asserts. *)
let with_config_pool ~config f =
  if config.domains > 1 then
    Rtrt_par.Pool.with_pool ~domains:config.domains (fun pool -> f (Some pool))
  else f None

let run_suite ?pool ~machine ~config kernel =
  let measure_all pool =
    let plans = suite_for ~machine kernel in
    List.map
      (fun plan ->
        Experiment.measure ?cache:config.plan_cache ?pool
          ~trace_steps_n:config.trace_steps ~wall_steps:config.wall_steps
          ~machine ~plan kernel)
      plans
  in
  match pool with
  | Some _ -> measure_all pool
  | None -> with_config_pool ~config measure_all

let measure_pairings ~machine ~config () =
  with_config_pool ~config @@ fun pool ->
  List.concat_map
    (fun (bench, datasets) ->
      List.map
        (fun ds_name ->
          let kernel = kernel_of ~name:bench (dataset_of ~config ds_name) in
          (bench, ds_name, run_suite ?pool ~machine ~config kernel))
        datasets)
    pairings

(* One row per (bench, dataset, plan) with the plan's parallel run
   appended when it had one, then each plan's phase profile. *)
let executor_time ~machine ~config () =
  let cells = measure_pairings ~machine ~config () in
  let plan_rows, profile_rows =
    List.split
      (List.concat_map
         (fun (bench, dataset, ms) ->
           List.map
             (fun ((m : Experiment.measurement), cycles, wall) ->
               let labels =
                 [ ("bench", bench); ("dataset", dataset);
                   ("plan", m.Experiment.plan_name) ]
               in
               let notes, par =
                 match m.Experiment.par with
                 | Some p -> Experiment.par_cells p
                 | None -> ([], [])
               in
               ( T.row ~notes labels
                   (T.lower "normalized_cycles" "ratio" cycles
                   :: T.lower "normalized_wall" "ratio" wall
                   :: par),
                 List.map
                   (fun (r : T.row) ->
                     { r with T.labels = r.T.labels @ labels })
                   (T.profile_rows m.Experiment.profile) ))
             (Experiment.normalize ms))
         cells)
  in
  {
    T.name = "executor_time";
    rows = (summary config :: plan_rows) @ List.concat profile_rows;
  }

(* ------------------------------------------------------------------ *)
(* Figures 8/9: amortization in outer-loop iterations                  *)

(* Steps to amortize by modeled cycles and by wall clock, for every
   plan but base. A plan that never pays off reads NaN (null on
   disk), so both metrics are informational. *)
let amortization ~machine ~config () =
  let steps = Option.value ~default:Float.nan in
  {
    T.name = "amortization";
    rows =
      summary config
      :: List.concat_map
           (fun (bench, dataset, ms) ->
             match ms with
             | [] -> []
             | base :: rest ->
               List.map
                 (fun m ->
                   T.row
                     [ ("bench", bench); ("dataset", dataset);
                       ("plan", m.Experiment.plan_name) ]
                     [
                       T.info "amortize_modeled" "steps"
                         (steps (Experiment.amortization_modeled ~base m));
                       T.info "amortize_wall" "steps"
                         (steps (Experiment.amortization ~base m));
                     ])
                 rest)
           (measure_pairings ~machine ~config ());
  }

(* ------------------------------------------------------------------ *)
(* Figure 16: inspector-overhead reduction from remapping data once    *)

(* Compositions with two or more data reorderings (the paper shows
   irreg and moldyn; nbf does not benefit from tilePack). *)
let remap_overhead ?(repeats = 3) ~machine ~config () =
  let best f =
    let rec go acc k = if k = 0 then acc else go (min acc (f ())) (k - 1) in
    go (f ()) (repeats - 1)
  in
  let cases =
    [ ("irreg", "foil"); ("irreg", "auto"); ("moldyn", "mol1");
      ("moldyn", "mol2") ]
  in
  {
    T.name = "remap_overhead";
    rows =
      summary config
      :: List.concat_map
           (fun (bench, ds_name) ->
             let kernel = kernel_of ~name:bench (dataset_of ~config ds_name) in
             let target_bytes = machine.Cachesim.Machine.l1_size in
             let seed = seed_size_for ~target_bytes kernel in
             let plans =
               [
                 Compose.Plan.cpack_lexgroup_twice;
                 Compose.Plan.with_fst ~seed_part_size:seed
                   Compose.Plan.cpack_lexgroup;
                 Compose.Plan.with_fst ~seed_part_size:seed
                   Compose.Plan.cpack_lexgroup_twice;
               ]
             in
             List.map
               (fun plan ->
                 let insp strategy () =
                   (Experiment.inspect ~strategy plan kernel)
                     .Compose.Inspector.inspector_seconds
                 in
                 let each = best (insp Compose.Inspector.Remap_each) in
                 let once = best (insp Compose.Inspector.Remap_once) in
                 T.row
                   [ ("bench", bench); ("dataset", ds_name);
                     ("plan", Compose.Plan.name plan) ]
                   [
                     T.lower "seconds_remap_each" "s" each;
                     T.lower "seconds_remap_once" "s" once;
                     T.higher "reduction_pct" "%"
                       (100.0 *. (each -. once) /. each);
                   ])
               plans)
           cases;
  }

(* ------------------------------------------------------------------ *)
(* Figure 17: executor performance vs cache-size target                *)

(* Modeled cycles normalized to base, for Gpart+lexGroup (gl) and
   CL+FST (cl_fst) sized for each cache target. *)
let cache_target_sweep ~machine ~config () =
  {
    T.name = "cache_target_sweep";
    rows =
      summary config
      :: List.concat_map
           (fun (bench, ds_name) ->
             let kernel = kernel_of ~name:bench (dataset_of ~config ds_name) in
             let measure plan =
               (Experiment.measure ~trace_steps_n:config.trace_steps
                  ~wall_steps:config.wall_steps ~machine ~plan kernel)
                 .Experiment.modeled_cycles_per_step
             in
             let base = measure Compose.Plan.base in
             List.map
               (fun kb ->
                 let target_bytes = kb * 1024 in
                 let gl =
                   measure
                     (Compose.Plan.gpart_lexgroup
                        ~part_size:(gpart_size_for ~target_bytes kernel))
                 in
                 let fst_m =
                   measure
                     (Compose.Plan.with_fst
                        ~seed_part_size:(seed_size_for ~target_bytes kernel)
                        Compose.Plan.cpack_lexgroup)
                 in
                 T.row
                   [ ("bench", bench); ("dataset", ds_name);
                     ("target_kb", string_of_int kb) ]
                   [
                     T.lower "gl" "ratio" (gl /. base);
                     T.lower "cl_fst" "ratio" (fst_m /. base);
                   ])
               [ 2; 4; 8; 16; 32; 64; 128; 256 ])
           [ ("irreg", "foil"); ("moldyn", "mol1") ];
  }

(* ------------------------------------------------------------------ *)
(* The figure list                                                     *)

type figure = {
  name : string;
  doc : string;
  table : config -> Table.t;
}

let all =
  let figure name doc table =
    { name; doc; table = (fun config -> { (table config) with T.name = name }) }
  in
  let power3 = Cachesim.Machine.power3 in
  let pentium4 = Cachesim.Machine.pentium4 in
  [
    figure "datasets" "Section 2.4 dataset table" (fun config ->
        dataset_table ~config ());
    figure "figure6" "Figure 6: normalized executor time, Power3 model"
      (fun config -> executor_time ~machine:power3 ~config ());
    figure "figure7" "Figure 7: normalized executor time, Pentium 4 model"
      (fun config -> executor_time ~machine:pentium4 ~config ());
    figure "figure8" "Figure 8: inspector amortization, Power3 model"
      (fun config -> amortization ~machine:power3 ~config ());
    figure "figure9" "Figure 9: inspector amortization, Pentium 4 model"
      (fun config -> amortization ~machine:pentium4 ~config ());
    figure "figure16" "Figure 16: remap-once inspector overhead reduction"
      (fun config -> remap_overhead ~machine:pentium4 ~config ());
    figure "figure17" "Figure 17: cache-size-target sweep, Pentium 4 model"
      (fun config -> cache_target_sweep ~machine:pentium4 ~config ());
  ]
