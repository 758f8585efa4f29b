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

   Each driver returns structured rows plus a printer, so the CLI, the
   bench suites and the tests all consume the same code path. *)

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

type dataset_row = {
  ds_name : string;
  gen_nodes : int;
  gen_edges : int;
  paper_nodes : int;
  paper_edges : int;
  (* Working-set footprint per benchmark at the PAPER's size, in MB
     with 4-byte index entries — the "10MB ... 61MB" labels of
     Figure 8 (e.g. moldyn/mol1: 131072*72 + 1179648*8 = 18.9 MB). *)
  footprint_mb : (string * float) list;
}

let footprint ~nodes ~edges ~bytes_per_node =
  float_of_int ((nodes * bytes_per_node) + (edges * 2 * 4)) /. (1024.0 *. 1024.0)

let dataset_table ~config () =
  List.map
    (fun (name, (paper_nodes, paper_edges)) ->
      let d = dataset_of ~config name in
      {
        ds_name = name;
        gen_nodes = d.Datagen.Dataset.n_nodes;
        gen_edges = Datagen.Dataset.n_interactions d;
        paper_nodes;
        paper_edges;
        footprint_mb =
          List.map
            (fun (bench, bpn) ->
              ( bench,
                footprint ~nodes:paper_nodes ~edges:paper_edges
                  ~bytes_per_node:bpn ))
            [ ("irreg", 16); ("nbf", 48); ("moldyn", 72) ];
      })
    Datagen.Generators.paper_sizes

let pp_dataset_table ppf rows =
  Fmt.pf ppf "%-6s %12s %12s %14s %14s %22s@." "data" "nodes" "edges"
    "paper nodes" "paper edges" "paper MB (ir/nbf/mol)";
  List.iter
    (fun r ->
      let mb b = List.assoc b r.footprint_mb in
      Fmt.pf ppf "%-6s %12d %12d %14d %14d %6.0f %6.0f %6.0f@." r.ds_name
        r.gen_nodes r.gen_edges r.paper_nodes r.paper_edges (mb "irreg")
        (mb "nbf") (mb "moldyn"))
    rows

(* ------------------------------------------------------------------ *)
(* Figures 6/7: normalized executor time without overhead              *)

type exec_row = {
  bench : string;
  dataset : string;
  per_plan : (string * float * float) list;
      (* plan, normalized modeled cycles, normalized wall clock *)
  per_plan_par : (string * Experiment.par_measurement) list;
      (* plans that additionally ran on a domain pool *)
  per_plan_profile : (string * Rtrt_obs.Profile.phase list) list;
      (* per-plan GC + phase-timing profiles, same order as per_plan *)
}

(* One pool for a whole figure table: every row's measurements reuse
   the same domains (and the same one-shot barrier calibration), so no
   row pays domain spawn cost — and the lane count is stable across a
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

let executor_time ~machine ~config () =
  with_config_pool ~config @@ fun pool ->
  List.concat_map
    (fun (bench, datasets) ->
      List.map
        (fun ds_name ->
          let kernel = kernel_of ~name:bench (dataset_of ~config ds_name) in
          let ms = run_suite ?pool ~machine ~config kernel in
          let normalized = Experiment.normalize ms in
          {
            bench;
            dataset = ds_name;
            per_plan =
              List.map
                (fun ((m : Experiment.measurement), cyc, wall) ->
                  (m.Experiment.plan_name, cyc, wall))
                normalized;
            per_plan_par =
              List.filter_map
                (fun (m : Experiment.measurement) ->
                  Option.map
                    (fun p -> (m.Experiment.plan_name, p))
                    m.Experiment.par)
                ms;
            per_plan_profile =
              List.map
                (fun (m : Experiment.measurement) ->
                  (m.Experiment.plan_name, m.Experiment.profile))
                ms;
          })
        datasets)
    pairings

let pp_exec_rows ppf rows =
  List.iter
    (fun r ->
      Fmt.pf ppf "@[<v2>%s / %s (normalized executor time; cycles | wall):@,"
        r.bench r.dataset;
      List.iter
        (fun (plan, cyc, wall) ->
          Fmt.pf ppf "%-10s %6.3f | %6.3f@," plan cyc wall)
        r.per_plan;
      List.iter
        (fun (plan, p) ->
          Fmt.pf ppf "%-10s %a@," plan Experiment.pp_par_measurement p)
        r.per_plan_par;
      Fmt.pf ppf "@]@.")
    rows

(* ------------------------------------------------------------------ *)
(* Figures 8/9: amortization in outer-loop iterations                  *)

type amort_row = {
  a_bench : string;
  a_dataset : string;
  (* plan, steps to amortize by modeled cycles, by wall clock *)
  a_per_plan : (string * float option * float option) list;
}

let amortization ~machine ~config () =
  with_config_pool ~config @@ fun pool ->
  List.concat_map
    (fun (bench, datasets) ->
      List.map
        (fun ds_name ->
          let kernel = kernel_of ~name:bench (dataset_of ~config ds_name) in
          match run_suite ?pool ~machine ~config kernel with
          | [] -> { a_bench = bench; a_dataset = ds_name; a_per_plan = [] }
          | base :: rest ->
            {
              a_bench = bench;
              a_dataset = ds_name;
              a_per_plan =
                List.map
                  (fun m ->
                    ( m.Experiment.plan_name,
                      Experiment.amortization_modeled ~base m,
                      Experiment.amortization ~base m ))
                  rest;
            })
        datasets)
    pairings

let pp_amort_rows ppf rows =
  let cell ppf = function
    | Some steps -> Fmt.pf ppf "%8.1f" steps
    | None -> Fmt.pf ppf "%8s" "n/a"
  in
  List.iter
    (fun r ->
      Fmt.pf ppf
        "@[<v2>%s / %s (outer iterations to amortize inspector; modeled | \
         wall):@,"
        r.a_bench r.a_dataset;
      List.iter
        (fun (plan, modeled, wall) ->
          Fmt.pf ppf "%-10s %a | %a@," plan cell modeled cell wall)
        r.a_per_plan;
      Fmt.pf ppf "@]@.")
    rows

(* ------------------------------------------------------------------ *)
(* Figure 16: inspector-overhead reduction from remapping data once    *)

type remap_row = {
  r_bench : string;
  r_dataset : string;
  r_plan : string;
  seconds_each : float;
  seconds_once : float;
  reduction_pct : float;
}

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
  List.concat_map
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
          {
            r_bench = bench;
            r_dataset = ds_name;
            r_plan = Compose.Plan.name plan;
            seconds_each = each;
            seconds_once = once;
            reduction_pct = 100.0 *. (each -. once) /. each;
          })
        plans)
    cases

let pp_remap_rows ppf rows =
  Fmt.pf ppf "%-8s %-6s %-10s %12s %12s %8s@." "bench" "data" "plan"
    "remap-each" "remap-once" "redux%";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-8s %-6s %-10s %10.4fs %10.4fs %7.1f%%@." r.r_bench
        r.r_dataset r.r_plan r.seconds_each r.seconds_once r.reduction_pct)
    rows

(* ------------------------------------------------------------------ *)
(* Figure 17: executor performance vs cache-size target                *)

type sweep_row = {
  s_bench : string;
  s_dataset : string;
  s_target_kb : int;
  s_gl : float;  (* normalized modeled cycles, Gpart+lexGroup *)
  s_fst : float; (* normalized modeled cycles, CL+FST *)
}

let cache_target_sweep ?(targets_kb = [ 2; 4; 8; 16; 32; 64; 128; 256 ])
    ~machine ~config () =
  List.concat_map
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
          {
            s_bench = bench;
            s_dataset = ds_name;
            s_target_kb = kb;
            s_gl = gl /. base;
            s_fst = fst_m /. base;
          })
        targets_kb)
    [ ("irreg", "foil"); ("moldyn", "mol1") ]

(* ------------------------------------------------------------------ *)
(* JSON export (rtrt json <figure>)                                    *)

module J = Rtrt_obs.Json

let json_dataset_rows rows =
  J.List
    (List.map
       (fun r ->
         J.Obj
           [
             ("dataset", J.String r.ds_name);
             ("nodes", J.Int r.gen_nodes);
             ("edges", J.Int r.gen_edges);
             ("paper_nodes", J.Int r.paper_nodes);
             ("paper_edges", J.Int r.paper_edges);
             ( "paper_footprint_mb",
               J.Obj
                 (List.map (fun (b, mb) -> (b, J.Float mb)) r.footprint_mb) );
           ])
       rows)

let json_par_measurement (p : Experiment.par_measurement) =
  J.Obj
    [
      ("domains", J.Int p.Experiment.domains);
      ("serial_seconds_per_step", J.Float p.Experiment.serial_seconds_per_step);
      ("par_seconds_per_step", J.Float p.Experiment.par_seconds_per_step);
      ("measured_speedup", J.Float p.Experiment.measured_speedup);
      ("modeled_speedup", J.Float p.Experiment.modeled_speedup);
      ("modeled_makespan", J.Int p.Experiment.modeled_makespan);
      ("bitwise_equal", J.Bool p.Experiment.bitwise_equal);
      ("tier", J.String p.Experiment.par_tier);
      ("batch", J.Int p.Experiment.par_batch);
      ( "modeled_par_seconds_per_step",
        J.Float p.Experiment.modeled_par_seconds_per_step );
      ("barrier_cost_ns", J.Float p.Experiment.barrier_cost_ns);
      ( "dispatch_wait_ns_per_step",
        J.Float p.Experiment.dispatch_wait_ns_per_step );
      ( "barrier_wait_ns_per_step",
        J.Float p.Experiment.barrier_wait_ns_per_step );
    ]

let json_exec_rows rows =
  J.List
    (List.map
       (fun r ->
         J.Obj
           [
             ("bench", J.String r.bench);
             ("dataset", J.String r.dataset);
             ( "plans",
               J.List
                 (List.map
                    (fun (plan, cyc, wall) ->
                      J.Obj
                        [
                          ("plan", J.String plan);
                          ("normalized_cycles", J.Float cyc);
                          ("normalized_wall", J.Float wall);
                        ])
                    r.per_plan) );
             ( "parallel",
               J.List
                 (List.map
                    (fun (plan, p) ->
                      J.Obj
                        [
                          ("plan", J.String plan);
                          ("par", json_par_measurement p);
                        ])
                    r.per_plan_par) );
             ( "profiles",
               J.List
                 (List.map
                    (fun (plan, phases) ->
                      J.Obj
                        [
                          ("plan", J.String plan);
                          ("profile", Rtrt_obs.Profile.json_of_phases phases);
                        ])
                    r.per_plan_profile) );
           ])
       rows)

let json_amort_rows rows =
  let cell = function Some v -> J.Float v | None -> J.Null in
  J.List
    (List.map
       (fun r ->
         J.Obj
           [
             ("bench", J.String r.a_bench);
             ("dataset", J.String r.a_dataset);
             ( "plans",
               J.List
                 (List.map
                    (fun (plan, modeled, wall) ->
                      J.Obj
                        [
                          ("plan", J.String plan);
                          ("amortize_modeled", cell modeled);
                          ("amortize_wall", cell wall);
                        ])
                    r.a_per_plan) );
           ])
       rows)

let json_remap_rows rows =
  J.List
    (List.map
       (fun r ->
         J.Obj
           [
             ("bench", J.String r.r_bench);
             ("dataset", J.String r.r_dataset);
             ("plan", J.String r.r_plan);
             ("seconds_remap_each", J.Float r.seconds_each);
             ("seconds_remap_once", J.Float r.seconds_once);
             ("reduction_pct", J.Float r.reduction_pct);
           ])
       rows)

let json_sweep_rows rows =
  J.List
    (List.map
       (fun r ->
         J.Obj
           [
             ("bench", J.String r.s_bench);
             ("dataset", J.String r.s_dataset);
             ("target_kb", J.Int r.s_target_kb);
             ("gl", J.Float r.s_gl);
             ("cl_fst", J.Float r.s_fst);
           ])
       rows)

(* ------------------------------------------------------------------ *)
(* CSV export (plot-ready)                                             *)

let csv_exec_rows rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "bench,dataset,plan,normalized_cycles,normalized_wall\n";
  List.iter
    (fun r ->
      List.iter
        (fun (plan, cyc, wall) ->
          Buffer.add_string b
            (Fmt.str "%s,%s,%s,%.6f,%.6f\n" r.bench r.dataset plan cyc wall))
        r.per_plan)
    rows;
  Buffer.contents b

let csv_amort_rows rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "bench,dataset,plan,amortize_modeled,amortize_wall\n";
  let cell = function Some v -> Fmt.str "%.2f" v | None -> "" in
  List.iter
    (fun r ->
      List.iter
        (fun (plan, modeled, wall) ->
          Buffer.add_string b
            (Fmt.str "%s,%s,%s,%s,%s\n" r.a_bench r.a_dataset plan
               (cell modeled) (cell wall)))
        r.a_per_plan)
    rows;
  Buffer.contents b

let csv_sweep_rows rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "bench,dataset,target_kb,gl,cl_fst\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Fmt.str "%s,%s,%d,%.6f,%.6f\n" r.s_bench r.s_dataset r.s_target_kb
           r.s_gl r.s_fst))
    rows;
  Buffer.contents b

let pp_sweep_rows ppf rows =
  Fmt.pf ppf "%-8s %-6s %10s %10s %10s@." "bench" "data" "target KB"
    "GL" "CL+FST";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-8s %-6s %10d %10.3f %10.3f@." r.s_bench r.s_dataset
        r.s_target_kb r.s_gl r.s_fst)
    rows
