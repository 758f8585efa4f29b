(* The one bench driver's suite table. An entry's settings are the
   ones its committed baseline in bench/baselines/ was recorded under:
   CI runs each suite with no overrides but --domains, and gates the
   JSON against that baseline with `rtrt bench-diff --ratios-only`. *)

type t = {
  name : string;
  doc : string;
  scale : int;
  min_domains : int;
  wall_steps : int;
  table : Figures.config -> Format.formatter -> Rtrt_obs.Json.t;
}

let report measure pp json config ppf =
  let r = measure config in
  pp ppf r;
  json r

(* The Figures 6/7 suite on moldyn/mol1 measured twice through one
   cache: the first pass pays the inspections (misses), the second
   replays them (hits), with the uncached-vs-cached break-even in outer
   iterations next to each plan. When RTRT_PLAN_CACHE_DIR is set the
   disk tier carries entries across processes, so a rerun's first pass
   can already hit. *)
let plancache_table config ppf =
  let module C = Rtrt_plancache.Cache in
  let module E = Experiment in
  let cache = C.create ?dir:(C.dir_from_env ()) () in
  let config = { config with Figures.plan_cache = Some cache } in
  let machine = Cachesim.Machine.pentium4 in
  let kernel =
    Figures.kernel_of ~name:"moldyn" (Figures.dataset_of ~config "mol1")
  in
  let cold = Figures.run_suite ~machine ~config kernel in
  let warm = Figures.run_suite ~machine ~config kernel in
  (match C.dir cache with
  | Some d ->
    Fmt.pf ppf "moldyn/mol1, scale %d, disk tier at %s@." config.Figures.scale
      d
  | None ->
    Fmt.pf ppf "moldyn/mol1, scale %d, memory tier only@." config.Figures.scale);
  let rows =
    match warm with
    | [] -> []
    | base :: _ ->
      List.map2
        (fun (c : E.measurement) (w : E.measurement) ->
          let hit =
            match w.E.plancache with Some pc -> pc.E.pc_hit | None -> false
          in
          let breakeven = E.amortization_cached ~base w in
          Fmt.pf ppf "  %-24s insp first %.4fs  second %.4fs (%s)%t@."
            c.E.plan_name c.E.inspector_seconds w.E.inspector_seconds
            (if hit then "cache hit" else "MISS")
            (fun ppf ->
              match breakeven with
              | Some (uncached, cached) ->
                Fmt.pf ppf "  break-even %.1f -> %.1f steps" uncached cached
              | None -> ());
          let steps pick =
            match breakeven with
            | Some b -> Rtrt_obs.Json.Float (pick b)
            | None -> Rtrt_obs.Json.Null
          in
          Rtrt_obs.Json.(
            Obj
              [
                ("plan", String c.E.plan_name);
                ("first_inspector_seconds", Float c.E.inspector_seconds);
                ("second_inspector_seconds", Float w.E.inspector_seconds);
                ("second_was_hit", Bool hit);
                ("breakeven_uncached_steps", steps fst);
                ("breakeven_cached_steps", steps snd);
              ]))
        cold warm
  in
  let st = C.stats cache in
  Fmt.pf ppf "  cache: %a@." C.pp_stats st;
  Rtrt_obs.Json.(
    Obj
      [
        ("scale", Int config.Figures.scale);
        ("rows", List rows);
        ( "cache",
          Obj
            [
              ("hits", Int st.C.hits);
              ("misses", Int st.C.misses);
              ("stores", Int st.C.stores);
              ("evictions", Int st.C.evictions);
              ("disk_hits", Int st.C.disk_hits);
              ("disk_errors", Int st.C.disk_errors);
              ("bytes", Int st.C.bytes);
            ] );
      ])

(* Scale 24 keeps the hot-path and inspector tables under a minute on
   a CI runner; the others run at 64. The parallel-speedup ratio
   divides two short wall-clock windows, so par times 32 steps per
   window: shorter windows leave it wobbling tens of percent run to
   run on throttled cgroup hosts, where a CPU-quota stall lands in one
   window and not the other. *)
let all =
  [
    {
      name = "hotpath";
      doc =
        "flat-CSR schedule-walk bandwidth vs the nested reference, moldyn \
         tiled-vs-plain steady state, the specialized-executor tiers, and \
         the inspector phase breakdown";
      scale = 24;
      min_domains = 1;
      wall_steps = 3;
      table =
        report
          (fun c -> Hotpath.measure ~scale:c.Figures.scale ())
          Hotpath.pp_report Hotpath.json_of_report;
    };
    {
      name = "inspector";
      doc =
        "cold-inspection cost, remap-each vs remap-once, serial and pooled, \
         with bit-identity checks";
      scale = 24;
      min_domains = 1;
      wall_steps = 3;
      table =
        report
          (fun c -> Inspctime.measure ~scale:c.Figures.scale ())
          Inspctime.pp_report Inspctime.json_of_report;
    };
    {
      name = "par";
      doc =
        "serial vs domain-pool tiled execution with the makespan model's \
         prediction, on at least 2 domains";
      scale = 64;
      min_domains = 2;
      wall_steps = 32;
      table =
        report
          (fun config ->
            Parbench.measure ~machine:Cachesim.Machine.pentium4 ~config ())
          Parbench.pp_report Parbench.json_of_report;
    };
    {
      name = "autotune";
      doc =
        "cost-model plan search per (bench, dataset, machine) cell with the \
         winner's and the best hand-named plan's wall clocks, on at least 2 \
         domains";
      scale = 64;
      min_domains = 2;
      wall_steps = 8;
      table =
        report
          (fun config -> Autotune.measure ~config ())
          Autotune.pp_report Autotune.json_of_report;
    };
    {
      name = "churn";
      doc =
        "incremental plan repair vs cold re-inspection after rewiring \
         1/2/5/10% of interactions, with bit-identity checks and \
         steps-to-amortize";
      scale = 64;
      min_domains = 1;
      wall_steps = 3;
      table =
        report
          (fun c ->
            Churnbench.measure ~scale:c.Figures.scale
              ~domains:c.Figures.domains ())
          Churnbench.pp_report Churnbench.json_of_report;
    };
    {
      name = "plancache";
      doc =
        "the moldyn/mol1 figure suite inspected cold then warm through one \
         plan cache, with the cached break-even (RTRT_PLAN_CACHE_DIR adds \
         the disk tier)";
      scale = 64;
      min_domains = 1;
      wall_steps = 3;
      table = plancache_table;
    };
  ]

let default_out s = "BENCH_" ^ String.uppercase_ascii s.name ^ ".json"

let config ?scale ~domains s =
  {
    Figures.scale = Option.value scale ~default:s.scale;
    trace_steps = 2;
    wall_steps = s.wall_steps;
    domains = max s.min_domains domains;
    plan_cache = None;
  }

let run ?scale ~domains ?out s =
  let out = Option.value out ~default:(default_out s) in
  let json = s.table (config ?scale ~domains s) Fmt.stdout in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Rtrt_obs.Json.to_string json);
      output_char oc '\n');
  Fmt.pr "wrote %s@." out
