(* The one bench driver's suite table. An entry's settings are the
   ones its committed baseline in bench/baselines/ was recorded under:
   CI runs each suite with no overrides and gates the JSON against
   that baseline with `rtrt bench-diff --ratios-only`. *)

type t = {
  name : string;
  doc : string;
  scale : int;
  wall_steps : int;
  table : Figures.config -> Table.t;
}

(* The Figures 6/7 suite on moldyn/mol1 measured twice through one
   cache: the first pass pays the inspections (misses), the second
   replays them (hits), with the uncached-vs-cached break-even in outer
   iterations next to each plan. When RTRT_PLAN_CACHE_DIR is set the
   disk tier carries entries across processes, so a rerun's first pass
   can already hit. *)
let plancache_table config =
  let module C = Rtrt_plancache.Cache in
  let module E = Experiment in
  let module T = Table in
  let cache = C.create ?dir:(C.dir_from_env ()) () in
  let config = { config with Figures.plan_cache = Some cache } in
  let machine = Cachesim.Machine.pentium4 in
  let kernel =
    Figures.kernel_of ~name:"moldyn" (Figures.dataset_of ~config "mol1")
  in
  let cold = Figures.run_suite ~machine ~config kernel in
  let warm = Figures.run_suite ~machine ~config kernel in
  let rows =
    match warm with
    | [] -> []
    | base :: _ ->
      List.map2
        (fun (c : E.measurement) (w : E.measurement) ->
          let hit =
            match w.E.plancache with Some pc -> pc.E.pc_hit | None -> false
          in
          T.row
            [ ("plan", c.E.plan_name) ]
            ([
               T.lower "first_inspector_seconds" "s" c.E.inspector_seconds;
               T.lower "second_inspector_seconds" "s" w.E.inspector_seconds;
               T.flag T.Higher "second_was_hit" hit;
             ]
            @
            match E.amortization_cached ~base w with
            | Some (uncached, cached) ->
              [
                T.lower "breakeven_uncached_steps" "steps" uncached;
                T.lower "breakeven_cached_steps" "steps" cached;
              ]
            | None -> []))
        cold warm
  in
  (* Hit and miss counts depend on what an earlier process left in the
     disk tier, so only errors have a better direction. *)
  let st = C.stats cache in
  {
    T.name = "plancache";
    rows =
      T.row
        ~notes:
          (("dataset", "moldyn/mol1")
          :: Option.fold ~none:[] ~some:(fun d -> [ ("disk_tier", d) ])
               (C.dir cache))
        []
        [ T.info "scale" "divisor" (float_of_int config.Figures.scale) ]
      :: rows
      @ [
          T.row
            [ ("section", "cache") ]
            [
              T.count "hits" st.C.hits;
              T.count "misses" st.C.misses;
              T.count "stores" st.C.stores;
              T.count "evictions" st.C.evictions;
              T.count "disk_hits" st.C.disk_hits;
              T.lower "disk_errors" "count" (float_of_int st.C.disk_errors);
              T.info "bytes" "B" (float_of_int st.C.bytes);
            ];
        ];
  }

(* Scale 24 keeps the hot-path and inspector tables under a minute on
   a CI runner; the others run at 64. *)
let all =
  [
    {
      name = "hotpath";
      doc =
        "moldyn tiled-vs-plain steady state and the generated executor \
         against the interpreted walk per kernel (interleaved best-of-5 \
         rounds each), and the inspector phase breakdown";
      scale = 24;
      wall_steps = 3;
      table = (fun c -> Hotpath.measure ~scale:c.Figures.scale ());
    };
    {
      name = "inspector";
      doc =
        "cold-inspection cost, remap-each vs remap-once, with bit-identity \
         checks";
      scale = 24;
      wall_steps = 3;
      table = (fun c -> Inspctime.measure ~scale:c.Figures.scale ());
    };
    {
      name = "autotune";
      doc =
        "cost-model plan search per (bench, dataset, machine) cell with the \
         winner's and the best hand-named plan's wall clocks";
      scale = 64;
      wall_steps = 8;
      table = (fun config -> Autotune.measure ~config ());
    };
    {
      name = "churn";
      doc =
        "incremental plan repair vs cold re-inspection after rewiring \
         1/2/5/10% of interactions, with bit-identity checks and \
         steps-to-amortize";
      scale = 64;
      wall_steps = 3;
      table = (fun c -> Churnbench.measure ~scale:c.Figures.scale ());
    };
    {
      name = "plancache";
      doc =
        "the moldyn/mol1 figure suite inspected cold then warm through one \
         plan cache, with the cached break-even (RTRT_PLAN_CACHE_DIR adds \
         the disk tier)";
      scale = 64;
      wall_steps = 3;
      table = plancache_table;
    };
  ]

let default_out s = "BENCH_" ^ String.uppercase_ascii s.name ^ ".json"

let config ?scale s =
  {
    Figures.scale = Option.value scale ~default:s.scale;
    trace_steps = 2;
    wall_steps = s.wall_steps;
    plan_cache = None;
  }

let run ?scale ?out s =
  let out = Option.value out ~default:(default_out s) in
  let t = s.table (config ?scale s) in
  Fmt.pr "%a" Table.pp t;
  Table.write out t;
  Fmt.pr "wrote %s@." out
