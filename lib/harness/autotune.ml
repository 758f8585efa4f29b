(* Plan autotuning (ROADMAP item 3): search the validated composition
   space over {cpack, gpart, lexGroup, lexSort, FST, tilePack} with
   the repo's two cost models composed end to end:

   - locality: the candidate's inspected kernel runs through the
     Cachesim two-level hierarchy; modeled cycles per step convert to
     nanoseconds on the machine model's clock;
   - makespan: for Full-growth sparse-tiled candidates on a live
     domain pool, the locality prediction is fed into the (fixed)
     [Exec.decide] Amdahl model as the serial step time, and the
     candidate scores the cheaper of the two tiers — exactly the time
     the auto-fallback executor would take if the locality model were
     the truth.

   The winner is the score argmin. Because the hand-named standard
   suite is a subset of the candidate space, the winner matches or
   beats the best hand-named plan by construction (on the model; the
   report measures both wall clocks next to it).

   Winners are memoized in [Rtrt_plancache.Tuned] keyed by the
   access-pattern fingerprint plus machine, so repeat traffic skips
   the search; tuned entries carry the serialized winning plan and the
   full score table. Search traffic is published as [autotune.*]
   metrics. *)

module J = Rtrt_obs.Json

(* ------------------------------------------------------------------ *)
(* Plan (de)serialization — the opaque string stored in Tuned entries  *)

let json_of_transform (t : Compose.Transform.t) =
  let open Compose.Transform in
  match t with
  | Data_reorder Cpack -> J.Obj [ ("t", J.String "cpack") ]
  | Data_reorder (Gpart { part_size }) ->
    J.Obj [ ("t", J.String "gpart"); ("part_size", J.Int part_size) ]
  | Data_reorder (Multilevel { part_size }) ->
    J.Obj [ ("t", J.String "multilevel"); ("part_size", J.Int part_size) ]
  | Data_reorder Rcm -> J.Obj [ ("t", J.String "rcm") ]
  | Data_reorder Tile_pack -> J.Obj [ ("t", J.String "tilepack") ]
  | Iter_reorder Lexgroup -> J.Obj [ ("t", J.String "lexgroup") ]
  | Iter_reorder Lexsort -> J.Obj [ ("t", J.String "lexsort") ]
  | Iter_reorder (Bucket_tile { bucket_size }) ->
    J.Obj [ ("t", J.String "buckettile"); ("bucket_size", J.Int bucket_size) ]
  | Sparse_tile { growth; seed } ->
    let seed_kind, part_size =
      match seed with
      | Seed_block { part_size } -> ("block", part_size)
      | Seed_gpart { part_size } -> ("gpart", part_size)
    in
    J.Obj
      [
        ("t", J.String "sparse_tile");
        ( "growth",
          J.String
            (match growth with Full -> "full" | Cache_block -> "cache_block")
        );
        ("seed", J.String seed_kind);
        ("part_size", J.Int part_size);
      ]

let json_of_plan plan =
  J.Obj
    [
      ("name", J.String (Compose.Plan.name plan));
      ( "transforms",
        J.List (List.map json_of_transform (Compose.Plan.transforms plan)) );
    ]

let plan_to_string plan = J.to_string (json_of_plan plan)

let ( let* ) = Result.bind

let int_field name j =
  match J.member name j with
  | Some v -> (
    match J.to_int_opt v with
    | Some n -> Ok n
    | None -> Error ("field " ^ name ^ " is not an integer"))
  | None -> Error ("missing field " ^ name)

let string_field name j =
  match J.member name j with
  | Some v -> (
    match J.to_string_opt v with
    | Some s -> Ok s
    | None -> Error ("field " ^ name ^ " is not a string"))
  | None -> Error ("missing field " ^ name)

let transform_of_json j =
  let open Compose.Transform in
  let* t = string_field "t" j in
  match t with
  | "cpack" -> Ok (Data_reorder Cpack)
  | "gpart" ->
    let* part_size = int_field "part_size" j in
    Ok (Data_reorder (Gpart { part_size }))
  | "multilevel" ->
    let* part_size = int_field "part_size" j in
    Ok (Data_reorder (Multilevel { part_size }))
  | "rcm" -> Ok (Data_reorder Rcm)
  | "tilepack" -> Ok (Data_reorder Tile_pack)
  | "lexgroup" -> Ok (Iter_reorder Lexgroup)
  | "lexsort" -> Ok (Iter_reorder Lexsort)
  | "buckettile" ->
    let* bucket_size = int_field "bucket_size" j in
    Ok (Iter_reorder (Bucket_tile { bucket_size }))
  | "sparse_tile" ->
    let* growth =
      let* g = string_field "growth" j in
      match g with
      | "full" -> Ok Full
      | "cache_block" -> Ok Cache_block
      | _ -> Error ("unknown growth " ^ g)
    in
    let* part_size = int_field "part_size" j in
    let* seed =
      let* s = string_field "seed" j in
      match s with
      | "block" -> Ok (Seed_block { part_size })
      | "gpart" -> Ok (Seed_gpart { part_size })
      | _ -> Error ("unknown seed " ^ s)
    in
    Ok (Sparse_tile { growth; seed })
  | _ -> Error ("unknown transform " ^ t)

let plan_of_json j =
  let* name = string_field "name" j in
  let* transforms =
    match J.member "transforms" j with
    | Some (J.List ts) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | t :: rest ->
          let* tr = transform_of_json t in
          go (tr :: acc) rest
      in
      go [] ts
    | _ -> Error "bad transforms field"
  in
  let plan = Compose.Plan.make ~name transforms in
  let* () = Compose.Plan.validate plan in
  Ok plan

let plan_of_string s =
  let* j = J.of_string s in
  plan_of_json j

(* ------------------------------------------------------------------ *)
(* Candidate space and fingerprint                                     *)

let candidates_for ~machine kernel =
  let target_bytes = machine.Cachesim.Machine.l1_size in
  Compose.Plan.candidates
    ~gpart_size:(Figures.gpart_size_for ~target_bytes kernel)
    ~seed_part_size:(Figures.seed_size_for ~target_bytes kernel)

(* The tuned-winner key: the kernel's shape and access pattern (the
   run-time data the tuning is FOR), the machine model, and the
   candidate space itself (a winner chosen from a different space is a
   different answer). Plan names are excluded, as in the inspector's
   fingerprint. *)
let fingerprint ~machine ~space (kernel : Kernels.Kernel.t) =
  let module F = Rtrt_plancache.Fingerprint in
  let b = F.create () in
  F.add_string b "autotune-v1";
  F.add_string b kernel.Kernels.Kernel.name;
  F.add_int b kernel.Kernels.Kernel.n_nodes;
  F.add_int b kernel.Kernels.Kernel.n_inter;
  F.add_int_array b kernel.Kernels.Kernel.loop_sizes;
  F.add_int b kernel.Kernels.Kernel.seed_loop;
  let access = kernel.Kernels.Kernel.access in
  F.add_int_array b access.Reorder.Access.ptr;
  F.add_int_array b access.Reorder.Access.dat;
  F.add_string b machine.Cachesim.Machine.name;
  List.iter
    (fun p ->
      List.iter
        (fun t -> F.add_string b (Fmt.str "%a" Compose.Transform.pp t))
        (Compose.Plan.transforms p))
    space;
  F.value b

(* ------------------------------------------------------------------ *)
(* Scoring                                                             *)

type scored = {
  sc_plan : Compose.Plan.t;
  sc_locality_ns : float;  (* modeled cycles/step on the machine clock *)
  sc_makespan_ns : float option;  (* decide's modeled parallel ns/step *)
  sc_tier : string;  (* tier the makespan model picked ("serial" w/o pool) *)
  sc_score_ns : float;  (* effective modeled ns/step: min of the tiers *)
  sc_miss_ratio : float;
}

let plan_full_growth plan =
  List.exists
    (function
      | Compose.Transform.Sparse_tile { growth = Compose.Transform.Full; _ } ->
        true
      | _ -> false)
    (Compose.Plan.transforms plan)

(* Score one candidate: inspect, run the cache model, and — when the
   plan Full-growth-tiles and a multi-lane pool is live — feed the
   locality prediction into the engine's tier model as the serial
   step time. The candidate's score is the cheaper tier. *)
let score ?cache ?pool ?(trace_steps = 2) ?(batch = 8) ~machine plan kernel =
  let result = Experiment.inspect ?cache plan kernel in
  let cycles, _misses, _accesses, miss_ratio =
    Experiment.trace_steps result ~machine ~warmup:1 ~steps:trace_steps
  in
  let locality_ns = Cachesim.Machine.ns_of_cycles machine cycles in
  let makespan =
    match (pool, result.Compose.Inspector.schedule) with
    | Some pool, Some sched
      when Rtrt_par.Pool.size pool > 1 && plan_full_growth plan ->
      let k = result.Compose.Inspector.kernel in
      let tiles =
        Compose.Legality.tile_fns_of_schedule sched
          ~loop_sizes:k.Kernels.Kernel.loop_sizes
      in
      let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
      let par = Reorder.Tile_par.analyze ~chain ~tiles in
      let pe =
        k.Kernels.Kernel.plan_par ~pool sched
          ~level_of:par.Reorder.Tile_par.level_of
      in
      let d =
        pe.Kernels.Kernel.par_decide ~serial_ns_per_step:locality_ns ~batch
      in
      Some d
    | _ -> None
  in
  let scored =
    match makespan with
    | Some d ->
      {
        sc_plan = plan;
        sc_locality_ns = locality_ns;
        sc_makespan_ns = Some d.Rtrt_par.Exec.d_modeled_par_ns_per_step;
        sc_tier = Rtrt_par.Exec.tier_name d.Rtrt_par.Exec.d_tier;
        sc_score_ns =
          Float.min locality_ns d.Rtrt_par.Exec.d_modeled_par_ns_per_step;
        sc_miss_ratio = miss_ratio;
      }
    | None ->
      {
        sc_plan = plan;
        sc_locality_ns = locality_ns;
        sc_makespan_ns = None;
        sc_tier = "serial";
        sc_score_ns = locality_ns;
        sc_miss_ratio = miss_ratio;
      }
  in
  (scored, result)

(* ------------------------------------------------------------------ *)
(* The tuner                                                           *)

type t = {
  at_winner : Compose.Plan.t;
  at_winner_score_ns : float;
  at_scores : (string * float) list;  (* every candidate: name, ns/step *)
  at_details : scored list;  (* per-candidate detail; empty on a cached hit *)
  at_cached : bool;  (* winner served from the tuned store *)
  at_key_hex : string;
}

let g_candidates = Rtrt_obs.Metrics.gauge "autotune.candidates"
let g_winner_score = Rtrt_obs.Metrics.gauge "autotune.winner_score_ns"
let c_search = Rtrt_obs.Metrics.counter "autotune.search"
let c_served_cached = Rtrt_obs.Metrics.counter "autotune.served_cached"
let h_search = Rtrt_obs.Hist.hist "autotune.search"

let search ?cache ?pool ?trace_steps ?batch ~machine ~space kernel =
  Rtrt_obs.Span.with_ ~name:"autotune.search"
    ~attrs:
      [
        ("machine", J.String machine.Cachesim.Machine.name);
        ("candidates", J.Int (List.length space));
      ]
  @@ fun () ->
  let t0 = Rtrt_obs.Clock.now_ns () in
  let details =
    List.map
      (fun plan ->
        fst (score ?cache ?pool ?trace_steps ?batch ~machine plan kernel))
      space
  in
  let winner =
    match details with
    | [] -> invalid_arg "Autotune.search: empty candidate space"
    | first :: rest ->
      List.fold_left
        (fun best c -> if c.sc_score_ns < best.sc_score_ns then c else best)
        first rest
  in
  Rtrt_obs.Metrics.incr c_search;
  Rtrt_obs.Metrics.set g_candidates (float_of_int (List.length details));
  Rtrt_obs.Metrics.set g_winner_score winner.sc_score_ns;
  Rtrt_obs.Hist.record h_search (Rtrt_obs.Clock.now_ns () - t0);
  (winner, details)

(* Tune one (kernel, machine) cell. Candidates default to
   [candidates_for]; every candidate must pass [Plan.validate] (the
   default space is pruned by construction, a caller-supplied one is
   re-checked here). With [tuned], the search is skipped when the
   store already holds a winner for this (access pattern, machine,
   space) key, and a fresh search's winner is stored back. *)
let tune ?cache ?pool ?tuned ?trace_steps ?batch ?candidates ~machine kernel =
  let space =
    match candidates with
    | Some c -> c
    | None -> candidates_for ~machine kernel
  in
  if space = [] then invalid_arg "Autotune.tune: empty candidate space";
  List.iter
    (fun p ->
      match Compose.Plan.validate p with
      | Ok () -> ()
      | Error msg ->
        Fmt.invalid_arg "Autotune.tune: invalid candidate %s: %s"
          (Compose.Plan.name p) msg)
    space;
  let key = fingerprint ~machine ~space kernel in
  let key_hex = Rtrt_plancache.Fingerprint.to_hex key in
  let machine_name = machine.Cachesim.Machine.name in
  let cached_entry =
    Option.bind tuned (fun store ->
        Rtrt_plancache.Tuned.find store ~key ~machine:machine_name)
  in
  let of_entry (e : Rtrt_plancache.Tuned.entry) =
    match plan_of_string e.Rtrt_plancache.Tuned.winner_plan with
    | Ok plan ->
      Rtrt_obs.Metrics.incr c_served_cached;
      Some
        {
          at_winner = plan;
          at_winner_score_ns = e.Rtrt_plancache.Tuned.winner_score_ns;
          at_scores = e.Rtrt_plancache.Tuned.scores;
          at_details = [];
          at_cached = true;
          at_key_hex = key_hex;
        }
    | Error _ -> None (* corrupt payload: fall through to a fresh search *)
  in
  match Option.bind cached_entry of_entry with
  | Some t -> t
  | None ->
    let winner, details =
      search ?cache ?pool ?trace_steps ?batch ~machine ~space kernel
    in
    let scores =
      List.map
        (fun c -> (Compose.Plan.name c.sc_plan, c.sc_score_ns))
        details
    in
    (match tuned with
    | None -> ()
    | Some store ->
      Rtrt_plancache.Tuned.store store ~key
        {
          Rtrt_plancache.Tuned.winner = Compose.Plan.name winner.sc_plan;
          winner_plan = plan_to_string winner.sc_plan;
          winner_score_ns = winner.sc_score_ns;
          scores;
          machine = machine_name;
        });
    {
      at_winner = winner.sc_plan;
      at_winner_score_ns = winner.sc_score_ns;
      at_scores = scores;
      at_details = details;
      at_cached = false;
      at_key_hex = key_hex;
    }

(* ------------------------------------------------------------------ *)
(* The BENCH_AUTOTUNE table                                            *)

type row = {
  ab_bench : string;
  ab_dataset : string;
  ab_machine : string;
  ab_candidates : (string * float) list;
  ab_winner : string;
  ab_winner_score_ns : float;
  ab_best_named : string;
  ab_best_named_score_ns : float;
  (* winner score / best named score; <= 1.0 by construction since the
     named suite is a subset of the candidate space *)
  ab_winner_over_named_normalized : float;
  ab_winner_wall_seconds_per_step : float;
  ab_best_named_wall_seconds_per_step : float;
  (* named wall / winner wall; > 1.0 means the tuned plan also wins
     the measured comparison *)
  ab_winner_wall_speedup_over_named : float;
  ab_cached : bool;
}

type report = {
  rep_scale : int;
  rep_domains : int;
  rep_rows : row list;
  rep_profile : Rtrt_obs.Profile.phase list;
}

(* Best plan among the hand-named standard suite, read out of the
   score table (the suite is a subset of the candidate space, and
   shared transform lists keep the suite's plan names through the
   dedupe). *)
let best_named ~machine ~scores kernel =
  let named =
    List.filter_map
      (fun p ->
        Option.map
          (fun s -> (Compose.Plan.name p, s))
          (List.assoc_opt (Compose.Plan.name p) scores))
      (Figures.suite_for ~machine kernel)
  in
  match named with
  | [] -> invalid_arg "Autotune: no hand-named plan in the candidate space"
  | first :: rest ->
    List.fold_left
      (fun (bn, bs) (n, s) -> if s < bs then (n, s) else (bn, bs))
      first rest

let wall_of_plan ?cache ~wall_steps plan kernel =
  let result = Experiment.inspect ?cache plan kernel in
  (* Best-of-3: the table divides two short wall-clock windows. *)
  let best = ref infinity in
  for _ = 1 to 3 do
    let s = Experiment.wall_clock_steps result ~steps:wall_steps in
    if s < !best then best := s
  done;
  !best

let machines = [ Cachesim.Machine.power3; Cachesim.Machine.pentium4 ]

let measure ~(config : Figures.config) () =
  let cache = config.Figures.plan_cache in
  let tuned =
    Rtrt_plancache.Tuned.create
      ?dir:(Option.bind cache Rtrt_plancache.Cache.dir)
      ()
  in
  let rows, profile =
    Rtrt_obs.Profile.record ~name:"autotune" (fun () ->
        Figures.with_config_pool ~config @@ fun pool ->
        List.concat_map
          (fun (bench, datasets) ->
            List.concat_map
              (fun ds_name ->
                let dataset = Figures.dataset_of ~config ds_name in
                List.map
                  (fun machine ->
                    let kernel = Figures.kernel_of ~name:bench dataset in
                    let t =
                      tune ?cache ?pool ~tuned
                        ~trace_steps:config.Figures.trace_steps ~machine
                        kernel
                    in
                    let named_name, named_score =
                      best_named ~machine ~scores:t.at_scores kernel
                    in
                    let wall p =
                      wall_of_plan ?cache ~wall_steps:config.Figures.wall_steps
                        p kernel
                    in
                    let winner_wall = wall t.at_winner in
                    let named_plan =
                      List.find
                        (fun p -> Compose.Plan.name p = named_name)
                        (Figures.suite_for ~machine kernel)
                    in
                    let named_wall = wall named_plan in
                    {
                      ab_bench = bench;
                      ab_dataset = ds_name;
                      ab_machine = machine.Cachesim.Machine.name;
                      ab_candidates = t.at_scores;
                      ab_winner = Compose.Plan.name t.at_winner;
                      ab_winner_score_ns = t.at_winner_score_ns;
                      ab_best_named = named_name;
                      ab_best_named_score_ns = named_score;
                      ab_winner_over_named_normalized =
                        (if named_score > 0.0 then
                           t.at_winner_score_ns /. named_score
                         else 1.0);
                      ab_winner_wall_seconds_per_step = winner_wall;
                      ab_best_named_wall_seconds_per_step = named_wall;
                      ab_winner_wall_speedup_over_named =
                        (if winner_wall > 0.0 then named_wall /. winner_wall
                         else 1.0);
                      ab_cached = t.at_cached;
                    })
                  machines)
              datasets)
          Figures.pairings)
  in
  {
    rep_scale = config.Figures.scale;
    rep_domains = config.Figures.domains;
    rep_rows = rows;
    rep_profile = [ profile ];
  }

let json_of_report r =
  J.Obj
    [
      ("scale", J.Int r.rep_scale);
      ("domains", J.Int r.rep_domains);
      ( "rows",
        J.List
          (List.map
             (fun row ->
               J.Obj
                 [
                   ("bench", J.String row.ab_bench);
                   ("dataset", J.String row.ab_dataset);
                   (* labeled "name" so bench-diff's flattener keys the
                      row as bench/dataset/machine *)
                   ("name", J.String row.ab_machine);
                   ( "candidates",
                     J.List
                       (List.map
                          (fun (name, score) ->
                            J.Obj
                              [
                                ("name", J.String name);
                                ("score_ns_per_step", J.Float score);
                              ])
                          row.ab_candidates) );
                   ("winner", J.String row.ab_winner);
                   ("winner_score_ns_per_step", J.Float row.ab_winner_score_ns);
                   ("best_named", J.String row.ab_best_named);
                   ( "best_named_score_ns_per_step",
                     J.Float row.ab_best_named_score_ns );
                   ( "winner_over_named_normalized",
                     J.Float row.ab_winner_over_named_normalized );
                   ( "winner_wall_seconds_per_step",
                     J.Float row.ab_winner_wall_seconds_per_step );
                   ( "best_named_wall_seconds_per_step",
                     J.Float row.ab_best_named_wall_seconds_per_step );
                   ( "winner_wall_speedup_over_named",
                     J.Float row.ab_winner_wall_speedup_over_named );
                   ("served_from_tuned_cache", J.Bool row.ab_cached);
                 ])
             r.rep_rows) );
      ("profile", Rtrt_obs.Profile.json_of_phases r.rep_profile);
    ]

let pp_scored ppf c =
  Fmt.pf ppf "%-12s %10.1f ns/step [%s]%a"
    (Compose.Plan.name c.sc_plan)
    c.sc_score_ns c.sc_tier
    (fun ppf -> function
      | Some m -> Fmt.pf ppf " (par model %.1f ns/step)" m
      | None -> ())
    c.sc_makespan_ns

let pp_result ppf t =
  Fmt.pf ppf "winner %s at %.1f ns/step%s (%d candidates, key %s)@."
    (Compose.Plan.name t.at_winner)
    t.at_winner_score_ns
    (if t.at_cached then " [tuned cache]" else "")
    (List.length t.at_scores) t.at_key_hex;
  List.iter (fun c -> Fmt.pf ppf "  %a@." pp_scored c) t.at_details

let pp_report ppf r =
  Fmt.pf ppf "scale %d, domains %d@." r.rep_scale r.rep_domains;
  List.iter
    (fun row ->
      Fmt.pf ppf
        "  %-8s %-6s %-9s winner %-12s %9.1f ns/step  named %-12s %9.1f  \
         (model ratio %.3f, wall speedup %.2fx)%s@."
        row.ab_bench row.ab_dataset row.ab_machine row.ab_winner
        row.ab_winner_score_ns row.ab_best_named row.ab_best_named_score_ns
        row.ab_winner_over_named_normalized
        row.ab_winner_wall_speedup_over_named
        (if row.ab_cached then " [cached]" else ""))
    r.rep_rows;
  let beaten =
    List.length
      (List.filter
         (fun row -> row.ab_winner_over_named_normalized <= 1.0)
         r.rep_rows)
  in
  Fmt.pf ppf "winner matches or beats the best hand-named plan on %d/%d cells@."
    beaten (List.length r.rep_rows)
