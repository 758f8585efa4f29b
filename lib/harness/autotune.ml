(* Plan autotuning (ROADMAP item 3): search the validated composition
   space over {cpack, gpart, lexGroup, lexSort, FST, tilePack} with
   the locality cost model: the candidate's inspected kernel runs
   through the Cachesim two-level hierarchy, and its modeled cycles
   per step convert to nanoseconds on the machine model's clock. The
   executor it scores is the serial one the harness times.

   The winner is the score argmin. Because the hand-named standard
   suite is a subset of the candidate space, the winner matches or
   beats the best hand-named plan by construction (on the model; the
   report measures both wall clocks next to it).

   Winners are memoized in [Rtrt_plancache.Tuned] keyed by the
   access-pattern fingerprint plus machine, so repeat traffic skips
   the search. The key hashes every candidate's transform list, so a
   tuned entry names its winner (no serialized plan) and carries the
   full score table. Search traffic is published as [autotune.*]
   metrics. *)

module J = Rtrt_obs.Json

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
  F.add_access b access;
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
  sc_score_ns : float;  (* modeled ns/step *)
}

(* Score one candidate: inspect, then run the cache model for one
   warm-up step and [trace_steps] counted ones. *)
let score ?cache ?(trace_steps = 2) ~machine plan kernel =
  let result = Experiment.inspect ?cache plan kernel in
  let cycles, _misses, _accesses, _miss_ratio =
    Experiment.trace_steps result ~machine ~warmup:1 ~steps:trace_steps
  in
  let score_ns = Cachesim.Machine.ns_of_cycles machine cycles in
  ({ sc_plan = plan; sc_score_ns = score_ns }, result)

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

let search ?cache ?trace_steps ~machine ~space kernel =
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
      (fun plan -> fst (score ?cache ?trace_steps ~machine plan kernel))
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

(* Tune one (kernel, machine) cell over [candidates_for]. With [tuned],
   the search is skipped when the store already holds a winner for this
   (access pattern, machine, space) key, and a fresh search's winner is
   stored back. The key hashes every candidate's transform list, so the
   stored name picks the winner out of [space]; a name that is not
   there falls through to a fresh search. *)
let tune ?cache ?tuned ?trace_steps ~machine kernel =
  let space = candidates_for ~machine kernel in
  let key = fingerprint ~machine ~space kernel in
  let key_hex = Rtrt_plancache.Fingerprint.to_hex key in
  let machine_name = machine.Cachesim.Machine.name in
  let stored =
    Option.bind tuned (fun store ->
        Rtrt_plancache.Tuned.find store ~key ~machine:machine_name)
  in
  let served =
    Option.bind stored (fun (e : Rtrt_plancache.Tuned.entry) ->
        List.find_opt (fun p -> Compose.Plan.name p = e.winner) space
        |> Option.map (fun plan -> (plan, e)))
  in
  match served with
  | Some (plan, e) ->
    Rtrt_obs.Metrics.incr c_served_cached;
    {
      at_winner = plan;
      at_winner_score_ns = e.Rtrt_plancache.Tuned.winner_score_ns;
      at_scores = e.Rtrt_plancache.Tuned.scores;
      at_details = [];
      at_cached = true;
      at_key_hex = key_hex;
    }
  | None ->
    let winner, details = search ?cache ?trace_steps ~machine ~space kernel in
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
(* Ranking for a known run length (the paper's Section 7 guidance)     *)

(* Best-of-3 host seconds per step over [wall_steps] steps: the callers
   divide short wall-clock windows. *)
let wall_of_plan ?cache ~wall_steps plan kernel =
  let result = Experiment.inspect ?cache plan kernel in
  let best = ref infinity in
  for _ = 1 to 3 do
    let s = Experiment.wall_clock_steps result ~steps:wall_steps in
    if s < !best then best := s
  done;
  !best

(* Steps per wall-clock window of the guide's clock factor. *)
let guide_wall_steps = 5

(* Predicted model seconds of an [iterations]-step run under each plan:
   [iterations] modeled steps plus the plan's measured inspector
   seconds priced on the model's clock. One factor per ranking prices
   them, the base plan's modeled over its host seconds per step
   ([Experiment.amortization_modeled]'s conversion), so no plan's own
   timer noise enters its total. Small budgets favor cheap
   compositions, large ones the aggressive ones: the amortization
   trade-off of Figures 8/9 as a decision. *)
let guide ~trace_steps ~machine ~iterations ~plans kernel =
  if plans = [] then invalid_arg "Autotune.rank: no candidate plans";
  let base, _ = score ~trace_steps ~machine Compose.Plan.base kernel in
  let factor =
    base.sc_score_ns *. 1e-9
    /. wall_of_plan ~wall_steps:guide_wall_steps Compose.Plan.base kernel
  in
  let ranked =
    List.map
      (fun plan ->
        let sc, result = score ~trace_steps ~machine plan kernel in
        let inspector = result.Compose.Inspector.inspector_seconds in
        let total =
          (float_of_int iterations *. sc.sc_score_ns *. 1e-9)
          +. (inspector *. factor)
        in
        let name = Compose.Plan.name plan in
        ( total,
          name,
          Table.row
            [ ("plan", name) ]
            [
              Table.lower "total_seconds" "s" total;
              Table.lower "inspector_seconds" "s" inspector;
              Table.lower "modeled_ns_per_step" "ns" sc.sc_score_ns;
            ] ))
      plans
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
  in
  (* The pick's margin: each total carries one inspection's timer
     noise, so a lead near 1 is no decision. *)
  let notes, lead =
    match ranked with
    | (best, _, _) :: (next, runner_up, _) :: _ ->
      ( [ ("runner_up", runner_up) ],
        [ Table.info "lead_over_next" "ratio" (next /. best) ] )
    | _ -> ([], [])
  in
  {
    Table.name = "guide";
    rows =
      Table.row ~notes []
        (Table.info "model_ns_per_host_ns" "ratio" factor :: lead)
      :: List.map (fun (_, _, row) -> row) ranked;
  }

let rank ?(trace_steps = 2) ~machine ~iterations ~plans kernel =
  let t = guide ~trace_steps ~machine ~iterations ~plans kernel in
  { t with Table.rows = List.tl t.Table.rows }

(* ------------------------------------------------------------------ *)
(* The BENCH_AUTOTUNE table                                            *)

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

let machines = [ Cachesim.Machine.power3; Cachesim.Machine.pentium4 ]

(* One row per (bench, dataset, machine) cell, then one row per
   candidate score of each cell. *)
let measure ~(config : Figures.config) () =
  let module T = Table in
  let cache = config.Figures.plan_cache in
  let tuned =
    Rtrt_plancache.Tuned.create
      ?dir:(Option.bind cache Rtrt_plancache.Cache.dir)
      ()
  in
  let cells, profile =
    Rtrt_obs.Profile.record ~name:"autotune" (fun () ->
        List.concat_map
          (fun (bench, datasets) ->
            List.concat_map
              (fun ds_name ->
                let dataset = Figures.dataset_of ~config ds_name in
                List.map
                  (fun machine ->
                    let kernel = Figures.kernel_of ~name:bench dataset in
                    let t =
                      tune ?cache ~tuned
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
                    (* One plan is timed once: timed twice, it would
                       read timer noise as a speedup. *)
                    let named_wall =
                      if
                        Compose.Plan.transforms named_plan
                        = Compose.Plan.transforms t.at_winner
                      then winner_wall
                      else wall named_plan
                    in
                    let labels =
                      [
                        ("bench", bench);
                        ("dataset", ds_name);
                        ("machine", machine.Cachesim.Machine.name);
                      ]
                    in
                    ( T.row
                      ~notes:
                        [
                          ("winner", Compose.Plan.name t.at_winner);
                          ("best_named", named_name);
                        ]
                      labels
                      [
                        T.lower "winner_score_ns_per_step" "ns"
                          t.at_winner_score_ns;
                        T.lower "best_named_score_ns_per_step" "ns" named_score;
                        (* <= 1 by construction: the named suite is a
                           subset of the candidate space *)
                        T.lower "winner_over_named_normalized" "ratio"
                          (if named_score > 0.0 then
                             t.at_winner_score_ns /. named_score
                           else 1.0);
                        T.lower "winner_wall_seconds_per_step" "s" winner_wall;
                        T.lower "best_named_wall_seconds_per_step" "s"
                          named_wall;
                        (* > 1 means the tuned plan also wins the
                           measured comparison *)
                        T.higher "winner_wall_speedup_over_named" "ratio"
                          (if winner_wall > 0.0 then named_wall /. winner_wall
                           else 1.0);
                        T.flag T.Info "served_from_tuned_cache" t.at_cached;
                      ],
                      List.map
                        (fun (name, score) ->
                          T.row
                            (labels @ [ ("candidate", name) ])
                            [ T.lower "score_ns_per_step" "ns" score ])
                        t.at_scores ))
                  machines)
              datasets)
          Figures.pairings)
  in
  let cell_rows, candidate_rows = List.split cells in
  {
    T.name = "autotune";
    rows =
      T.row [] [ T.info "scale" "divisor" (float_of_int config.Figures.scale) ]
      :: cell_rows
      @ List.concat candidate_rows
      @ T.profile_rows [ profile ];
  }

let pp_scored ppf c =
  Fmt.pf ppf "%-12s %10.1f ns/step" (Compose.Plan.name c.sc_plan) c.sc_score_ns

let pp_result ppf t =
  Fmt.pf ppf "winner %s at %.1f ns/step%s (%d candidates, key %s)@."
    (Compose.Plan.name t.at_winner)
    t.at_winner_score_ns
    (if t.at_cached then " [tuned cache]" else "")
    (List.length t.at_scores) t.at_key_hex;
  List.iter (fun c -> Fmt.pf ppf "  %a@." pp_scored c) t.at_details
