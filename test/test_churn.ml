(* Plan repair under graph churn must be a pure cost optimization:
   after rewiring k% of interactions, [Compose.Repair.repair] must be
   bit-identical — schedule, reordering functions, and executor
   results — to regrowing the frozen plan from scratch over the
   churned access, on every kernel, across chained churn rounds. The
   churn itself must preserve the degree multiset and be deterministic
   under the figure RNG, and repaired plans must never replay a stale
   specialization. *)

open Compose

let dataset_of (n, pairs) =
  {
    Datagen.Dataset.name = "rand";
    n_nodes = n;
    left = Array.map fst pairs;
    right = Array.map snd pairs;
    coords = None;
  }

let kernels_under_test =
  [
    ("moldyn", Kernels.Moldyn.of_dataset);
    ("nbf", Kernels.Nbf.of_dataset);
    ("irreg", Kernels.Irreg.of_dataset);
    ("cg", Kernels.Cg.of_dataset);
  ]

(* ------------------------------------------------------------------ *)
(* Random full-sparse-tiling plans (repair's supported growth). *)

let gen_prefix_transform =
  QCheck.Gen.(
    let* pick = int_range 0 5 in
    let* sz = int_range 4 16 in
    return
      (match pick with
      | 0 -> Transform.(Data_reorder Cpack)
      | 1 -> Transform.(Data_reorder (Gpart { part_size = sz }))
      | 2 -> Transform.(Data_reorder Rcm)
      | 3 -> Transform.(Iter_reorder Lexgroup)
      | _ -> Transform.(Iter_reorder Lexsort)))

let gen_fst_plan =
  QCheck.Gen.(
    let* prefix_len = int_range 1 2 in
    let* prefix = list_repeat prefix_len gen_prefix_transform in
    let* seed_sz = int_range 4 16 in
    let* seed =
      oneofl
        Transform.
          [
            Seed_block { part_size = seed_sz };
            Seed_gpart { part_size = seed_sz };
          ]
    in
    let* tile_pack = bool in
    let tail =
      Transform.Sparse_tile { growth = Transform.Full; seed }
      ::
      (if tile_pack then [ Transform.(Data_reorder Tile_pack) ] else [])
    in
    return (Plan.make ~name:"rand-fst" (prefix @ tail)))

let arb_case =
  QCheck.make
    ~print:(fun ((n, e, churn_seed), plan) ->
      Fmt.str "n=%d m=%d churn_seed=%d plan=%a" n (Array.length e) churn_seed
        Plan.pp plan)
    QCheck.Gen.(
      let* n = int_range 8 60 in
      let* m = int_range 4 150 in
      let* pairs =
        array_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      let pairs =
        Array.map
          (fun (a, b) -> if a = b then (a, (b + 1) mod n) else (a, b))
          pairs
      in
      let* churn_seed = int_range 0 10_000 in
      let* plan = gen_fst_plan in
      return ((n, pairs, churn_seed), plan))

(* ------------------------------------------------------------------ *)
(* Bit-identity of two inspector results, including executor output *)

let schedules_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Reorder.Schedule.equal a b
  | _ -> false

let exec_bits (r : Inspector.result) =
  let k = r.kernel.Kernels.Kernel.copy () in
  (match r.schedule with
  | Some s -> k.Kernels.Kernel.run_tiled s ~steps:2
  | None -> k.Kernels.Kernel.run ~steps:2);
  k.Kernels.Kernel.snapshot ()

let results_equal (a : Inspector.result) (b : Inspector.result) =
  Reorder.Perm.equal a.sigma_total b.sigma_total
  && Reorder.Perm.equal a.delta_total b.delta_total
  && schedules_equal a.schedule b.schedule
  && Kernels.Kernel.snapshots_equal_bits
       (a.kernel.Kernels.Kernel.snapshot ())
       (b.kernel.Kernels.Kernel.snapshot ())
  && Kernels.Kernel.snapshots_equal_bits (exec_bits a) (exec_bits b)

(* ------------------------------------------------------------------ *)
(* Churn invariants: degree multiset preserved, deterministic *)

let degrees (d : Datagen.Dataset.t) =
  let deg = Array.make d.n_nodes 0 in
  Array.iter (fun v -> deg.(v) <- deg.(v) + 1) d.left;
  Array.iter (fun v -> deg.(v) <- deg.(v) + 1) d.right;
  deg

let prop_churn_degree_preserving =
  QCheck.Test.make ~name:"churn preserves the degree multiset" ~count:100
    arb_case (fun ((n, pairs, seed), _) ->
      let d = dataset_of (n, pairs) in
      let churned, damage =
        Datagen.Churn.rewire ~rng:(Datagen.Rng.create seed) ~fraction:0.1 d
      in
      degrees churned = degrees d
      && Array.length churned.Datagen.Dataset.left = Array.length d.left
      && Datagen.Churn.damaged_edges damage
         <= damage.Datagen.Churn.requested_edges * 2)

let prop_churn_deterministic =
  QCheck.Test.make ~name:"churn is deterministic under the figure RNG"
    ~count:50 arb_case (fun ((n, pairs, seed), _) ->
      let d = dataset_of (n, pairs) in
      let c1, g1 =
        Datagen.Churn.rewire ~rng:(Datagen.Rng.create seed) ~fraction:0.05 d
      in
      let c2, g2 =
        Datagen.Churn.rewire ~rng:(Datagen.Rng.create seed) ~fraction:0.05 d
      in
      c1.Datagen.Dataset.left = c2.Datagen.Dataset.left
      && c1.Datagen.Dataset.right = c2.Datagen.Dataset.right
      && g1.Datagen.Churn.rewired = g2.Datagen.Churn.rewired
      && g1.Datagen.Churn.touched_nodes = g2.Datagen.Churn.touched_nodes)

(* ------------------------------------------------------------------ *)
(* The contract: repair(churn(d, k)) == frozen regrowth, bit for bit,
   on every kernel, at k in {1, 5, 10}%, across two chained rounds. *)

let repair_matches_regrow ~fraction ~rounds plan of_dataset d seed =
  let kernel = of_dataset d in
  let cold = Inspector.run plan kernel in
  let state = Repair.prepare plan cold in
  (match Repair.supported state with
  | Ok () -> ()
  | Error r -> QCheck.Test.fail_reportf "unsupported FST plan: %s" r);
  let rng = Datagen.Rng.create seed in
  let rec go d round =
    round > rounds
    ||
    let churned, damage = Datagen.Churn.rewire ~rng ~fraction d in
    let kernel' = of_dataset churned in
    let repaired, info =
      Repair.repair ~policy:`Repair ~verify:true state kernel' ~damage
    in
    let reference = Repair.regrow state kernel' in
    (not info.Repair.fell_back)
    && info.Repair.verified = Some true
    && results_equal repaired reference
    && go churned (round + 1)
  in
  go d 1

let prop_repair_bit_identical =
  QCheck.Test.make
    ~name:"repair = frozen regrowth (all kernels, 1/5/10%, chained)"
    ~count:20 arb_case (fun ((n, pairs, seed), plan) ->
      QCheck.assume (Result.is_ok (Plan.validate plan));
      let d = dataset_of (n, pairs) in
      List.for_all
        (fun (_, of_dataset) ->
          List.for_all
            (fun fraction ->
              repair_matches_regrow ~fraction ~rounds:2 plan of_dataset d seed)
            [ 0.01; 0.05; 0.10 ])
        kernels_under_test)

(* Plans without sparse tiling repair by pure frozen replay. *)
let prop_repair_pure_replay =
  QCheck.Test.make ~name:"pure-replay repair (no tiling)" ~count:15 arb_case
    (fun ((n, pairs, seed), _) ->
      let d = dataset_of (n, pairs) in
      repair_matches_regrow ~fraction:0.05 ~rounds:1 Plan.cpack_lexgroup
        Kernels.Nbf.of_dataset d seed)

(* ------------------------------------------------------------------ *)
(* Fallback paths *)

let fst_plan = Plan.with_fst ~seed_part_size:16 Plan.cpack_lexgroup

let mol1 () = Option.get (Datagen.Generators.by_name ~scale:512 "mol1")

let churn ?(fraction = 0.05) ?(seed = 7) d =
  Datagen.Churn.rewire ~rng:(Datagen.Rng.create seed) ~fraction d

(* Heavy damage takes the cold path and re-seeds the state; the result
   must be a genuine fresh inspection. *)
let test_auto_fallback () =
  let d = mol1 () in
  let kernel = Kernels.Moldyn.of_dataset d in
  let cold = Inspector.run fst_plan kernel in
  let state = Repair.prepare fst_plan cold in
  let churned, damage = churn ~fraction:0.6 d in
  let kernel' = Kernels.Moldyn.of_dataset churned in
  let repaired, info = Repair.repair state kernel' ~damage in
  Alcotest.(check bool) "fell back" true info.Repair.fell_back;
  Alcotest.(check bool)
    "matches a cold inspection" true
    (results_equal repaired (Inspector.run fst_plan kernel'));
  (* ... and the re-seeded state repairs incrementally again. *)
  let churned2, damage2 = churn ~seed:8 churned in
  let kernel2 = Kernels.Moldyn.of_dataset churned2 in
  let repaired2, info2 =
    Repair.repair ~policy:`Repair ~verify:true state kernel2 ~damage:damage2
  in
  Alcotest.(check bool) "second round incremental" false info2.Repair.fell_back;
  Alcotest.(check bool)
    "second round = regrowth" true
    (results_equal repaired2 (Repair.regrow state kernel2))

(* [Churn.rewire] keeps every degree, but [damage] is a public record,
   and any consistent damage set must repair. Here one endpoint moves,
   so one node loses an interaction and a node that had none gains it:
   its adjacency row has no room. A degree-preserving round then
   repairs on top, against [regrow]. *)
let test_degree_changing_damage () =
  let d = mol1 () in
  let n = d.Datagen.Dataset.n_nodes in
  let d = { d with Datagen.Dataset.n_nodes = n + 1; coords = None } in
  let j = Array.length d.Datagen.Dataset.left / 2 in
  let a = d.Datagen.Dataset.left.(j) and b = d.Datagen.Dataset.right.(j) in
  let right = Array.copy d.Datagen.Dataset.right in
  right.(j) <- n;
  let moved = { d with Datagen.Dataset.right } in
  let damage =
    {
      Datagen.Churn.rewired = [| (j, (a, b), (a, n)) |];
      touched_nodes = [| b; n |];
      requested_edges = 1;
      swaps = 0;
    }
  in
  let check label kernel' damage state =
    let repaired, info =
      Repair.repair ~policy:`Repair ~verify:true state kernel' ~damage
    in
    Alcotest.(check bool) (label ^ ": incremental") false info.Repair.fell_back;
    Alcotest.(check bool) (label ^ ": = regrowth") true
      (results_equal repaired (Repair.regrow state kernel'))
  in
  let cold = Inspector.run fst_plan (Kernels.Moldyn.of_dataset d) in
  let state = Repair.prepare fst_plan cold in
  check "endpoint moved" (Kernels.Moldyn.of_dataset moved) damage state;
  let churned, damage2 = churn ~seed:9 moved in
  check "then rewired" (Kernels.Moldyn.of_dataset churned) damage2 state

(* Cache-block growth is not incrementally repairable: the state says
   so and every repair is a (correct) cold fallback. *)
let test_cache_block_unsupported () =
  let d = mol1 () in
  let plan = Plan.with_cache_block ~seed_part_size:16 Plan.cpack in
  let kernel = Kernels.Moldyn.of_dataset d in
  let cold = Inspector.run plan kernel in
  let state = Repair.prepare plan cold in
  Alcotest.(check bool)
    "unsupported" true
    (Result.is_error (Repair.supported state));
  let churned, damage = churn d in
  let kernel' = Kernels.Moldyn.of_dataset churned in
  let repaired, info = Repair.repair ~policy:`Repair state kernel' ~damage in
  Alcotest.(check bool) "falls back" true info.Repair.fell_back;
  Alcotest.(check bool)
    "fallback is a cold inspection" true
    (results_equal repaired (Inspector.run plan kernel'))

(* Repair replays the frozen reorderings onto the churned kernel
   without copying it first, so stepping the repaired result must
   leave that kernel untouched, with or without a data reordering in
   the plan. *)
let test_repair_aliases_nothing () =
  List.iter
    (fun (label, plan) ->
      let d = mol1 () in
      let cold = Inspector.run plan (Kernels.Moldyn.of_dataset d) in
      let state = Repair.prepare plan cold in
      let churned, damage = churn d in
      let kernel' = Kernels.Moldyn.of_dataset churned in
      let before = kernel'.Kernels.Kernel.snapshot () in
      let repaired, info =
        Repair.repair ~policy:`Repair state kernel' ~damage
      in
      Alcotest.(check bool) (label ^ ": incremental") false
        info.Repair.fell_back;
      let k = repaired.Inspector.kernel in
      let stepped = k.Kernels.Kernel.snapshot () in
      k.Kernels.Kernel.run_tiled (Option.get repaired.Inspector.schedule)
        ~steps:2;
      Alcotest.(check bool) (label ^ ": the step wrote node data") false
        (Kernels.Kernel.snapshots_equal_bits stepped
           (k.Kernels.Kernel.snapshot ()));
      Alcotest.(check bool) (label ^ ": churned kernel bit-identical") true
        (Kernels.Kernel.snapshots_equal_bits before
           (kernel'.Kernels.Kernel.snapshot ())))
    [
      ("CL+FST", fst_plan);
      ( "FST without tilePack (identity sigma)",
        Plan.with_fst ~tile_pack:false ~seed_part_size:16 Plan.base );
    ]

(* ------------------------------------------------------------------ *)
(* Plan-cache and specialization interplay *)

(* The spliced schedule is a fresh value with its own shape: nothing
   pinned to the pre-churn schedule can be replayed against it. *)
let test_no_stale_specialization () =
  let d = mol1 () in
  let kernel = Kernels.Moldyn.of_dataset d in
  let cold = Inspector.run fst_plan kernel in
  let state = Repair.prepare fst_plan cold in
  let old_sched = Option.get cold.Inspector.schedule in
  let old_shape = Reorder.Shape.analyze old_sched in
  let churned, damage = churn d in
  let kernel' = Kernels.Moldyn.of_dataset churned in
  let repaired, info = Repair.repair ~policy:`Repair state kernel' ~damage in
  Alcotest.(check bool) "moved something" true (info.Repair.tiles_moved > 0);
  let new_sched = Option.get repaired.Inspector.schedule in
  Alcotest.(check bool)
    "old shape index does not apply to the repaired schedule" false
    (Reorder.Shape.for_schedule old_shape new_sched)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "churn"
    [
      ( "datagen",
        qsuite [ prop_churn_degree_preserving; prop_churn_deterministic ] );
      ( "bit-identity",
        qsuite
          [
            prop_repair_bit_identical;
            prop_repair_pure_replay;
          ] );
      ( "fallback",
        [
          Alcotest.test_case "auto fallback past the damage threshold" `Quick
            test_auto_fallback;
          Alcotest.test_case "cache-block plans fall back" `Quick
            test_cache_block_unsupported;
        ] );
      ( "damage",
        [
          Alcotest.test_case "degree-changing damage = regrowth" `Quick
            test_degree_changing_damage;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "repaired kernel aliases nothing" `Quick
            test_repair_aliases_nothing;
        ] );
      ( "interop",
        [
          Alcotest.test_case "no stale specialization" `Quick
            test_no_stale_specialization;
        ] );
    ]
