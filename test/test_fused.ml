(* The fused composition — Remap_once traversing a view of the
   original access through the composed (sigma, delta) instead of a
   remapped copy — must be a pure cost optimization: random
   composition chains on every kernel produce bit-identical results
   (sigma/delta, per-layer reordering functions, tile schedule, and
   remapped kernel arrays) under Remap_each and Remap_once. *)

(* ------------------------------------------------------------------ *)
(* Random datasets (same shape as test_par's generator) *)

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
    (* the one kernel with an epilogue fold and no time tiling *)
    ("cg", Kernels.Cg.of_dataset);
  ]

(* ------------------------------------------------------------------ *)
(* Random valid plans: 1-4 transforms, an optional sparse tiling at
   the end (optionally followed by tilePack), data/iteration
   reorderings before it. Valid by construction; [Plan.validate]
   double-checks. *)

let gen_prefix_transform =
  QCheck.Gen.(
    let* pick = int_range 0 6 in
    let* sz = int_range 4 16 in
    return
      (match pick with
      | 0 -> Compose.Transform.(Data_reorder Cpack)
      | 1 -> Compose.Transform.(Data_reorder (Gpart { part_size = sz }))
      | 2 -> Compose.Transform.(Data_reorder (Multilevel { part_size = sz }))
      | 3 -> Compose.Transform.(Data_reorder Rcm)
      | 4 -> Compose.Transform.(Iter_reorder Lexgroup)
      | 5 -> Compose.Transform.(Iter_reorder Lexsort)
      | _ ->
        Compose.Transform.(
          Iter_reorder (Bucket_tile { bucket_size = max 2 (sz / 2) }))))

let gen_plan =
  QCheck.Gen.(
    let* tail = int_range 0 2 in
    (* 0 = none, 1 = sparse tile, 2 = sparse tile + tilePack *)
    let tail_len = if tail = 0 then 0 else tail in
    let* prefix_len = int_range (max 1 (1 - tail_len)) (4 - tail_len) in
    let* prefix = list_repeat prefix_len gen_prefix_transform in
    let* growth =
      oneofl Compose.Transform.[ Full; Cache_block ]
    in
    let* seed_sz = int_range 4 16 in
    let* seed =
      oneofl
        Compose.Transform.
          [
            Seed_block { part_size = seed_sz };
            Seed_gpart { part_size = seed_sz };
          ]
    in
    let tailt =
      match tail with
      | 0 -> []
      | 1 -> [ Compose.Transform.Sparse_tile { growth; seed } ]
      | _ ->
        [
          Compose.Transform.Sparse_tile { growth; seed };
          Compose.Transform.(Data_reorder Tile_pack);
        ]
    in
    return (Compose.Plan.make ~name:"rand" (prefix @ tailt)))

let arb_case =
  QCheck.make
    ~print:(fun ((n, e), plan) ->
      Fmt.str "n=%d m=%d plan=%a" n (Array.length e) Compose.Plan.pp plan)
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
      let* plan = gen_plan in
      return ((n, pairs), plan))

(* ------------------------------------------------------------------ *)
(* Bit-identity of two inspector results *)

let schedules_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    Reorder.Schedule.row_ptr a = Reorder.Schedule.row_ptr b
    && Reorder.Schedule.flat_items a = Reorder.Schedule.flat_items b
  | _ -> false

let results_equal (a : Compose.Inspector.result) (b : Compose.Inspector.result)
    =
  Reorder.Perm.equal a.sigma_total b.sigma_total
  && Reorder.Perm.equal a.delta_total b.delta_total
  && schedules_equal a.schedule b.schedule
  && List.length a.reordering_fns = List.length b.reordering_fns
  && List.for_all2
       (fun (na, pa) (nb, pb) -> na = nb && Reorder.Perm.equal pa pb)
       a.reordering_fns b.reordering_fns
  && Kernels.Kernel.snapshots_equal_bits
       (a.kernel.Kernels.Kernel.snapshot ())
       (b.kernel.Kernels.Kernel.snapshot ())

let run ~strategy plan kernel = Compose.Inspector.run ~strategy plan kernel

(* ------------------------------------------------------------------ *)
(* Remap_once = Remap_each *)

let prop_bit_identical =
  QCheck.Test.make ~name:"remap-once = remap-each (all kernels)" ~count:40
    arb_case (fun (spec, plan) ->
      QCheck.assume (Result.is_ok (Compose.Plan.validate plan));
      let d = dataset_of spec in
      List.for_all
        (fun (_, of_dataset) ->
          let kernel = of_dataset d in
          results_equal
            (run ~strategy:Compose.Inspector.Remap_each plan kernel)
            (run ~strategy:Compose.Inspector.Remap_once plan kernel))
        kernels_under_test)

(* The GC composition (two data reorderings back to back) end to end
   at a real scale. *)
let test_gc_fused () =
  let d = Option.get (Datagen.Generators.by_name ~scale:512 "mol1") in
  let kernel = Kernels.Moldyn.of_dataset d in
  let plan = Compose.Plan.gpart_cpack ~part_size:16 in
  let each = run ~strategy:Compose.Inspector.Remap_each plan kernel in
  let once = run ~strategy:Compose.Inspector.Remap_once plan kernel in
  Alcotest.(check bool) "serial remap-once" true (results_equal each once)

(* ------------------------------------------------------------------ *)
(* One schedule build = the old renames *)

(* The inspector keeps its tile functions, renames the identity loops'
   through the data reorderings after tiling, and builds its schedule
   once. The reference is the schedule built the old way: [of_tile_fns]
   at tiling (the inspection of the plan cut after its sparse tiling),
   then [Schedule.remap_loop] of every loop but the seed's through each
   data reordering after tiling, in order. Every tiling plan of
   [Plan.candidates], plus one with two data reorderings after tiling,
   on all four kernels, under both strategies. *)
let test_one_schedule_build () =
  let module I = Compose.Inspector in
  let module P = Compose.Plan in
  let plans =
    List.filter P.has_sparse_tiling
      (P.candidates ~gpart_size:16 ~seed_part_size:24)
    @ [
        P.make ~name:"CL+FST+CPACK"
          (P.transforms (P.with_fst ~seed_part_size:24 P.cpack_lexgroup)
          @ [ Compose.Transform.(Data_reorder Cpack) ]);
      ]
  in
  let d = Option.get (Datagen.Generators.by_name ~scale:512 "foil") in
  List.iter
    (fun (name, of_dataset) ->
      let kernel = of_dataset d in
      let seed = kernel.Kernels.Kernel.seed_loop in
      List.iter
        (fun plan ->
          let rec cut = function
            | [] -> []
            | (Compose.Transform.Sparse_tile _ as t) :: _ -> [ t ]
            | t :: rest -> t :: cut rest
          in
          let at_tiling = P.make ~name:"cut" (cut (P.transforms plan)) in
          List.iter
            (fun strategy ->
              let label =
                Fmt.str "%s/%s/%s" name (P.name plan)
                  (match strategy with
                  | I.Remap_each -> "remap-each"
                  | I.Remap_once -> "remap-once")
              in
              let tiled = I.run ~strategy at_tiling kernel in
              let r = I.run ~strategy plan kernel in
              let after =
                List.filteri
                  (fun i _ -> i >= List.length tiled.I.reordering_fns)
                  r.I.reordering_fns
              in
              let reference =
                List.fold_left
                  (fun sched (_, perm) ->
                    List.fold_left
                      (fun sched l ->
                        if l = seed then sched
                        else Reorder.Schedule.remap_loop sched ~loop:l perm)
                      sched
                      (List.init (Reorder.Schedule.n_loops sched) Fun.id))
                  (Option.get tiled.I.schedule)
                  (List.filter
                     (fun (fn, _) -> String.starts_with ~prefix:"sigma" fn)
                     after)
              in
              Alcotest.(check bool) label true
                (Reorder.Schedule.equal reference (Option.get r.I.schedule)))
            [ I.Remap_each; I.Remap_once ])
        plans)
    kernels_under_test

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "fused"
    [
      ("equivalence", qsuite [ prop_bit_identical ]);
      ( "compositions",
        [
          Alcotest.test_case "GC fused end to end" `Quick test_gc_fused;
          Alcotest.test_case "one schedule build = per-loop renames" `Quick
            test_one_schedule_build;
        ] );
    ]
