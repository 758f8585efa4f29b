(* Tests for the benchmark kernels: executor correctness under every
   transformation (transformed results must match the original run
   after un-permuting), trace/plain consistency, and the Gauss-Seidel
   sparse tiling (bitwise equality with the plain smoother). *)

let small_dataset () = Datagen.Generators.foil ~scale:512 ()
let mol_dataset () = Datagen.Generators.mol1 ~scale:512 ()

let kernels () =
  [
    ("irreg", Kernels.Irreg.of_dataset (small_dataset ()));
    ("nbf", Kernels.Nbf.of_dataset (small_dataset ()));
    ("moldyn", Kernels.Moldyn.of_dataset (mol_dataset ()));
    ("cg", Kernels.Cg.of_dataset (small_dataset ()));
  ]

let check_close name s1 s2 =
  Alcotest.(check bool)
    (Fmt.str "%s results match" name)
    true
    (Kernels.Kernel.snapshots_close ~rtol:1e-9 s1 s2)

(* Reference snapshot: run the untransformed kernel. *)
let reference (k : Kernels.Kernel.t) ~steps =
  let k = k.Kernels.Kernel.copy () in
  k.Kernels.Kernel.run ~steps;
  k.Kernels.Kernel.snapshot ()

let test_identity_perm_roundtrip () =
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      let id = Reorder.Perm.id k.Kernels.Kernel.n_nodes in
      let k' = k.Kernels.Kernel.apply_data_perm id in
      let r1 = reference k ~steps:3 in
      let r2 = reference k' ~steps:3 in
      check_close (name ^ " identity") r1 r2)
    (kernels ())

(* A data reordering permutes state and results consistently:
   unpermuting the transformed run recovers the original run. *)
let test_data_perm_correct () =
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      let rng = Datagen.Rng.create 5 in
      let sigma =
        Reorder.Perm.of_forward
          (Datagen.Rng.permutation rng k.Kernels.Kernel.n_nodes)
      in
      let k' = k.Kernels.Kernel.apply_data_perm sigma in
      let r_orig = reference k ~steps:3 in
      k'.Kernels.Kernel.run ~steps:3;
      let r_perm =
        Kernels.Kernel.unpermute_snapshot sigma (k'.Kernels.Kernel.snapshot ())
      in
      check_close (name ^ " data perm") r_orig r_perm)
    (kernels ())

(* An interaction reordering must not change any result (reduction). *)
let test_iter_perm_correct () =
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      let rng = Datagen.Rng.create 6 in
      let delta =
        Reorder.Perm.of_forward
          (Datagen.Rng.permutation rng k.Kernels.Kernel.n_inter)
      in
      let k' = k.Kernels.Kernel.apply_iter_perm delta in
      let r_orig = reference k ~steps:3 in
      let r_perm = reference k' ~steps:3 in
      check_close (name ^ " iter perm") r_orig r_perm)
    (kernels ())

(* The sparse-tiled executor over any legal schedule matches the plain
   executor. *)
let test_tiled_executor_correct () =
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
      let seed_loop = k.Kernels.Kernel.seed_loop in
      let seed =
        Reorder.Sparse_tile.tile_fn_of_partition
          (Irgraph.Partition.block
             ~n:k.Kernels.Kernel.loop_sizes.(seed_loop)
             ~part_size:7)
      in
      let tiles =
        Reorder.Sparse_tile.full ~chain ~seed:seed_loop ~seed_tiles:seed ()
      in
      Alcotest.(check bool)
        (name ^ " legal") true
        (Reorder.Sparse_tile.check_legality ~chain ~tiles = []);
      let sched = Reorder.Schedule.of_tile_fns tiles in
      let r_plain = reference k ~steps:3 in
      let k' = k.Kernels.Kernel.copy () in
      k'.Kernels.Kernel.run_tiled sched ~steps:3;
      check_close (name ^ " tiled") r_plain (k'.Kernels.Kernel.snapshot ()))
    (kernels ())

(* Traced executors emit the same number of references per step in
   plain and tiled form (same loop bodies, different order). *)
let test_trace_counts_match () =
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      let layout = Kernels.Kernel.layout k in
      let count run =
        let cache =
          Cachesim.Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2
        in
        run ~layout ~access:(fun a -> ignore (Cachesim.Cache.access cache a));
        Cachesim.Cache.accesses cache
      in
      let plain = count (fun ~layout ~access ->
          k.Kernels.Kernel.run_traced ~steps:2 ~layout ~access)
      in
      let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
      let seed =
        Reorder.Sparse_tile.tile_fn_of_partition
          (Irgraph.Partition.block
             ~n:k.Kernels.Kernel.loop_sizes.(k.Kernels.Kernel.seed_loop)
             ~part_size:11)
      in
      let tiles =
        Reorder.Sparse_tile.full ~chain ~seed:k.Kernels.Kernel.seed_loop
          ~seed_tiles:seed ()
      in
      let sched = Reorder.Schedule.of_tile_fns tiles in
      let tiled = count (fun ~layout ~access ->
          k.Kernels.Kernel.run_tiled_traced sched ~steps:2 ~layout ~access)
      in
      Alcotest.(check int) (name ^ " trace counts") plain tiled)
    (kernels ())

let test_bytes_per_node () =
  let checks =
    [ ("irreg", 16); ("nbf", 48); ("moldyn", 72); ("cg", 48) ]
  in
  List.iter
    (fun (name, k) ->
      let expected = List.assoc name checks in
      Alcotest.(check int)
        (name ^ " bytes/node")
        expected
        (Kernels.Kernel.bytes_per_node k))
    (kernels ())

let test_copy_isolates () =
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      let before = k.Kernels.Kernel.snapshot () in
      let k' = k.Kernels.Kernel.copy () in
      k'.Kernels.Kernel.run ~steps:2;
      check_close (name ^ " copy isolated") before (k.Kernels.Kernel.snapshot ()))
    (kernels ())

(* ------------------------------------------------------------------ *)
(* Golden hashes: every walk's final bits and every traced address
   stream, pinned to constants. A reassociated body or a reordered
   touch (which would shift every cache-model figure) changes a hash;
   the comparisons above would not notice. *)

let hash_snapshot snap =
  let b = Rtrt_plancache.Fingerprint.create () in
  List.iter
    (fun (name, a) ->
      Rtrt_plancache.Fingerprint.add_string b name;
      Array.iter (Rtrt_plancache.Fingerprint.add_float b) a)
    snap;
  Rtrt_plancache.Fingerprint.(to_hex (value b))

let hash_trace run =
  let b = Rtrt_plancache.Fingerprint.create () in
  run (Rtrt_plancache.Fingerprint.add_int b);
  Rtrt_plancache.Fingerprint.(to_hex (value b))

(* One fixed full-sparse-tiling schedule per kernel. *)
let fst_schedule (k : Kernels.Kernel.t) =
  let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
  let seed_loop = k.Kernels.Kernel.seed_loop in
  let seed =
    Reorder.Sparse_tile.tile_fn_of_partition
      (Irgraph.Partition.block
         ~n:k.Kernels.Kernel.loop_sizes.(seed_loop)
         ~part_size:7)
  in
  let tiles =
    Reorder.Sparse_tile.full ~chain ~seed:seed_loop ~seed_tiles:seed ()
  in
  (Reorder.Schedule.of_tile_fns tiles, Reorder.Tile_par.analyze ~chain ~tiles)

let golden_hashes (k : Kernels.Kernel.t) =
  let sched, par = fst_schedule k in
  let after f =
    let k' = k.Kernels.Kernel.copy () in
    f k';
    hash_snapshot (k'.Kernels.Kernel.snapshot ())
  in
  let layout = Kernels.Kernel.layout k in
  [
    ("run", after (fun k -> k.Kernels.Kernel.run ~steps:3));
    ("run_tiled", after (fun k -> k.Kernels.Kernel.run_tiled sched ~steps:3));
    ( "run_tiled_shaped",
      after (fun k ->
          k.Kernels.Kernel.run_tiled_shaped sched
            (Reorder.Shape.analyze sched) ~steps:3) );
    ( "plan_par serial",
      after (fun k ->
          Rtrt_par.Pool.with_pool ~domains:1 (fun pool ->
              (k.Kernels.Kernel.plan_par ~pool sched
                 ~level_of:par.Reorder.Tile_par.level_of)
                .Kernels.Kernel.par_run ~tier:Rtrt_par.Exec.Serial ~steps:3 ()))
    );
    ( "run_traced",
      hash_trace (fun access ->
          k.Kernels.Kernel.run_traced ~steps:2 ~layout ~access) );
    ( "run_tiled_traced",
      hash_trace (fun access ->
          k.Kernels.Kernel.run_tiled_traced sched ~steps:2 ~layout ~access) );
  ]

let golden =
  [
    ( "irreg",
      [
        ("run", "e7c33a2ef35631f5");
        ("run_tiled", "e7c33a2ef35631f5");
        ("run_tiled_shaped", "e7c33a2ef35631f5");
        ("plan_par serial", "5a3e8d377abdfdb8");
        ("run_traced", "edcf8af90fff423d");
        ("run_tiled_traced", "69025a962997f0ad");
      ] );
    ( "nbf",
      [
        ("run", "dd3ddf254424d021");
        ("run_tiled", "dd3ddf254424d021");
        ("run_tiled_shaped", "dd3ddf254424d021");
        ("plan_par serial", "8ee4999b65d60c27");
        ("run_traced", "ccd8cae7274f77c5");
        ("run_tiled_traced", "0f6a2907ba3b993d");
      ] );
    ( "moldyn",
      [
        ("run", "26415726ef5ff8ba");
        ("run_tiled", "26415726ef5ff8ba");
        ("run_tiled_shaped", "26415726ef5ff8ba");
        ("plan_par serial", "bda25dd1865a77cb");
        ("run_traced", "ef06bdc36a386d15");
        ("run_tiled_traced", "b873b865e5bb0fad");
      ] );
    ( "cg",
      [
        ("run", "46b25d934f5a3193");
        ("run_tiled", "ba5acf86cee923e6");
        ("run_tiled_shaped", "ba5acf86cee923e6");
        ("plan_par serial", "b384b3d2fac93c3c");
        ("run_traced", "74c9e876736ceceb");
        ("run_tiled_traced", "8642a52ab8ae3acb");
      ] );
  ]

let test_golden_hashes () =
  List.iter
    (fun (name, k) ->
      let expected = List.assoc name golden in
      List.iter
        (fun (walk, h) ->
          Alcotest.(check string)
            (Fmt.str "%s %s" name walk)
            (Option.value ~default:"?" (List.assoc_opt walk expected))
            h)
        (golden_hashes k))
    (kernels ())

(* ------------------------------------------------------------------ *)
(* Construction-time validation: the executors stream index arrays
   with unchecked reads, which is sound only because no kernel can be
   built over an endpoint outside [0, n_nodes) or unequal left/right
   lengths. *)

let test_bad_index_arrays_rejected () =
  let d = small_dataset () in
  let n = d.Datagen.Dataset.n_nodes in
  let with_left f =
    let left = Array.copy d.Datagen.Dataset.left in
    f left;
    { d with Datagen.Dataset.left }
  in
  let bad =
    [
      ("endpoint = n_nodes", with_left (fun l -> l.(0) <- n));
      ("negative endpoint", with_left (fun l -> l.(Array.length l - 1) <- -1));
      ( "left/right lengths differ",
        {
          d with
          Datagen.Dataset.right =
            Array.sub d.Datagen.Dataset.right 0
              (Array.length d.Datagen.Dataset.right - 1);
        } );
    ]
  in
  List.iter
    (fun (kname, of_dataset) ->
      List.iter
        (fun (what, d) ->
          match of_dataset d with
          | (_ : Kernels.Kernel.t) ->
            Alcotest.failf "%s accepted a dataset with %s" kname what
          | exception Invalid_argument _ -> ())
        bad)
    [
      ("moldyn", Kernels.Moldyn.of_dataset);
      ("nbf", Kernels.Nbf.of_dataset);
      ("irreg", Kernels.Irreg.of_dataset);
      ("cg", Kernels.Cg.of_dataset);
    ]

(* ------------------------------------------------------------------ *)
(* Gauss-Seidel sparse tiling *)

let gs_problem ~scale =
  let d = Datagen.Generators.foil ~scale () in
  let graph = Datagen.Dataset.to_graph d in
  let n = Irgraph.Csr.num_nodes graph in
  let f = Array.init n (fun i -> 1.0 +. float_of_int (i mod 17)) in
  (graph, f)

let test_gs_plain_converges () =
  let graph, f = gs_problem ~scale:512 in
  let t = Kernels.Gauss_seidel.create ~graph ~f in
  Kernels.Gauss_seidel.run_plain t ~sweeps:50;
  (* After many sweeps the residual change per sweep is small. *)
  let before = Array.copy t.Kernels.Gauss_seidel.u in
  Kernels.Gauss_seidel.run_plain t ~sweeps:1;
  let delta = ref 0.0 in
  Array.iteri
    (fun i u -> delta := !delta +. abs_float (u -. before.(i)))
    t.Kernels.Gauss_seidel.u;
  Alcotest.(check bool) "converging" true
    (!delta /. float_of_int (Array.length f) < 1e-3)

let tiled_setup ~sweeps ~part_size ~seed_sweep graph f =
  let g = Irgraph.Partition.gpart graph ~part_size in
  let graph', f', _sigma, seed =
    Kernels.Gauss_seidel.renumber_by_partition graph ~f ~partition:g
  in
  let tiling = Kernels.Gauss_seidel.grow graph' ~seed ~seed_sweep ~sweeps in
  (graph', f', tiling)

let test_gs_constraints_hold () =
  let graph, f = gs_problem ~scale:512 in
  List.iter
    (fun seed_sweep ->
      let graph', _, tiling =
        tiled_setup ~sweeps:5 ~part_size:40 ~seed_sweep graph f
      in
      Alcotest.(check int)
        (Fmt.str "no violations (seed sweep %d)" seed_sweep)
        0
        (List.length (Kernels.Gauss_seidel.check_constraints graph' tiling)))
    [ 0; 2; 4 ]

let test_gs_tiled_equals_plain () =
  let graph, f = gs_problem ~scale:512 in
  let graph', f', tiling = tiled_setup ~sweeps:6 ~part_size:40 ~seed_sweep:3 graph f in
  let t_plain = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
  Kernels.Gauss_seidel.run_plain t_plain ~sweeps:6;
  let t_tiled = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
  Kernels.Gauss_seidel.run_tiled t_tiled tiling;
  (* Every dependence is respected, so the executions are bitwise
     identical. *)
  Alcotest.(check bool) "bitwise equal" true
    (Array.for_all2 ( = ) t_plain.Kernels.Gauss_seidel.u
       t_tiled.Kernels.Gauss_seidel.u)

let test_gs_traced_counts () =
  let graph, f = gs_problem ~scale:512 in
  let graph', f', tiling = tiled_setup ~sweeps:4 ~part_size:40 ~seed_sweep:2 graph f in
  let t = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
  let layout = Kernels.Gauss_seidel.layout t in
  let count run =
    let cache = Cachesim.Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 in
    run ~layout ~access:(fun a -> ignore (Cachesim.Cache.access cache a));
    Cachesim.Cache.accesses cache
  in
  let plain = count (Kernels.Gauss_seidel.run_traced t ~sweeps:4) in
  let tiled = count (Kernels.Gauss_seidel.run_tiled_traced t tiling) in
  Alcotest.(check int) "same references" plain tiled

(* The schedule walk's final bits, pinned like the pair kernels'. *)
let gs_golden = "41ae78df83120da0"

let test_gs_golden () =
  let graph, f = gs_problem ~scale:512 in
  let graph', f', tiling =
    tiled_setup ~sweeps:4 ~part_size:40 ~seed_sweep:2 graph f
  in
  let sched = Kernels.Gauss_seidel.schedule tiling in
  let walk run =
    let t = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
    run t;
    run t;
    hash_snapshot [ ("u", t.Kernels.Gauss_seidel.u) ]
  in
  Alcotest.(check string) "gs run_sched" gs_golden
    (walk (fun t -> Kernels.Gauss_seidel.run_sched t sched))

(* Property: GS tiling constraints hold on random graphs. *)
let prop_gs_constraints =
  let arb =
    QCheck.make
      ~print:(fun (n, e) -> Printf.sprintf "n=%d, %d edges" n (List.length e))
      QCheck.Gen.(
        let* n = int_range 4 40 in
        let* m = int_range 3 80 in
        let* edges = list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
        return (n, edges))
  in
  QCheck.Test.make ~name:"gs tiling constraints on random graphs" ~count:100
    arb (fun (n, edges) ->
      let graph = Irgraph.Csr.of_edges ~n (Array.of_list edges) in
      let f = Array.init n (fun i -> float_of_int (i + 1)) in
      let graph', f', tiling = tiled_setup ~sweeps:4 ~part_size:5 ~seed_sweep:1 graph f in
      ignore f';
      Kernels.Gauss_seidel.check_constraints graph' tiling = [])

let prop_gs_tiled_equals_plain =
  let arb =
    QCheck.make
      ~print:(fun (n, e) -> Printf.sprintf "n=%d, %d edges" n (List.length e))
      QCheck.Gen.(
        let* n = int_range 4 30 in
        let* m = int_range 3 60 in
        let* edges = list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
        return (n, edges))
  in
  QCheck.Test.make ~name:"gs tiled equals plain on random graphs" ~count:100
    arb (fun (n, edges) ->
      let graph = Irgraph.Csr.of_edges ~n (Array.of_list edges) in
      let f = Array.init n (fun i -> float_of_int ((i * 7 mod 13) + 1)) in
      let graph', f', tiling = tiled_setup ~sweeps:3 ~part_size:4 ~seed_sweep:1 graph f in
      let t1 = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
      Kernels.Gauss_seidel.run_plain t1 ~sweeps:3;
      let t2 = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
      Kernels.Gauss_seidel.run_tiled t2 tiling;
      Array.for_all2 ( = ) t1.Kernels.Gauss_seidel.u t2.Kernels.Gauss_seidel.u)

(* Property: [apply_perms] is [apply_iter_perm] then [apply_data_perm]
   in one rebuild, array for array, and shares no array with its
   input, also when sigma is the identity. *)
let prop_apply_perms_is_two_steps =
  let builders =
    [|
      ("moldyn", Kernels.Moldyn.of_dataset);
      ("nbf", Kernels.Nbf.of_dataset);
      ("irreg", Kernels.Irreg.of_dataset);
      ("cg", Kernels.Cg.of_dataset);
    |]
  in
  let arb =
    QCheck.make
      ~print:(fun (b, n, pairs, seed, sigma_id) ->
        Printf.sprintf "%s n=%d m=%d seed=%d sigma_id=%b" (fst builders.(b)) n
          (Array.length pairs) seed sigma_id)
      QCheck.Gen.(
        let* b = int_bound (Array.length builders - 1) in
        let* n = int_range 2 40 in
        let* m = int_range 1 90 in
        let* pairs =
          array_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
        in
        let* seed = int_bound 10_000 in
        let* sigma_id = bool in
        return (b, n, pairs, seed, sigma_id))
  in
  let same_bits a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         a b
  in
  QCheck.Test.make ~name:"apply_perms = apply_iter_perm then apply_data_perm"
    ~count:200 arb (fun (b, n, pairs, seed, sigma_id) ->
      let d =
        {
          Datagen.Dataset.name = "rand";
          n_nodes = n;
          left = Array.map fst pairs;
          right = Array.map snd pairs;
          coords = None;
        }
      in
      let k = (snd builders.(b)) d in
      let rng = Datagen.Rng.create seed in
      let delta =
        Reorder.Perm.of_forward
          (Datagen.Rng.permutation rng k.Kernels.Kernel.n_inter)
      in
      let sigma =
        if sigma_id then Reorder.Perm.id n
        else Reorder.Perm.of_forward (Datagen.Rng.permutation rng n)
      in
      let one = k.Kernels.Kernel.apply_perms ~delta ~sigma in
      let two =
        (k.Kernels.Kernel.apply_iter_perm delta).Kernels.Kernel.apply_data_perm
          sigma
      in
      let i1, f1 = one.Kernels.Kernel.exec_arrays ()
      and i2, f2 = two.Kernels.Kernel.exec_arrays ()
      and i0, f0 = k.Kernels.Kernel.exec_arrays () in
      let a1 = one.Kernels.Kernel.access and a2 = two.Kernels.Kernel.access in
      i1 = i2
      && a1.Reorder.Access.ptr = a2.Reorder.Access.ptr
      && a1.Reorder.Access.dat = a2.Reorder.Access.dat
      && Array.for_all2 same_bits f1 f2
      && Kernels.Kernel.snapshots_equal_bits
           (one.Kernels.Kernel.snapshot ())
           (two.Kernels.Kernel.snapshot ())
      && not
           (Array.exists (fun x -> Array.exists (( == ) x) i0) i1
           || Array.exists (fun x -> Array.exists (( == ) x) f0) f1))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "kernels"
    [
      ( "executors",
        [
          Alcotest.test_case "identity roundtrip" `Quick
            test_identity_perm_roundtrip;
          Alcotest.test_case "data perm correct" `Quick test_data_perm_correct;
          Alcotest.test_case "iter perm correct" `Quick test_iter_perm_correct;
          Alcotest.test_case "tiled executor correct" `Quick
            test_tiled_executor_correct;
          Alcotest.test_case "trace counts match" `Quick test_trace_counts_match;
          Alcotest.test_case "bytes per node" `Quick test_bytes_per_node;
          Alcotest.test_case "copy isolates" `Quick test_copy_isolates;
          Alcotest.test_case "golden hashes" `Quick test_golden_hashes;
          Alcotest.test_case "bad index arrays rejected" `Quick
            test_bad_index_arrays_rejected;
        ] );
      ( "gauss-seidel",
        [
          Alcotest.test_case "plain converges" `Quick test_gs_plain_converges;
          Alcotest.test_case "constraints hold" `Quick test_gs_constraints_hold;
          Alcotest.test_case "tiled equals plain" `Quick
            test_gs_tiled_equals_plain;
          Alcotest.test_case "traced counts" `Quick test_gs_traced_counts;
          Alcotest.test_case "golden hashes" `Quick test_gs_golden;
        ] );
      ( "prop",
        qsuite
          [
            prop_gs_constraints;
            prop_gs_tiled_equals_plain;
            prop_apply_perms_is_two_steps;
          ] );
    ]
