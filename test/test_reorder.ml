(* Tests for the run-time reordering library: permutations, access
   patterns, and every inspector (CPACK, Gpart, RCM, lexGroup, lexSort,
   bucket tiling, sparse tiling, tilePack, schedules). Small concrete
   cases mirror the paper's Figures 2-5 example. *)

open Reorder

let perm = Alcotest.testable Perm.pp Perm.equal

(* ------------------------------------------------------------------ *)
(* Perm *)

let test_perm_roundtrip () =
  let p = Perm.of_forward [| 2; 0; 1; 3 |] in
  Alcotest.(check int) "forward" 2 (Perm.forward p 0);
  Alcotest.(check int) "backward" 0 (Perm.backward p 2);
  Alcotest.check perm "invert twice" p (Perm.invert (Perm.invert p))

let test_perm_of_inverse () =
  (* inv.(new) = old: positions [2;0;1] mean old 2 is first. *)
  let p = Perm.of_inverse [| 2; 0; 1 |] in
  Alcotest.(check int) "old 2 -> new 0" 0 (Perm.forward p 2);
  Alcotest.(check int) "old 0 -> new 1" 1 (Perm.forward p 0)

let test_perm_compose () =
  let p1 = Perm.of_forward [| 1; 2; 0 |] in
  let p2 = Perm.of_forward [| 0; 2; 1 |] in
  let c = Perm.compose p2 p1 in
  (* 0 -p1-> 1 -p2-> 2 *)
  Alcotest.(check int) "composition order" 2 (Perm.forward c 0)

let test_perm_apply () =
  let p = Perm.of_forward [| 2; 0; 1 |] in
  let a = Perm.apply_to_array p [| "a"; "b"; "c" |] in
  Alcotest.(check (array string)) "moved" [| "b"; "c"; "a" |] a;
  let f = Perm.apply_to_float_array p [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check (array (float 0.0))) "floats" [| 2.0; 3.0; 1.0 |] f

let test_perm_remap_values () =
  let p = Perm.of_forward [| 2; 0; 1 |] in
  Alcotest.(check (array int)) "values remapped" [| 2; 0; 1; 2 |]
    (Perm.remap_values p [| 0; 1; 2; 0 |])

let test_perm_invalid () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Perm: value 1 duplicated")
    (fun () -> ignore (Perm.of_forward [| 1; 1 |]));
  Alcotest.check_raises "range" (Invalid_argument "Perm: value 4 out of range")
    (fun () -> ignore (Perm.of_forward [| 0; 4 |]))

(* ------------------------------------------------------------------ *)
(* Access *)

(* The running example: 6 data locations, 6 interactions. This is the
   shape of Figure 2 (j-loop iterations touching pairs in x / fx). *)
let left_ex = [| 0; 3; 2; 5; 1; 4 |]
let right_ex = [| 3; 2; 5; 1; 4; 0 |]
let access_ex () = Access.of_pairs ~n_data:6 left_ex right_ex

let test_access_of_pairs () =
  let a = access_ex () in
  Alcotest.(check int) "iters" 6 (Access.n_iter a);
  Alcotest.(check int) "data" 6 (Access.n_data a);
  Alcotest.(check int) "touches" 12 (Access.n_touches a);
  Alcotest.(check (array int)) "touch of 1" [| 3; 2 |] (Access.touches a 1);
  Alcotest.(check int) "first touch" 3 (Access.first_touch a 1)

let test_access_identity () =
  let a = Access.identity 4 in
  Alcotest.(check (array int)) "identity" [| 2 |] (Access.touches a 2)

let test_access_map_data () =
  let a = access_ex () in
  let sigma = Perm.of_forward [| 5; 4; 3; 2; 1; 0 |] in
  let a' = Access.map_data sigma a in
  Alcotest.(check (array int)) "reversed locations" [| 5; 2 |]
    (Access.touches a' 0)

let test_access_reorder_iters () =
  let a = access_ex () in
  let delta = Perm.of_forward [| 5; 0; 1; 2; 3; 4 |] in
  let a' = Access.reorder_iters delta a in
  (* New iteration 0 is old iteration 1. *)
  Alcotest.(check (array int)) "moved iteration" [| 3; 2 |]
    (Access.touches a' 0);
  Alcotest.(check (array int)) "old 0 now last" [| 0; 3 |]
    (Access.touches a' 5)

let test_access_transpose () =
  let a = access_ex () in
  let t = Access.transpose a in
  Alcotest.(check int) "transpose iters = data" 6 (Access.n_iter t);
  (* Datum 0 is touched by iterations 0 (left) and 5 (right). *)
  Alcotest.(check (array int)) "touchers of 0" [| 0; 5 |] (Access.touches t 0)

(* Allocation bounds for the inspector's plain loops: over a
   100,000-iteration pair access they allocate their output plus a few
   words per datum, never a closure (or a ref) per iteration. A count
   rather than a timer, like the fingerprint's [no allocation per
   byte] test; [Gc.allocated_bytes] also counts the arrays too large
   for the minor heap. *)
let alloc_n_data = 1_000
let alloc_n_iter = 100_000

let alloc_pairs () =
  let n_data = alloc_n_data in
  let left = Array.init alloc_n_iter (fun j -> j mod n_data) in
  let right =
    Array.init alloc_n_iter (fun j -> ((j * 7919) + 1) mod n_data)
  in
  Access.of_pairs ~n_data left right

(* [f ()] must allocate at most [output r] words plus four per datum. *)
let check_allocation what f ~output =
  let before = Gc.allocated_bytes () in
  let r = f () in
  let words =
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let output = output r in
  let bound = output + (4 * alloc_n_data) + 64 in
  Alcotest.(check bool)
    (Fmt.str "%s allocated %.0f words (output %d, bound %d)" what words
       output bound)
    true
    (words <= float_of_int bound)

let test_access_transpose_allocation () =
  let a = alloc_pairs () in
  check_allocation "transpose"
    (fun () -> Access.transpose a)
    ~output:(fun t -> Array.length t.Access.ptr + Array.length t.Access.dat)

let tile_fn_output (t : Sparse_tile.tile_fn) = Array.length t.tile_of

let test_grow_forward_allocation () =
  let conn = alloc_pairs () in
  let prev =
    {
      Sparse_tile.n_tiles = 8;
      tile_of = Array.init alloc_n_data (fun d -> d mod 8);
    }
  in
  check_allocation "grow_forward"
    (fun () -> Sparse_tile.grow_forward ~conn ~prev)
    ~output:tile_fn_output

let test_grow_backward_scatter_allocation () =
  let conn = alloc_pairs () in
  let next =
    {
      Sparse_tile.n_tiles = 8;
      tile_of = Array.init alloc_n_iter (fun j -> j mod 8);
    }
  in
  check_allocation "grow_backward_scatter"
    (fun () -> Sparse_tile.grow_backward_scatter ~conn ~next)
    ~output:tile_fn_output

let test_cpack_view_allocation () =
  let base = alloc_pairs () in
  let sigma = Array.init alloc_n_data (fun d -> alloc_n_data - 1 - d) in
  let delta_inv = Array.init alloc_n_iter (fun j -> alloc_n_iter - 1 - j) in
  check_allocation "Cpack.run_view"
    (fun () -> Cpack.run_view base ~sigma ~delta_inv)
    ~output:Perm.size

let test_access_to_graph () =
  let a = access_ex () in
  let g = Access.to_graph a in
  Alcotest.(check int) "affinity edges" 6 (Irgraph.Csr.num_edges g)

(* ------------------------------------------------------------------ *)
(* CPACK *)

let test_cpack_first_touch_order () =
  let a = access_ex () in
  let sigma = Cpack.run a in
  (* Traversal order of locations: 0,3 / 3,2 / 2,5 / 5,1 / 1,4 / 4,0
     -> first touches: 0, 3, 2, 5, 1, 4. *)
  Alcotest.(check int) "0 stays" 0 (Perm.forward sigma 0);
  Alcotest.(check int) "3 second" 1 (Perm.forward sigma 3);
  Alcotest.(check int) "2 third" 2 (Perm.forward sigma 2);
  Alcotest.(check int) "5 fourth" 3 (Perm.forward sigma 5);
  Alcotest.(check int) "1 fifth" 4 (Perm.forward sigma 1);
  Alcotest.(check int) "4 sixth" 5 (Perm.forward sigma 4)

let test_cpack_untouched_tail () =
  (* Locations never touched keep original relative order at the end
     (the paper's final i-loop in Figure 10). *)
  let a = Access.of_pairs ~n_data:6 [| 4 |] [| 2 |] in
  let sigma = Cpack.run a in
  Alcotest.(check int) "4 first" 0 (Perm.forward sigma 4);
  Alcotest.(check int) "2 second" 1 (Perm.forward sigma 2);
  Alcotest.(check int) "0 third" 2 (Perm.forward sigma 0);
  Alcotest.(check int) "1 fourth" 3 (Perm.forward sigma 1);
  Alcotest.(check int) "3 fifth" 4 (Perm.forward sigma 3);
  Alcotest.(check int) "5 last" 5 (Perm.forward sigma 5)

let test_cpack_in_order () =
  let a = Access.of_pairs ~n_data:4 [| 0; 2 |] [| 1; 3 |] in
  let sigma = Cpack.run_in_order a ~order:[| 1; 0 |] in
  (* Visiting iteration 1 first: 2, 3, then 0, 1. *)
  Alcotest.(check int) "2 first" 0 (Perm.forward sigma 2);
  Alcotest.(check int) "0 third" 2 (Perm.forward sigma 0)

(* ------------------------------------------------------------------ *)
(* Gpart / RCM *)

let test_gpart_permutation_and_locality () =
  let a = access_ex () in
  let sigma, partition = Gpart_reorder.run_with_partition a ~part_size:3 in
  Alcotest.(check int) "parts" 2 (Irgraph.Partition.n_parts partition);
  (* Every part's data is numbered consecutively. *)
  let assign = Irgraph.Partition.assignment partition in
  let part_of_new = Array.make 6 (-1) in
  Array.iteri (fun old part -> part_of_new.(Perm.forward sigma old) <- part) assign;
  let changes = ref 0 in
  for nw = 1 to 5 do
    if part_of_new.(nw) <> part_of_new.(nw - 1) then incr changes
  done;
  Alcotest.(check int) "consecutive parts" 1 !changes

let test_rcm_reorder_is_perm () =
  let a = access_ex () in
  let sigma = Rcm_reorder.run a in
  Alcotest.(check int) "size" 6 (Perm.size sigma)

(* ------------------------------------------------------------------ *)
(* lexGroup / lexSort / bucket tiling *)

let test_lexgroup_groups_by_first_touch () =
  (* After CPACK the interactions touching low locations should come
     first (Figure 4). *)
  let a = access_ex () in
  let sigma = Cpack.run a in
  let a1 = Access.map_data sigma a in
  let delta = Lexgroup.run a1 in
  let a2 = Access.reorder_iters delta a1 in
  (* First touches must be non-decreasing in the new order. *)
  let prev = ref (-1) in
  for j = 0 to Access.n_iter a2 - 1 do
    let ft = Access.first_touch a2 j in
    Alcotest.(check bool) "sorted by first touch" true (ft >= !prev);
    prev := ft
  done

let test_lexgroup_stable () =
  (* Iterations with the same first touch keep original order. *)
  let a = Access.of_pairs ~n_data:3 [| 1; 0; 1; 0 |] [| 2; 2; 0; 1 |] in
  let delta = Lexgroup.run a in
  (* first touches: 1,0,1,0 -> groups: (1,3) then (0,2). *)
  Alcotest.(check int) "iter 1 first" 0 (Perm.forward delta 1);
  Alcotest.(check int) "iter 3 second" 1 (Perm.forward delta 3);
  Alcotest.(check int) "iter 0 third" 2 (Perm.forward delta 0);
  Alcotest.(check int) "iter 2 fourth" 3 (Perm.forward delta 2)

let test_lexsort_orders_tuples () =
  let a = Access.of_pairs ~n_data:4 [| 2; 0; 2; 0 |] [| 3; 1; 0; 2 |] in
  let delta = Lexsort.run a in
  let a' = Access.reorder_iters delta a in
  let tuples = List.init 4 (fun j -> Array.to_list (Access.touches a' j)) in
  Alcotest.(check (list (list int)))
    "lexicographically sorted"
    [ [ 0; 1 ]; [ 0; 2 ]; [ 2; 0 ]; [ 2; 3 ] ]
    tuples

let test_lexsort_compare () =
  Alcotest.(check bool) "prefix shorter first" true
    (Lexsort.compare_tuples [| 1 |] [| 1; 0 |] < 0);
  Alcotest.(check bool) "equal" true (Lexsort.compare_tuples [| 2; 3 |] [| 2; 3 |] = 0)

let test_bucket_tile () =
  let a = Access.of_pairs ~n_data:8 [| 6; 1; 5; 0 |] [| 7; 2; 4; 3 |] in
  let bt = Bucket_tile.run a ~bucket_size:4 in
  Alcotest.(check int) "buckets" 2 bt.Bucket_tile.n_buckets;
  (* Iterations with first touch < 4 (iters 1 and 3) come first. *)
  Alcotest.(check int) "iter 1 early" 0 (Perm.forward bt.Bucket_tile.delta 1);
  Alcotest.(check int) "iter 3 second" 1 (Perm.forward bt.Bucket_tile.delta 3);
  Alcotest.(check (array int)) "bucket ids" [| 0; 0; 1; 1 |]
    bt.Bucket_tile.bucket_of_new

(* ------------------------------------------------------------------ *)
(* Sparse tiling *)

(* moldyn-shaped chain: i loop (6 iters, writes x[i]), j loop (6
   interactions reading x, writing fx), k loop (6 iters reading fx).
   conn.(0): j-iteration -> i-iterations it depends on = the pair
   access; conn.(1): k-iteration -> j-iterations = transpose. *)
let moldyn_chain () =
  let acc = access_ex () in
  let conn0 = acc in
  let conn1 = Access.transpose acc in
  Sparse_tile.make_chain ~loop_sizes:[| 6; 6; 6 |] ~conn:[| conn0; conn1 |]

let test_fst_legality () =
  let chain = moldyn_chain () in
  let seed =
    Sparse_tile.tile_fn_of_partition
      (Irgraph.Partition.block ~n:6 ~part_size:2)
  in
  let tiles = Sparse_tile.full ~chain ~seed:1 ~seed_tiles:seed () in
  Alcotest.(check int) "three loops" 3 (Array.length tiles);
  Alcotest.(check (list (triple int int int)))
    "no violations" []
    (Sparse_tile.check_legality ~chain ~tiles)

let test_fst_seed_preserved () =
  let chain = moldyn_chain () in
  let seed =
    Sparse_tile.tile_fn_of_partition
      (Irgraph.Partition.block ~n:6 ~part_size:3)
  in
  let tiles = Sparse_tile.full ~chain ~seed:1 ~seed_tiles:seed () in
  Alcotest.(check (array int)) "seed loop unchanged" seed.Sparse_tile.tile_of
    tiles.(1).Sparse_tile.tile_of

let test_fst_backward_min_forward_max () =
  (* Two j-iterations per tile; i-iterations take the min tile of the
     j's reading them, k's take the max of the j's writing them. *)
  let left = [| 0; 1; 2 |] and right = [| 1; 2; 3 |] in
  let acc = Access.of_pairs ~n_data:4 left right in
  let chain =
    Sparse_tile.make_chain ~loop_sizes:[| 4; 3; 4 |]
      ~conn:[| acc; Access.transpose acc |]
  in
  let seed = { Sparse_tile.n_tiles = 3; tile_of = [| 0; 1; 2 |] } in
  let tiles = Sparse_tile.full ~chain ~seed:1 ~seed_tiles:seed () in
  (* i=1 is read by j=0 (tile 0) and j=1 (tile 1): min = 0. *)
  Alcotest.(check int) "i1 min" 0 tiles.(0).Sparse_tile.tile_of.(1);
  (* k=2 is written by j=1 (tile 1) and j=2 (tile 2): max = 2. *)
  Alcotest.(check int) "k2 max" 2 tiles.(2).Sparse_tile.tile_of.(2);
  (* untouched i=... all touched here; i=0 read only by j=0 -> 0. *)
  Alcotest.(check int) "i0" 0 tiles.(0).Sparse_tile.tile_of.(0);
  Alcotest.(check (list (triple int int int)))
    "legal" []
    (Sparse_tile.check_legality ~chain ~tiles)

let test_cache_block_leftover () =
  let left = [| 0; 1; 2 |] and right = [| 1; 2; 3 |] in
  let acc = Access.of_pairs ~n_data:4 left right in
  let chain =
    Sparse_tile.make_chain ~loop_sizes:[| 4; 3; 4 |]
      ~conn:[| acc; Access.transpose acc |]
  in
  (* Seed on loop 0: tiles {0,1} and {2,3}. *)
  let seed = { Sparse_tile.n_tiles = 2; tile_of = [| 0; 0; 1; 1 |] } in
  let tiles = Sparse_tile.cache_block ~chain ~seed_tiles:seed in
  (* j=0 reads i-iterations 0,1 (both tile 0) -> tile 0.
     j=1 reads 1,2 (tiles 0 and 1) -> leftover tile 2.
     j=2 reads 2,3 (both tile 1) -> tile 1. *)
  Alcotest.(check (array int)) "j tiles" [| 0; 2; 1 |]
    tiles.(1).Sparse_tile.tile_of;
  Alcotest.(check int) "unified tile count" 3 tiles.(1).Sparse_tile.n_tiles;
  Alcotest.(check (list (triple int int int)))
    "legal" []
    (Sparse_tile.check_legality ~chain ~tiles)

(* ------------------------------------------------------------------ *)
(* Schedule + tilePack *)

let test_schedule_coverage_and_order () =
  let chain = moldyn_chain () in
  let seed =
    Sparse_tile.tile_fn_of_partition
      (Irgraph.Partition.block ~n:6 ~part_size:2)
  in
  let tiles = Sparse_tile.full ~chain ~seed:1 ~seed_tiles:seed () in
  let sched = Schedule.of_tile_fns tiles in
  Alcotest.(check bool) "coverage" true
    (Schedule.check_coverage sched ~loop_sizes:[| 6; 6; 6 |]);
  Alcotest.(check int) "total" 18 (Schedule.total_iterations sched);
  (* The seed loop's order concatenates blocks in tile order. *)
  Alcotest.(check (array int)) "seed order" [| 0; 1; 2; 3; 4; 5 |]
    (Schedule.loop_order sched 1)

let test_schedule_perm_of_loop () =
  let tf0 = { Sparse_tile.n_tiles = 2; tile_of = [| 1; 0; 1 |] } in
  let sched = Schedule.of_tile_fns [| tf0 |] in
  (* Tile 0 holds iter 1; tile 1 holds iters 0, 2. Order: 1, 0, 2. *)
  let p = Schedule.perm_of_loop sched 0 in
  Alcotest.(check int) "iter 1 first" 0 (Perm.forward p 1);
  Alcotest.(check int) "iter 0 second" 1 (Perm.forward p 0);
  Alcotest.(check int) "iter 2 third" 2 (Perm.forward p 2)

let test_tile_pack_contiguous () =
  (* After tilePack, the data touched by tile 0's seed-loop iterations
     occupies a prefix of the data space. *)
  let chain = moldyn_chain () in
  let acc = access_ex () in
  let seed =
    Sparse_tile.tile_fn_of_partition
      (Irgraph.Partition.block ~n:6 ~part_size:2)
  in
  let tiles = Sparse_tile.full ~chain ~seed:1 ~seed_tiles:seed () in
  let sched = Schedule.of_tile_fns tiles in
  let sigma = Tile_pack.run ~schedule:sched ~accesses:[ (1, acc) ] ~n_data:6 in
  let tile0_iters = Schedule.items sched ~tile:0 ~loop:1 in
  let touched =
    Array.to_list tile0_iters
    |> List.concat_map (fun j -> Array.to_list (Access.touches acc j))
    |> List.sort_uniq compare
  in
  let new_locs = List.map (Perm.forward sigma) touched |> List.sort compare in
  List.iteri
    (fun k loc -> Alcotest.(check int) "prefix" k loc)
    new_locs

(* ------------------------------------------------------------------ *)
(* Property tests *)

let arb_access =
  let gen =
    QCheck.Gen.(
      let* n_data = int_range 2 30 in
      let* n_iter = int_range 1 60 in
      let* left = array_repeat n_iter (int_range 0 (n_data - 1)) in
      let* right = array_repeat n_iter (int_range 0 (n_data - 1)) in
      return (n_data, left, right))
  in
  QCheck.make
    ~print:(fun (n, l, _) ->
      Printf.sprintf "n_data=%d n_iter=%d" n (Array.length l))
    gen

let prop_cpack_permutation =
  QCheck.Test.make ~name:"cpack returns a permutation" ~count:200 arb_access
    (fun (n_data, left, right) ->
      let a = Access.of_pairs ~n_data left right in
      let sigma = Cpack.run a in
      Perm.size sigma = n_data
      &&
      let seen = Array.make n_data false in
      Array.iter (fun v -> seen.(v) <- true) (Perm.to_forward_array sigma);
      Array.for_all (fun b -> b) seen)

let prop_lexgroup_permutation =
  QCheck.Test.make ~name:"lexgroup returns an iteration permutation"
    ~count:200 arb_access (fun (n_data, left, right) ->
      let a = Access.of_pairs ~n_data left right in
      let delta = Lexgroup.run a in
      let n = Array.length left in
      Perm.size delta = n
      &&
      let seen = Array.make n false in
      Array.iter (fun v -> seen.(v) <- true) (Perm.to_forward_array delta);
      Array.for_all (fun b -> b) seen)

let prop_lexgroup_sorts_first_touch =
  QCheck.Test.make ~name:"lexgroup first-touches non-decreasing" ~count:200
    arb_access (fun (n_data, left, right) ->
      let a = Access.of_pairs ~n_data left right in
      let a' = Access.reorder_iters (Lexgroup.run a) a in
      let ok = ref true in
      let prev = ref (-1) in
      for j = 0 to Access.n_iter a' - 1 do
        let ft = Access.first_touch a' j in
        if ft < !prev then ok := false;
        prev := ft
      done;
      !ok)

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose . transpose preserves touches"
    ~count:200 arb_access (fun (n_data, left, right) ->
      let a = Access.of_pairs ~n_data left right in
      let tt = Access.transpose (Access.transpose a) in
      Access.n_iter tt = Access.n_iter a
      && List.for_all
           (fun it ->
             let s1 = Array.to_list (Access.touches a it) |> List.sort compare in
             let s2 = Array.to_list (Access.touches tt it) |> List.sort compare in
             s1 = s2)
           (List.init (Access.n_iter a) Fun.id))

let prop_fst_always_legal =
  QCheck.Test.make ~name:"full sparse tiling is always legal" ~count:100
    arb_access (fun (n_data, left, right) ->
      let acc = Access.of_pairs ~n_data left right in
      let n_iter = Array.length left in
      let chain =
        Sparse_tile.make_chain
          ~loop_sizes:[| n_data; n_iter; n_data |]
          ~conn:[| acc; Access.transpose acc |]
      in
      let seed =
        Sparse_tile.tile_fn_of_partition
          (Irgraph.Partition.block ~n:n_iter ~part_size:4)
      in
      let tiles = Sparse_tile.full ~chain ~seed:1 ~seed_tiles:seed () in
      Sparse_tile.check_legality ~chain ~tiles = [])

(* The scatter grower that serial Remap_once and Repair.regrow
   substitute into [Sparse_tile.full] must equal the gather grower over
   the transposed connectivity: rows may be empty (iterations without
   predecessors; data nobody touches) and may touch a datum twice. *)
let arb_growth =
  let gen =
    QCheck.Gen.(
      let* n_data = int_range 1 30 in
      let* n_iter = int_range 1 40 in
      let* rows =
        array_repeat n_iter
          (list_size (int_range 0 5) (int_range 0 (n_data - 1)))
      in
      let* n_tiles = int_range 1 8 in
      let* next = array_repeat n_iter (int_range 0 (n_tiles - 1)) in
      return (n_data, rows, n_tiles, next))
  in
  QCheck.make
    ~print:(fun (n, rows, t, _) ->
      Printf.sprintf "n_data=%d n_iter=%d n_tiles=%d" n (Array.length rows) t)
    gen

let prop_scatter_growth_matches_transpose =
  QCheck.Test.make
    ~name:"grow_backward_scatter = grow_backward over transpose" ~count:1000
    arb_growth (fun (n_data, rows, n_tiles, tile_of) ->
      let conn = Access.of_lists ~n_data rows in
      let next = { Sparse_tile.n_tiles; tile_of } in
      let scatter = Sparse_tile.grow_backward_scatter ~conn ~next in
      let gather =
        Sparse_tile.grow_backward ~conn:(Access.transpose conn) ~next
      in
      scatter.Sparse_tile.n_tiles = gather.Sparse_tile.n_tiles
      && scatter.Sparse_tile.tile_of = gather.Sparse_tile.tile_of)

let prop_cache_block_always_legal =
  QCheck.Test.make ~name:"cache blocking is always legal" ~count:100
    arb_access (fun (n_data, left, right) ->
      let acc = Access.of_pairs ~n_data left right in
      let n_iter = Array.length left in
      let chain =
        Sparse_tile.make_chain
          ~loop_sizes:[| n_data; n_iter; n_data |]
          ~conn:[| acc; Access.transpose acc |]
      in
      let seed =
        Sparse_tile.tile_fn_of_partition
          (Irgraph.Partition.block ~n:n_data ~part_size:4)
      in
      let tiles = Sparse_tile.cache_block ~chain ~seed_tiles:seed in
      Sparse_tile.check_legality ~chain ~tiles = [])

let prop_schedule_covers =
  QCheck.Test.make ~name:"schedule covers all iterations once" ~count:100
    arb_access (fun (n_data, left, right) ->
      let acc = Access.of_pairs ~n_data left right in
      let n_iter = Array.length left in
      let chain =
        Sparse_tile.make_chain
          ~loop_sizes:[| n_data; n_iter; n_data |]
          ~conn:[| acc; Access.transpose acc |]
      in
      let seed =
        Sparse_tile.tile_fn_of_partition
          (Irgraph.Partition.block ~n:n_iter ~part_size:3)
      in
      let tiles = Sparse_tile.full ~chain ~seed:1 ~seed_tiles:seed () in
      let sched = Schedule.of_tile_fns tiles in
      Schedule.check_coverage sched ~loop_sizes:[| n_data; n_iter; n_data |])

(* Reference schedule implementation over nested arrays — the pre-flat
   representation, reimplemented independently so the flat-CSR
   [Schedule] can be checked operation by operation against it. *)
module Nested_sched = struct
  type t = { nt : int; nl : int; rows : int array array array }
  (* rows.(tile).(loop) = member iterations, ascending *)

  let of_tile_fns (tiles : Sparse_tile.tile_fn array) =
    let nt = tiles.(0).Sparse_tile.n_tiles in
    let nl = Array.length tiles in
    let rows = Array.init nt (fun _ -> Array.make nl [||]) in
    Array.iteri
      (fun l (tf : Sparse_tile.tile_fn) ->
        let lists = Array.make nt [] in
        let tile_of = tf.Sparse_tile.tile_of in
        for it = Array.length tile_of - 1 downto 0 do
          lists.(tile_of.(it)) <- it :: lists.(tile_of.(it))
        done;
        Array.iteri (fun t members -> rows.(t).(l) <- Array.of_list members)
          lists)
      tiles;
    { nt; nl; rows }

  let items s ~tile ~loop = s.rows.(tile).(loop)

  let loop_order s l =
    Array.concat (Array.to_list (Array.map (fun per -> per.(l)) s.rows))

  let remap_loop s ~loop p =
    let rows =
      Array.map
        (fun per ->
          Array.mapi
            (fun l row ->
              if l <> loop then Array.copy row
              else begin
                let r = Array.map (Perm.forward p) row in
                Array.sort compare r;
                r
              end)
            per)
        s.rows
    in
    { s with rows }

  let permute_tiles s ~order =
    { s with rows = Array.map (fun old -> s.rows.(old)) order }
end

let schedules_agree sched (r : Nested_sched.t) =
  Schedule.n_tiles sched = r.Nested_sched.nt
  && Schedule.n_loops sched = r.Nested_sched.nl
  &&
  let ok = ref true in
  for tile = 0 to r.Nested_sched.nt - 1 do
    for loop = 0 to r.Nested_sched.nl - 1 do
      if Schedule.items sched ~tile ~loop <> Nested_sched.items r ~tile ~loop
      then ok := false
    done
  done;
  for l = 0 to r.Nested_sched.nl - 1 do
    if Schedule.loop_order sched l <> Nested_sched.loop_order r l then
      ok := false
  done;
  !ok

let prop_schedule_flat_matches_nested =
  QCheck.Test.make ~name:"flat schedule matches nested reference" ~count:100
    arb_access (fun (n_data, left, right) ->
      let acc = Access.of_pairs ~n_data left right in
      let n_iter = Array.length left in
      let chain =
        Sparse_tile.make_chain
          ~loop_sizes:[| n_data; n_iter; n_data |]
          ~conn:[| acc; Access.transpose acc |]
      in
      let seed =
        Sparse_tile.tile_fn_of_partition
          (Irgraph.Partition.block ~n:n_iter ~part_size:3)
      in
      let tiles = Sparse_tile.full ~chain ~seed:1 ~seed_tiles:seed () in
      let sched = Schedule.of_tile_fns tiles in
      let r = Nested_sched.of_tile_fns tiles in
      let rot n = Perm.of_forward (Array.init n (fun i -> (i + 1) mod n)) in
      let p = rot n_iter in
      let nt = Schedule.n_tiles sched in
      let order = Array.init nt (fun t -> (t + 1) mod nt) in
      schedules_agree sched r
      && schedules_agree
           (Schedule.remap_loop sched ~loop:1 p)
           (Nested_sched.remap_loop r ~loop:1 p)
      && schedules_agree
           (Schedule.permute_tiles sched ~order)
           (Nested_sched.permute_tiles r ~order))

(* Data and iteration reorderings act on independent coordinates of an
   access pattern, so their application order cannot matter. *)
let prop_map_data_reorder_iters_commute =
  QCheck.Test.make ~name:"map_data and reorder_iters commute" ~count:150
    arb_access (fun (n_data, left, right) ->
      let a = Access.of_pairs ~n_data left right in
      let n_iter = Array.length left in
      let rng_perm seed n =
        let arr = Array.init n (fun i -> i) in
        let s = ref seed in
        for i = n - 1 downto 1 do
          s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
          let j = !s mod (i + 1) in
          let t = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- t
        done;
        Perm.of_forward arr
      in
      let sigma = rng_perm 7 n_data and delta = rng_perm 11 n_iter in
      let ab = Access.map_data sigma (Access.reorder_iters delta a) in
      let ba = Access.reorder_iters delta (Access.map_data sigma a) in
      List.for_all
        (fun it -> Access.touches ab it = Access.touches ba it)
        (List.init n_iter Fun.id))

let prop_perm_compose_assoc =
  let arb_perm =
    QCheck.make
      ~print:(fun a ->
        String.concat "," (List.map string_of_int (Array.to_list a)))
      QCheck.Gen.(
        let* n = return 8 in
        let a = Array.init n (fun i -> i) in
        let* swaps = list_repeat 10 (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
        List.iter
          (fun (i, j) ->
            let t = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- t)
          swaps;
        return a)
  in
  QCheck.Test.make ~name:"perm compose associative" ~count:200
    (QCheck.triple arb_perm arb_perm arb_perm) (fun (a, b, c) ->
      let pa = Perm.of_forward a
      and pb = Perm.of_forward b
      and pc = Perm.of_forward c in
      Perm.equal
        (Perm.compose (Perm.compose pc pb) pa)
        (Perm.compose pc (Perm.compose pb pa)))

let prop_perm_inverse_cancels =
  let arb_perm =
    QCheck.make
      ~print:(fun a ->
        String.concat "," (List.map string_of_int (Array.to_list a)))
      QCheck.Gen.(
        let* n = int_range 1 12 in
        let a = Array.init n (fun i -> i) in
        let* swaps =
          list_repeat 12 (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
        in
        List.iter
          (fun (i, j) ->
            let t = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- t)
          swaps;
        return a)
  in
  QCheck.Test.make ~name:"p . p^-1 = id" ~count:200 arb_perm (fun a ->
      let p = Perm.of_forward a in
      Perm.is_id (Perm.compose p (Perm.invert p))
      && Perm.is_id (Perm.compose (Perm.invert p) p))

let test_access_shift_data () =
  let a = Access.of_pairs ~n_data:4 [| 0; 2 |] [| 1; 3 |] in
  let shifted = Access.shift_data ~offset:10 ~n_data:14 a in
  Alcotest.(check (array int)) "shifted" [| 10; 11 |] (Access.touches shifted 0);
  Alcotest.(check int) "n_data" 14 (Access.n_data shifted);
  Alcotest.check_raises "bad embedding"
    (Invalid_argument "Access.shift_data: bad embedding") (fun () ->
      ignore (Access.shift_data ~offset:12 ~n_data:14 a))

let test_access_of_lists () =
  let a = Access.of_lists ~n_data:5 [| [ 0; 1; 2 ]; []; [ 4 ] |] in
  Alcotest.(check int) "iters" 3 (Access.n_iter a);
  Alcotest.(check (array int)) "triple" [| 0; 1; 2 |] (Access.touches a 0);
  Alcotest.(check (array int)) "empty" [||] (Access.touches a 1);
  Alcotest.check_raises "first touch of empty"
    (Invalid_argument "Access.first_touch: empty") (fun () ->
      ignore (Access.first_touch a 1))

let test_schedule_remap_loop () =
  let tf = { Sparse_tile.n_tiles = 2; tile_of = [| 0; 0; 1; 1 |] } in
  let sched = Schedule.of_tile_fns [| tf |] in
  (* Reverse the ids; members must be re-sorted within tiles. *)
  let p = Perm.of_forward [| 3; 2; 1; 0 |] in
  let sched' = Schedule.remap_loop sched ~loop:0 p in
  Alcotest.(check (array int)) "tile 0 remapped sorted" [| 2; 3 |]
    (Schedule.items sched' ~tile:0 ~loop:0);
  Alcotest.(check (array int)) "tile 1 remapped sorted" [| 0; 1 |]
    (Schedule.items sched' ~tile:1 ~loop:0)

(* ------------------------------------------------------------------ *)
(* Wavefront parallelization *)

let test_wavefront_chain () =
  (* 0 <- 1 <- 2: a pure chain has no parallelism. *)
  let preds = Access.of_lists ~n_data:3 [| []; [ 0 ]; [ 1 ] |] in
  let w = Wavefront.run preds in
  Alcotest.(check int) "levels" 3 w.Wavefront.n_levels;
  Alcotest.(check bool) "valid" true (Wavefront.check preds w)

let test_wavefront_independent () =
  let preds = Access.of_lists ~n_data:4 [| []; []; []; [] |] in
  let w = Wavefront.run preds in
  Alcotest.(check int) "one level" 1 w.Wavefront.n_levels;
  Alcotest.(check (float 0.001)) "parallelism 4" 4.0
    (Wavefront.average_parallelism w)

let test_wavefront_diamond () =
  (* 1 and 2 depend on 0; 3 depends on both. *)
  let preds = Access.of_lists ~n_data:4 [| []; [ 0 ]; [ 0 ]; [ 1; 2 ] |] in
  let w = Wavefront.run preds in
  Alcotest.(check int) "3 levels" 3 w.Wavefront.n_levels;
  Alcotest.(check (array int)) "middle level" [| 1; 2 |] w.Wavefront.levels.(1);
  Alcotest.(check int) "makespan 1 proc" 4 (Wavefront.makespan w ~processors:1);
  Alcotest.(check int) "makespan 2 procs" 3 (Wavefront.makespan w ~processors:2)

let test_wavefront_rejects_forward () =
  let preds = Access.of_lists ~n_data:2 [| [ 1 ]; [] |] in
  Alcotest.check_raises "forward dep"
    (Invalid_argument "Wavefront.run: dependence on a later iteration")
    (fun () -> ignore (Wavefront.run preds))

(* ------------------------------------------------------------------ *)
(* Tile-level parallelism *)

let tiled_example () =
  (* Two disjoint interaction groups: tiles over them are independent. *)
  let left = [| 0; 1; 4; 5 |] and right = [| 1; 2; 5; 6 |] in
  let acc = Access.of_pairs ~n_data:8 left right in
  let chain =
    Sparse_tile.make_chain ~loop_sizes:[| 8; 4; 8 |]
      ~conn:[| acc; Access.transpose acc |]
  in
  let seed = { Sparse_tile.n_tiles = 2; tile_of = [| 0; 0; 1; 1 |] } in
  let tiles = Sparse_tile.full ~chain ~seed:1 ~seed_tiles:seed () in
  (chain, tiles)

let test_tile_par_independent () =
  let chain, tiles = tiled_example () in
  let par = Tile_par.analyze ~chain ~tiles in
  (* The two tiles touch disjoint node sets, so no DAG edge and one
     level. *)
  Alcotest.(check int) "one level" 1 par.Tile_par.n_levels;
  Alcotest.(check (float 0.001)) "parallelism 2" 2.0
    (Tile_par.average_parallelism par);
  Alcotest.(check int) "no conflicts" 0
    (Tile_par.shared_data_conflicts par
       ~access:(Access.of_pairs ~n_data:8 [| 0; 1; 4; 5 |] [| 1; 2; 5; 6 |])
       ~tile_of_iter:tiles.(1).Sparse_tile.tile_of)

let test_tile_par_chained () =
  (* Overlapping interactions force a DAG edge 0 -> 1. *)
  let left = [| 0; 1 |] and right = [| 1; 2 |] in
  let acc = Access.of_pairs ~n_data:3 left right in
  let chain =
    Sparse_tile.make_chain ~loop_sizes:[| 3; 2; 3 |]
      ~conn:[| acc; Access.transpose acc |]
  in
  let seed = { Sparse_tile.n_tiles = 2; tile_of = [| 0; 1 |] } in
  let tiles = Sparse_tile.full ~chain ~seed:1 ~seed_tiles:seed () in
  let par = Tile_par.analyze ~chain ~tiles in
  Alcotest.(check int) "two levels" 2 par.Tile_par.n_levels;
  Alcotest.(check int) "serial cost = all iterations" 8
    (Tile_par.serial_cost par)

let test_tile_par_speedup_bounds () =
  let chain, tiles = tiled_example () in
  let par = Tile_par.analyze ~chain ~tiles in
  let s4 = Tile_par.speedup par ~processors:4 in
  Alcotest.(check bool) "speedup within [1, 4]" true (s4 >= 1.0 && s4 <= 4.0)

(* ------------------------------------------------------------------ *)
(* Space-filling-curve reordering *)

let test_morton_key_ordering () =
  (* Nearby points share key prefixes: key(0,0,0) < key(1,1,1) at any
     bit width. *)
  let k000 = Sfc_reorder.morton_key ~bits:4 0 0 0 in
  let k111 = Sfc_reorder.morton_key ~bits:4 15 15 15 in
  Alcotest.(check bool) "ordering" true (k000 < k111);
  Alcotest.(check int) "origin is zero" 0 k000

let test_sfc_is_permutation () =
  let coords =
    Array.init 64 (fun i ->
        (float_of_int (i mod 4), float_of_int (i / 4 mod 4), float_of_int (i / 16)))
  in
  let p = Sfc_reorder.run coords in
  Alcotest.(check int) "size" 64 (Perm.size p)

let test_sfc_improves_locality () =
  (* On a scrambled 2-D grid, Morton ordering reduces the average
     numbering distance between spatial neighbors. *)
  let side = 16 in
  let coords = Array.make (side * side) (0.0, 0.0, 0.0) in
  (* Scrambled assignment of grid points to ids. *)
  let ids = Array.init (side * side) (fun i -> (i * 73) mod (side * side)) in
  Array.iteri
    (fun k id ->
      coords.(id) <- (float_of_int (k mod side), float_of_int (k / side), 0.0))
    ids;
  let p = Sfc_reorder.run coords in
  let dist perm =
    (* Average |num(a) - num(b)| over horizontally adjacent points. *)
    let total = ref 0 in
    let count = ref 0 in
    Array.iteri
      (fun k id ->
        if k mod side < side - 1 then begin
          let id' = ids.(k + 1) in
          let na = match perm with Some p -> Perm.forward p id | None -> id in
          let nb = match perm with Some p -> Perm.forward p id' | None -> id' in
          total := !total + abs (na - nb);
          incr count
        end)
      ids;
    float_of_int !total /. float_of_int !count
  in
  Alcotest.(check bool) "sfc shrinks neighbor distance" true
    (dist (Some p) < dist None /. 2.0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "reorder"
    [
      ( "perm",
        [
          Alcotest.test_case "roundtrip" `Quick test_perm_roundtrip;
          Alcotest.test_case "of_inverse" `Quick test_perm_of_inverse;
          Alcotest.test_case "compose" `Quick test_perm_compose;
          Alcotest.test_case "apply" `Quick test_perm_apply;
          Alcotest.test_case "remap values" `Quick test_perm_remap_values;
          Alcotest.test_case "invalid" `Quick test_perm_invalid;
        ] );
      ( "access",
        [
          Alcotest.test_case "of_pairs" `Quick test_access_of_pairs;
          Alcotest.test_case "identity" `Quick test_access_identity;
          Alcotest.test_case "map_data" `Quick test_access_map_data;
          Alcotest.test_case "reorder_iters" `Quick test_access_reorder_iters;
          Alcotest.test_case "transpose" `Quick test_access_transpose;
          Alcotest.test_case "transpose allocation" `Quick
            test_access_transpose_allocation;
          Alcotest.test_case "to_graph" `Quick test_access_to_graph;
          Alcotest.test_case "shift_data" `Quick test_access_shift_data;
          Alcotest.test_case "of_lists" `Quick test_access_of_lists;
        ] );
      ( "cpack",
        [
          Alcotest.test_case "first-touch order" `Quick
            test_cpack_first_touch_order;
          Alcotest.test_case "untouched tail" `Quick test_cpack_untouched_tail;
          Alcotest.test_case "explicit order" `Quick test_cpack_in_order;
          Alcotest.test_case "view allocation" `Quick
            test_cpack_view_allocation;
        ] );
      ( "gpart/rcm",
        [
          Alcotest.test_case "gpart locality" `Quick
            test_gpart_permutation_and_locality;
          Alcotest.test_case "rcm perm" `Quick test_rcm_reorder_is_perm;
        ] );
      ( "iteration reorderings",
        [
          Alcotest.test_case "lexgroup sorted" `Quick
            test_lexgroup_groups_by_first_touch;
          Alcotest.test_case "lexgroup stable" `Quick test_lexgroup_stable;
          Alcotest.test_case "lexsort tuples" `Quick test_lexsort_orders_tuples;
          Alcotest.test_case "lexsort compare" `Quick test_lexsort_compare;
          Alcotest.test_case "bucket tile" `Quick test_bucket_tile;
        ] );
      ( "sparse tiling",
        [
          Alcotest.test_case "fst legality" `Quick test_fst_legality;
          Alcotest.test_case "fst seed preserved" `Quick test_fst_seed_preserved;
          Alcotest.test_case "fst min/max growth" `Quick
            test_fst_backward_min_forward_max;
          Alcotest.test_case "cache block leftover" `Quick
            test_cache_block_leftover;
          Alcotest.test_case "grow_forward allocation" `Quick
            test_grow_forward_allocation;
          Alcotest.test_case "grow_backward_scatter allocation" `Quick
            test_grow_backward_scatter_allocation;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "coverage and order" `Quick
            test_schedule_coverage_and_order;
          Alcotest.test_case "perm of loop" `Quick test_schedule_perm_of_loop;
          Alcotest.test_case "tile pack contiguous" `Quick
            test_tile_pack_contiguous;
          Alcotest.test_case "remap loop" `Quick test_schedule_remap_loop;
        ] );
      ( "wavefront",
        [
          Alcotest.test_case "chain" `Quick test_wavefront_chain;
          Alcotest.test_case "independent" `Quick test_wavefront_independent;
          Alcotest.test_case "diamond" `Quick test_wavefront_diamond;
          Alcotest.test_case "rejects forward" `Quick
            test_wavefront_rejects_forward;
        ] );
      ( "tile-par",
        [
          Alcotest.test_case "independent tiles" `Quick
            test_tile_par_independent;
          Alcotest.test_case "chained tiles" `Quick test_tile_par_chained;
          Alcotest.test_case "speedup bounds" `Quick
            test_tile_par_speedup_bounds;
        ] );
      ( "sfc",
        [
          Alcotest.test_case "morton key" `Quick test_morton_key_ordering;
          Alcotest.test_case "is permutation" `Quick test_sfc_is_permutation;
          Alcotest.test_case "improves locality" `Quick
            test_sfc_improves_locality;
        ] );
      ( "prop",
        qsuite
          [
            prop_cpack_permutation;
            prop_lexgroup_permutation;
            prop_lexgroup_sorts_first_touch;
            prop_transpose_involution;
            prop_fst_always_legal;
            prop_scatter_growth_matches_transpose;
            prop_cache_block_always_legal;
            prop_schedule_covers;
            prop_schedule_flat_matches_nested;
            prop_map_data_reorder_iters_commute;
            prop_perm_compose_assoc;
            prop_perm_inverse_cancels;
          ] );
    ]
