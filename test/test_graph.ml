(* Tests for the graph substrate: CSR construction, BFS, components,
   Cuthill-McKee, and the bounded-size partitioners. *)

open Irgraph

(* A 2x3 grid graph:
   0 - 1 - 2
   |   |   |
   3 - 4 - 5 *)
let grid23 () =
  Csr.of_edges ~n:6
    [| (0, 1); (1, 2); (3, 4); (4, 5); (0, 3); (1, 4); (2, 5) |]

(* A path 0-1-2-...-(n-1). *)
let path n = Csr.of_edges ~n (Array.init (n - 1) (fun i -> (i, i + 1)))

let test_csr_basic () =
  let g = grid23 () in
  Alcotest.(check int) "nodes" 6 (Csr.num_nodes g);
  Alcotest.(check int) "edges" 7 (Csr.num_edges g);
  Alcotest.(check int) "arcs" 14 (Csr.num_arcs g);
  Alcotest.(check int) "corner degree" 2 (Csr.degree g 0);
  Alcotest.(check int) "middle degree" 3 (Csr.degree g 1);
  let nbrs = Array.to_list (Csr.neighbors g 4) |> List.sort compare in
  Alcotest.(check (list int)) "neighbors of 4" [ 1; 3; 5 ] nbrs

let test_csr_self_loops () =
  let g = Csr.of_edges ~n:3 [| (0, 0); (0, 1); (1, 1) |] in
  Alcotest.(check int) "self-loops dropped" 1 (Csr.num_edges g)

let test_csr_multigraph_edges () =
  (* num_edges counts parallel copies; num_distinct_edges collapses
     them; edges lists u < v pairs, u-ascending, with multiplicity. *)
  let g = Csr.of_edges ~n:4 [| (0, 1); (1, 0); (2, 3); (3, 3) |] in
  Alcotest.(check int) "parallel copies counted" 3 (Csr.num_edges g);
  Alcotest.(check int) "distinct pairs" 2 (Csr.num_distinct_edges g);
  Alcotest.(check (array (pair int int)))
    "edges u<v, u-ascending, with multiplicity"
    [| (0, 1); (0, 1); (2, 3) |]
    (Csr.edges g)

let test_csr_of_accesses () =
  (* Iterations touching pairs: a clique is induced per iteration. *)
  let g = Csr.of_accesses ~n_data:4 [| [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |] |] in
  Alcotest.(check int) "edges" 3 (Csr.num_edges g);
  Alcotest.(check int) "degree 1" 2 (Csr.degree g 1)

let test_bfs_order () =
  let g = path 5 in
  Alcotest.(check (list int)) "path bfs from 0" [ 0; 1; 2; 3; 4 ]
    (Array.to_list (Csr.bfs_order g))

let test_components () =
  let g = Csr.of_edges ~n:6 [| (0, 1); (1, 2); (4, 5) |] in
  let count, comp = Csr.connected_components g in
  Alcotest.(check int) "three components" 3 count;
  Alcotest.(check bool) "0 and 2 together" true (comp.(0) = comp.(2));
  Alcotest.(check bool) "3 alone" true (comp.(3) <> comp.(0) && comp.(3) <> comp.(4))

let test_partition_block () =
  let p = Partition.block ~n:10 ~part_size:4 in
  Alcotest.(check int) "3 parts" 3 (Partition.n_parts p);
  Alcotest.(check (list int)) "sizes" [ 4; 4; 2 ]
    (Array.to_list (Partition.sizes p));
  Alcotest.(check int) "part of 7" 1 (Partition.part_of p 7)

let test_partition_gpart_sizes () =
  let g = grid23 () in
  let p = Partition.gpart g ~part_size:3 in
  Alcotest.(check int) "2 parts" 2 (Partition.n_parts p);
  Array.iter
    (fun s -> Alcotest.(check bool) "size bound" true (s <= 3))
    (Partition.sizes p)

let test_partition_gpart_connected_parts () =
  (* On a path, BFS-grown parts of size k are contiguous runs, so the
     edge cut is exactly n/k - 1. *)
  let n = 32 in
  let g = path n in
  let p = Partition.gpart g ~part_size:8 in
  Alcotest.(check int) "parts" 4 (Partition.n_parts p);
  Alcotest.(check int) "cut" 3 (Partition.edge_cut g p)

let test_partition_gpart_disconnected () =
  let g = Csr.of_edges ~n:6 [| (0, 1); (2, 3); (4, 5) |] in
  let p = Partition.gpart g ~part_size:4 in
  (* All nodes assigned. *)
  Array.iter
    (fun a -> Alcotest.(check bool) "assigned" true (a >= 0))
    (Partition.assignment p);
  let total = Array.fold_left ( + ) 0 (Partition.sizes p) in
  Alcotest.(check int) "covers all" 6 total

let test_partition_members () =
  let p = Partition.make ~n_parts:2 ~assign:[| 0; 1; 0; 1; 0 |] in
  let m = Partition.members p in
  Alcotest.(check (list int)) "part 0" [ 0; 2; 4 ] (Array.to_list m.(0));
  Alcotest.(check (list int)) "part 1" [ 1; 3 ] (Array.to_list m.(1))

let test_partition_invalid () =
  Alcotest.check_raises "bad id" (Invalid_argument "Partition.make: id 5")
    (fun () -> ignore (Partition.make ~n_parts:2 ~assign:[| 0; 5 |]))

let test_rcm_path () =
  (* RCM on a path numbered badly should recover bandwidth 1. *)
  let n = 16 in
  let edges = Array.init (n - 1) (fun i -> ((i * 7) mod n, ((i + 1) * 7) mod n)) in
  let g = Csr.of_edges ~n edges in
  let order = Rcm.rcm_order g in
  let position = Array.make n 0 in
  Array.iteri (fun pos v -> position.(v) <- pos) order;
  let bw = Rcm.bandwidth g ~position in
  Alcotest.(check bool) "rcm reduces path bandwidth to <= 2" true (bw <= 2)

let test_rcm_is_permutation () =
  let g = grid23 () in
  let order = Rcm.rcm_order g in
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Alcotest.(check (list int)) "permutation" [ 0; 1; 2; 3; 4; 5 ]
    (Array.to_list sorted)

let test_bandwidth_identity () =
  let g = path 5 in
  let position = Array.init 5 (fun i -> i) in
  Alcotest.(check int) "path identity bandwidth" 1 (Rcm.bandwidth g ~position)

(* Multilevel partitioner *)

let grid n m =
  (* n x m grid graph with natural numbering. *)
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      let v = (i * m) + j in
      if j < m - 1 then edges := (v, v + 1) :: !edges;
      if i < n - 1 then edges := (v, v + m) :: !edges
    done
  done;
  Csr.of_edges ~n:(n * m) (Array.of_list !edges)

let test_multilevel_valid_partition () =
  let g = grid 16 16 in
  let p = Multilevel.partition g ~n_parts:8 in
  Alcotest.(check int) "8 parts" 8 (Partition.n_parts p);
  Alcotest.(check int) "covers all" 256
    (Array.fold_left ( + ) 0 (Partition.sizes p))

let test_multilevel_balance () =
  let g = grid 20 20 in
  let p = Multilevel.partition g ~n_parts:4 in
  let sizes = Partition.sizes p in
  Array.iter
    (fun s ->
      Alcotest.(check bool)
        (Fmt.str "size %d within 35%% of 100" s)
        true
        (s >= 65 && s <= 135))
    sizes

let test_multilevel_cut_quality () =
  (* On a 2-D grid, a good 4-way cut is O(side); a random one is
     O(edges). Require the multilevel cut to be far below random and
     no worse than ~4x the ideal two-line cut. *)
  let side = 24 in
  let g = grid side side in
  let p = Multilevel.partition g ~n_parts:4 in
  let cut = Partition.edge_cut g p in
  Alcotest.(check bool) (Fmt.str "cut %d reasonable" cut) true
    (cut <= 8 * side)

let test_multilevel_beats_or_matches_gpart_on_mesh () =
  let d = Datagen.Generators.foil ~scale:256 () in
  let g = Datagen.Dataset.to_graph d in
  let ml = Multilevel.partition_by_size g ~part_size:64 in
  let gp = Partition.gpart g ~part_size:64 in
  let cut_ml = Partition.edge_cut g ml in
  let cut_gp = Partition.edge_cut g gp in
  (* The multilevel partitioner should be in the same league or better;
     allow generous slack to keep the test robust. *)
  Alcotest.(check bool)
    (Fmt.str "multilevel cut %d vs gpart %d" cut_ml cut_gp)
    true
    (cut_ml <= (3 * cut_gp) + 10)

let test_multilevel_small_and_edge_cases () =
  let g = Csr.of_edges ~n:1 [||] in
  let p = Multilevel.partition g ~n_parts:4 in
  Alcotest.(check int) "one node one part" 1 (Partition.n_parts p);
  let g3 = Csr.of_edges ~n:3 [| (0, 1) |] in
  let p3 = Multilevel.partition g3 ~n_parts:2 in
  Alcotest.(check int) "two parts" 2 (Partition.n_parts p3)

(* Property tests *)

let arb_graph =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 40 in
      let* m = int_range 0 80 in
      let* edges =
        list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      return (n, Array.of_list edges))
  in
  QCheck.make
    ~print:(fun (n, e) -> Printf.sprintf "n=%d, %d edges" n (Array.length e))
    gen

let prop_multilevel_is_partition =
  QCheck.Test.make ~name:"multilevel covers every node exactly once"
    ~count:60 arb_graph (fun (n, edges) ->
      let g = Csr.of_edges ~n edges in
      let p = Multilevel.partition g ~n_parts:4 in
      Array.fold_left ( + ) 0 (Partition.sizes p) = n
      && Array.for_all
           (fun a -> a >= 0 && a < Partition.n_parts p)
           (Partition.assignment p))

let prop_gpart_is_partition =
  QCheck.Test.make ~name:"gpart covers every node exactly once" ~count:100
    arb_graph (fun (n, edges) ->
      let g = Csr.of_edges ~n edges in
      let p = Partition.gpart g ~part_size:5 in
      Array.fold_left ( + ) 0 (Partition.sizes p) = n
      && Array.for_all (fun a -> a >= 0 && a < Partition.n_parts p)
           (Partition.assignment p))

let prop_gpart_respects_size =
  QCheck.Test.make ~name:"gpart part sizes bounded" ~count:100 arb_graph
    (fun (n, edges) ->
      let g = Csr.of_edges ~n edges in
      let p = Partition.gpart g ~part_size:7 in
      Array.for_all (fun s -> s <= 7) (Partition.sizes p))

let prop_rcm_permutation =
  QCheck.Test.make ~name:"rcm order is a permutation" ~count:100 arb_graph
    (fun (n, edges) ->
      let g = Csr.of_edges ~n edges in
      let order = Rcm.rcm_order g in
      let seen = Array.make n false in
      Array.iter (fun v -> seen.(v) <- true) order;
      Array.for_all (fun b -> b) seen)

let prop_components_consistent =
  QCheck.Test.make ~name:"edges stay within components" ~count:100 arb_graph
    (fun (n, edges) ->
      let g = Csr.of_edges ~n edges in
      let _, comp = Csr.connected_components g in
      Array.for_all (fun (u, v) -> comp.(u) = comp.(v)) (Csr.edges g))

(* Block partitions fill each block; they must equal the division
   they replace, including no ids at all and one block wider than
   every id. *)
let prop_block_is_division =
  QCheck.Test.make ~name:"block fill = id / part_size" ~count:500
    QCheck.(
      make
        ~print:(fun (n, part_size) ->
          Printf.sprintf "n=%d part_size=%d" n part_size)
        Gen.(
          let* n = oneof [ return 0; int_bound 300 ] in
          let* part_size =
            oneof [ int_range 1 12; int_range (n + 1) (n + 40); int_range 1 400 ]
          in
          return (n, part_size)))
    (fun (n, part_size) ->
      let p = Partition.block ~n ~part_size in
      Partition.assignment p = Array.init n (fun v -> v / part_size)
      && Partition.n_parts p = max 1 ((n + part_size - 1) / part_size))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "graph"
    [
      ( "csr",
        [
          Alcotest.test_case "basic" `Quick test_csr_basic;
          Alcotest.test_case "self loops" `Quick test_csr_self_loops;
          Alcotest.test_case "multigraph edges" `Quick
            test_csr_multigraph_edges;
          Alcotest.test_case "of_accesses" `Quick test_csr_of_accesses;
          Alcotest.test_case "bfs order" `Quick test_bfs_order;
          Alcotest.test_case "components" `Quick test_components;
        ] );
      ( "partition",
        [
          Alcotest.test_case "block" `Quick test_partition_block;
          Alcotest.test_case "gpart sizes" `Quick test_partition_gpart_sizes;
          Alcotest.test_case "gpart path cut" `Quick
            test_partition_gpart_connected_parts;
          Alcotest.test_case "gpart disconnected" `Quick
            test_partition_gpart_disconnected;
          Alcotest.test_case "members" `Quick test_partition_members;
          Alcotest.test_case "invalid" `Quick test_partition_invalid;
        ] );
      ( "multilevel",
        [
          Alcotest.test_case "valid partition" `Quick
            test_multilevel_valid_partition;
          Alcotest.test_case "balance" `Quick test_multilevel_balance;
          Alcotest.test_case "cut quality" `Quick test_multilevel_cut_quality;
          Alcotest.test_case "vs gpart on mesh" `Quick
            test_multilevel_beats_or_matches_gpart_on_mesh;
          Alcotest.test_case "edge cases" `Quick
            test_multilevel_small_and_edge_cases;
        ] );
      ( "rcm",
        [
          Alcotest.test_case "path bandwidth" `Quick test_rcm_path;
          Alcotest.test_case "is permutation" `Quick test_rcm_is_permutation;
          Alcotest.test_case "bandwidth identity" `Quick test_bandwidth_identity;
        ] );
      ( "prop",
        qsuite
          [
            prop_multilevel_is_partition;
            prop_gpart_is_partition;
            prop_gpart_respects_size;
            prop_rcm_permutation;
            prop_components_consistent;
            prop_block_is_division;
          ] );
    ]
