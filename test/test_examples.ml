(* Smoke tests exercising the same top-level flows as the runnable
   examples (quickstart, composition DSL, Gauss-Seidel, parallelism,
   time tiling) at tiny scale, so the documented walkthroughs cannot
   rot silently. *)

let tiny_dataset () = Datagen.Generators.foil ~scale:512 ()

(* The quickstart flow: plan -> inspector -> legality -> miss
   comparison -> result equality. *)
let test_quickstart_flow () =
  (* Node data must exceed the 8KB L1 for reordering to matter. *)
  let kernel = Kernels.Irreg.of_dataset (Datagen.Generators.foil ~scale:96 ()) in
  let result = Compose.Inspector.run Compose.Plan.cpack_lexgroup kernel in
  Alcotest.(check bool) "legal" true (Compose.Legality.check result = Ok ());
  let misses (k : Kernels.Kernel.t) =
    let h = Cachesim.Machine.hierarchy Cachesim.Machine.pentium4 in
    let layout = Kernels.Kernel.layout k in
    k.Kernels.Kernel.run_traced ~steps:2 ~layout
      ~access:(Cachesim.Hierarchy.access h);
    Cachesim.Hierarchy.l1_misses h
  in
  Alcotest.(check bool) "CL reduces misses" true
    (misses result.Compose.Inspector.kernel < misses kernel)

(* The composition-DSL flow: notation in, paper formula out. *)
let test_dsl_flow () =
  let open Presburger in
  let env =
    Ufs_env.add_bijection "sigma_cp" ~inverse:"sigma_cp_inv" ~arity:1
      Ufs_env.empty
  in
  let m = Parser.relation "{[j] -> [left(j)]} union {[j] -> [right(j)]}" in
  let r = Parser.relation "{[m] -> [sigma_cp(m)]}" in
  let m' = Rel.compose ~env r m in
  Alcotest.(check bool) "paper formula" true
    (Rel.equal m'
       (Parser.relation
          "{[j] -> [sigma_cp(left(j))]} union {[j] -> [sigma_cp(right(j))]}"))

(* Formula evaluated against the concrete inspector output agrees. *)
let test_formula_matches_inspector () =
  let left = [| 0; 3; 2; 5; 1; 4 |] and right = [| 3; 2; 5; 1; 4; 0 |] in
  let access = Reorder.Access.of_pairs ~n_data:6 left right in
  let sigma = Reorder.Cpack.run access in
  let interp f args =
    match f, args with
    | "sigma_cp", [ m ] -> Reorder.Perm.forward sigma m
    | "left", [ j ] -> left.(j)
    | "right", [ j ] -> right.(j)
    | _ -> Alcotest.fail ("uninterpreted " ^ f)
  in
  let formula = Presburger.Parser.relation "{[j] -> [sigma_cp(left(j))]}" in
  for j = 0 to 5 do
    Alcotest.(check (list int))
      (Fmt.str "j=%d" j)
      [ Reorder.Perm.forward sigma left.(j) ]
      (Presburger.Rel.eval_fn ~interp formula [ j ])
  done

(* The Gauss-Seidel example flow at tiny scale. *)
let test_gs_flow () =
  let d = tiny_dataset () in
  let graph = Datagen.Dataset.to_graph d in
  let n = Irgraph.Csr.num_nodes graph in
  let f = Array.init n (fun i -> 1.0 +. float_of_int (i mod 13)) in
  let partition = Irgraph.Partition.gpart graph ~part_size:16 in
  let graph', f', _sigma, seed =
    Kernels.Gauss_seidel.renumber_by_partition graph ~f ~partition
  in
  let tiling = Kernels.Gauss_seidel.grow graph' ~seed ~seed_sweep:1 ~sweeps:3 in
  Alcotest.(check int) "no violations" 0
    (List.length (Kernels.Gauss_seidel.check_constraints graph' tiling));
  let plain = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
  Kernels.Gauss_seidel.run_plain plain ~sweeps:6;
  let tiled = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
  Kernels.Gauss_seidel.run_tiled_slabbed tiled tiling ~total_sweeps:6;
  Alcotest.(check bool) "bitwise" true
    (Array.for_all2 ( = ) plain.Kernels.Gauss_seidel.u
       tiled.Kernels.Gauss_seidel.u)

(* The parallel-tiles example flow. *)
let test_parallel_flow () =
  let kernel = Kernels.Irreg.of_dataset (tiny_dataset ()) in
  Alcotest.(check string) "reduction loop" "reduction"
    (Compose.Depcheck.verdict_name
       (Compose.Depcheck.check_kernel_interaction_loop kernel));
  let plan =
    Compose.Plan.with_fst ~tile_pack:false ~seed_part_size:16
      Compose.Plan.cpack_lexgroup
  in
  let result = Compose.Inspector.run plan kernel in
  let k = result.Compose.Inspector.kernel in
  let sched = Option.get result.Compose.Inspector.schedule in
  let tiles =
    Compose.Legality.tile_fns_of_schedule sched
      ~loop_sizes:k.Kernels.Kernel.loop_sizes
  in
  let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
  let par = Reorder.Tile_par.analyze ~chain ~tiles in
  Alcotest.(check bool) "speedup sane" true
    (Reorder.Tile_par.speedup par ~processors:4 >= 1.0)

(* The codegen flow produces the Figure 12 chain. *)
let test_codegen_flow () =
  let program =
    Compose.Symbolic.program_of
      (Kernels.Moldyn.of_dataset (Datagen.Generators.mol1 ~scale:512 ()))
  in
  let st =
    Compose.Symbolic.apply
      (Compose.Symbolic.create program)
      Compose.Plan.cpack_lexgroup
  in
  let code = Compose.Codegen.full_report st ~program in
  let contains sub =
    let re = Str.regexp_string sub in
    try
      ignore (Str.search_forward re code 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool) "figure 12" true
    (contains "sigma_cp[left[delta_lg_inv[j]]]"
    || contains "sigma_cp[left[j]]")

let () =
  Alcotest.run "examples"
    [
      ( "flows",
        [
          Alcotest.test_case "quickstart" `Quick test_quickstart_flow;
          Alcotest.test_case "composition dsl" `Quick test_dsl_flow;
          Alcotest.test_case "formula vs inspector" `Quick
            test_formula_matches_inspector;
          Alcotest.test_case "gauss-seidel" `Quick test_gs_flow;
          Alcotest.test_case "parallel tiles" `Quick test_parallel_flow;
          Alcotest.test_case "codegen" `Quick test_codegen_flow;
        ] );
    ]
