(* Integration tests for the composition framework: plan validation,
   symbolic effect computation (against the paper's Section 5
   formulas), the composed inspector under both remap strategies, and
   end-to-end executor correctness for every standard composition. *)

open Compose

let rel = Alcotest.testable Presburger.Rel.pp Presburger.Rel.equal

(* ------------------------------------------------------------------ *)
(* Plan validation *)

let fst_t =
  Transform.Sparse_tile
    { growth = Transform.Full; seed = Transform.Seed_block { part_size = 8 } }

let test_validate_ok () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Plan.name p ^ " valid")
        true
        (Plan.validate p = Ok ()))
    (Plan.standard_suite ~gpart_size:16 ~seed_part_size:16)

let test_validate_rejects () =
  let bad name transforms expected =
    let p = Plan.make ~name transforms in
    match Plan.validate p with
    | Error msg ->
      Alcotest.(check string) (name ^ " message") expected msg
    | Ok () -> Alcotest.fail (name ^ " unexpectedly valid")
  in
  bad "iter after fst"
    [ fst_t; Transform.Iter_reorder Transform.Lexgroup ]
    "plan: dependence-free iteration reordering after sparse tiling";
  bad "tilepack without fst"
    [ Transform.Data_reorder Transform.Tile_pack ]
    "plan: tilePack without a preceding sparse tiling";
  bad "double fst" [ fst_t; fst_t ] "plan: multiple sparse tilings"

let test_n_data_reorders () =
  Alcotest.(check int) "CLCL has 2" 2
    (Plan.n_data_reorders Plan.cpack_lexgroup_twice);
  Alcotest.(check int) "CLCL+FST has 3" 3
    (Plan.n_data_reorders
       (Plan.with_fst ~seed_part_size:8 Plan.cpack_lexgroup_twice));
  Alcotest.(check bool) "FST detection" true
    (Plan.has_sparse_tiling (Plan.with_fst ~seed_part_size:8 Plan.cpack));
  Alcotest.(check bool) "no FST" false (Plan.has_sparse_tiling Plan.cpack)

(* ------------------------------------------------------------------ *)
(* Symbolic: the Section 5 formulas *)

let test_symbolic_cpack_data_mapping () =
  (* After CPACK, the j-loop part of M is sigma_cp(left(j)) etc., and
     identity-mapped loops collapse to the identity (Section 5.1). *)
  let st =
    Symbolic.apply (Symbolic.create Symbolic.moldyn_program) Plan.cpack
  in
  let expected =
    Presburger.Parser.relation
      "{[s,p,i,q] -> [i] : p = 1} union {[s,p,i,q] -> [sigma_cp(left(i))] : p \
       = 2} union {[s,p,i,q] -> [sigma_cp(right(i))] : p = 2} union {[s,p,i,q] \
       -> [i] : p = 3}"
  in
  Alcotest.check rel "M after cpack" expected (Symbolic.data_map st)

let test_symbolic_cl_data_mapping () =
  (* Section 5.2: M_{I1->x1} j part = sigma_cp(left(delta_lg_inv(j))). *)
  let st =
    Symbolic.apply (Symbolic.create Symbolic.moldyn_program) Plan.cpack_lexgroup
  in
  let expected =
    Presburger.Parser.relation
      "{[s,p,j,q] -> [j] : p = 1} union {[s,p,j,q] -> \
       [sigma_cp(left(delta_lg_inv(j)))] : p = 2} union {[s,p,j,q] -> \
       [sigma_cp(right(delta_lg_inv(j)))] : p = 2} union {[s,p,j,q] -> [j] : \
       p = 3}"
  in
  Alcotest.check rel "M after CL" expected (Symbolic.data_map st)

let test_symbolic_clcl_composed_r () =
  (* Section 5.3: R_{x0->x2} = sigma_cp2 . sigma_cp. *)
  let st =
    Symbolic.apply
      (Symbolic.create Symbolic.moldyn_program)
      Plan.cpack_lexgroup_twice
  in
  Alcotest.check rel "composed R"
    (Presburger.Parser.relation "{[m] -> [sigma_cp2(sigma_cp(m))]}")
    (Symbolic.r_total st)

let test_symbolic_clcl_composed_t_jloop () =
  (* T_{I0->I2} on the j loop: j2 = delta_lg2(delta_lg(j)). *)
  let st =
    Symbolic.apply
      (Symbolic.create Symbolic.moldyn_program)
      Plan.cpack_lexgroup_twice
  in
  let t = Symbolic.t_total st in
  Alcotest.check rel "composed T"
    (Presburger.Parser.relation
       "{[s,p,i,q] -> [s, 1, sigma_cp2(sigma_cp(i)), q] : p = 1} union \
        {[s,p,i,q] -> [s, 2, delta_lg2(delta_lg(i)), q] : p = 2} union \
        {[s,p,i,q] -> [s, 3, sigma_cp2(sigma_cp(i)), q] : p = 3}")
    t

let test_symbolic_fst_adds_tile_dim () =
  let plan = Plan.with_fst ~tile_pack:false ~seed_part_size:8 Plan.cpack_lexgroup in
  let st = Symbolic.apply (Symbolic.create Symbolic.moldyn_program) plan in
  Alcotest.(check bool) "tiled" true (Symbolic.is_tiled st);
  Alcotest.(check int) "5-dim space" 5
    (Presburger.Rel.out_arity (Symbolic.t_total st))

let test_symbolic_tilepack_composed_r () =
  (* Full Section 5 composition: R = sigma_tp . sigma_cp2 . sigma_cp. *)
  let plan = Plan.with_fst ~seed_part_size:8 Plan.cpack_lexgroup_twice in
  let st = Symbolic.apply (Symbolic.create Symbolic.moldyn_program) plan in
  Alcotest.check rel "R with tilePack"
    (Presburger.Parser.relation
       "{[m] -> [sigma_tp(sigma_cp2(sigma_cp(m)))]}")
    (Symbolic.r_total st)

let test_symbolic_fresh_names () =
  let plan = Plan.cpack_lexgroup_twice in
  let st = Symbolic.apply (Symbolic.create Symbolic.moldyn_program) plan in
  let names = List.map (fun s -> s.Symbolic.fn_name) (Symbolic.steps st) in
  Alcotest.(check (list string)) "numbered instances"
    [ "sigma_cp"; "delta_lg"; "sigma_cp2"; "delta_lg2" ]
    names

let test_symbolic_rejects_nonreduction () =
  let program =
    {
      Symbolic.moldyn_program with
      Symbolic.loops =
        List.map
          (fun (l : Symbolic.loop_desc) ->
            { l with Symbolic.reduction_only = false })
          Symbolic.moldyn_program.Symbolic.loops;
    }
  in
  match Symbolic.apply (Symbolic.create program) Plan.cpack_lexgroup with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "mentions illegality" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected legality rejection"

let test_symbolic_dependence_update () =
  (* After CL, the target side of d24+d34 must read
     sigma_cp(left(delta_lg_inv(...))). *)
  let st =
    Symbolic.apply (Symbolic.create Symbolic.moldyn_program) Plan.cpack_lexgroup
  in
  let d = List.assoc "d24+d34" (Symbolic.dependences st) in
  let printed = Presburger.Rel.to_string d in
  let contains sub =
    let re = Str.regexp_string sub in
    (try ignore (Str.search_forward re printed 0); true with Not_found -> false)
  in
  Alcotest.(check bool) "target reordered" true
    (contains "sigma_cp(left(delta_lg_inv(");
  Alcotest.(check bool) "all programs defined" true
    (List.for_all
       (fun n -> Symbolic.program_by_name n <> None)
       [ "moldyn"; "nbf"; "irreg" ])

let test_kernel name =
  let scale = 512 in
  let d =
    match name with
    | "moldyn" -> Datagen.Generators.mol1 ~scale ()
    | _ -> Datagen.Generators.foil ~scale ()
  in
  (Option.get (Kernels.by_name name)) d

(* ------------------------------------------------------------------ *)
(* Run-time dependence classification *)

let test_depcheck_independent () =
  (* Disjoint iterations: each touches its own location. *)
  let reads = Reorder.Access.of_single ~n_data:8 [| 0; 1; 2; 3 |] in
  let updates = Reorder.Access.of_single ~n_data:8 [| 4; 5; 6; 7 |] in
  Alcotest.(check string) "independent" "independent"
    (Depcheck.verdict_name (Depcheck.classify ~reads ~updates))

let test_depcheck_reduction () =
  (* Two iterations update the same location but nobody reads it. *)
  let reads = Reorder.Access.of_single ~n_data:4 [| 0; 1 |] in
  let updates = Reorder.Access.of_single ~n_data:4 [| 3; 3 |] in
  Alcotest.(check string) "reduction" "reduction"
    (Depcheck.verdict_name (Depcheck.classify ~reads ~updates))

let test_depcheck_serialized () =
  (* Iteration 1 reads what iteration 0 updates: flow dependence. *)
  let reads = Reorder.Access.of_single ~n_data:4 [| 2; 0 |] in
  let updates = Reorder.Access.of_single ~n_data:4 [| 0; 1 |] in
  match Depcheck.classify ~reads ~updates with
  | Depcheck.Serialized preds ->
    Alcotest.(check (array int)) "1 depends on 0" [| 0 |]
      (Reorder.Access.touches preds 1);
    Alcotest.(check (array int)) "0 depends on nothing" [||]
      (Reorder.Access.touches preds 0);
    (* The predecessor map feeds wavefront scheduling. *)
    let w = Reorder.Wavefront.run preds in
    Alcotest.(check int) "two levels" 2 w.Reorder.Wavefront.n_levels
  | v -> Alcotest.fail ("expected serialized, got " ^ Depcheck.verdict_name v)

let test_depcheck_kernels_are_reductions () =
  List.iter
    (fun bench ->
      let kernel = test_kernel bench in
      Alcotest.(check string)
        (bench ^ " interaction loop")
        "reduction"
        (Depcheck.verdict_name
           (Depcheck.check_kernel_interaction_loop kernel)))
    [ "irreg"; "nbf"; "moldyn" ]

(* ------------------------------------------------------------------ *)
(* Codegen: the Figure 10-15 pseudo-code *)

let contains hay needle =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

let test_codegen_subscripts () =
  let t =
    Presburger.Parser.term "sigma_cp(left(delta_lg_inv(j)))"
  in
  Alcotest.(check string) "chain" "sigma_cp[left[delta_lg_inv[j]]]"
    (Codegen.subscript t)

let test_codegen_second_cpack () =
  (* The specialized second CPACK inspector must traverse the updated
     data mapping — Figure 12's sigma_cp[left[delta_lg_inv[j]]]. *)
  let st =
    Symbolic.apply (Symbolic.create Symbolic.moldyn_program) Plan.cpack_lexgroup
  in
  let code =
    Codegen.cpack_inspector ~instance:"sigma_cp2"
      ~program:Symbolic.moldyn_program (Symbolic.data_map st)
  in
  Alcotest.(check bool) "figure 12 subscript chain" true
    (contains code "sigma_cp[left[delta_lg_inv[j]]]");
  Alcotest.(check bool) "builds the inverse array" true
    (contains code "sigma_cp2_inv[count]")

let test_codegen_tiled_executor () =
  let plan = Plan.with_fst ~seed_part_size:8 Plan.cpack_lexgroup in
  let st = Symbolic.apply (Symbolic.create Symbolic.moldyn_program) plan in
  let code = Codegen.executor st ~program:Symbolic.moldyn_program in
  Alcotest.(check bool) "tiles outermost" true (contains code "do t = 1 to num_tiles");
  Alcotest.(check bool) "sched loops" true (contains code "in sched(t, 2)");
  Alcotest.(check bool) "adjusted index array" true (contains code "left'[")

let test_codegen_plain_executor () =
  let st =
    Symbolic.apply (Symbolic.create Symbolic.irreg_program) Plan.cpack_lexgroup
  in
  let code = Codegen.executor st ~program:Symbolic.irreg_program in
  Alcotest.(check bool) "no tiles" false (contains code "num_tiles");
  Alcotest.(check bool) "plain bounds" true (contains code "= 1 to n_inter")

let test_codegen_full_report () =
  let plan = Plan.with_fst ~seed_part_size:8 Plan.cpack_lexgroup_twice in
  let st = Symbolic.apply (Symbolic.create Symbolic.moldyn_program) plan in
  let code = Codegen.full_report st ~program:Symbolic.moldyn_program in
  Alcotest.(check bool) "composed remap" true
    (contains code "sigma_tp(sigma_cp2(sigma_cp(m)))");
  Alcotest.(check bool) "tilepack traverses full chain" true
    (contains code "sigma_cp2[sigma_cp[left[delta_lg_inv[delta_lg2_inv[j]]]]]")

(* ------------------------------------------------------------------ *)
(* Inspector: end-to-end correctness on every standard composition *)

let reference (k : Kernels.Kernel.t) ~steps =
  let k = k.Kernels.Kernel.copy () in
  k.Kernels.Kernel.run ~steps;
  k.Kernels.Kernel.snapshot ()

let run_result (r : Inspector.result) ~steps =
  let k = r.Inspector.kernel in
  (match r.Inspector.schedule with
  | None -> k.Kernels.Kernel.run ~steps
  | Some sched -> k.Kernels.Kernel.run_tiled sched ~steps);
  Kernels.Kernel.unpermute_snapshot r.Inspector.sigma_total
    (k.Kernels.Kernel.snapshot ())

let suite_plans kernel =
  Plan.standard_suite
    ~gpart_size:(max 16 (Kernels.Kernel.bytes_per_node kernel))
    ~seed_part_size:24

let test_all_compositions_correct () =
  List.iter
    (fun bench ->
      let kernel = test_kernel bench in
      let expected = reference kernel ~steps:3 in
      List.iter
        (fun plan ->
          let r = Inspector.run plan kernel in
          (match Legality.check r with
          | Ok () -> ()
          | Error m -> Alcotest.fail (bench ^ "/" ^ Plan.name plan ^ ": " ^ m));
          let got = run_result r ~steps:3 in
          Alcotest.(check bool)
            (Fmt.str "%s/%s matches original" bench (Plan.name plan))
            true
            (Kernels.Kernel.snapshots_close ~rtol:1e-9 expected got))
        (suite_plans kernel))
    [ "irreg"; "nbf"; "moldyn" ]

(* Remap_each and Remap_once must produce identical reorderings. *)
let test_strategies_agree () =
  List.iter
    (fun bench ->
      let kernel = test_kernel bench in
      List.iter
        (fun plan ->
          let r1 = Inspector.run ~strategy:Inspector.Remap_each plan kernel in
          let r2 = Inspector.run ~strategy:Inspector.Remap_once plan kernel in
          Alcotest.(check bool)
            (Fmt.str "%s/%s sigma agrees" bench (Plan.name plan))
            true
            (Reorder.Perm.equal r1.Inspector.sigma_total r2.Inspector.sigma_total);
          Alcotest.(check bool)
            (Fmt.str "%s/%s delta agrees" bench (Plan.name plan))
            true
            (Reorder.Perm.equal r1.Inspector.delta_total r2.Inspector.delta_total);
          let snap r =
            List.map snd (r.Inspector.kernel.Kernels.Kernel.snapshot ())
          in
          List.iter2
            (fun a b ->
              Alcotest.(check bool) "arrays identical" true
                (Array.for_all2 (fun (x : float) y -> x = y) a b))
            (snap r1) (snap r2))
        (suite_plans kernel))
    [ "irreg"; "moldyn"; "cg" ]

let test_remap_counts () =
  let kernel = test_kernel "moldyn" in
  let plan = Plan.with_fst ~seed_part_size:24 Plan.cpack_lexgroup_twice in
  let each = Inspector.run ~strategy:Inspector.Remap_each plan kernel in
  let once = Inspector.run ~strategy:Inspector.Remap_once plan kernel in
  (* CLCL+FST+tilePack has three data reorderings. *)
  Alcotest.(check int) "remap-each remaps 3x" 3 each.Inspector.n_data_remaps;
  Alcotest.(check int) "remap-once remaps 1x" 1 once.Inspector.n_data_remaps

(* Traversing one dependence set (the shared symmetric twin, or the
   predecessor scatter) must tile exactly as traversing both does,
   under either strategy and on every kernel. *)
let test_symmetric_sharing_agrees () =
  let plan = Plan.with_fst ~seed_part_size:24 Plan.cpack_lexgroup in
  List.iter
    (fun bench ->
      let kernel = test_kernel bench in
      List.iter
        (fun (how, strategy) ->
          let run share =
            Inspector.run ~strategy ~share_symmetric_deps:share plan kernel
          in
          let label = Fmt.str "%s, %s" bench how in
          match ((run true).Inspector.schedule, (run false).Inspector.schedule)
          with
          | Some s1, Some s2 ->
            Alcotest.(check int) (label ^ ": same tiles")
              (Reorder.Schedule.n_tiles s1) (Reorder.Schedule.n_tiles s2);
            for l = 0 to Reorder.Schedule.n_loops s1 - 1 do
              Alcotest.(check (array int))
                (Fmt.str "%s: loop %d order" label l)
                (Reorder.Schedule.loop_order s1 l)
                (Reorder.Schedule.loop_order s2 l)
            done
          | _ -> Alcotest.fail (label ^ ": expected schedules"))
        [
          ("remap-each", Inspector.Remap_each);
          ("remap-once", Inspector.Remap_once);
        ])
    Kernels.all_names

let test_base_plan_is_noop () =
  let kernel = test_kernel "irreg" in
  let r = Inspector.run Plan.base kernel in
  Alcotest.(check bool) "sigma id" true
    (Reorder.Perm.is_id r.Inspector.sigma_total);
  Alcotest.(check bool) "delta id" true
    (Reorder.Perm.is_id r.Inspector.delta_total);
  Alcotest.(check int) "no remaps" 0 r.Inspector.n_data_remaps;
  Alcotest.(check bool) "no schedule" true (r.Inspector.schedule = None)

let test_cache_block_plan () =
  let kernel = test_kernel "moldyn" in
  let plan = Plan.with_cache_block ~seed_part_size:32 Plan.cpack_lexgroup in
  let r = Inspector.run plan kernel in
  (match Legality.check r with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let expected = reference kernel ~steps:2 in
  let got = run_result r ~steps:2 in
  Alcotest.(check bool) "cache block correct" true
    (Kernels.Kernel.snapshots_close ~rtol:1e-9 expected got)

(* Bucket tiling and lexSort also compose and stay correct. *)
let test_other_iter_reorders_correct () =
  let kernel = test_kernel "nbf" in
  let expected = reference kernel ~steps:2 in
  List.iter
    (fun (name, alg) ->
      let plan =
        Plan.make ~name
          [ Transform.Data_reorder Transform.Cpack; Transform.Iter_reorder alg ]
      in
      let r = Inspector.run plan kernel in
      (match Legality.check r with Ok () -> () | Error m -> Alcotest.fail m);
      let got = run_result r ~steps:2 in
      Alcotest.(check bool) (name ^ " correct") true
        (Kernels.Kernel.snapshots_close ~rtol:1e-9 expected got))
    [
      ("C+lexsort", Transform.Lexsort);
      ("C+bucket", Transform.Bucket_tile { bucket_size = 16 });
    ]

let test_multilevel_plan_correct () =
  let kernel = test_kernel "irreg" in
  let plan =
    Plan.make ~name:"ML+L"
      [
        Transform.Data_reorder (Transform.Multilevel { part_size = 32 });
        Transform.Iter_reorder Transform.Lexgroup;
      ]
  in
  let r = Inspector.run plan kernel in
  (match Legality.check r with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check (list string)) "fn names" [ "sigma_ml"; "delta_lg" ]
    (List.map fst r.Inspector.reordering_fns);
  let expected = reference kernel ~steps:2 in
  let got = run_result r ~steps:2 in
  Alcotest.(check bool) "multilevel plan correct" true
    (Kernels.Kernel.snapshots_close ~rtol:1e-9 expected got)

let test_gpart_seeded_fst () =
  let kernel = test_kernel "irreg" in
  let plan =
    Plan.make ~name:"CL+FSTgp"
      [
        Transform.Data_reorder Transform.Cpack;
        Transform.Iter_reorder Transform.Lexgroup;
        Transform.Sparse_tile
          {
            growth = Transform.Full;
            seed = Transform.Seed_gpart { part_size = 32 };
          };
        Transform.Data_reorder Transform.Tile_pack;
      ]
  in
  let r = Inspector.run plan kernel in
  (match Legality.check r with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let expected = reference kernel ~steps:2 in
  let got = run_result r ~steps:2 in
  Alcotest.(check bool) "gpart-seeded FST correct" true
    (Kernels.Kernel.snapshots_close ~rtol:1e-9 expected got)

(* The compile-time composition formulas, evaluated with the run-time
   reordering functions as the UFS interpretation, must equal the
   inspector's composed permutations — the framework's central
   consistency property. *)
let test_symbolic_agrees_with_inspector () =
  let kernel = test_kernel "moldyn" in
  let plans =
    [
      Plan.cpack;
      Plan.cpack_lexgroup;
      Plan.cpack_lexgroup_twice;
      Plan.gpart_lexgroup ~part_size:16;
    ]
  in
  List.iter
    (fun plan ->
      let r = Inspector.run plan kernel in
      let st = Symbolic.apply (Symbolic.create Symbolic.moldyn_program) plan in
      let lookup f =
        match List.assoc_opt f r.Inspector.reordering_fns with
        | Some p -> Some p
        | None ->
          let len = String.length f in
          if len > 4 && String.sub f (len - 4) 4 = "_inv" then
            Option.map Reorder.Perm.invert
              (List.assoc_opt (String.sub f 0 (len - 4))
                 r.Inspector.reordering_fns)
          else None
      in
      let interp f args =
        match lookup f, args with
        | Some p, [ x ] -> Reorder.Perm.forward p x
        | _ -> Alcotest.fail ("no interpretation for " ^ f)
      in
      (* R formula = composed data permutation. *)
      for m = 0 to min 40 (kernel.Kernels.Kernel.n_nodes - 1) do
        Alcotest.(check (list int))
          (Fmt.str "%s: R(%d)" (Plan.name plan) m)
          [ Reorder.Perm.forward r.Inspector.sigma_total m ]
          (Presburger.Rel.eval_fn ~interp (Symbolic.r_total st) [ m ])
      done;
      (* T formula on the interaction loop = composed delta; on the
         identity loops = composed sigma. *)
      let t = Symbolic.t_total st in
      for j = 0 to min 40 (kernel.Kernels.Kernel.n_inter - 1) do
        Alcotest.(check (list (list int)))
          (Fmt.str "%s: T(j=%d)" (Plan.name plan) j)
          [ [ 1; 2; Reorder.Perm.forward r.Inspector.delta_total j; 1 ] ]
          (Presburger.Rel.eval ~interp t [ 1; 2; j; 1 ])
      done;
      for i = 0 to min 40 (kernel.Kernels.Kernel.n_nodes - 1) do
        Alcotest.(check (list (list int)))
          (Fmt.str "%s: T(i=%d)" (Plan.name plan) i)
          [ [ 1; 1; Reorder.Perm.forward r.Inspector.sigma_total i; 1 ] ]
          (Presburger.Rel.eval ~interp t [ 1; 1; i; 1 ])
      done)
    plans

(* ------------------------------------------------------------------ *)
(* Time-step sparse tiling (across the outer loop) *)

let test_timetile_correct () =
  List.iter
    (fun bench ->
      let kernel = test_kernel bench in
      let expected = reference kernel ~steps:6 in
      let k = kernel.Kernels.Kernel.copy () in
      let tt = Timetile.tile k ~depth:3 ~seed_part_size:16 in
      Timetile.run k tt ~total_steps:6;
      Alcotest.(check bool)
        (bench ^ " time-tiled matches plain")
        true
        (Kernels.Kernel.snapshots_close ~rtol:1e-9 expected
           (k.Kernels.Kernel.snapshot ())))
    [ "irreg"; "nbf"; "moldyn" ]

let test_timetile_after_reordering () =
  (* The usual pipeline first, then time-step tiling of the result. *)
  let kernel = test_kernel "moldyn" in
  let expected = reference kernel ~steps:4 in
  let r = Inspector.run Plan.cpack_lexgroup kernel in
  let k = r.Inspector.kernel in
  let tt = Timetile.tile k ~depth:2 ~seed_part_size:16 in
  Timetile.run k tt ~total_steps:4;
  let got =
    Kernels.Kernel.unpermute_snapshot r.Inspector.sigma_total
      (k.Kernels.Kernel.snapshot ())
  in
  Alcotest.(check bool) "CL then time-tiled matches" true
    (Kernels.Kernel.snapshots_close ~rtol:1e-9 expected got)

let test_timetile_chain_shape () =
  let kernel = test_kernel "irreg" in
  let chain = Timetile.unrolled_chain kernel ~depth:3 in
  Alcotest.(check int) "6 loops" 6 (Array.length chain.Reorder.Sparse_tile.loop_sizes);
  Alcotest.(check int) "5 conns" 5 (Array.length chain.Reorder.Sparse_tile.conn);
  Alcotest.(check int) "sizes repeat" chain.Reorder.Sparse_tile.loop_sizes.(0)
    chain.Reorder.Sparse_tile.loop_sizes.(2)

let test_timetile_trace_conserved () =
  (* Time-tiled execution reorders references but neither adds nor
     drops any: total traced accesses over the same number of steps
     must match the plain executor's. *)
  let kernel = test_kernel "irreg" in
  let layout = Kernels.Kernel.layout kernel in
  let count run =
    let c = Cachesim.Cache.create ~size_bytes:512 ~line_bytes:64 ~assoc:2 in
    run ~access:(fun a -> ignore (Cachesim.Cache.access c a));
    Cachesim.Cache.accesses c
  in
  let plain =
    count (fun ~access -> kernel.Kernels.Kernel.run_traced ~steps:4 ~layout ~access)
  in
  let tt = Timetile.tile kernel ~depth:2 ~seed_part_size:16 in
  let tiled =
    count (fun ~access ->
        Timetile.run_traced kernel tt ~total_steps:4 ~layout ~access)
  in
  Alcotest.(check int) "same reference count" plain tiled

let test_timetile_rejects_bad_steps () =
  let kernel = test_kernel "irreg" in
  let tt = Timetile.tile kernel ~depth:2 ~seed_part_size:16 in
  Alcotest.check_raises "non-multiple"
    (Invalid_argument "Timetile.run: 3 steps not a multiple of depth 2")
    (fun () -> Timetile.run kernel tt ~total_steps:3)

(* Property: on random small datasets, the full CLCL+FST+tilePack
   pipeline stays legal and correct. *)
let prop_pipeline_correct =
  let arb =
    QCheck.make
      ~print:(fun (n, e) -> Printf.sprintf "n=%d m=%d" n (Array.length e))
      QCheck.Gen.(
        let* n = int_range 8 60 in
        let* m = int_range 4 150 in
        let* pairs =
          array_repeat m
            (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
        in
        let pairs =
          Array.map (fun (a, b) -> if a = b then (a, (b + 1) mod n) else (a, b)) pairs
        in
        return (n, pairs))
  in
  QCheck.Test.make ~name:"CLCL+FST correct on random datasets" ~count:60 arb
    (fun (n, pairs) ->
      let d =
        {
          Datagen.Dataset.name = "rand";
          n_nodes = n;
          left = Array.map fst pairs;
          right = Array.map snd pairs;
          coords = None;
        }
      in
      let kernel = Kernels.Irreg.of_dataset d in
      let plan = Plan.with_fst ~seed_part_size:5 Plan.cpack_lexgroup_twice in
      let r = Inspector.run plan kernel in
      (match Legality.check r with Ok () -> () | Error m -> failwith m);
      let expected = reference kernel ~steps:2 in
      let got = run_result r ~steps:2 in
      Kernels.Kernel.snapshots_close ~rtol:1e-8 expected got)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "compose"
    [
      ( "plan",
        [
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "data reorder counts" `Quick test_n_data_reorders;
        ] );
      ( "symbolic",
        [
          Alcotest.test_case "cpack M" `Quick test_symbolic_cpack_data_mapping;
          Alcotest.test_case "CL M" `Quick test_symbolic_cl_data_mapping;
          Alcotest.test_case "CLCL composed R" `Quick
            test_symbolic_clcl_composed_r;
          Alcotest.test_case "CLCL composed T" `Quick
            test_symbolic_clcl_composed_t_jloop;
          Alcotest.test_case "FST tile dim" `Quick test_symbolic_fst_adds_tile_dim;
          Alcotest.test_case "tilePack R" `Quick test_symbolic_tilepack_composed_r;
          Alcotest.test_case "fresh names" `Quick test_symbolic_fresh_names;
          Alcotest.test_case "rejects non-reduction" `Quick
            test_symbolic_rejects_nonreduction;
          Alcotest.test_case "dependence update" `Quick
            test_symbolic_dependence_update;
        ] );
      ( "depcheck",
        [
          Alcotest.test_case "independent" `Quick test_depcheck_independent;
          Alcotest.test_case "reduction" `Quick test_depcheck_reduction;
          Alcotest.test_case "serialized" `Quick test_depcheck_serialized;
          Alcotest.test_case "kernels are reductions" `Quick
            test_depcheck_kernels_are_reductions;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "subscripts" `Quick test_codegen_subscripts;
          Alcotest.test_case "second cpack" `Quick test_codegen_second_cpack;
          Alcotest.test_case "tiled executor" `Quick test_codegen_tiled_executor;
          Alcotest.test_case "plain executor" `Quick test_codegen_plain_executor;
          Alcotest.test_case "full report" `Quick test_codegen_full_report;
        ] );
      ( "inspector",
        [
          Alcotest.test_case "all compositions correct" `Slow
            test_all_compositions_correct;
          Alcotest.test_case "strategies agree" `Slow test_strategies_agree;
          Alcotest.test_case "remap counts" `Quick test_remap_counts;
          Alcotest.test_case "symmetric sharing agrees" `Quick
            test_symmetric_sharing_agrees;
          Alcotest.test_case "base is noop" `Quick test_base_plan_is_noop;
          Alcotest.test_case "cache block plan" `Quick test_cache_block_plan;
          Alcotest.test_case "gpart-seeded FST" `Quick test_gpart_seeded_fst;
          Alcotest.test_case "multilevel plan" `Quick
            test_multilevel_plan_correct;
          Alcotest.test_case "lexsort/bucket plans" `Quick
            test_other_iter_reorders_correct;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "symbolic formulas = runtime perms" `Quick
            test_symbolic_agrees_with_inspector;
        ] );
      ( "timetile",
        [
          Alcotest.test_case "correct on all kernels" `Quick
            test_timetile_correct;
          Alcotest.test_case "after reordering" `Quick
            test_timetile_after_reordering;
          Alcotest.test_case "chain shape" `Quick test_timetile_chain_shape;
          Alcotest.test_case "rejects bad steps" `Quick
            test_timetile_rejects_bad_steps;
          Alcotest.test_case "trace conserved" `Quick
            test_timetile_trace_conserved;
        ] );
      ("prop", qsuite [ prop_pipeline_correct ]);
    ]
