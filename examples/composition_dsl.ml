(* The compile-time framework as a DSL: reproduce the worked example of
   Section 5 — data mappings and dependences written in the paper's
   notation, transformed by composing relations with uninterpreted
   function symbols.

   Run with: dune exec examples/composition_dsl.exe *)

open Presburger

let heading fmt = Fmt.pr ("@.--- " ^^ fmt ^^ " ---@.")

let () =
  (* The Kelly-Pugh unified iteration space of simplified moldyn
     (Section 3.1): each loop is a [s, position, index, statement]
     subspace. *)
  heading "Section 3.1: unified iteration space";
  let i0 =
    Parser.set
      "{[s,1,i,1] : 1 <= s <= n_steps && 1 <= i <= n_nodes} union {[s,2,j,q] \
       : 1 <= s <= n_steps && 1 <= j <= n_inter && 1 <= q <= 2} union \
       {[s,3,k,1] : 1 <= s <= n_steps && 1 <= k <= n_nodes}"
  in
  Fmt.pr "I0 = %a@." Set.pp i0;

  (* Data mappings M_{I0 -> x0} (Section 3.2): the j loop reaches x
     through the left/right index arrays, modeled as UFSs. *)
  heading "Section 3.2: data mappings";
  let m_x =
    Parser.relation
      "{[s,1,i,1] -> [i]} union {[s,2,j,q] -> [left(j)]} union {[s,2,j,q] -> \
       [right(j)]} union {[s,3,k,1] -> [k]}"
  in
  Fmt.pr "M_I0->x0 = %a@." Rel.pp m_x;

  (* A CPACK data reordering (Section 5.1): R_{x0->x1}. Registering the
     bijection lets the simplifier use sigma_cp_inv when inverting. *)
  heading "Section 5.1: CPACK data reordering";
  let env =
    Ufs_env.add_bijection "sigma_cp" ~inverse:"sigma_cp_inv" ~arity:1
      (Ufs_env.add_bijection "delta_lg" ~inverse:"delta_lg_inv" ~arity:1
         Ufs_env.empty)
  in
  let r_cp = Parser.relation "{[m] -> [sigma_cp(m)]}" in
  let m_x1 = Rel.compose ~env r_cp m_x in
  Fmt.pr "R_x0->x1 = %a@." Rel.pp r_cp;
  Fmt.pr "M_I0->x1 = R . M = %a@." Rel.pp m_x1;

  (* A lexGroup iteration reordering of the j loop (Section 5.2):
     T_{I0->I1}. Data mappings compose with T^-1; the i and k loops
     follow sigma_cp. *)
  heading "Section 5.2: lexGroup iteration reordering";
  let t01 =
    Parser.relation
      "{[s,1,i,1] -> [s,1,sigma_cp(i),1]} union {[s,2,j,q] -> \
       [s,2,delta_lg(j),q]} union {[s,3,k,1] -> [s,3,sigma_cp(k),1]}"
  in
  let t01_inv = Rel.inverse ~env t01 in
  Fmt.pr "T_I0->I1      = %a@." Rel.pp t01;
  Fmt.pr "T_I0->I1^-1   = %a@." Rel.pp t01_inv;
  let m_i1_x1 = Rel.compose ~env m_x1 t01_inv in
  Fmt.pr "M_I1->x1 = M . T^-1 = %a@." Rel.pp m_i1_x1;

  (* Updated dependences D' = T . D . T^-1 (Section 5.2). *)
  heading "Section 5.2: transformed dependences";
  let d24 =
    Parser.relation
      "{[s,2,j,q] -> [sp,3,left(j),1] : s <= sp && 1 <= q <= 2} union \
       {[s,2,j,q] -> [sp,3,right(j),1] : s <= sp && 1 <= q <= 2}"
  in
  let d24' = Rel.compose ~env (Rel.compose ~env t01 d24) t01_inv in
  Fmt.pr "d24 u d34  = %a@." Rel.pp d24;
  Fmt.pr "updated    = %a@." Rel.pp d24';

  (* The whole Section 5 pipeline, automated: the Symbolic module
     derives moldyn's program from its Walker declaration (any dataset
     gives the same one), folds a plan over it and logs each step. *)
  heading "Sections 5.3-5.4 via Compose.Symbolic";
  let plan =
    Compose.Plan.with_fst ~seed_part_size:64 Compose.Plan.cpack_lexgroup_twice
  in
  let moldyn =
    Kernels.Moldyn.of_dataset (Datagen.Generators.mol1 ~scale:512 ())
  in
  let st =
    Compose.Symbolic.(apply (create (program_of moldyn)) plan)
  in
  Fmt.pr "%a@." Compose.Symbolic.pp_report st;

  (* Evaluating a composed relation against concrete inspector output:
     the compile-time formula and the run-time index arrays agree. *)
  heading "compile-time formula vs run-time inspector";
  let left = [| 0; 3; 2; 5; 1; 4 |] and right = [| 3; 2; 5; 1; 4; 0 |] in
  let access = Reorder.Access.of_pairs ~n_data:6 left right in
  let sigma = Reorder.Cpack.run access in
  let interp f args =
    match f, args with
    | "sigma_cp", [ m ] -> Reorder.Perm.forward sigma m
    | "left", [ j ] -> left.(j)
    | "right", [ j ] -> right.(j)
    | _ -> failwith ("uninterpreted " ^ f)
  in
  let formula = Parser.relation "{[j] -> [sigma_cp(left(j))]}" in
  for j = 0 to 5 do
    let loc = List.hd (Rel.eval_fn ~interp formula [ j ]) in
    Fmt.pr "j = %d: new location of x[left(j)] is %d@." j loc
  done
