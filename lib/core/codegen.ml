(* Pseudo-code generation for composed inspectors and executors — the
   paper's Figures 10-15, derived mechanically from the symbolic state.

   The paper's future work is the automatic generation of specialized
   inspectors; the key enabler it identifies is that the compile-time
   data mappings carry exactly the index expressions a specialized
   inspector must traverse (e.g. Figure 12's
   [sigma_cp[left[delta_lg_inv[j1]]]]). We realize that step: terms of
   the current data mapping render directly as subscript chains, each
   transformation renders as a specialized inspector procedure, and
   the final executor renders from the transformed iteration space
   (plain Figure 13 form, or tiled Figure 14 form with sched(t,l)
   loops). The output is C-like pseudo-code for documentation and
   inspection, not compiled. *)

open Presburger

let buf_add = Buffer.add_string

(* Render a term as a subscript expression: UFS application f(e)
   becomes f[e]. *)
let rec subscript t =
  match Term.as_var t with
  | Some v -> v
  | None -> (
    match Term.as_ufs t with
    | Some (f, [ arg ]) -> Fmt.str "%s[%s]" f (subscript arg)
    | Some (f, args) ->
      Fmt.str "%s[%s]" f (String.concat ", " (List.map subscript args))
    | None -> (
      match Term.to_const t with
      | Some c -> string_of_int c
      | None -> Term.to_string t))

(* The subscript expressions a loop's body uses, read off the data
   mapping: the out-tuple terms of the disjuncts whose position
   constraint matches [pos], with the iteration variable renamed to
   [iv]. The unified space is [s, pos, iv, q] before sparse tiling and
   [s, t, pos, iv, q] after, so the slots count from the end. *)
let mapping_subscripts ~pos ~iv (m : Rel.t) =
  let in_vars = Rel.in_vars m in
  let arity = List.length in_vars in
  let pos_var = List.nth in_vars (arity - 3) in
  let matches_pos (d : Rel.disjunct) =
    List.exists
      (fun c ->
        match c with
        | Constr.Eq t -> (
          (* position pin: pos_var - pos = 0 *)
          match
            (Term.vars t, Term.to_const (Term.subst pos_var (Term.const pos) t))
          with
          | [ v ], Some 0 when String.equal v pos_var -> true
          | _ -> false)
        | Constr.Geq _ -> false)
      d.Rel.constrs
  in
  let iter_var = List.nth in_vars (arity - 2) in
  List.filter_map
    (fun (d : Rel.disjunct) ->
      if matches_pos d then
        match d.Rel.out_tuple with
        | [ t ] -> Some (subscript (Term.subst iter_var (Term.var iv) t))
        | _ -> None
      else None)
    (Rel.disjuncts m)

(* Specialized CPACK inspector for the current data mapping: the
   Figure 10/12 shape, with the subscript chains of the mapping. *)
let cpack_inspector ~instance ~(program : Symbolic.program) (m : Rel.t) =
  let b = Buffer.create 256 in
  let loop = Symbolic.indexed_loop program in
  let subs = mapping_subscripts ~pos:loop.Symbolic.position ~iv:"j" m in
  buf_add b (Fmt.str "CPACK_M_to_%s(%s) {\n" instance
               (String.concat ", " (List.sort_uniq compare
                                      (List.concat_map (fun s ->
                                           String.split_on_char '[' s
                                           |> List.filter (fun x -> x <> "" && x <> "j")
                                           |> List.map (String.map (function ']' -> ' ' | c -> c))
                                           |> List.map String.trim) subs))));
  buf_add b "  // initialize alreadyOrdered bit vector to all false\n";
  buf_add b "  count = 0\n";
  buf_add b (Fmt.str "  do j = 1 to %s\n" loop.Symbolic.size);
  List.iteri
    (fun k sub ->
      buf_add b (Fmt.str "    mem_loc%d = %s\n" (k + 1) sub))
    subs;
  List.iteri
    (fun k _ ->
      buf_add b (Fmt.str "    if not alreadyOrdered(mem_loc%d)\n" (k + 1));
      buf_add b (Fmt.str "      %s_inv[count] = mem_loc%d\n" instance (k + 1));
      buf_add b (Fmt.str "      alreadyOrdered(mem_loc%d) = true\n" (k + 1));
      buf_add b "      count = count + 1\n";
      buf_add b "    endif\n")
    subs;
  buf_add b "  enddo\n";
  buf_add b "  do i = 1 to n_data   // pack untouched locations\n";
  buf_add b "    if not alreadyOrdered(i)\n";
  buf_add b (Fmt.str "      %s_inv[count] = i\n" instance);
  buf_add b "      count = count + 1\n";
  buf_add b "    endif\n";
  buf_add b "  enddo\n";
  buf_add b (Fmt.str "  return %s_inv\n}\n" instance);
  Buffer.contents b

(* Specialized lexGroup inspector: group by the first subscript chain
   of the current mapping. *)
let lexgroup_inspector ~instance ~(program : Symbolic.program) (m : Rel.t) =
  let b = Buffer.create 256 in
  let loop = Symbolic.indexed_loop program in
  let subs = mapping_subscripts ~pos:loop.Symbolic.position ~iv:"j" m in
  let first = match subs with s :: _ -> s | [] -> "j" in
  buf_add b (Fmt.str "LEXGROUP_to_%s() {\n" instance);
  buf_add b (Fmt.str "  // stable counting sort of j = 1..%s keyed on\n"
               loop.Symbolic.size);
  buf_add b (Fmt.str "  //   key(j) = %s\n" first);
  buf_add b (Fmt.str "  return %s\n}\n" instance);
  Buffer.contents b

(* The composed inspector driver (Figure 11 shape): one call per
   transformation, then a single remap of data and index arrays. *)
let composed_inspector (st : Symbolic.state) =
  let b = Buffer.create 1024 in
  buf_add b "composed_inspector() {\n";
  List.iter
    (fun (s : Symbolic.step) ->
      buf_add b
        (Fmt.str "  %s = %s_inspector(...)   // %s\n" s.Symbolic.fn_name
           (Transform.name s.Symbolic.transform)
           (Rel.to_string s.Symbolic.relation)))
    (Symbolic.steps st);
  buf_add b "  // remap and update the data and index arrays once,\n";
  buf_add b "  // after all reordering functions are generated (Section 6)\n";
  buf_add b (Fmt.str "  remap_data(%s)\n"
               (Rel.to_string (Symbolic.r_total st)));
  buf_add b "}\n";
  Buffer.contents b

(* The executor: Figure 13 (plain) or Figure 14 (tiled). *)
let executor (st : Symbolic.state) ~(program : Symbolic.program) =
  let b = Buffer.create 1024 in
  let tiled = Symbolic.is_tiled st in
  let m = Symbolic.data_map st in
  buf_add b "do s = 1 to num_steps\n";
  let emit_loop indent (l : Symbolic.loop_desc) =
    let iv = Fmt.str "%s%d" l.Symbolic.index (List.length (Symbolic.steps st)) in
    if tiled then
      buf_add b (Fmt.str "%sdo %s in sched(t, %d)\n" indent iv
                   l.Symbolic.position)
    else
      buf_add b (Fmt.str "%sdo %s = 1 to %s\n" indent iv l.Symbolic.size);
    let subs = mapping_subscripts ~pos:l.Symbolic.position ~iv m in
    let subs = if subs = [] then [ iv ] else subs in
    (* After the final remap the composed chain collapses into the
       adjusted index array (Figure 13 uses left2[j2], not the chain);
       keep the chain as a comment. The index array is the chain's
       only non-bijection — the program description names them. *)
    let index_array_names =
      List.concat_map
        (fun (lp : Symbolic.loop_desc) ->
          List.filter_map
            (function Symbolic.Indexed f -> Some f | Symbolic.Direct -> None)
            lp.Symbolic.accesses)
        program.Symbolic.loops
    in
    let collapse sub =
      let contains name =
        let re = Str.regexp_string (name ^ "[") in
        try ignore (Str.search_forward re sub 0); true with Not_found -> false
      in
      match List.find_opt contains index_array_names with
      | Some name -> Fmt.str "%s'[%s]  // = %s" name iv sub
      | None -> sub
    in
    List.iter
      (fun sub -> buf_add b (Fmt.str "%s  touch %s\n" indent (collapse sub)))
      subs;
    buf_add b (Fmt.str "%senddo\n" indent)
  in
  if tiled then begin
    buf_add b "  do t = 1 to num_tiles\n";
    List.iter (emit_loop "    ") program.Symbolic.loops;
    buf_add b "  enddo\n"
  end
  else List.iter (emit_loop "  ") program.Symbolic.loops;
  buf_add b "enddo\n";
  Buffer.contents b

(* Full report: specialized inspectors for every CPACK/lexGroup step,
   the composed driver, and the executor. *)
let full_report (st : Symbolic.state) ~(program : Symbolic.program) =
  let b = Buffer.create 4096 in
  let rec walk prior = function
    | [] -> ()
    | (s : Symbolic.step) :: rest ->
      (match s.Symbolic.transform with
      | Transform.Data_reorder (Transform.Cpack | Transform.Tile_pack) ->
        buf_add b (cpack_inspector ~instance:s.Symbolic.fn_name ~program prior);
        buf_add b "\n"
      | Transform.Iter_reorder Transform.Lexgroup ->
        buf_add b
          (lexgroup_inspector ~instance:s.Symbolic.fn_name ~program prior);
        buf_add b "\n"
      | _ -> ());
      walk s.Symbolic.data_map rest
  in
  walk (Symbolic.initial_data_map program) (Symbolic.steps st);
  buf_add b (composed_inspector st);
  buf_add b "\n";
  buf_add b (executor st ~program);
  Buffer.contents b
