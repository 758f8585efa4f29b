(* Compile-time composition of run-time reorderings (Sections 4-5).

   A [program] describes the unified iteration space of a benchmark in
   the Kelly-Pugh style: each loop contributes a [s, pos, iv, q]
   subspace ([s] the time step, [pos] the loop's statement position,
   [iv] the index value, [q] the statement within the loop body), and
   accesses one shared node data space either directly ([iv] itself)
   or through index arrays modeled as uninterpreted function symbols.
   [program_of] derives a kernel's program from its Walker declaration,
   so no program is written by hand.

   [apply] folds a plan over the program, maintaining
     - M   : the current data mapping  M_{Ik -> data_k},
     - T   : the composed iteration reordering T_{I0 -> Ik},
     - R   : the composed data reordering  R_{d0 -> dk},
     - D   : the current dependences (one relation per named set),
   exactly as Section 5 does by hand for moldyn:
     a data reordering R updates M to R . M (and reorders
     identity-mapped loops), an iteration reordering T updates M to
     M . T^-1 and D to T . D . T^-1, and sparse tiling prepends a tile
     dimension computed by the (run-time) tile function theta. *)

open Presburger

type access_desc =
  | Direct                (* data location = loop index (i, k loops) *)
  | Indexed of string     (* through an index array UFS (left, right) *)

type loop_desc = {
  index : string;
  position : int;     (* 1-based statement position of the loop *)
  size : string;      (* symbolic trip count, e.g. "n_nodes" *)
  accesses : access_desc list;
  reduction_only : bool;
      (* loop-carried dependences within this loop are all reductions,
         so dependence-free iteration reorderings are legal on it *)
}

type program = {
  name : string;
  loops : loop_desc list;
  data_space : string;
  deps : (string * Rel.t) list; (* named dependence relations on I0 *)
}

(* One record per applied transformation, for reports and tests. *)
type step = {
  transform : Transform.t;
  fn_name : string;       (* the reordering function introduced *)
  relation : Rel.t;       (* its R_{d->d'} or T_{I->I'} *)
  data_map : Rel.t;       (* M after this step *)
  legality : string;      (* why this application is legal *)
}

type state = {
  program : program;
  env : Ufs_env.t;
  tiled : bool;
  data_map : Rel.t;
  t_total : Rel.t;
  r_total : Rel.t;
  deps : (string * Rel.t) list;
  steps : step list;
  counters : (string * int) list;
}

let invalid fmt = Fmt.kstr invalid_arg fmt

(* The interaction loop: the one using index arrays. *)
let indexed_loop program =
  match
    List.find_opt
      (fun l -> List.exists (function Indexed _ -> true | Direct -> false) l.accesses)
      program.loops
  with
  | Some l -> l
  | None -> invalid "Symbolic: program %s has no indexed loop" program.name

(* ------------------------------------------------------------------ *)
(* Building relations from notation strings                            *)

let rel = Parser.relation

(* Tuple syntax for a loop's subspace, e.g. "s,2,j,q". *)
let in_tuple ~tiled l =
  if tiled then Fmt.str "s,t,%d,%s,q" l.position l.index
  else Fmt.str "s,%d,%s,q" l.position l.index

(* The initial data mapping M_{I0 -> data0}. *)
let initial_data_map program =
  let pieces =
    List.concat_map
      (fun l ->
        List.map
          (fun a ->
            let target =
              match a with
              | Direct -> l.index
              | Indexed f -> Fmt.str "%s(%s)" f l.index
            in
            rel (Fmt.str "{[%s] -> [%s]}" (in_tuple ~tiled:false l) target))
          l.accesses)
      program.loops
  in
  Rel.union_all pieces

let identity_on_space ~tiled program =
  let pieces =
    List.map
      (fun l ->
        rel
          (Fmt.str "{[%s] -> [%s]}" (in_tuple ~tiled l) (in_tuple ~tiled l)))
      program.loops
  in
  Rel.union_all pieces

let create program =
  {
    program;
    env = Ufs_env.empty;
    tiled = false;
    data_map = initial_data_map program;
    t_total = identity_on_space ~tiled:false program;
    r_total = rel "{[m] -> [m]}";
    deps = program.deps;
    steps = [];
    counters = [];
  }

(* Fresh reordering-function names: sigma_cp, sigma_cp2, delta_lg, ... *)
let fresh_fn st base =
  let n = match List.assoc_opt base st.counters with Some n -> n | None -> 0 in
  let counters = (base, n + 1) :: List.remove_assoc base st.counters in
  let name = if n = 0 then base else Fmt.str "%s%d" base (n + 1) in
  (name, counters)

(* ------------------------------------------------------------------ *)
(* Effects of the three transformation kinds                           *)

(* The loop-reordering relation for a data reordering [f]: identity
   loops follow the data reordering (Section 5.2: "the data reordering
   function generated for them can be used for reordering the i and k
   loops as well"); other loops unchanged. *)
let t_of_data_reorder ~tiled program f =
  let pieces =
    List.map
      (fun l ->
        let is_identity =
          List.for_all (function Direct -> true | Indexed _ -> false) l.accesses
          && l.accesses <> []
        in
        let prefix = if tiled then Fmt.str "s,t,%d" l.position else Fmt.str "s,%d" l.position in
        let image =
          if is_identity then Fmt.str "%s,%s(%s),q" prefix f l.index
          else Fmt.str "%s,%s,q" prefix l.index
        in
        rel (Fmt.str "{[%s] -> [%s]}" (in_tuple ~tiled l) image))
      program.loops
  in
  Rel.union_all pieces

let t_of_iter_reorder ~tiled program ~target f =
  let pieces =
    List.map
      (fun l ->
        let prefix = if tiled then Fmt.str "s,t,%d" l.position else Fmt.str "s,%d" l.position in
        let image =
          if String.equal l.index target then
            Fmt.str "%s,%s(%s),q" prefix f l.index
          else Fmt.str "%s,%s,q" prefix l.index
        in
        rel (Fmt.str "{[%s] -> [%s]}" (in_tuple ~tiled l) image))
      program.loops
  in
  Rel.union_all pieces

(* Sparse tiling prepends a tile dimension t = theta(pos, iv) after s
   (Section 5.4's T_{I2->I3}). *)
let t_of_sparse_tile program theta =
  let pieces =
    List.map
      (fun l ->
        rel
          (Fmt.str "{[s,%d,%s,q] -> [s,%s(%d,%s),%d,%s,q]}" l.position l.index
             theta l.position l.index l.position l.index))
      program.loops
  in
  Rel.union_all pieces

(* Apply an iteration reordering T to the state: M := M . T^-1,
   D := T . D . T^-1, T_total := T . T_total. *)
let apply_t st t ~now_tiled =
  let env = st.env in
  let t_inv = Rel.inverse ~env t in
  let data_map = Rel.compose ~env st.data_map t_inv in
  let deps =
    List.map
      (fun (name, d) ->
        (name, Rel.compose ~env (Rel.compose ~env t d) t_inv))
      st.deps
  in
  let t_total = Rel.compose ~env t st.t_total in
  { st with data_map; deps; t_total; tiled = now_tiled }

let apply_transform st (transform : Transform.t) =
  match transform with
  | Transform.Data_reorder alg ->
    let base =
      match alg with
      | Transform.Cpack -> "sigma_cp"
      | Transform.Gpart _ -> "sigma_gp"
      | Transform.Multilevel _ -> "sigma_ml"
      | Transform.Rcm -> "sigma_rcm"
      | Transform.Tile_pack -> "sigma_tp"
    in
    let f, counters = fresh_fn st base in
    let env = Ufs_env.add_bijection f ~inverse:(f ^ "_inv") ~arity:1 st.env in
    let r = rel (Fmt.str "{[m] -> [%s(m)]}" f) in
    let st = { st with env; counters } in
    (* R first reorders the data... *)
    let data_map = Rel.compose ~env r st.data_map in
    let r_total = Rel.compose ~env r st.r_total in
    let st = { st with data_map; r_total } in
    (* ... then identity-mapped loops follow it. *)
    let t = t_of_data_reorder ~tiled:st.tiled st.program f in
    let st = apply_t st t ~now_tiled:st.tiled in
    let step =
      {
        transform;
        fn_name = f;
        relation = r;
        data_map = st.data_map;
        legality = "data reorderings never affect dependences (Section 4)";
      }
    in
    { st with steps = step :: st.steps }
  | Transform.Iter_reorder alg ->
    let target = indexed_loop st.program in
    if not target.reduction_only then
      invalid
        "Symbolic: %s on loop %s is illegal: non-reduction loop-carried \
         dependences"
        (Transform.iter_algorithm_name alg)
        target.index;
    let base =
      match alg with
      | Transform.Lexgroup -> "delta_lg"
      | Transform.Lexsort -> "delta_ls"
      | Transform.Bucket_tile _ -> "delta_bt"
    in
    let f, counters = fresh_fn st base in
    let env = Ufs_env.add_bijection f ~inverse:(f ^ "_inv") ~arity:1 st.env in
    let st = { st with env; counters } in
    let t = t_of_iter_reorder ~tiled:st.tiled st.program ~target:target.index f in
    let st = apply_t st t ~now_tiled:st.tiled in
    let step =
      {
        transform;
        fn_name = f;
        relation = t;
        data_map = st.data_map;
        legality =
          Fmt.str
            "loop-carried dependences of loop %s are reductions, which \
             permit reordering (Section 4, footnote 3)"
            target.index;
      }
    in
    { st with steps = step :: st.steps }
  | Transform.Sparse_tile _ ->
    let theta, counters = fresh_fn st "theta" in
    let env = Ufs_env.add ~arity:2 theta st.env in
    let st = { st with env; counters } in
    let t = t_of_sparse_tile st.program theta in
    let st = apply_t st t ~now_tiled:true in
    let step =
      {
        transform;
        fn_name = theta;
        relation = t;
        data_map = st.data_map;
        legality =
          "tile growth traverses the dependences and assigns tiles \
           satisfying tile(p) <= tile(q) for every dependence p -> q \
           (Section 4); checked at run time by the inspector";
      }
    in
    { st with steps = step :: st.steps }

(* Plan.validate's composition rules over every transformation the
   state has applied and the plan's, then, per step, the program's
   reduction rule. *)
let apply st plan =
  let applied = List.rev_map (fun s -> s.transform) st.steps in
  let all = Plan.make ~name:(Plan.name plan) (applied @ Plan.transforms plan) in
  (match Plan.validate all with
  | Ok () -> ()
  | Error msg -> invalid "Symbolic: %s" msg);
  List.fold_left apply_transform st (Plan.transforms plan)

let steps st = List.rev st.steps
let data_map st = st.data_map
let t_total st = st.t_total
let r_total st = st.r_total
let dependences st = st.deps
let env st = st.env
let is_tiled st = st.tiled

(* ------------------------------------------------------------------ *)
(* A kernel's program, derived from its Walker declaration             *)

let endpoints = [ "left"; "right" ]

(* The interaction loop [seed_loop] is [j] and reaches the data
   through each endpoint; every other loop is a node loop reaching its
   own element, [i] before the interaction loop and [k] after it.
   Statements are numbered one per node loop and one per endpoint (so
   moldyn's are S1, S2/S3, S4), and one dependence set joins each pair
   of adjacent loops, named after the statement pairs it relates. *)
let program_of (k : Kernels.Kernel.t) =
  let seed = k.Kernels.Kernel.seed_loop in
  let n_ends = List.length endpoints in
  let loop c reduction_only =
    let index, size, accesses =
      if c = seed then
        ("j", "n_inter", List.map (fun f -> Indexed f) endpoints)
      else ((if c < seed then "i" else "k"), "n_nodes", [ Direct ])
    in
    { index; position = c + 1; size; accesses; reduction_only }
  in
  let loops = Array.mapi loop k.Kernels.Kernel.reduction_only in
  let stmts c =
    let first = c + 1 + if c > seed then n_ends - 1 else 0 in
    List.init (List.length loops.(c).accesses) (( + ) first)
  in
  let dep c =
    let a = loops.(c) and b = loops.(c + 1) in
    let name =
      String.concat "+"
        (List.concat_map
           (fun sa -> List.map (Fmt.str "d%d%d" sa) (stmts (c + 1)))
           (stmts c))
    in
    let disjunct f =
      if c + 1 = seed then
        Fmt.str
          "{[s,%d,%s,1] -> [sp,%d,j,q] : %s = %s(j) && s <= sp && 1 <= q && \
           q <= %d}"
          a.position a.index b.position a.index f n_ends
      else if c = seed then
        Fmt.str
          "{[s,%d,j,q] -> [sp,%d,%s(j),1] : s <= sp && 1 <= q && q <= %d}"
          a.position b.position f n_ends
      else invalid "Symbolic: %s chains two node loops" k.Kernels.Kernel.name
    in
    (name, rel (String.concat " union " (List.map disjunct endpoints)))
  in
  {
    name = k.Kernels.Kernel.name;
    loops = Array.to_list loops;
    data_space = "x";
    deps = List.init (Array.length loops - 1) dep;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let pp_step ppf s =
  Fmt.pf ppf "@[<v2>%a (introduces %s):@,relation: %a@,M: %a@,legal: %s@]"
    Transform.pp s.transform s.fn_name Rel.pp s.relation Rel.pp s.data_map
    s.legality

let pp_report ppf st =
  Fmt.pf ppf "@[<v>program %s@,initial M: %a@,@," st.program.name Rel.pp
    (initial_data_map st.program);
  List.iter (fun s -> Fmt.pf ppf "%a@,@," pp_step s) (List.rev st.steps);
  Fmt.pf ppf "composed R (data): %a@,composed T (iterations): %a@,"
    Rel.pp st.r_total Rel.pp st.t_total;
  List.iter
    (fun (name, d) -> Fmt.pf ppf "dependences %s: %a@," name Rel.pp d)
    st.deps;
  Fmt.pf ppf "@]"
