(* The composed run-time inspector (Section 5 / Figures 11 and 15).

   Given a plan and a kernel, run each transformation's inspector
   against the data mappings and dependences *as modified by the
   previously planned inspectors*, producing the composed reordering
   functions, the transformed kernel for the executor, and (when the
   plan sparse-tiles) the tile schedule.

   Two remap strategies realize the Section 6 overhead trade-off:
   - [Remap_each] (Figure 15): every transformation immediately
     remaps the kernel's data and index arrays, so later inspectors
     traverse plain arrays;
   - [Remap_once] (Figure 11, one step further): inspectors traverse a
     *view* of the original index arrays through the composed
     (sigma, delta) accumulators instead of an adjusted working copy,
     so a composition performs one pass over the access per
     transformation, one in-place pointer update per reordering
     function ([Perm.compose_into] over scratch-backed accumulators),
     and one data remap at the very end. Even the identity loops'
     renames are deferred and applied once through the composed
     post-tiling rename.

   Both strategies produce identical results; only the inspector cost
   differs (Figure 16 measures the difference). Under both, what the
   composition knows saves passes: a lexGroup right after a CPACK is
   keyed by CPACK's new number of each iteration's first touch, which
   CPACK's pass records, so lexGroup only sorts; and sparse tiling
   keeps its tile functions, which later data reorderings rename,
   and the schedule is built once, at the end. *)

open Reorder

type strategy = Remap_each | Remap_once

type result = {
  kernel : Kernels.Kernel.t; (* transformed kernel for the executor *)
  schedule : Schedule.t option;
  sigma_total : Perm.t; (* composed data reordering *)
  delta_total : Perm.t; (* composed interaction-loop reordering *)
  inspector_seconds : float;
  n_data_remaps : int; (* full data-array remap passes performed *)
  (* Each generated reordering function, named exactly as the symbolic
     layer names it (sigma_cp, delta_lg, sigma_cp2, ...), so the
     compile-time formulas can be evaluated against the run-time
     output. *)
  reordering_fns : (string * Perm.t) list;
}

let invalid fmt = Fmt.kstr invalid_arg fmt

let c_data_remaps = Rtrt_obs.Metrics.counter "inspector.data_remaps"
let c_perms_composed = Rtrt_obs.Metrics.counter "inspector.permutations_composed"

(* Remap_once view materializations that could not be avoided
   (transforms with no view traversal, or the sparse-tiling chain
   build). *)
let c_view_materializations =
  Rtrt_obs.Metrics.counter "inspector.view_materializations"

(* Mutable walk state shared by both strategies. *)
type walk = {
  mutable kern : Kernels.Kernel.t; (* original (Remap_once) or current *)
  base : Access.t; (* the kernel's original access (the view's basis) *)
  (* Remap_each: the access under all reorderings so far, always
     present. Remap_once: a lazily materialized cache of the
     (sigma, delta) view, invalidated by every composition. *)
  mutable work_access : Access.t option;
  sigma_acc : int array; (* composed data forward; live prefix n_nodes *)
  delta_acc : int array; (* composed iteration forward; prefix n_inter *)
  delta_inv : int array; (* inverse of [delta_acc]; prefix n_inter *)
  (* The sparse tiling's tile functions, one per loop of the chain;
     the schedule is built from them at the end. Data reorderings
     after tiling rename the identity loops' (every loop but the
     seed's): Remap_each at once, Remap_once at the end. *)
  mutable tiles : Sparse_tile.tile_fn array option;
  (* Remap_once: [sigma_acc] as it was when tiling, snapshotted by the
     first data reordering after it, so the identity loops are renamed
     once at the end through the composed post-tiling rename. *)
  mutable sigma_at_tiling : int array option;
  (* The keys a CPACK recorded for the lexGroup right after it. *)
  mutable lexgroup_keys : int array option;
  mutable remaps : int;
  mutable fns : (string * Perm.t) list; (* reverse order *)
  mutable counters : (string * int) list;
}

(* Fresh reordering-function names matching Symbolic.fresh_fn. *)
let fresh_fn walk base =
  let n =
    match List.assoc_opt base walk.counters with Some n -> n | None -> 0
  in
  walk.counters <- (base, n + 1) :: List.remove_assoc base walk.counters;
  if n = 0 then base else Fmt.str "%s%d" base (n + 1)

(* Returns the generated function's name so the enclosing span can
   record it. *)
let record_fn walk base perm =
  let name = fresh_fn walk base in
  walk.fns <- (name, perm) :: walk.fns;
  name

(* The composed view as a concrete access, bit-identical to
   [Access.reorder_iters delta (Access.map_data sigma base)]: one pass
   over the rows in current order, which builds a row pointer only for
   a ragged base. *)
let materialize (base : Access.t) ~sigma ~delta_inv =
  let n_iter = Access.n_iter base and n_data = Access.n_data base in
  let k = base.Access.arity and bptr = base.Access.ptr in
  let bdat = base.Access.dat in
  let ptr = if k > 0 then [||] else Array.make (n_iter + 1) 0 in
  let dat = Array.make (Array.length bdat) 0 in
  let dst = ref 0 in
  for cur = 0 to n_iter - 1 do
    let r = delta_inv.(cur) in
    let lo = if k > 0 then k * r else bptr.(r) in
    let hi = if k > 0 then lo + k else bptr.(r + 1) in
    for idx = lo to hi - 1 do
      dat.(!dst) <- sigma.(bdat.(idx));
      incr dst
    done;
    if k = 0 then ptr.(cur + 1) <- !dst
  done;
  Access.unsafe_make ~n_iter ~n_data ~arity:k ~ptr ~dat

(* The access under all reorderings so far. Remap_each keeps it
   eagerly materialized; Remap_once materializes the view on demand
   and caches it until the next composition invalidates it. *)
let current walk =
  match walk.work_access with
  | Some a -> a
  | None ->
    Rtrt_obs.Metrics.incr c_view_materializations;
    let a =
      materialize walk.base ~sigma:walk.sigma_acc ~delta_inv:walk.delta_inv
    in
    walk.work_access <- Some a;
    a

(* Identity-mapped loops are renamed by a data reordering
   (T_{I3->I4}); the seed loop's (the interaction loop's) ids are
   untouched. The node numbered [before.(d)] (default [d]) in the tile
   functions is numbered [after.(d)] now: one pass and one fresh tile
   function per loop. *)
let rename_node_loops walk tiles ?before after =
  let seed = walk.kern.Kernels.Kernel.seed_loop in
  Array.iteri
    (fun l (tf : Sparse_tile.tile_fn) ->
      if l <> seed then begin
        let tile_of = tf.Sparse_tile.tile_of in
        let out = Array.make (Array.length tile_of) 0 in
        (match before with
        | None ->
          for d = 0 to Array.length out - 1 do
            out.(after.(d)) <- tile_of.(d)
          done
        | Some before ->
          for d = 0 to Array.length out - 1 do
            out.(after.(d)) <- tile_of.(before.(d))
          done);
        tiles.(l) <- { tf with Sparse_tile.tile_of = out }
      end)
    tiles

let data_perm walk strategy sigma_new =
  Rtrt_obs.Metrics.incr c_perms_composed;
  match strategy with
  | Remap_once ->
    (* Defer everything: later inspectors traverse the view through
       the updated accumulator; the identity loops' tile functions are
       renamed once at finalization, from the accumulator as the first
       data reordering after tiling found it. *)
    if walk.tiles <> None && walk.sigma_at_tiling = None then
      walk.sigma_at_tiling <-
        Some (Array.sub walk.sigma_acc 0 (Perm.size sigma_new));
    Perm.compose_into sigma_new walk.sigma_acc;
    walk.work_access <- None
  | Remap_each ->
    Perm.compose_into sigma_new walk.sigma_acc;
    walk.work_access <-
      Some (Access.map_data sigma_new (Option.get walk.work_access));
    Option.iter
      (fun tiles ->
        rename_node_loops walk tiles (Perm.unsafe_forward sigma_new))
      walk.tiles;
    walk.kern <- walk.kern.Kernels.Kernel.apply_data_perm sigma_new;
    walk.remaps <- walk.remaps + 1;
    Rtrt_obs.Metrics.incr c_data_remaps

let iter_perm walk strategy delta_new =
  Rtrt_obs.Metrics.incr c_perms_composed;
  Perm.compose_into delta_new walk.delta_acc;
  let n = Perm.size delta_new in
  for i = 0 to n - 1 do
    walk.delta_inv.(walk.delta_acc.(i)) <- i
  done;
  match strategy with
  | Remap_once -> walk.work_access <- None
  | Remap_each ->
    walk.work_access <-
      Some (Access.reorder_iters delta_new (Option.get walk.work_access));
    walk.kern <- walk.kern.Kernels.Kernel.apply_iter_perm delta_new

let seed_tiles_of walk (seed : Transform.seed_partition) ~seed_loop ~work =
  let kern = walk.kern in
  let n_seed = kern.Kernels.Kernel.loop_sizes.(seed_loop) in
  match seed with
  | Transform.Seed_block { part_size } ->
    Sparse_tile.tile_fn_of_partition
      (Irgraph.Partition.block ~n:n_seed ~part_size)
  | Transform.Seed_gpart { part_size } ->
    (* Partition the data-affinity graph and key each seed-loop
       iteration by the partition of its first touch (for identity
       loops that *is* its datum). *)
    let p = Irgraph.Partition.gpart (Access.to_graph work) ~part_size in
    let assign = Irgraph.Partition.assignment p in
    let tile_of =
      if seed_loop = kern.Kernels.Kernel.seed_loop then
        Array.init n_seed (fun it -> assign.(Access.first_touch work it))
      else Array.init n_seed (fun v -> assign.(v))
    in
    { Sparse_tile.n_tiles = Irgraph.Partition.n_parts p; tile_of }

let sparse_tile walk ~share_symmetric_deps growth seed =
  let kern = walk.kern in
  if walk.tiles <> None then invalid "Inspector: already sparse tiled";
  (* The chain build is the one Remap_once stage that needs a concrete
     access (it is a kernel closure); the lazy cache makes it a single
     materialization. The chain holds that access itself, once per
     dependence set, in the orientation the kernel declares. *)
  let work = current walk in
  let chain = kern.Kernels.Kernel.chain_of_access work in
  (* Traversing one set per pair in its stored orientation is the
     Section 6 elision; without it, each set stored the other way is
     first transposed into the orientation growth gathers over (the A5
     baseline). *)
  let oriented ~seed =
    if share_symmetric_deps then chain
    else Sparse_tile.gather_oriented ~chain ~seed
  in
  let chain, tiles =
    match (growth : Transform.tile_growth) with
    | Transform.Full ->
      let seed_loop = kern.Kernels.Kernel.seed_loop in
      let seed_tiles = seed_tiles_of walk seed ~seed_loop ~work in
      let chain = oriented ~seed:seed_loop in
      (chain, Sparse_tile.full ~chain ~seed:seed_loop ~seed_tiles ())
    | Transform.Cache_block ->
      let seed_tiles = seed_tiles_of walk seed ~seed_loop:0 ~work in
      let chain = oriented ~seed:0 in
      (chain, Sparse_tile.cache_block ~chain ~seed_tiles)
  in
  (match Sparse_tile.check_legality ~chain ~tiles with
  | [] -> ()
  | (l, a, b) :: _ ->
    invalid "Inspector: illegal tile function (loop pair %d, %d -> %d)" l a b);
  walk.tiles <- Some tiles

(* Also the fingerprint's strategy ingredient: changing a name changes
   every key, orphaning the stored plans. *)
let strategy_name = function
  | Remap_each -> "remap_each"
  | Remap_once -> "remap_once"

(* Everything that determines the inspection outcome goes into the
   cache key: the kernel's shape and access pattern (the run-time
   data), the plan's transformations with their parameters (via
   [Transform.pp], which prints every parameter), the remap strategy
   (it changes [n_data_remaps]), and the symmetric-dependence flag (it
   changes tile growth). The plan *name* is deliberately excluded —
   two differently-named plans with the same transforms inspect
   identically.

   The kernel's symmetric dependences (Section 6) are an ingredient
   too, derived from its chain: the pair [(seed - 1, seed)] when the
   sets just before and after the seed loop hold the same access
   (moldyn and cg), none otherwise (nbf and irreg have one set). *)
let fingerprint ?(strategy = Remap_once) ?(share_symmetric_deps = true) plan
    (kernel : Kernels.Kernel.t) =
  let module F = Rtrt_plancache.Fingerprint in
  let b = F.create () in
  F.add_string b kernel.Kernels.Kernel.name;
  F.add_int b kernel.Kernels.Kernel.n_nodes;
  F.add_int b kernel.Kernels.Kernel.n_inter;
  F.add_int_array b kernel.Kernels.Kernel.loop_sizes;
  let seed = kernel.Kernels.Kernel.seed_loop in
  F.add_int b seed;
  let access = kernel.Kernels.Kernel.access in
  let conn = (kernel.Kernels.Kernel.chain_of_access access).Sparse_tile.conn in
  let access_of = function Sparse_tile.Preds a | Sparse_tile.Succs a -> a in
  if
    seed > 0
    && seed < Array.length conn
    && Access.equal (access_of conn.(seed - 1)) (access_of conn.(seed))
  then begin
    F.add_int b (seed - 1);
    F.add_int b seed
  end;
  F.add_access b access;
  List.iter
    (fun t -> F.add_string b (Fmt.str "%a" Transform.pp t))
    (Plan.transforms plan);
  F.add_string b (strategy_name strategy);
  F.add_bool b share_symmetric_deps;
  F.value b

(* The composed delta then sigma in one kernel rebuild
   ([apply_perms]), applied to the caller's kernel itself. It needs no
   private copy: the rebuild writes fresh index, per-interaction and
   node arrays, even under identity permutations, so the result shares
   nothing with [kernel]. An identity sigma moves no data and is not
   counted as a remap. *)
let remap (kernel : Kernels.Kernel.t) ~delta ~sigma =
  ( kernel.Kernels.Kernel.apply_perms ~delta ~sigma,
    if Perm.is_id sigma then 0 else 1 )

(* [remap], except that identity delta and sigma move nothing and
   leave [kernel] itself: [run] copies it once its clock has stopped,
   because the copy only keeps the result from sharing the caller's
   arrays and is no part of inspection. *)
let remap_unless_id kernel ~delta ~sigma =
  if Perm.is_id delta && Perm.is_id sigma then (kernel, 0)
  else remap kernel ~delta ~sigma

(* A warm hit skips every per-transformation inspector and only
   remaps. All strategies produce exactly the kernel [remap] builds,
   so the replayed result is bit-identical to the cold run's. *)
let replay (entry : Rtrt_plancache.Cache.entry) (kernel : Kernels.Kernel.t) =
  Rtrt_obs.Span.with_span ~name:"inspector.replay" @@ fun span ->
  let t0 = Rtrt_obs.Clock.now_s () in
  let k, remaps =
    remap_unless_id kernel ~delta:entry.delta_total ~sigma:entry.sigma_total
  in
  if remaps > 0 then Rtrt_obs.Metrics.incr c_data_remaps;
  let seconds = Rtrt_obs.Clock.now_s () -. t0 in
  Rtrt_obs.Span.set_attr span "inspector_seconds" (Rtrt_obs.Json.Float seconds);
  {
    kernel = k;
    schedule = entry.schedule;
    sigma_total = entry.sigma_total;
    delta_total = entry.delta_total;
    inspector_seconds = seconds;
    n_data_remaps = remaps;
    reordering_fns = entry.reordering_fns;
  }

let run ?cache ?pool:_ ?(strategy = Remap_once) ?(share_symmetric_deps = true)
    plan (kernel : Kernels.Kernel.t) =
  (match Plan.validate plan with
  | Ok () -> ()
  | Error msg -> invalid "Inspector: %s" msg);
  let inspect () =
  (* Remap_each works on a private copy: [apply_*_perm] rebuild only
     the arrays they touch, so its kernel would otherwise alias (and
     its executor mutate) the caller's arrays. Remap_once ends in one
     [remap], which shares nothing with its input, or under identity
     delta and sigma in [unalias]'s copy. *)
  let kernel =
    match strategy with
    | Remap_each -> kernel.Kernels.Kernel.copy ()
    | Remap_once -> kernel
  in
  Rtrt_obs.Span.with_span ~name:"inspector.run"
    ~attrs:
      [
        ("plan", Rtrt_obs.Json.String (Plan.name plan));
        ("strategy", Rtrt_obs.Json.String (strategy_name strategy));
      ]
  @@ fun root_span ->
  let t0 = Rtrt_obs.Clock.now_s () in
  let n_nodes = kernel.Kernels.Kernel.n_nodes in
  let n_inter = kernel.Kernels.Kernel.n_inter in
  (* The composed forward accumulators (and delta's inverse) live in
     scratch backing stores: repeated inspections reuse them, and
     [Perm.compose_into] updates them in place — one pointer update
     per index array per transformation, no allocation. *)
  Irgraph.Scratch.with_buf @@ fun sigma_buf ->
  Irgraph.Scratch.with_buf @@ fun delta_buf ->
  Irgraph.Scratch.with_buf @@ fun delta_inv_buf ->
  Irgraph.Scratch.ensure sigma_buf n_nodes;
  Irgraph.Scratch.ensure delta_buf n_inter;
  Irgraph.Scratch.ensure delta_inv_buf n_inter;
  let sigma_acc = Irgraph.Scratch.data sigma_buf in
  let delta_acc = Irgraph.Scratch.data delta_buf in
  let delta_inv = Irgraph.Scratch.data delta_inv_buf in
  for i = 0 to n_nodes - 1 do
    sigma_acc.(i) <- i
  done;
  for i = 0 to n_inter - 1 do
    delta_acc.(i) <- i;
    delta_inv.(i) <- i
  done;
  let walk =
    {
      kern = kernel;
      base = kernel.Kernels.Kernel.access;
      work_access = Some kernel.Kernels.Kernel.access;
      sigma_acc;
      delta_acc;
      delta_inv;
      tiles = None;
      sigma_at_tiling = None;
      lexgroup_keys = None;
      remaps = 0;
      fns = [];
      counters = [];
    }
  in
  let apply (t : Transform.t) ~next =
    Rtrt_obs.Span.with_span ~name:"inspector.transform"
      ~attrs:[ ("kind", Rtrt_obs.Json.String (Transform.name t)) ]
    @@ fun span ->
    let lexgroup_keys = walk.lexgroup_keys in
    walk.lexgroup_keys <- None;
    match t with
    | Transform.Data_reorder alg ->
      let sigma_new =
        match alg with
        | Transform.Cpack -> (
          (* A lexGroup next is keyed by this pass (see [Cpack.run]). *)
          let keys =
            match next with
            | Some (Transform.Iter_reorder Transform.Lexgroup) ->
              Some (Array.make n_inter 0)
            | _ -> None
          in
          walk.lexgroup_keys <- keys;
          match strategy with
          | Remap_once ->
            Cpack.run_view ?keys walk.base ~sigma:walk.sigma_acc
              ~delta_inv:walk.delta_inv
          | Remap_each -> Cpack.run ?keys (current walk))
        | Transform.Gpart { part_size } ->
          Gpart_reorder.run (current walk) ~part_size
        | Transform.Multilevel { part_size } ->
          Multilevel_reorder.run (current walk) ~part_size
        | Transform.Rcm -> Rcm_reorder.run (current walk)
        | Transform.Tile_pack -> (
          match walk.tiles with
          | None -> invalid "Inspector: tilePack without sparse tiling"
          | Some tiles -> (
            let seed_loop = walk.kern.Kernels.Kernel.seed_loop in
            (* tilePack is CPACK over the tiled execution order of the
               seed loop (whose tile function data perms never
               rename). Where the current access is at hand — always
               under Remap_each, and under Remap_once when sparse
               tiling materialized the view and nothing reordered
               since — it is packed in tile order; otherwise the view
               is read through sigma and delta^-1 in that order. Both
               visit the same touches in the same order. *)
            match walk.work_access with
            | Some work ->
              Tile_pack.run ~tiles
                ~accesses:[ (seed_loop, work) ]
                ~n_data:(Access.n_data work)
            | None ->
              Cpack.run_view
                ~order:(Tile_pack.order tiles.(seed_loop))
                walk.base ~sigma:walk.sigma_acc ~delta_inv:walk.delta_inv))
      in
      let base =
        match alg with
        | Transform.Cpack -> "sigma_cp"
        | Transform.Gpart _ -> "sigma_gp"
        | Transform.Multilevel _ -> "sigma_ml"
        | Transform.Rcm -> "sigma_rcm"
        | Transform.Tile_pack -> "sigma_tp"
      in
      let fn = record_fn walk base sigma_new in
      Rtrt_obs.Span.set_attr span "fn" (Rtrt_obs.Json.String fn);
      data_perm walk strategy sigma_new
    | Transform.Iter_reorder alg ->
      let delta_new =
        match alg with
        | Transform.Lexgroup -> (
          match (lexgroup_keys, strategy) with
          | Some key, _ ->
            Lexgroup.sort_by_key ~n_data:(Access.n_data walk.base) key
          | None, Remap_once ->
            Lexgroup.run_view walk.base ~sigma:walk.sigma_acc
              ~delta_inv:walk.delta_inv
          | None, Remap_each -> Lexgroup.run (current walk))
        | Transform.Lexsort -> Lexsort.run (current walk)
        | Transform.Bucket_tile { bucket_size } ->
          (Bucket_tile.run (current walk) ~bucket_size).Bucket_tile.delta
      in
      let base =
        match alg with
        | Transform.Lexgroup -> "delta_lg"
        | Transform.Lexsort -> "delta_ls"
        | Transform.Bucket_tile _ -> "delta_bt"
      in
      let fn = record_fn walk base delta_new in
      Rtrt_obs.Span.set_attr span "fn" (Rtrt_obs.Json.String fn);
      iter_perm walk strategy delta_new
    | Transform.Sparse_tile { growth; seed } ->
      sparse_tile walk ~share_symmetric_deps growth seed
  in
  let rec go = function
    | [] -> ()
    | t :: rest ->
      apply t ~next:(match rest with t' :: _ -> Some t' | [] -> None);
      go rest
  in
  go (Plan.transforms plan);
  let sigma_total = Perm.unsafe_of_forward (Array.sub sigma_acc 0 n_nodes) in
  let delta_total = Perm.unsafe_of_forward (Array.sub delta_acc 0 n_inter) in
  (* The one schedule build. Remap_once: the identity loops' tile
     functions have seen none of the data reorderings applied after
     tiling; rename them once through the composed post-tiling rename
     sigma_total . sigma_at_tiling^-1 (the node numbered
     [sigma_at_tiling.(d)] at tiling is [sigma_acc.(d)] now), one pass
     per loop. [of_tile_fns] leaves every row ascending, so one composed
     rename is bit-identical to the per-transformation renames. *)
  let schedule =
    Option.map
      (fun tiles ->
        Rtrt_obs.Span.with_ ~name:"inspector.schedule" @@ fun () ->
        Option.iter
          (fun before -> rename_node_loops walk tiles ~before sigma_acc)
          walk.sigma_at_tiling;
        Schedule.of_tile_fns tiles)
      walk.tiles
  in
  (* Remap_once: one data remap at the very end, in the same rebuild
     as the index-array adjustment that both strategies pay. *)
  let kern =
    match strategy with
    | Remap_each -> walk.kern
    | Remap_once ->
      Rtrt_obs.Span.with_ ~name:"inspector.final_remap" @@ fun () ->
      let k, remaps =
        remap_unless_id walk.kern ~delta:delta_total ~sigma:sigma_total
      in
      walk.remaps <- walk.remaps + remaps;
      Rtrt_obs.Metrics.add c_data_remaps remaps;
      k
  in
  let seconds = Rtrt_obs.Clock.now_s () -. t0 in
  Rtrt_obs.Span.set_attr root_span "inspector_seconds"
    (Rtrt_obs.Json.Float seconds);
  Rtrt_obs.Span.set_attr root_span "n_data_remaps"
    (Rtrt_obs.Json.Int walk.remaps);
  {
    kernel = kern;
    schedule;
    sigma_total;
    delta_total;
    inspector_seconds = seconds;
    n_data_remaps = walk.remaps;
    reordering_fns = List.rev walk.fns;
  }
  in
  (* Only identity delta and sigma under [Remap_once] leave the
     caller's kernel itself in the result; it is copied here, after the
     clock has stopped. *)
  let unalias r =
    if r.kernel == kernel then { r with kernel = kernel.Kernels.Kernel.copy () }
    else r
  in
  match cache with
  | None -> unalias (inspect ())
  | Some cache -> (
    let key = fingerprint ~strategy ~share_symmetric_deps plan kernel in
    match
      Rtrt_plancache.Cache.find cache ~key
        ~n_data:kernel.Kernels.Kernel.n_nodes
        ~n_iter:kernel.Kernels.Kernel.n_inter
        ~loop_sizes:kernel.Kernels.Kernel.loop_sizes
    with
    | Some entry -> unalias (replay entry kernel)
    | None ->
      let r = unalias (inspect ()) in
      (* If an entry appeared under the key meanwhile (e.g. stored by
         another domain), the result must agree with it — verify
         before (re)storing rather than silently shadowing. *)
      (match Rtrt_plancache.Cache.peek cache ~key with
      | Some entry ->
        if
          not
            (Perm.equal entry.Rtrt_plancache.Cache.sigma_total r.sigma_total
            && Perm.equal entry.Rtrt_plancache.Cache.delta_total r.delta_total)
        then invalid "Inspector: result disagrees with cached entry"
      | None -> ());
      Rtrt_plancache.Cache.store cache ~key
        {
          Rtrt_plancache.Cache.sigma_total = r.sigma_total;
          delta_total = r.delta_total;
          schedule = r.schedule;
          reordering_fns = r.reordering_fns;
          n_data_remaps = r.n_data_remaps;
          cold_inspector_seconds = r.inspector_seconds;
        };
      r)
