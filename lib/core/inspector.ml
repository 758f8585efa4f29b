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
     and one data remap at the very end. Even the schedule's
     identity-loop renames are deferred and applied once through the
     composed post-tiling rename.

   Both strategies produce identical results; only the inspector cost
   differs (Figure 16 measures the difference). *)

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
  (* Plan-time shape analysis of the schedule — what the staged
     executor specialization keys its tier choice on. Cached with the
     plan; a warm replay surfaces the stored summary. *)
  shape_summary : Shape.summary option;
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
  (* Remap_once: snapshot of [sigma_acc] when the schedule was
     created, so the identity-loop renames can be applied once at the
     end through the composed post-tiling rename. *)
  mutable sigma_at_tiling : int array option;
  mutable schedule : Schedule.t option;
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
   [Access.reorder_iters delta (Access.map_data sigma base)]. *)
let materialize (base : Access.t) ~sigma ~delta_inv =
  let n_iter = Access.n_iter base and n_data = Access.n_data base in
  let bptr = base.Access.ptr and bdat = base.Access.dat in
  let ptr = Array.make (n_iter + 1) 0 in
  for cur = 0 to n_iter - 1 do
    let r = delta_inv.(cur) in
    ptr.(cur + 1) <- ptr.(cur) + (bptr.(r + 1) - bptr.(r))
  done;
  let dat = Array.make ptr.(n_iter) 0 in
  for cur = 0 to n_iter - 1 do
    let src = bptr.(delta_inv.(cur)) and dst = ptr.(cur) in
    for k = 0 to ptr.(cur + 1) - dst - 1 do
      dat.(dst + k) <- sigma.(bdat.(src + k))
    done
  done;
  Access.unsafe_make ~n_iter ~n_data ~ptr ~dat

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
   (T_{I3->I4}); the interaction loop's ids are untouched. *)
let rename_identity_loops walk sched rename =
  let seed = walk.kern.Kernels.Kernel.seed_loop in
  List.fold_left
    (fun acc l ->
      if l = seed then acc else Schedule.remap_loop acc ~loop:l rename)
    sched
    (List.init (Schedule.n_loops sched) Fun.id)

let data_perm walk strategy sigma_new =
  Rtrt_obs.Metrics.incr c_perms_composed;
  Perm.compose_into sigma_new walk.sigma_acc;
  match strategy with
  | Remap_once ->
    (* Defer everything: later inspectors traverse the view through
       the updated accumulator; the schedule's identity loops are
       renamed once at finalization. *)
    walk.work_access <- None
  | Remap_each ->
    walk.work_access <-
      Some (Access.map_data sigma_new (Option.get walk.work_access));
    walk.schedule <-
      Option.map
        (fun sched -> rename_identity_loops walk sched sigma_new)
        walk.schedule;
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

let sparse_tile walk strategy ~share_symmetric_deps growth seed =
  let kern = walk.kern in
  if walk.schedule <> None then invalid "Inspector: already sparse tiled";
  (* The chain build is the one Remap_once stage that needs a concrete
     access (it is a kernel closure); the lazy cache makes it a single
     materialization. *)
  let work = current walk in
  let chain = kern.Kernels.Kernel.chain_of_access work in
  let tiles =
    match (growth : Transform.tile_growth) with
    | Transform.Full -> (
      let seed_loop = kern.Kernels.Kernel.seed_loop in
      let seed_tiles = seed_tiles_of walk seed ~seed_loop ~work in
      match strategy with
      | Remap_once when share_symmetric_deps ->
        (* Traverse one dependence set: scatter-min over the
           predecessors instead of gathering over the successors. *)
        Sparse_tile.full ~grow_backward:Sparse_tile.grow_backward_scatter
          ~chain ~seed:seed_loop ~seed_tiles ()
      | _ ->
        let shared_succ =
          if share_symmetric_deps then
            List.map
              (fun (l, conn_idx) -> (l, chain.Sparse_tile.conn.(conn_idx)))
              kern.Kernels.Kernel.symmetric_backward
          else []
        in
        Sparse_tile.full ~shared_succ ~chain ~seed:seed_loop ~seed_tiles ())
    | Transform.Cache_block ->
      let seed_tiles = seed_tiles_of walk seed ~seed_loop:0 ~work in
      Sparse_tile.cache_block ~chain ~seed_tiles
  in
  (match Sparse_tile.check_legality ~chain ~tiles with
  | [] -> ()
  | (l, a, b) :: _ ->
    invalid "Inspector: illegal tile function (loop pair %d, %d -> %d)" l a b);
  walk.schedule <- Some (Schedule.of_tile_fns tiles);
  if strategy = Remap_once then
    walk.sigma_at_tiling <-
      Some (Array.sub walk.sigma_acc 0 (Access.n_data work))

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
   identically. *)
let fingerprint ?(strategy = Remap_once) ?(share_symmetric_deps = true) plan
    (kernel : Kernels.Kernel.t) =
  let module F = Rtrt_plancache.Fingerprint in
  let b = F.create () in
  F.add_string b kernel.Kernels.Kernel.name;
  F.add_int b kernel.Kernels.Kernel.n_nodes;
  F.add_int b kernel.Kernels.Kernel.n_inter;
  F.add_int_array b kernel.Kernels.Kernel.loop_sizes;
  F.add_int b kernel.Kernels.Kernel.seed_loop;
  List.iter
    (fun (l, conn_idx) ->
      F.add_int b l;
      F.add_int b conn_idx)
    kernel.Kernels.Kernel.symmetric_backward;
  let access = kernel.Kernels.Kernel.access in
  F.add_int_array b access.Access.ptr;
  F.add_int_array b access.Access.dat;
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

(* A warm hit skips every per-transformation inspector and only
   remaps. All strategies produce exactly the kernel [remap] builds,
   so the replayed result is bit-identical to the cold run's. *)
let replay (entry : Rtrt_plancache.Cache.entry) (kernel : Kernels.Kernel.t) =
  Rtrt_obs.Span.with_span ~name:"inspector.replay" @@ fun span ->
  let t0 = Rtrt_obs.Clock.now_s () in
  let k, remaps =
    remap kernel ~delta:entry.delta_total ~sigma:entry.sigma_total
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
    shape_summary =
      (* Old disk entries carry no summary; recompute so warm replays
         still feed the tier choice. *)
      (match entry.shape_summary with
      | Some _ as sm -> sm
      | None ->
        Option.map
          (fun s -> Shape.summary (Shape.analyze s))
          entry.schedule);
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
     [remap], which shares nothing with its input. *)
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
      sigma_at_tiling = None;
      schedule = None;
      remaps = 0;
      fns = [];
      counters = [];
    }
  in
  let apply (t : Transform.t) =
    Rtrt_obs.Span.with_span ~name:"inspector.transform"
      ~attrs:[ ("kind", Rtrt_obs.Json.String (Transform.name t)) ]
    @@ fun span ->
    match t with
    | Transform.Data_reorder alg ->
      let sigma_new =
        match alg with
        | Transform.Cpack -> (
          match strategy with
          | Remap_once ->
            Cpack.run_view walk.base ~sigma:walk.sigma_acc
              ~delta_inv:walk.delta_inv
          | Remap_each -> Cpack.run (current walk))
        | Transform.Gpart { part_size } ->
          Gpart_reorder.run (current walk) ~part_size
        | Transform.Multilevel { part_size } ->
          Multilevel_reorder.run (current walk) ~part_size
        | Transform.Rcm -> Rcm_reorder.run (current walk)
        | Transform.Tile_pack -> (
          match walk.schedule with
          | None -> invalid "Inspector: tilePack without schedule"
          | Some sched -> (
            let seed_loop = walk.kern.Kernels.Kernel.seed_loop in
            (* tilePack is CPACK over the tiled execution order of the
               seed loop (whose schedule rows data perms never touch,
               so the deferred Remap_once schedule is already correct
               here). *)
            match strategy with
            | Remap_once ->
              let order = Schedule.loop_order sched seed_loop in
              Cpack.run_view ~order walk.base ~sigma:walk.sigma_acc
                ~delta_inv:walk.delta_inv
            | Remap_each ->
              Tile_pack.run ~schedule:sched
                ~accesses:[ (seed_loop, current walk) ]
                ~n_data:(Access.n_data (current walk))))
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
          match strategy with
          | Remap_once ->
            Lexgroup.run_view walk.base ~sigma:walk.sigma_acc
              ~delta_inv:walk.delta_inv
          | Remap_each -> Lexgroup.run (current walk))
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
      sparse_tile walk strategy ~share_symmetric_deps growth seed
  in
  List.iter apply (Plan.transforms plan);
  let sigma_total = Perm.unsafe_of_forward (Array.sub sigma_acc 0 n_nodes) in
  let delta_total = Perm.unsafe_of_forward (Array.sub delta_acc 0 n_inter) in
  (* Remap_once: the schedule's identity loops have seen none of the
     data reorderings applied after tiling; rename them once through
     the composed post-tiling rename sigma_total . sigma_at_tiling^-1
     (remap_loop re-sorts each row, so one composed rename is
     bit-identical to the per-transformation renames). *)
  (match (walk.schedule, walk.sigma_at_tiling) with
  | Some sched, Some sig_tile ->
    let n = Array.length sig_tile in
    let inv_tile = Array.make n 0 in
    for d = 0 to n - 1 do
      inv_tile.(sig_tile.(d)) <- d
    done;
    let rename = Array.init n (fun x -> sigma_acc.(inv_tile.(x))) in
    let is_identity = ref true in
    for x = 0 to n - 1 do
      if rename.(x) <> x then is_identity := false
    done;
    if not !is_identity then
      walk.schedule <-
        Some (rename_identity_loops walk sched (Perm.unsafe_of_forward rename))
  | _ -> ());
  (* Remap_once: one data remap at the very end, in the same rebuild
     as the index-array adjustment that both strategies pay. *)
  let kern =
    match strategy with
    | Remap_each -> walk.kern
    | Remap_once ->
      Rtrt_obs.Span.with_ ~name:"inspector.final_remap" @@ fun () ->
      let k, remaps = remap walk.kern ~delta:delta_total ~sigma:sigma_total in
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
    schedule = walk.schedule;
    sigma_total;
    delta_total;
    inspector_seconds = seconds;
    n_data_remaps = walk.remaps;
    reordering_fns = List.rev walk.fns;
    shape_summary =
      Option.map (fun s -> Shape.summary (Shape.analyze s)) walk.schedule;
  }
  in
  match cache with
  | None -> inspect ()
  | Some cache -> (
    let key = fingerprint ~strategy ~share_symmetric_deps plan kernel in
    match
      Rtrt_plancache.Cache.find cache ~key
        ~n_data:kernel.Kernels.Kernel.n_nodes
        ~n_iter:kernel.Kernels.Kernel.n_inter
        ~loop_sizes:kernel.Kernels.Kernel.loop_sizes
    with
    | Some entry -> replay entry kernel
    | None ->
      let r = inspect () in
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
          shape_summary = r.shape_summary;
          reordering_fns = r.reordering_fns;
          n_data_remaps = r.n_data_remaps;
          cold_inspector_seconds = r.inspector_seconds;
        };
      r)
