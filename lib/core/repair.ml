(* Incremental plan repair under graph churn.

   The frozen parts of a completed inspection — the composed
   reorderings (sigma, delta) and the seed tiling — stay valid across
   a rewire: permutations are bijections whatever the edge list says,
   and the seed partition never depended on the edges being any
   particular edges. What churn invalidates is tile *growth*: a grown
   tile is the min (backward) or max (forward) of the seed tiles of
   the node's incident interactions, so it can only change for nodes
   whose incident multiset changed — exactly [Datagen.Churn]'s
   [touched_nodes]. Repair replays the frozen reorderings onto the
   churned kernel, re-evaluates that min/max for the damaged nodes
   only (over a flat node -> interactions adjacency in final
   coordinates, edited in place), and splices the memberships that
   actually moved back into the schedule.

   Supported chain shapes are those where every non-seed loop is a
   node loop adjacent to the seed whose dependence set is the
   interaction access itself (backward: the interactions' predecessor
   rows; forward: their successor rows) — which is all four bundled
   kernels. [prepare] verifies this against the kernel's own chain
   rather than trusting the shape. *)

open Reorder

let invalid fmt = Fmt.kstr invalid_arg fmt

let c_rounds = Rtrt_obs.Metrics.counter "repair.rounds"
let c_fallbacks = Rtrt_obs.Metrics.counter "repair.fallbacks_cold"
let c_nodes = Rtrt_obs.Metrics.counter "repair.nodes_recomputed"
let c_moves = Rtrt_obs.Metrics.counter "repair.tiles_moved"
let c_edges = Rtrt_obs.Metrics.counter "repair.damaged_edges"
let g_seconds = Rtrt_obs.Metrics.gauge "repair.last_seconds"
let g_modeled = Rtrt_obs.Metrics.gauge "repair.last_modeled_seconds"

(* Everything below never changes across repair rounds (until a cold
   fallback re-seeds the whole state). *)
type frozen = {
  plan : Plan.t;
  sigma : Perm.t;
  delta : Perm.t;
  sigma_fwd : int array; (* forward array of [sigma], copied once *)
  delta_fwd : int array;
  fns : (string * Perm.t) list;
  kernel_name : string;
  n_nodes : int;
  n_inter : int;
  loop_sizes : int array;
  seed_loop : int;
  (* Tiling plans only: the frozen seed tile function in final
     (post-delta) interaction coordinates, and the tile count. *)
  seed_tile_of : int array option;
  n_tiles : int;
}

(* The interactions (final coords) incident on each node (final
   coords), with multiplicity, in no particular order: row [v] is
   [inter.(row.(v)) .. inter.(row.(v) + len.(v) - 1)], and it may grow
   up to [row.(v + 1) - row.(v)]. Built from the transpose of an
   access, whose arrays it then owns and edits in place. *)
type adjacency = { row : int array; len : int array; inter : int array }

type state = {
  mutable f : frozen;
  mutable support : (unit, string) result;
  mutable sched : Schedule.t option;
  (* tiles.(l).(i) = current tile of iteration [i] of loop [l], final
     coordinates; mirrors [sched]. Empty when not tiling. *)
  mutable tiles : int array array;
  (* Mirrors the *current* churned access. [None] when the incremental
     path is unsupported or nothing is tiled. *)
  mutable adj : adjacency option;
  mutable cold_seconds : float;
  (* Machine calibration for the cost model: seconds per access touch
     of inspector-style work, and the measured (or initially modeled)
     cost of one frozen-perm replay. *)
  mutable unit_cost : float;
  mutable replay_est : float;
}

type info = {
  fell_back : bool;
  fallback_reason : string option;
  damaged_edges : int;
  damaged_nodes : int;
  nodes_recomputed : int;
  tiles_moved : int;
  seconds : float;
  modeled_repair_seconds : float;
  cold_seconds_ref : float;
  verified : bool option;
}

let supported state = state.support
let schedule state = state.sched

(* ---- prepare ------------------------------------------------------ *)

let adjacency_of (trans : Access.t) =
  let k = trans.Access.arity and n = Access.n_iter trans in
  let row =
    if k > 0 then Array.init (n + 1) (fun v -> k * v) else trans.Access.ptr
  in
  {
    row;
    len = Array.init n (fun v -> row.(v + 1) - row.(v));
    inter = trans.Access.dat;
  }

let arrays_equal (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  go (Array.length a - 1)

(* Why every [repair] on this state will take the cold path, or [Ok]
   if the incremental path applies. [trans] is the transpose of the
   final access, forced only for a set stored in the orientation
   opposite to the access (the caller reuses it for the adjacency). *)
let compute_support plan (k : Kernels.Kernel.t) sched ~trans =
  let tiling =
    List.find_map
      (function
        | Transform.Sparse_tile { growth; _ } -> Some growth | _ -> None)
      (Plan.transforms plan)
  in
  match (tiling, sched) with
  | None, None -> Ok () (* pure replay: nothing grows, nothing splices *)
  | None, Some _ | Some _, None ->
    invalid "Repair.prepare: plan and result disagree about sparse tiling"
  | Some Transform.Cache_block, Some _ ->
    Error "cache-block growth is not incrementally repairable"
  | Some Transform.Full, Some sched ->
    let n_loops = Array.length k.Kernels.Kernel.loop_sizes in
    let seed = k.Kernels.Kernel.seed_loop in
    if Schedule.n_loops sched <> n_loops then
      Error "schedule does not match the kernel chain (time-tiled?)"
    else begin
      let bad = ref None in
      for l = 0 to n_loops - 1 do
        if
          l <> seed
          && (abs (l - seed) <> 1
             || k.Kernels.Kernel.loop_sizes.(l) <> k.Kernels.Kernel.n_nodes)
        then bad := Some l
      done;
      match !bad with
      | Some l ->
        Error (Fmt.str "loop %d is not a seed-adjacent node loop" l)
      | None ->
        (* Trust nothing about the chain shape: the per-node min/max
           rule is only the growth rule if the dependence sets of the
           adjacent loops are the access, as the interactions'
           predecessor rows before the seed and their successor rows
           after it. *)
        let access = k.Kernels.Kernel.access in
        let chain = k.Kernels.Kernel.chain_of_access access in
        (* Set [l]'s rows index the seed loop, the interactions,
           when they are loop [l + 1]'s predecessor rows or loop [l]'s
           successor rows; otherwise they index the nodes and must be
           the transpose. *)
        let is_access l =
          match chain.Sparse_tile.conn.(l) with
          | Sparse_tile.Preds c ->
            Access.equal c (if l + 1 = seed then access else Lazy.force trans)
          | Sparse_tile.Succs c ->
            Access.equal c (if l = seed then access else Lazy.force trans)
        in
        let back_ok = seed = 0 || is_access (seed - 1) in
        let fwd_ok = seed = n_loops - 1 || is_access seed in
        if not back_ok then
          Error "backward connectivity is not the interaction access"
        else if not fwd_ok then
          Error "forward connectivity is not the interaction access"
        else Ok ()
    end

(* Rebuild the mutable half of the state from an inspection result
   (used by [prepare] and after every cold fallback). *)
let reset state (result : Inspector.result) =
  let k = result.Inspector.kernel in
  let trans = lazy (Access.transpose k.Kernels.Kernel.access) in
  let support =
    compute_support state.f.plan k result.Inspector.schedule ~trans
  in
  let seed_tile_of, n_tiles, tiles, sched =
    match result.Inspector.schedule with
    | None -> (None, 0, [||], None)
    | Some sched ->
      let tiles =
        Array.map
          (fun (f : Sparse_tile.tile_fn) -> f.Sparse_tile.tile_of)
          (Legality.tile_fns_of_schedule sched
             ~loop_sizes:k.Kernels.Kernel.loop_sizes)
      in
      (Some (Array.copy tiles.(k.Kernels.Kernel.seed_loop)),
       Schedule.n_tiles sched, tiles, Some sched)
  in
  let adj =
    match (support, sched) with
    | Ok (), Some _ -> Some (adjacency_of (Lazy.force trans))
    | _ -> None
  in
  let n_touches = Access.n_touches k.Kernels.Kernel.access in
  let sched_items =
    match sched with Some s -> Schedule.total_iterations s | None -> 0
  in
  let cold = result.Inspector.inspector_seconds in
  let unit_cost = cold /. float_of_int ((4 * n_touches) + sched_items + 1) in
  state.f <- { state.f with seed_tile_of; n_tiles };
  state.support <- support;
  state.sched <- sched;
  state.tiles <- tiles;
  state.adj <- adj;
  state.cold_seconds <- cold;
  state.unit_cost <- unit_cost;
  (* First-round estimate: a replay touches each access item about
     twice (index adjust + data remap); replaced by a measurement
     after the first incremental round. *)
  state.replay_est <- unit_cost *. float_of_int (2 * n_touches)

let prepare plan (result : Inspector.result) =
  let k = result.Inspector.kernel in
  let f =
    {
      plan;
      sigma = result.Inspector.sigma_total;
      delta = result.Inspector.delta_total;
      sigma_fwd = Perm.to_forward_array result.Inspector.sigma_total;
      delta_fwd = Perm.to_forward_array result.Inspector.delta_total;
      fns = result.Inspector.reordering_fns;
      kernel_name = k.Kernels.Kernel.name;
      n_nodes = k.Kernels.Kernel.n_nodes;
      n_inter = k.Kernels.Kernel.n_inter;
      loop_sizes = Array.copy k.Kernels.Kernel.loop_sizes;
      seed_loop = k.Kernels.Kernel.seed_loop;
      seed_tile_of = None;
      n_tiles = 0;
    }
  in
  let state =
    {
      f;
      support = Ok ();
      sched = None;
      tiles = [||];
      adj = None;
      cold_seconds = 0.;
      unit_cost = 0.;
      replay_est = 0.;
    }
  in
  reset state result;
  state

(* ---- the frozen replay -------------------------------------------- *)

let check_kernel state (kernel : Kernels.Kernel.t) =
  let f = state.f in
  if
    kernel.Kernels.Kernel.name <> f.kernel_name
    || kernel.Kernels.Kernel.n_nodes <> f.n_nodes
    || kernel.Kernels.Kernel.n_inter <> f.n_inter
    || not (arrays_equal kernel.Kernels.Kernel.loop_sizes f.loop_sizes)
  then
    invalid "Repair: kernel %s (%d nodes, %d inter) does not match state (%s)"
      kernel.Kernels.Kernel.name kernel.Kernels.Kernel.n_nodes
      kernel.Kernels.Kernel.n_inter f.kernel_name

let result_of state ~kernel ~sched ~remaps ~seconds =
  let f = state.f in
  {
    Inspector.kernel;
    schedule = sched;
    sigma_total = f.sigma;
    delta_total = f.delta;
    inspector_seconds = seconds;
    n_data_remaps = remaps;
    reordering_fns = f.fns;
  }

(* ---- regrow: the bit-identity reference --------------------------- *)

let regrow state (kernel : Kernels.Kernel.t) =
  check_kernel state kernel;
  let f = state.f in
  let t0 = Rtrt_obs.Clock.now_s () in
  let k, remaps = Inspector.remap kernel ~delta:f.delta ~sigma:f.sigma in
  let sched =
    match f.seed_tile_of with
    | None -> None
    | Some tile_of ->
      let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
      let seed_tiles = { Sparse_tile.n_tiles = f.n_tiles; tile_of } in
      let tiles = Sparse_tile.full ~chain ~seed:f.seed_loop ~seed_tiles () in
      Some (Schedule.of_tile_fns tiles)
  in
  let seconds = Rtrt_obs.Clock.now_s () -. t0 in
  result_of state ~kernel:k ~sched ~remaps ~seconds

(* ---- repair ------------------------------------------------------- *)

(* One occurrence only: rows carry multiplicity. The row's last entry
   fills the hole. *)
let remove_one a v x =
  let lo = a.row.(v) in
  let last = lo + a.len.(v) - 1 in
  let rec find p =
    if p > last then
      invalid "Repair: damage removes interaction %d not incident on node" x
    else if a.inter.(p) = x then p
    else find (p + 1)
  in
  let p = find lo in
  a.inter.(p) <- a.inter.(last);
  a.len.(v) <- a.len.(v) - 1

(* [false] when row [v] is full: the damage changed a degree past the
   room the adjacency was built with. *)
let add_one a v x =
  let n = a.len.(v) in
  n < a.row.(v + 1) - a.row.(v)
  && begin
    a.inter.(a.row.(v) + n) <- x;
    a.len.(v) <- n + 1;
    true
  end

let repair ?cache ?(policy = `Auto) ?(verify = false) state
    (kernel : Kernels.Kernel.t) ~(damage : Datagen.Churn.damage) =
  check_kernel state kernel;
  Rtrt_obs.Metrics.incr c_rounds;
  let f = state.f in
  let damaged_edges = Array.length damage.Datagen.Churn.rewired in
  let damaged_nodes = Array.length damage.Datagen.Churn.touched_nodes in
  Rtrt_obs.Metrics.add c_edges damaged_edges;
  (* Cost model: the incremental path pays one frozen replay plus
     inspector-style work proportional to the dependence touches of
     the damaged nodes (adjacency maintenance, the min/max
     re-evaluations per non-seed loop, and the splice row rebuilds). *)
  let n_loops = Array.length f.loop_sizes in
  let touched_work =
    match state.adj with
    | None -> 0
    | Some a ->
      Array.fold_left
        (fun acc v -> acc + a.len.(f.sigma_fwd.(v)))
        0 damage.Datagen.Churn.touched_nodes
      * (n_loops - 1)
  in
  let modeled =
    state.replay_est +. (float_of_int touched_work *. state.unit_cost)
  in
  Rtrt_obs.Metrics.set g_modeled modeled;
  let damage_frac =
    Datagen.Churn.damage_fraction damage ~m:f.n_inter
  in
  let fallback_reason =
    match (policy, state.support) with
    | _, Error reason -> Some reason
    | `Cold, _ -> Some "policy `Cold"
    | `Repair, _ -> None
    | `Auto, _ ->
      if damage_frac > 0.35 then
        Some (Fmt.str "damage fraction %.2f past threshold" damage_frac)
      else if state.cold_seconds > 0. && modeled >= 0.9 *. state.cold_seconds
      then Some "modeled repair not cheaper than cold inspection"
      else None
  in
  match fallback_reason with
  | Some reason ->
    Rtrt_obs.Metrics.incr c_fallbacks;
    let cold_ref = state.cold_seconds in
    let t0 = Rtrt_obs.Clock.now_s () in
    let result = Inspector.run ?cache f.plan kernel in
    let seconds = Rtrt_obs.Clock.now_s () -. t0 in
    Rtrt_obs.Metrics.set g_seconds seconds;
    (* Re-seed: the fresh reorderings become the frozen ones and later
       rounds repair incrementally again. *)
    state.f <-
      {
        f with
        sigma = result.Inspector.sigma_total;
        delta = result.Inspector.delta_total;
        sigma_fwd = Perm.to_forward_array result.Inspector.sigma_total;
        delta_fwd = Perm.to_forward_array result.Inspector.delta_total;
        fns = result.Inspector.reordering_fns;
      };
    reset state result;
    ( result,
      {
        fell_back = true;
        fallback_reason = Some reason;
        damaged_edges;
        damaged_nodes;
        nodes_recomputed = 0;
        tiles_moved = 0;
        seconds;
        modeled_repair_seconds = modeled;
        cold_seconds_ref = cold_ref;
        verified = None;
      } )
  | None ->
    let cold_ref = state.cold_seconds in
    let t0 = Rtrt_obs.Clock.now_s () in
    let k, remaps = Inspector.remap kernel ~delta:f.delta ~sigma:f.sigma in
    let t_replay = Rtrt_obs.Clock.now_s () -. t0 in
    (* Adjacency maintenance, in final coordinates. Churn reports old
       and new endpoints in original coordinates; the frozen forward
       arrays carry both sides over. Every removal comes first, so a
       row only has to hold its final degree. A damage set that raises
       a node's degree overflows the row; the adjacency is then
       rebuilt from the replayed access, which already holds every
       edit. *)
    let moves = ref [] in
    let n_moves = ref 0 in
    let recomputed = ref 0 in
    let sched' =
      match (state.sched, state.adj) with
      | None, _ -> None
      | Some _, None -> assert false
      | Some sched, Some a ->
        let rewired = damage.Datagen.Churn.rewired in
        Array.iter
          (fun (j, (ol, or_), _) ->
            let j' = f.delta_fwd.(j) in
            remove_one a f.sigma_fwd.(ol) j';
            remove_one a f.sigma_fwd.(or_) j')
          rewired;
        let fits =
          Array.for_all
            (fun (j, _, (nl, nr)) ->
              let j' = f.delta_fwd.(j) in
              add_one a f.sigma_fwd.(nl) j' && add_one a f.sigma_fwd.(nr) j')
            rewired
        in
        let a =
          if fits then a
          else begin
            let a = adjacency_of (Access.transpose k.Kernels.Kernel.access) in
            state.adj <- Some a;
            a
          end
        in
        (* Re-evaluate growth for the damaged nodes only: backward
           loops take the min seed tile over the incident
           interactions, forward loops the max; a node with no
           incident interactions is dependence-free and goes to tile
           0 (exactly [grow_backward]/[grow_forward]'s rule). *)
        let seed_tile =
          match f.seed_tile_of with Some t -> t | None -> assert false
        in
        let grow_of v ~backward =
          let lo = a.row.(v) in
          let hi = lo + a.len.(v) - 1 in
          if hi < lo then 0
          else begin
            let acc = ref seed_tile.(a.inter.(lo)) in
            for p = lo + 1 to hi do
              let t = seed_tile.(a.inter.(p)) in
              acc := if backward then Int.min !acc t else Int.max !acc t
            done;
            !acc
          end
        in
        Array.iter
          (fun v0 ->
            let v = f.sigma_fwd.(v0) in
            for l = 0 to n_loops - 1 do
              if l <> f.seed_loop then begin
                incr recomputed;
                let t_new = grow_of v ~backward:(l < f.seed_loop) in
                let t_old = state.tiles.(l).(v) in
                if t_new <> t_old then begin
                  state.tiles.(l).(v) <- t_new;
                  moves := (l, v, t_old, t_new) :: !moves;
                  incr n_moves
                end
              end
            done)
          damage.Datagen.Churn.touched_nodes;
        Some (Schedule.splice sched ~moves:(Array.of_list !moves))
    in
    state.sched <- sched';
    let seconds () = Rtrt_obs.Clock.now_s () -. t0 in
    let result = result_of state ~kernel:k ~sched:sched' ~remaps
        ~seconds:(seconds ())
    in
    Rtrt_obs.Metrics.add c_nodes !recomputed;
    Rtrt_obs.Metrics.add c_moves !n_moves;
    (* The replay cost is a pure function of the (fixed) dataset size,
       so keep the cheapest measurement: a one-off GC pause or
       first-touch spike must not stick in the model and flip `Auto to
       cold on later rounds. *)
    state.replay_est <-
      (if state.replay_est > 0. then Float.min state.replay_est t_replay
       else t_replay);
    let verified =
      if not verify then None
      else begin
        let reference = regrow state kernel in
        let sched_ok =
          match (sched', reference.Inspector.schedule) with
          | None, None -> true
          | Some a, Some b -> Schedule.equal a b
          | _ -> false
        in
        let legal_ok =
          match sched' with
          | None -> true
          | Some _ ->
            let chain =
              k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access
            in
            let tiles =
              Array.map
                (fun tile_of -> { Sparse_tile.n_tiles = f.n_tiles; tile_of })
                state.tiles
            in
            Sparse_tile.check_legality ~chain ~tiles = []
        in
        Some (sched_ok && legal_ok)
      end
    in
    (match verified with
    | Some false -> invalid "Repair: spliced schedule differs from regrowth"
    | _ -> ());
    let seconds = seconds () in
    Rtrt_obs.Metrics.set g_seconds seconds;
    ( { result with Inspector.inspector_seconds = seconds },
      {
        fell_back = false;
        fallback_reason = None;
        damaged_edges;
        damaged_nodes;
        nodes_recomputed = !recomputed;
        tiles_moved = !n_moves;
        seconds;
        modeled_repair_seconds = modeled;
        cold_seconds_ref = cold_ref;
        verified;
      } )

let pp_info ppf i =
  Fmt.pf ppf
    "@[<v>path: %s%a@,damage: %d edges, %d nodes@,\
     recomputed %d growths, moved %d memberships@,\
     %.3f ms (modeled %.3f ms, cold ref %.3f ms)%a@]"
    (if i.fell_back then "cold fallback" else "incremental repair")
    (fun ppf -> function
      | Some r -> Fmt.pf ppf " (%s)" r
      | None -> ())
    i.fallback_reason i.damaged_edges i.damaged_nodes i.nodes_recomputed
    i.tiles_moved (i.seconds *. 1e3)
    (i.modeled_repair_seconds *. 1e3)
    (i.cold_seconds_ref *. 1e3)
    (fun ppf -> function
      | Some true -> Fmt.pf ppf "@,verified against regrowth"
      | Some false -> Fmt.pf ppf "@,VERIFY FAILED"
      | None -> ())
    i.verified
