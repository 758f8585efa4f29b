(* The parallel tiled-executor engine shared by moldyn/nbf/irreg.

   Given a tile schedule and the levelization of its tile dependence
   DAG (Tile_par), [make] renumbers the tiles level-major and builds a
   static execution plan; [run] then executes each level's tiles
   concurrently on a domain pool. The design goal is output that is
   BITWISE identical to the serial tiled executor on the (renumbered)
   schedule, not merely close:

   - Tiles are renumbered level-major (levels ascending, ascending tile
     id within a level), so the serial execution order of the
     renumbered schedule coincides with the parallel (level, tile)
     order. [schedule] exposes the renumbered schedule for the serial
     twin.

   - Within a level, chain positions execute phase-major: position 0
     of every tile (in parallel), barrier, position 1 of every tile,
     and so on. Dependences between adjacent chain positions always
     point to the same or an earlier tile (tiling legality), and both
     ends of a same-level cross-tile pair therefore commute — except
     for reductions.

   - Interaction-loop positions are reductions: same-level tiles may
     update the same datum (fx[left], fx[right]), and float addition
     does not reassociate. Those positions run in two phases:
     [stash] computes each iteration's contribution into per-iteration
     scratch (a pure function of data that is read-only during the
     position), then after a barrier [apply] folds the contributions
     into each datum in exactly the serial order — tiles ascending,
     iterations ascending, left before right — using a prebuilt
     per-datum reference list. Each datum is owned by exactly one
     lane, so the fold order per datum is the serial one and the
     result is bit-exact.

   Execution model (persistent workers): every lane owns a [slice] —
   its chunk of each level's tiles and of each reduction's data,
   computed ONCE at plan time. [run ~batch:k] dispatches the pool once
   per k whole time steps; inside the job each lane walks the level
   program over its slice, synchronizing through the pool's in-job
   sense-reversing barrier. Serial levels run on lane 0; a barrier is
   inserted lazily, only when ownership next changes hands (the
   [pending] flag), so consecutive serial levels cost no
   synchronization at all. The per-(step,level,pos) barrier count is a
   pure function of the plan, which both the auto-fallback cost model
   and the exception-drain path reuse.

   Auto-fallback tier: [decide] compares serial time against an
   Amdahl makespan of the parallel step — the serial-level share at
   full cost, the parallel-level share divided by the lane count,
   plus the measured per-barrier cost times the barriers per step and
   the dispatch cost amortized over the batch — and selects [Serial]
   when parallelism cannot pay. [run ~tier:Serial] then executes the plain
   tile-major loop on the calling domain (bitwise identical by
   construction, it IS the serial order).

   References are packed as [(iter lsl 1) lor slot] with slot 0 =
   left endpoint, slot 1 = right endpoint. *)

type tier = Parallel | Serial

let tier_name = function Parallel -> "parallel" | Serial -> "serial"

type decision = {
  d_tier : tier;
  d_serial_ns_per_step : float;
  d_modeled_par_ns_per_step : float;
  d_barriers_per_step : int;
  d_barrier_cost_ns : float;
  d_dispatch_cost_ns : float;
  d_par_frac : float;
  d_lanes : int;
}

type red = {
  r_data : int array;            (* touched data, discovery order *)
  r_ptr : int array;             (* CSR offsets into r_refs *)
  r_refs : int array;            (* (iter lsl 1) lor slot, serial order *)
  r_lane_data : (int * int) array; (* per-lane (start, len) into r_data *)
}

type level = {
  l_first : int;                 (* first renumbered tile id *)
  l_count : int;
  l_par : bool;                  (* run tiles concurrently *)
  l_lane_tiles : (int * int) array; (* per-lane (offset, len) in level *)
  l_red : red option array;      (* per chain position *)
}

(* A lane's pinned share of the whole plan: one (first, count) tile
   range per level and one (lo, n) datum range per (level, position)
   reduction. Built once at [make]; steps only read it. *)
type slice = {
  s_first : int array;           (* per level: absolute first tile *)
  s_count : int array;           (* per level: tiles owned *)
  s_red_lo : int array;          (* per level * n_chain + pos *)
  s_red_n : int array;
}

type t = {
  pool : Pool.t;
  sched : Reorder.Schedule.t;    (* level-major renumbered *)
  n_chain : int;
  levels : level array;
  slices : slice array;          (* per lane *)
  c_lane_iters : Rtrt_obs.Metrics.counter array;
  any_par : bool;
  total_weight : int;            (* iterations per step, all positions *)
  par_weight : int;              (* modeled critical path (heaviest lane) *)
  par_levels_weight : int;       (* iterations living in parallel levels *)
  barriers_first : int;          (* in-job barriers, first step of a batch *)
  barriers_steady : int;         (* in-job barriers, subsequent steps *)
}

let schedule t = t.sched
let n_levels t = Array.length t.levels

let lane_counters pool =
  Array.init (Pool.size pool) (fun l ->
      Rtrt_obs.Metrics.counter (Fmt.str "par.domain%d.iterations" l))

(* Whole-step latency (all levels, all phases of one time step). *)
let h_step = Rtrt_obs.Hist.hist "par.step"

(* Level-major tile order: levels ascending, tile ids ascending within
   a level (Tile_par builds levels ascending already, but recompute
   from [level_of] so any levelization source works). *)
let level_major_order level_of =
  let n_tiles = Array.length level_of in
  let n_levels = Array.fold_left (fun acc l -> max acc (l + 1)) 1 level_of in
  let counts = Array.make n_levels 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) level_of;
  let first = Array.make n_levels 0 in
  for l = 1 to n_levels - 1 do
    first.(l) <- first.(l - 1) + counts.(l - 1)
  done;
  let order = Array.make n_tiles 0 in
  let cursor = Array.copy first in
  for tile = 0 to n_tiles - 1 do
    let l = level_of.(tile) in
    order.(cursor.(l)) <- tile;
    cursor.(l) <- cursor.(l) + 1
  done;
  (order, first, counts)

(* A tile's iterations are one contiguous block of the flat schedule,
   so its weight is a row_ptr difference. *)
let tile_weight sched tile =
  let rp = Reorder.Schedule.row_ptr sched in
  let nl = Reorder.Schedule.n_loops sched in
  rp.((tile + 1) * nl) - rp.(tile * nl)

(* Per-datum reference lists for one (level, position): scan the
   level's interaction iterations in serial order twice — once to
   discover touched data and count references, once to fill them.
   [count] and [index_of] are caller-provided scratch of size n_data,
   zeroed/reset between builds so construction stays linear in the
   level size, not the data size. *)
let build_red sched ~l_first ~l_count ~pos ~left ~right ~lanes ~count ~index_of
    =
  let data_rev = ref [] in
  let n_data = ref 0 in
  let n_refs = ref 0 in
  let touch d =
    if count.(d) = 0 then begin
      index_of.(d) <- !n_data;
      data_rev := d :: !data_rev;
      incr n_data
    end;
    count.(d) <- count.(d) + 1;
    incr n_refs
  in
  let rp = Reorder.Schedule.row_ptr sched in
  let fl = Reorder.Schedule.flat_items sched in
  let nl = Reorder.Schedule.n_loops sched in
  for i = 0 to l_count - 1 do
    let r = ((l_first + i) * nl) + pos in
    for k = rp.(r) to rp.(r + 1) - 1 do
      let j = fl.(k) in
      touch left.(j);
      touch right.(j)
    done
  done;
  let r_data = Array.make !n_data 0 in
  List.iteri
    (fun i d -> r_data.(!n_data - 1 - i) <- d)
    !data_rev;
  let r_ptr = Array.make (!n_data + 1) 0 in
  for i = 0 to !n_data - 1 do
    r_ptr.(i + 1) <- r_ptr.(i) + count.(r_data.(i))
  done;
  let cursor = Array.make !n_data 0 in
  let r_refs = Array.make !n_refs 0 in
  let emit d refv =
    let i = index_of.(d) in
    r_refs.(r_ptr.(i) + cursor.(i)) <- refv;
    cursor.(i) <- cursor.(i) + 1
  in
  for i = 0 to l_count - 1 do
    let r = ((l_first + i) * nl) + pos in
    for k = rp.(r) to rp.(r + 1) - 1 do
      let j = fl.(k) in
      emit left.(j) (j lsl 1);
      emit right.(j) ((j lsl 1) lor 1)
    done
  done;
  (* Reset scratch for the next build. *)
  Array.iter (fun d -> count.(d) <- 0) r_data;
  let weights = Array.init !n_data (fun i -> r_ptr.(i + 1) - r_ptr.(i)) in
  { r_data; r_ptr; r_refs; r_lane_data = Chunk.weighted ~weights ~lanes }

(* In-job barriers executed by one step, given whether a serial level
   is still pending a barrier on entry. Every lane computes the same
   program, so this is exact, and the exception-drain path relies on
   it. *)
let step_barriers levels n_chain ~pending_in =
  let count = ref 0 in
  let pending = ref pending_in in
  Array.iter
    (fun lv ->
      if not lv.l_par then pending := true
      else begin
        if !pending then incr count;
        pending := false;
        for pos = 0 to n_chain - 1 do
          count := !count + (match lv.l_red.(pos) with None -> 1 | Some _ -> 2)
        done
      end)
    levels;
  (!count, !pending)

(* Total in-job barriers of a [k]-step batch (a batch always enters
   with no pending barrier: the dispatch itself synchronized). *)
let batch_barriers t ~k =
  if k <= 0 then 0
  else t.barriers_first + ((k - 1) * t.barriers_steady)

let make ~pool ~sched ~level_of ~is_reduction ~left ~right ~n_data =
  let n_tiles = Reorder.Schedule.n_tiles sched in
  if Array.length level_of <> n_tiles then
    invalid_arg "Exec.make: level_of size mismatch";
  let order, first, counts = level_major_order level_of in
  let sched = Reorder.Schedule.permute_tiles sched ~order in
  let n_chain = Reorder.Schedule.n_loops sched in
  let lanes = Pool.size pool in
  let count = Array.make n_data 0 in
  let index_of = Array.make n_data 0 in
  let levels =
    Array.init (Array.length first) (fun l ->
        let l_first = first.(l) and l_count = counts.(l) in
        let l_par = l_count > 1 && lanes > 1 in
        let l_lane_tiles =
          if not l_par then [||]
          else
            let weights =
              Array.init l_count (fun i -> tile_weight sched (l_first + i))
            in
            Chunk.weighted ~weights ~lanes
        in
        let l_red =
          Array.init n_chain (fun pos ->
              if l_par && is_reduction pos then
                Some
                  (build_red sched ~l_first ~l_count ~pos ~left ~right ~lanes
                     ~count ~index_of)
              else None)
        in
        { l_first; l_count; l_par; l_lane_tiles; l_red })
  in
  let n_levels = Array.length levels in
  (* Pin every lane's share once: tile ranges per level, datum ranges
     per reduction position. *)
  let slices =
    Array.init lanes (fun lane ->
        let s_first = Array.make n_levels 0 in
        let s_count = Array.make n_levels 0 in
        let s_red_lo = Array.make (n_levels * n_chain) 0 in
        let s_red_n = Array.make (n_levels * n_chain) 0 in
        Array.iteri
          (fun l lv ->
            if lv.l_par then begin
              let off, len = lv.l_lane_tiles.(lane) in
              s_first.(l) <- lv.l_first + off;
              s_count.(l) <- len;
              Array.iteri
                (fun pos red ->
                  match red with
                  | None -> ()
                  | Some red ->
                    let lo, n = red.r_lane_data.(lane) in
                    s_red_lo.((l * n_chain) + pos) <- lo;
                    s_red_n.((l * n_chain) + pos) <- n)
                lv.l_red
            end)
          levels;
        { s_first; s_count; s_red_lo; s_red_n })
  in
  let any_par = Array.exists (fun lv -> lv.l_par) levels in
  let total_weight =
    Array.fold_left
      (fun acc lv ->
        let w = ref 0 in
        for i = 0 to lv.l_count - 1 do
          w := !w + tile_weight sched (lv.l_first + i)
        done;
        acc + !w)
      0 levels
  in
  (* Modeled parallel critical path: per level, the heaviest lane's
     chunk (serial levels contribute whole). *)
  let par_weight =
    Array.fold_left
      (fun acc lv ->
        if not lv.l_par then begin
          let w = ref 0 in
          for i = 0 to lv.l_count - 1 do
            w := !w + tile_weight sched (lv.l_first + i)
          done;
          acc + !w
        end
        else begin
          let heaviest = ref 0 in
          Array.iter
            (fun (off, len) ->
              let w = ref 0 in
              for i = off to off + len - 1 do
                w := !w + tile_weight sched (lv.l_first + i)
              done;
              if !w > !heaviest then heaviest := !w)
            lv.l_lane_tiles;
          acc + !heaviest
        end)
      0 levels
  in
  (* Parallelizable fraction of the step: iterations that live in
     parallel levels (serial levels can never be divided across
     lanes). *)
  let par_levels_weight =
    Array.fold_left
      (fun acc lv ->
        if not lv.l_par then acc
        else begin
          let w = ref 0 in
          for i = 0 to lv.l_count - 1 do
            w := !w + tile_weight sched (lv.l_first + i)
          done;
          acc + !w
        end)
      0 levels
  in
  let barriers_first, pending_out =
    step_barriers levels n_chain ~pending_in:false
  in
  let barriers_steady, _ = step_barriers levels n_chain ~pending_in:pending_out in
  {
    pool;
    sched;
    n_chain;
    levels;
    slices;
    c_lane_iters = lane_counters pool;
    any_par;
    total_weight;
    par_weight;
    par_levels_weight;
    barriers_first;
    barriers_steady;
  }

(* ------------------------------------------------------------------ *)
(* Auto-fallback tier                                                  *)

(* Amdahl makespan with measured overheads:

     serial x (1 - frac)          serial part, unchanged
   + serial x frac / lanes        parallel part divided across lanes
   + barriers x barrier_cost      per-step synchronization
   + dispatch_cost / batch        pool wake-up amortized over the batch

   where frac is the fraction of the step's iterations living in
   parallel levels. The tie goes to Parallel: equal modeled and serial
   times mean the overheads are fully hidden, so the parallel engine
   (which also keeps the pool warm for neighbouring phases) is
   preferred. *)
let decide t ~serial_ns_per_step ~batch =
  let lanes = Pool.size t.pool in
  if lanes = 1 || not t.any_par then
    {
      d_tier = Serial;
      d_serial_ns_per_step = serial_ns_per_step;
      d_modeled_par_ns_per_step = serial_ns_per_step;
      d_barriers_per_step = 0;
      d_barrier_cost_ns = 0.0;
      d_dispatch_cost_ns = 0.0;
      d_par_frac = 0.0;
      d_lanes = lanes;
    }
  else begin
    let barrier_cost = Pool.barrier_cost_ns t.pool in
    let dispatch_cost = Pool.dispatch_cost_ns t.pool in
    let barriers = t.barriers_steady in
    let frac =
      float_of_int t.par_levels_weight /. float_of_int (max 1 t.total_weight)
    in
    let modeled =
      (serial_ns_per_step *. (1.0 -. frac))
      +. (serial_ns_per_step *. frac /. float_of_int lanes)
      +. (float_of_int barriers *. barrier_cost)
      +. (dispatch_cost /. float_of_int (max 1 batch))
    in
    {
      d_tier = (if modeled <= serial_ns_per_step then Parallel else Serial);
      d_serial_ns_per_step = serial_ns_per_step;
      d_modeled_par_ns_per_step = modeled;
      d_barriers_per_step = barriers;
      d_barrier_cost_ns = barrier_cost;
      d_dispatch_cost_ns = dispatch_cost;
      d_par_frac = frac;
      d_lanes = lanes;
    }
  end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* Serial tier: the plain tile-major loop (levels are contiguous
   ascending tiles, so tile-major IS level-major serial order). *)
let run_serial t ~steps ~body =
  let sched = t.sched in
  let rp = Reorder.Schedule.row_ptr sched in
  let fl = Reorder.Schedule.flat_items sched in
  let nl = Reorder.Schedule.n_loops sched in
  let n_tiles = Reorder.Schedule.n_tiles sched in
  let iters = ref 0 in
  for _s = 1 to steps do
    let prof = Rtrt_obs.enabled () in
    let t0 = if prof then Rtrt_obs.Clock.now_ns () else 0 in
    for tile = 0 to n_tiles - 1 do
      for pos = 0 to t.n_chain - 1 do
        let r = (tile * nl) + pos in
        let lo = rp.(r) and hi = rp.(r + 1) in
        iters := !iters + (hi - lo);
        body ~pos fl lo hi
      done
    done;
    if prof then Rtrt_obs.Hist.record h_step (Rtrt_obs.Clock.now_ns () - t0)
  done;
  Rtrt_obs.Metrics.add t.c_lane_iters.(0) !iters

(* One lane's walk of a [k]-step batch. All cross-lane synchronization
   is the pool's in-job barrier; the [pending] flag defers the barrier
   after a lane-0-only serial level until ownership next changes. On
   exception the lane drains its remaining barrier quota (every lane
   executes exactly [batch_barriers] per batch), so the other lanes
   cannot deadlock, then rethrows into the pool's failure slot. *)
let run_lane t lane ~k ~prof ~body ~stash ~apply =
  let sched = t.sched in
  let rp = Reorder.Schedule.row_ptr sched in
  let fl = Reorder.Schedule.flat_items sched in
  let nl = Reorder.Schedule.n_loops sched in
  let pool = t.pool in
  let levels = t.levels in
  let n_levels = Array.length levels in
  let n_chain = t.n_chain in
  let slice = t.slices.(lane) in
  let iters = ref 0 in
  let bars = ref 0 in
  let pending = ref false in
  (try
     for _step = 1 to k do
       let t0 = if prof && lane = 0 then Rtrt_obs.Clock.now_ns () else 0 in
       for l = 0 to n_levels - 1 do
         let lv = Array.unsafe_get levels l in
         if not lv.l_par then begin
           if lane = 0 then
             for i = 0 to lv.l_count - 1 do
               let tile = lv.l_first + i in
               for pos = 0 to n_chain - 1 do
                 let r = (tile * nl) + pos in
                 let lo = rp.(r) and hi = rp.(r + 1) in
                 iters := !iters + (hi - lo);
                 body ~pos fl lo hi
               done
             done;
           pending := true
         end
         else begin
           if !pending then begin
             Pool.barrier pool ~lane;
             incr bars;
             pending := false
           end;
           let first = slice.s_first.(l) in
           let count = slice.s_count.(l) in
           for pos = 0 to n_chain - 1 do
             match lv.l_red.(pos) with
             | None ->
               for tile = first to first + count - 1 do
                 let r = (tile * nl) + pos in
                 let lo = rp.(r) and hi = rp.(r + 1) in
                 iters := !iters + (hi - lo);
                 body ~pos fl lo hi
               done;
               Pool.barrier pool ~lane;
               incr bars
             | Some red ->
               for tile = first to first + count - 1 do
                 let r = (tile * nl) + pos in
                 let lo = rp.(r) and hi = rp.(r + 1) in
                 iters := !iters + (hi - lo);
                 stash ~pos fl lo hi
               done;
               Pool.barrier pool ~lane;
               incr bars;
               let di0 = slice.s_red_lo.((l * n_chain) + pos) in
               let din = slice.s_red_n.((l * n_chain) + pos) in
               for di = di0 to di0 + din - 1 do
                 apply ~pos ~datum:red.r_data.(di) red.r_refs red.r_ptr.(di)
                   red.r_ptr.(di + 1)
               done;
               Pool.barrier pool ~lane;
               incr bars
           done
         end
       done;
       if prof && lane = 0 then
         Rtrt_obs.Hist.record h_step (Rtrt_obs.Clock.now_ns () - t0)
     done
   with exn ->
     let quota = batch_barriers t ~k in
     while !bars < quota do
       Pool.barrier pool ~lane;
       incr bars
     done;
     Rtrt_obs.Metrics.add t.c_lane_iters.(lane) !iters;
     raise exn);
  Rtrt_obs.Metrics.add t.c_lane_iters.(lane) !iters

let run ?(batch = 1) ?(tier = Parallel) ?profile t ~steps ~body ~stash ~apply =
  Rtrt_obs.Span.with_ ~name:"par.run_tiled"
    ~attrs:
      [
        ("domains", Rtrt_obs.Json.Int (Pool.size t.pool));
        ("levels", Rtrt_obs.Json.Int (Array.length t.levels));
        ("steps", Rtrt_obs.Json.Int steps);
        ("batch", Rtrt_obs.Json.Int batch);
        ("tier", Rtrt_obs.Json.String (tier_name tier));
      ]
  @@ fun () ->
  if steps > 0 then
    if tier = Serial || Pool.size t.pool = 1 || not t.any_par then
      run_serial t ~steps ~body
    else begin
      let batch = max 1 batch in
      let remaining = ref steps in
      while !remaining > 0 do
        let k = min batch !remaining in
        let prof =
          match profile with Some p -> p | None -> Rtrt_obs.enabled ()
        in
        Pool.parallel ~profile:prof t.pool (fun lane ->
            run_lane t lane ~k ~prof ~body ~stash ~apply);
        remaining := !remaining - k
      done
    end
