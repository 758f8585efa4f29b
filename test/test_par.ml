(* Tests for the rtrt_par multicore execution engine: pool/chunk
   mechanics, bitwise serial/parallel equivalence of every parallel
   executor (tiled kernels with the reduction-combining path,
   Gauss-Seidel tile-DAG and wavefront), and Atomic metrics under
   concurrent increments. Domain counts 1/2/4 run even on few-core
   hosts (oversubscription only affects timing, never results). *)

let domain_counts = [ 1; 2; 4 ]

let with_memory_sink f =
  let sink, events = Rtrt_obs.Sink.memory () in
  Rtrt_obs.set_sink sink;
  Fun.protect ~finally:Rtrt_obs.disable f;
  events ()

(* ------------------------------------------------------------------ *)
(* Pool and chunking *)

let test_pool_sum () =
  Rtrt_par.Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check int) "size" 4 (Rtrt_par.Pool.size pool);
      let n = 10_000 in
      let chunks = Rtrt_par.Chunk.even ~n ~lanes:4 in
      let partial = Array.make 4 0 in
      Rtrt_par.Pool.parallel pool (fun lane ->
          let start, len = chunks.(lane) in
          let s = ref 0 in
          for i = start to start + len - 1 do
            s := !s + i
          done;
          partial.(lane) <- !s);
      Alcotest.(check int)
        "sum" (n * (n - 1) / 2)
        (Array.fold_left ( + ) 0 partial))

let test_pool_one_inline () =
  Rtrt_par.Pool.with_pool ~domains:1 (fun pool ->
      let self = Domain.self () in
      let seen = ref None in
      Rtrt_par.Pool.parallel pool (fun lane -> seen := Some (lane, Domain.self ()));
      match !seen with
      | Some (0, d) when d = self -> ()
      | _ -> Alcotest.fail "size-1 pool must run lane 0 on the caller")

exception Lane_failed of int

let test_pool_exception () =
  Rtrt_par.Pool.with_pool ~domains:3 (fun pool ->
      (match
         Rtrt_par.Pool.parallel pool (fun lane ->
             if lane = 1 then raise (Lane_failed lane))
       with
      | () -> Alcotest.fail "exception was swallowed"
      | exception Lane_failed 1 -> ()
      | exception e -> raise e);
      (* The pool survives a failing call. *)
      let hits = Atomic.make 0 in
      Rtrt_par.Pool.parallel pool (fun _ -> Atomic.incr hits);
      Alcotest.(check int) "pool reusable after exception" 3 (Atomic.get hits))

let check_chunks name ~n chunks =
  let covered = Array.make n false in
  Array.iter
    (fun (start, len) ->
      for i = start to start + len - 1 do
        Alcotest.(check bool) (name ^ " no overlap") false covered.(i);
        covered.(i) <- true
      done)
    chunks;
  Array.iteri
    (fun i c -> Alcotest.(check bool) (Fmt.str "%s covers %d" name i) true c)
    covered

let test_chunking () =
  check_chunks "even" ~n:17 (Rtrt_par.Chunk.even ~n:17 ~lanes:4);
  check_chunks "even tiny" ~n:2 (Rtrt_par.Chunk.even ~n:2 ~lanes:8);
  let weights = Array.init 23 (fun i -> 1 + ((i * 7) mod 11)) in
  check_chunks "weighted" ~n:23 (Rtrt_par.Chunk.weighted ~weights ~lanes:3);
  Alcotest.(check bool)
    "weighted deterministic" true
    (Rtrt_par.Chunk.weighted ~weights ~lanes:3
    = Rtrt_par.Chunk.weighted ~weights ~lanes:3)

(* Chunk.weighted invariants on random weight vectors: the chunks
   partition [0, n) in order; no chunk is empty when n >= lanes (the
   n < lanes clamp once handed middle lanes empty chunks and the whole
   tail to the last lane); the heaviest chunk is within one item of
   the ideal share; all-zero weights split evenly. *)
let prop_weighted_chunks =
  let arb =
    QCheck.make
      ~print:(fun (ws, lanes) ->
        Printf.sprintf "lanes=%d weights=[%s]" lanes
          (String.concat ";" (List.map string_of_int (Array.to_list ws))))
      QCheck.Gen.(
        let* lanes = int_range 1 8 in
        let* n = int_range 0 40 in
        let* ws = array_repeat n (int_range 0 20) in
        return (ws, lanes))
  in
  QCheck.Test.make ~name:"Chunk.weighted invariants" ~count:500 arb
    (fun (weights, lanes) ->
      let n = Array.length weights in
      let chunks = Rtrt_par.Chunk.weighted ~weights ~lanes in
      if Array.length chunks <> lanes then
        QCheck.Test.fail_report "wrong number of chunks";
      (* Contiguous in-order partition of [0, n). *)
      let pos = ref 0 in
      Array.iter
        (fun (start, len) ->
          if start <> !pos || len < 0 then
            QCheck.Test.fail_report "not a contiguous partition";
          pos := start + len)
        chunks;
      if !pos <> n then QCheck.Test.fail_report "does not cover [0, n)";
      (* No empty chunk when there are enough items. *)
      if n >= lanes && Array.exists (fun (_, len) -> len = 0) chunks then
        QCheck.Test.fail_report "empty chunk despite n >= lanes";
      (* n < lanes: one item each for the first n lanes, empty tail. *)
      if n < lanes then
        Array.iteri
          (fun l (_, len) ->
            if len <> (if l < n then 1 else 0) then
              QCheck.Test.fail_report "n < lanes must give 1 item per lane")
          chunks;
      (* Weight balance: no chunk exceeds the ideal share by more than
         one item's weight. *)
      let total = Array.fold_left ( + ) 0 weights in
      let max_w = Array.fold_left max 0 weights in
      let bound = ((total + lanes - 1) / lanes) + max_w in
      Array.iter
        (fun (start, len) ->
          let w = ref 0 in
          for i = start to start + len - 1 do
            w := !w + weights.(i)
          done;
          if !w > bound then
            QCheck.Test.fail_reportf "chunk weight %d exceeds bound %d" !w
              bound)
        chunks;
      (* All-zero weights carry no information: split evenly. *)
      (total <> 0 || chunks = Rtrt_par.Chunk.even ~n ~lanes))

(* ------------------------------------------------------------------ *)
(* Random datasets (same shape as test_compose's generator) *)

let arb_dataset =
  QCheck.make
    ~print:(fun (n, e) -> Printf.sprintf "n=%d m=%d" n (Array.length e))
    QCheck.Gen.(
      let* n = int_range 8 60 in
      let* m = int_range 4 150 in
      let* pairs =
        array_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      let pairs =
        Array.map
          (fun (a, b) -> if a = b then (a, (b + 1) mod n) else (a, b))
          pairs
      in
      return (n, pairs))

let dataset_of (n, pairs) =
  {
    Datagen.Dataset.name = "rand";
    n_nodes = n;
    left = Array.map fst pairs;
    right = Array.map snd pairs;
    coords = None;
  }

(* ------------------------------------------------------------------ *)
(* Parallel tiled executors are bitwise identical to the serial
   executor on the same (level-major renumbered) schedule — including
   the privatize-and-combine reduction path, for every kernel, plan
   and domain count. *)

let kernels_under_test =
  [
    ("moldyn", Kernels.Moldyn.of_dataset);
    ("nbf", Kernels.Nbf.of_dataset);
    ("irreg", Kernels.Irreg.of_dataset);
  ]

let full_growth_plans =
  [
    Compose.Plan.with_fst ~seed_part_size:5 Compose.Plan.cpack_lexgroup_twice;
    Compose.Plan.with_fst ~seed_part_size:7 Compose.Plan.cpack;
  ]

let check_par_matches_serial ?batch ?tier ?(steps = 2) ~domains plan kernel =
  let result = Harness.Experiment.inspect plan kernel in
  match result.Compose.Inspector.schedule with
  | None -> Alcotest.fail "sparse-tiled plan produced no schedule"
  | Some sched ->
    let k = result.Compose.Inspector.kernel in
    let tiles =
      Compose.Legality.tile_fns_of_schedule sched
        ~loop_sizes:k.Kernels.Kernel.loop_sizes
    in
    let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
    let par = Reorder.Tile_par.analyze ~chain ~tiles in
    let k_ser = k.Kernels.Kernel.copy () in
    let k_par = k.Kernels.Kernel.copy () in
    Rtrt_par.Pool.with_pool ~domains (fun pool ->
        let pe =
          k_par.Kernels.Kernel.plan_par ~pool sched
            ~level_of:par.Reorder.Tile_par.level_of
        in
        k_ser.Kernels.Kernel.run_tiled pe.Kernels.Kernel.par_sched ~steps;
        pe.Kernels.Kernel.par_run ?batch ?tier ~steps ());
    Kernels.Kernel.snapshots_equal_bits
      (k_ser.Kernels.Kernel.snapshot ())
      (k_par.Kernels.Kernel.snapshot ())

let prop_kernels_bitwise =
  QCheck.Test.make ~name:"parallel tiled executors bitwise = serial" ~count:12
    arb_dataset (fun spec ->
      let d = dataset_of spec in
      List.for_all
        (fun (_, of_dataset) ->
          List.for_all
            (fun plan ->
              List.for_all
                (fun domains ->
                  check_par_matches_serial ~domains plan (of_dataset d))
                domain_counts)
            full_growth_plans)
        kernels_under_test)

(* The reduction-combining path specifically: moldyn at a scale where
   many tiles share force entries, on an off-count pool. *)
let test_moldyn_reduction_combine () =
  let d = Option.get (Datagen.Generators.by_name ~scale:512 "mol1") in
  let kernel = Kernels.Moldyn.of_dataset d in
  let plan =
    Compose.Plan.with_fst ~seed_part_size:24 Compose.Plan.cpack_lexgroup_twice
  in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Fmt.str "moldyn bitwise at %d domains" domains)
        true
        (check_par_matches_serial ~domains plan kernel))
    [ 2; 3 ]

(* Step batching never changes results: k whole sweeps per pool
   dispatch must be bitwise-identical to one sweep per dispatch, for
   every kernel (including the reduction combining path) and domain
   count. steps = 5 exercises partial tails for both k = 2 (5 = 2+2+1)
   and k = 8 (one short batch). *)
let prop_batch_bitwise =
  QCheck.Test.make ~name:"~batch:k bitwise = serial, k in {1,2,8}" ~count:6
    arb_dataset (fun spec ->
      let d = dataset_of spec in
      let plan = List.hd full_growth_plans in
      List.for_all
        (fun (_, of_dataset) ->
          List.for_all
            (fun batch ->
              List.for_all
                (fun domains ->
                  check_par_matches_serial ~batch ~steps:5 ~domains plan
                    (of_dataset d))
                domain_counts)
            [ 1; 2; 8 ])
        kernels_under_test)

(* The auto-fallback Serial tier runs the plain tile-major loop on the
   caller — still bitwise-identical, and batching composes with it. *)
let test_serial_tier_bitwise () =
  let d = Option.get (Datagen.Generators.by_name ~scale:512 "mol1") in
  let plan =
    Compose.Plan.with_fst ~seed_part_size:24 Compose.Plan.cpack_lexgroup_twice
  in
  List.iter
    (fun (name, of_dataset) ->
      Alcotest.(check bool)
        (name ^ " serial tier bitwise") true
        (check_par_matches_serial ~batch:2 ~tier:Rtrt_par.Exec.Serial ~steps:3
           ~domains:4 plan (of_dataset d)))
    kernels_under_test

(* Tier decision sanity: when a serial step costs ~nothing, barrier
   overhead alone must push the decision to Serial; when a serial step
   is astronomically slow, the modeled parallel fraction wins. *)
let test_tier_decision () =
  let d = Option.get (Datagen.Generators.by_name ~scale:512 "mol1") in
  let kernel = Kernels.Moldyn.of_dataset d in
  let result =
    Harness.Experiment.inspect
      (Compose.Plan.with_fst ~seed_part_size:24
         Compose.Plan.cpack_lexgroup_twice)
      kernel
  in
  let sched = Option.get result.Compose.Inspector.schedule in
  let k = result.Compose.Inspector.kernel in
  let tiles =
    Compose.Legality.tile_fns_of_schedule sched
      ~loop_sizes:k.Kernels.Kernel.loop_sizes
  in
  let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
  let par = Reorder.Tile_par.analyze ~chain ~tiles in
  Rtrt_par.Pool.with_pool ~domains:2 (fun pool ->
      let pe =
        k.Kernels.Kernel.plan_par ~pool sched
          ~level_of:par.Reorder.Tile_par.level_of
      in
      let cheap =
        pe.Kernels.Kernel.par_decide ~serial_ns_per_step:1.0 ~batch:1
      in
      Alcotest.(check string)
        "negligible serial work falls back to serial" "serial"
        (Rtrt_par.Exec.tier_name cheap.Rtrt_par.Exec.d_tier);
      Alcotest.(check bool)
        "parallel steps pay barriers" true
        (cheap.Rtrt_par.Exec.d_barriers_per_step > 0);
      Alcotest.(check bool)
        "calibration ran" true
        (cheap.Rtrt_par.Exec.d_barrier_cost_ns >= 0.0
        && cheap.Rtrt_par.Exec.d_dispatch_cost_ns >= 0.0);
      let dear =
        pe.Kernels.Kernel.par_decide ~serial_ns_per_step:1e12 ~batch:8
      in
      Alcotest.(check string)
        "huge serial work goes parallel" "parallel"
        (Rtrt_par.Exec.tier_name dear.Rtrt_par.Exec.d_tier);
      Alcotest.(check bool)
        "modeled parallel step beats serial" true
        (dear.Rtrt_par.Exec.d_modeled_par_ns_per_step < 1e12))

(* Mid-range tier decision: the Amdahl model divides the
   parallelizable share by the lane count, so Parallel wins above a
   FINITE pivot cost

     pivot = (barriers x barrier_cost + dispatch / batch)
             / (frac x (1 - 1/lanes))

   computed here from the decision's own read-back overheads. A model
   that forgets the division charges serial + overheads at every
   serial cost and never picks Parallel at any finite pivot, so the
   2 x pivot case passes only with the division in place. *)
let test_tier_decision_midrange () =
  let d = Option.get (Datagen.Generators.by_name ~scale:512 "mol1") in
  let kernel = Kernels.Moldyn.of_dataset d in
  let result =
    Harness.Experiment.inspect
      (Compose.Plan.with_fst ~seed_part_size:24
         Compose.Plan.cpack_lexgroup_twice)
      kernel
  in
  let sched = Option.get result.Compose.Inspector.schedule in
  let k = result.Compose.Inspector.kernel in
  let tiles =
    Compose.Legality.tile_fns_of_schedule sched
      ~loop_sizes:k.Kernels.Kernel.loop_sizes
  in
  let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
  let par = Reorder.Tile_par.analyze ~chain ~tiles in
  Rtrt_par.Pool.with_pool ~domains:2 (fun pool ->
      let pe =
        k.Kernels.Kernel.plan_par ~pool sched
          ~level_of:par.Reorder.Tile_par.level_of
      in
      let batch = 4 in
      let probe = pe.Kernels.Kernel.par_decide ~serial_ns_per_step:1.0 ~batch in
      let frac = probe.Rtrt_par.Exec.d_par_frac in
      let lanes = float_of_int probe.Rtrt_par.Exec.d_lanes in
      Alcotest.(check bool)
        "some iterations live in parallel levels" true
        (frac > 0.0 && frac <= 1.0);
      Alcotest.(check bool) "multi-lane pool" true (lanes >= 2.0);
      let overhead =
        (float_of_int probe.Rtrt_par.Exec.d_barriers_per_step
        *. probe.Rtrt_par.Exec.d_barrier_cost_ns)
        +. (probe.Rtrt_par.Exec.d_dispatch_cost_ns /. float_of_int batch)
      in
      let pivot = overhead /. (frac *. (1.0 -. (1.0 /. lanes))) in
      Alcotest.(check bool)
        "pivot is mid-range, not an extreme" true
        (pivot > 1.0 && pivot < 1e12);
      let above =
        pe.Kernels.Kernel.par_decide ~serial_ns_per_step:(2.0 *. pivot) ~batch
      in
      Alcotest.(check string)
        "2x pivot goes parallel" "parallel"
        (Rtrt_par.Exec.tier_name above.Rtrt_par.Exec.d_tier);
      (* The modeled step must be the Amdahl formula exactly. *)
      let expect =
        (2.0 *. pivot *. (1.0 -. frac))
        +. (2.0 *. pivot *. frac /. lanes)
        +. overhead
      in
      Alcotest.(check bool)
        "modeled step matches the Amdahl formula" true
        (Float.abs (above.Rtrt_par.Exec.d_modeled_par_ns_per_step -. expect)
        <= 1e-6 *. expect);
      (* An undivided model (serial + overheads) would reject this
         point — and every other finite one. *)
      Alcotest.(check bool)
        "undivided model would stay serial here" true
        ((2.0 *. pivot) +. overhead > 2.0 *. pivot);
      let below =
        pe.Kernels.Kernel.par_decide ~serial_ns_per_step:(0.5 *. pivot) ~batch
      in
      Alcotest.(check string)
        "half pivot stays serial" "serial"
        (Rtrt_par.Exec.tier_name below.Rtrt_par.Exec.d_tier))

(* Property: on a multi-lane pool with parallel levels, the tier IS
   the model — Parallel exactly when the modeled parallel step is no
   slower than the serial step (ties go to Parallel). Serial costs
   sweep 1 ns .. 1e12 ns on a log grid. *)
let prop_tier_iff_modeled =
  let setup =
    lazy
      (let d = Option.get (Datagen.Generators.by_name ~scale:512 "mol1") in
       let kernel = Kernels.Moldyn.of_dataset d in
       let result =
         Harness.Experiment.inspect
           (Compose.Plan.with_fst ~seed_part_size:24
              Compose.Plan.cpack_lexgroup_twice)
           kernel
       in
       let sched = Option.get result.Compose.Inspector.schedule in
       let k = result.Compose.Inspector.kernel in
       let tiles =
         Compose.Legality.tile_fns_of_schedule sched
           ~loop_sizes:k.Kernels.Kernel.loop_sizes
       in
       let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
       let par = Reorder.Tile_par.analyze ~chain ~tiles in
       (k, sched, par.Reorder.Tile_par.level_of))
  in
  QCheck.Test.make ~name:"tier = Parallel iff modeled <= serial (2+ lanes)"
    ~count:12
    QCheck.(pair (int_range 0 120) (int_range 1 8))
    (fun (e, batch) ->
      let k, sched, level_of = Lazy.force setup in
      let serial = 10.0 ** (float_of_int e /. 10.0) in
      Rtrt_par.Pool.with_pool ~domains:2 (fun pool ->
          let pe = k.Kernels.Kernel.plan_par ~pool sched ~level_of in
          let d = pe.Kernels.Kernel.par_decide ~serial_ns_per_step:serial ~batch in
          (d.Rtrt_par.Exec.d_tier = Rtrt_par.Exec.Parallel)
          = (d.Rtrt_par.Exec.d_modeled_par_ns_per_step <= serial)))

(* ------------------------------------------------------------------ *)
(* Barrier stress: the sense-reversing barrier under randomized
   per-lane arrival jitter. Each dispatch round r reads every lane's
   slot (must hold r - 1: the previous round's post-barrier writes are
   visible, and no write of round r can overtake the in-job barrier),
   then barriers in-job, then writes its own slot. 1000 rounds of this
   hammers wake-up, reuse-after-reset and cross-lane publication; a
   single lost wake-up deadlocks the test rather than corrupting it. *)

let barrier_stress ~domains ~rounds pool =
  let slots = Array.make (domains * 16) 0 in
  let bad = Atomic.make 0 in
  let rng = Array.init (domains * 16) (fun i -> Random.State.make [| i |]) in
  for r = 1 to rounds do
    Rtrt_par.Pool.parallel pool (fun lane ->
        let st = rng.(lane * 16) in
        let spin = Random.State.int st 512 in
        for _ = 1 to spin do
          ignore (Sys.opaque_identity spin)
        done;
        for l = 0 to domains - 1 do
          if slots.(l * 16) <> r - 1 then Atomic.incr bad
        done;
        Rtrt_par.Pool.barrier pool ~lane;
        let spin = Random.State.int st 512 in
        for _ = 1 to spin do
          ignore (Sys.opaque_identity spin)
        done;
        slots.(lane * 16) <- r)
  done;
  Alcotest.(check int) "no stale cross-lane reads" 0 (Atomic.get bad);
  Array.iteri
    (fun l _ ->
      if l mod 16 = 0 then
        Alcotest.(check int)
          (Fmt.str "lane %d completed every round" (l / 16))
          rounds slots.(l))
    slots

let test_barrier_stress () =
  List.iter
    (fun domains ->
      Rtrt_par.Pool.with_pool ~domains (barrier_stress ~domains ~rounds:1000))
    domain_counts

(* Same stress with tracing on: the in-job barrier feeds the lane's
   barrier split and the exact accounting invariant must survive all
   the jitter — work + barrier + idle = accounted wall time, per lane,
   to the nanosecond. *)
let test_barrier_stress_accounting () =
  let domains = 4 and rounds = 200 in
  ignore
    (with_memory_sink (fun () ->
         Rtrt_par.Pool.with_pool ~domains (fun pool ->
             barrier_stress ~domains ~rounds pool;
             Alcotest.(check int) "all rounds accounted" rounds
               (Rtrt_par.Pool.accounted_rounds pool);
             let total = Rtrt_par.Pool.accounted_ns pool in
             Array.iteri
               (fun lane { Rtrt_par.Pool.work_ns; barrier_ns; idle_ns } ->
                 Alcotest.(check int)
                   (Fmt.str "lane %d: work + barrier + idle = accounted" lane)
                   total
                   (work_ns + barrier_ns + idle_ns))
               (Rtrt_par.Pool.lane_stats pool))))

(* ------------------------------------------------------------------ *)
(* Gauss-Seidel: tile-DAG and wavefront parallel executors *)

let gs_setup graph =
  let n = Irgraph.Csr.num_nodes graph in
  let f = Array.init n (fun i -> 1.0 +. float_of_int (i mod 13)) in
  let partition = Irgraph.Partition.gpart graph ~part_size:8 in
  let graph', f', _sigma, seed =
    Kernels.Gauss_seidel.renumber_by_partition graph ~f ~partition
  in
  let tiling =
    Kernels.Gauss_seidel.grow graph' ~seed ~seed_sweep:1 ~sweeps:3
  in
  (graph', f', tiling)

let u_bits (t : Kernels.Gauss_seidel.t) = Array.map Int64.bits_of_float t.u

let prop_gs_tiled_par_bitwise =
  QCheck.Test.make ~name:"parallel tiled GS bitwise = serial tiled GS"
    ~count:20 arb_dataset (fun spec ->
      let graph = Datagen.Dataset.to_graph (dataset_of spec) in
      let graph', f', tiling = gs_setup graph in
      let dag = Kernels.Gauss_seidel.tile_dag graph' tiling in
      List.for_all
        (fun domains ->
          let t_ser = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
          let t_par = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
          Kernels.Gauss_seidel.run_tiled t_ser tiling;
          Rtrt_par.Pool.with_pool ~domains (fun pool ->
              Kernels.Gauss_seidel.run_tiled_par ~pool t_par tiling dag);
          u_bits t_ser = u_bits t_par)
        domain_counts)

let prop_gs_wavefront_bitwise =
  QCheck.Test.make ~name:"parallel wavefront GS bitwise = plain GS" ~count:20
    arb_dataset (fun spec ->
      let graph = Datagen.Dataset.to_graph (dataset_of spec) in
      let preds = Kernels.Gauss_seidel.wavefront_preds graph in
      let w = Reorder.Wavefront.run preds in
      if not (Reorder.Wavefront.check preds w) then
        QCheck.Test.fail_report "Wavefront.check rejected its own levels";
      let n = Irgraph.Csr.num_nodes graph in
      let f = Array.init n (fun i -> 0.5 +. float_of_int (i mod 7)) in
      List.for_all
        (fun domains ->
          let t_ser = Kernels.Gauss_seidel.create ~graph ~f in
          let t_par = Kernels.Gauss_seidel.create ~graph ~f in
          Kernels.Gauss_seidel.run_plain t_ser ~sweeps:3;
          Rtrt_par.Pool.with_pool ~domains (fun pool ->
              Kernels.Gauss_seidel.run_wavefront_par ~pool t_par w ~sweeps:3);
          u_bits t_ser = u_bits t_par)
        domain_counts)

let test_gs_foil_tiled_par () =
  let graph =
    Datagen.Dataset.to_graph (Datagen.Generators.foil ~scale:512 ())
  in
  let graph', f', tiling = gs_setup graph in
  let dag = Kernels.Gauss_seidel.tile_dag graph' tiling in
  Alcotest.(check (list reject))
    "tiling legal" []
    (List.map (fun _ -> ())
       (Kernels.Gauss_seidel.check_constraints graph' tiling));
  let t_ser = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
  let t_par = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
  Kernels.Gauss_seidel.run_tiled t_ser tiling;
  Rtrt_par.Pool.with_pool ~domains:4 (fun pool ->
      Kernels.Gauss_seidel.run_tiled_par ~pool t_par tiling dag);
  Alcotest.(check bool) "bitwise" true (u_bits t_ser = u_bits t_par)

(* ------------------------------------------------------------------ *)
(* Metrics are atomic under concurrent increments *)

(* Per-lane accounting: with tracing on, every round is accounted and
   each lane's work/barrier/idle split sums exactly to the pool's
   accounted wall time; barrier waits feed the pool.barrier_wait
   histogram; shutdown publishes per-lane gauges. *)
let test_pool_accounting () =
  let lanes = 4 and rounds = 5 in
  let h = Rtrt_obs.Hist.hist "pool.barrier_wait" in
  let hd = Rtrt_obs.Hist.hist "pool.dispatch_wait" in
  ignore
    (with_memory_sink (fun () ->
         Rtrt_par.Pool.with_pool ~domains:lanes (fun pool ->
             for _ = 1 to rounds do
               Rtrt_par.Pool.parallel pool (fun lane ->
                   (* Skewed work so barrier waits are non-trivial. *)
                   ignore
                     (Sys.opaque_identity
                        (Array.init (1024 * (lane + 1)) (fun i -> i * i))))
             done;
             Alcotest.(check int) "all rounds accounted" rounds
               (Rtrt_par.Pool.accounted_rounds pool);
             let total = Rtrt_par.Pool.accounted_ns pool in
             Alcotest.(check bool) "accounted time positive" true (total > 0);
             let stats = Rtrt_par.Pool.lane_stats pool in
             Alcotest.(check int) "a stats entry per lane" lanes
               (Array.length stats);
             Array.iteri
               (fun lane
                    { Rtrt_par.Pool.work_ns; barrier_ns; idle_ns } ->
                 Alcotest.(check bool)
                   (Fmt.str "lane %d components non-negative" lane)
                   true
                   (work_ns >= 0 && barrier_ns >= 0 && idle_ns >= 0);
                 Alcotest.(check int)
                   (Fmt.str "lane %d: work + barrier + idle = accounted" lane)
                   total
                   (work_ns + barrier_ns + idle_ns))
               stats;
             Alcotest.(check int) "barrier histogram fed by every lane"
               (rounds * lanes) (Rtrt_obs.Hist.count h);
             Alcotest.(check int) "dispatch histogram fed once per round"
               rounds (Rtrt_obs.Hist.count hd);
             Alcotest.(check bool) "dispatch wait accumulated" true
               (Rtrt_par.Pool.dispatch_wait_ns pool >= 0));
         (* with_pool shut the pool down, publishing per-lane gauges. *)
         List.iter
           (fun name ->
             match
               Rtrt_obs.Metrics.gauge_value (Rtrt_obs.Metrics.gauge name)
             with
             | Some v ->
               Alcotest.(check bool) (name ^ " non-negative") true (v >= 0.0)
             | None -> Alcotest.fail (name ^ " gauge missing"))
           [
             "pool.lane0.work_ns"; "pool.lane0.barrier_ns";
             "pool.lane0.idle_ns"; "pool.lane3.work_ns";
           ]))

let test_pool_accounting_disabled () =
  Alcotest.(check bool) "tracing off" false (Rtrt_obs.enabled ());
  Rtrt_par.Pool.with_pool ~domains:2 (fun pool ->
      Rtrt_par.Pool.parallel pool (fun _ -> ());
      Alcotest.(check int) "no rounds accounted" 0
        (Rtrt_par.Pool.accounted_rounds pool);
      Alcotest.(check int) "no accounted ns" 0
        (Rtrt_par.Pool.accounted_ns pool))

(* Registration from one domain racing dump on another: every handle
   must appear — the registry traversals snapshot under the mutex, so
   a Hashtbl resize can no longer truncate a concurrent dump. *)
let test_concurrent_registration () =
  let n_each = 200 in
  ignore
    (with_memory_sink (fun () ->
         let other =
           Domain.spawn (fun () ->
               for i = 1 to n_each do
                 Rtrt_obs.Metrics.incr
                   (Rtrt_obs.Metrics.counter (Fmt.str "stress.a.%d" i));
                 ignore (Rtrt_obs.Metrics.dump ())
               done)
         in
         for i = 1 to n_each do
           Rtrt_obs.Metrics.incr
             (Rtrt_obs.Metrics.counter (Fmt.str "stress.b.%d" i));
           ignore (Rtrt_obs.Metrics.dump ())
         done;
         Domain.join other;
         let dump = Rtrt_obs.Metrics.dump () in
         let count prefix =
           List.length
             (List.filter
                (fun (name, _) ->
                  String.length name >= String.length prefix
                  && String.sub name 0 (String.length prefix) = prefix)
                dump)
         in
         Alcotest.(check int) "all domain-A counters dumped" n_each
           (count "stress.a.");
         Alcotest.(check int) "all domain-B counters dumped" n_each
           (count "stress.b.")))

let test_metrics_atomic () =
  let c = Rtrt_obs.Metrics.counter "par.test.hits" in
  Rtrt_obs.Metrics.reset ();
  let per_lane = 10_000 and lanes = 4 in
  ignore
    (with_memory_sink (fun () ->
         Rtrt_par.Pool.with_pool ~domains:lanes (fun pool ->
             Rtrt_par.Pool.parallel pool (fun _ ->
                 for _ = 1 to per_lane do
                   Rtrt_obs.Metrics.incr c
                 done));
         Alcotest.(check int)
           "no lost increments" (per_lane * lanes)
           (Rtrt_obs.Metrics.value c)))

(* ------------------------------------------------------------------ *)
(* Tile_par / Schedule micro-tests *)

let test_tile_par_of_edges () =
  (* 0 -> 1, 0 -> 2, {1,2} -> 3: levels {0} {1,2} {3}. *)
  let p =
    Reorder.Tile_par.of_edges ~n_tiles:4 ~tile_cost:[| 1; 1; 1; 1 |]
      [| (0, 1); (0, 2); (1, 3); (2, 3) |]
  in
  Alcotest.(check int) "levels" 3 p.Reorder.Tile_par.n_levels;
  Alcotest.(check (array int)) "level_of" [| 0; 1; 1; 2 |]
    p.Reorder.Tile_par.level_of;
  match
    Reorder.Tile_par.of_edges ~n_tiles:2 ~tile_cost:[| 1; 1 |] [| (1, 0) |]
  with
  | _ -> Alcotest.fail "backward edge accepted"
  | exception Invalid_argument _ -> ()

let test_permute_tiles_rejects () =
  let tf tile_of = { Reorder.Sparse_tile.n_tiles = 2; tile_of } in
  let sched =
    Reorder.Schedule.of_tile_fns
      [| tf [| 0; 0; 1; 1 |]; tf [| 0; 1; 0; 1 |] |]
  in
  (match Reorder.Schedule.permute_tiles sched ~order:[| 0 |] with
  | _ -> Alcotest.fail "wrong-size order accepted"
  | exception Invalid_argument _ -> ());
  match
    Reorder.Schedule.permute_tiles sched
      ~order:(Array.make (Reorder.Schedule.n_tiles sched) 0)
  with
  | _ -> Alcotest.fail "non-permutation order accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel sum" `Quick test_pool_sum;
          Alcotest.test_case "size-1 inline" `Quick test_pool_one_inline;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "chunking" `Quick test_chunking;
        ]
        @ qsuite [ prop_weighted_chunks ] );
      ( "barrier",
        [
          Alcotest.test_case "stress 1/2/4 domains x 1000 rounds" `Slow
            test_barrier_stress;
          Alcotest.test_case "stress accounting invariant" `Slow
            test_barrier_stress_accounting;
        ] );
      ( "executors",
        Alcotest.test_case "moldyn reduction combine" `Slow
          test_moldyn_reduction_combine
        :: Alcotest.test_case "serial tier bitwise" `Slow
             test_serial_tier_bitwise
        :: Alcotest.test_case "tier decision" `Slow test_tier_decision
        :: Alcotest.test_case "tier decision mid-range pivot" `Slow
             test_tier_decision_midrange
        :: qsuite
             [ prop_kernels_bitwise; prop_batch_bitwise; prop_tier_iff_modeled ] );
      ( "gauss-seidel",
        Alcotest.test_case "foil tiled par" `Slow test_gs_foil_tiled_par
        :: qsuite [ prop_gs_tiled_par_bitwise; prop_gs_wavefront_bitwise ] );
      ( "obs",
        [
          Alcotest.test_case "atomic metrics" `Quick test_metrics_atomic;
          Alcotest.test_case "pool accounting invariant" `Quick
            test_pool_accounting;
          Alcotest.test_case "accounting off when disabled" `Quick
            test_pool_accounting_disabled;
          Alcotest.test_case "concurrent registration vs dump" `Quick
            test_concurrent_registration;
        ] );
      ( "tile-par",
        [
          Alcotest.test_case "of_edges" `Quick test_tile_par_of_edges;
          Alcotest.test_case "permute_tiles rejects" `Quick
            test_permute_tiles_rejects;
        ] );
    ]
