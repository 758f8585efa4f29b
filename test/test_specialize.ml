(* Tests for the executor of a frozen schedule: the Shape run-length
   detector, the generated executor (bitwise identical to the
   interpreted walk on random schedules, on rows on both sides of its
   streaming threshold, on time-tiled schedules and through cg's
   epilogue, and to the pooled executor), and the validated-once memos
   that let plan-cache hits skip the O(rows) re-validation scans. *)

module Shape = Reorder.Shape
module Schedule = Reorder.Schedule
module Specialize = Compose.Specialize

let tf n_tiles tile_of = { Reorder.Sparse_tile.n_tiles; tile_of }

(* Counters are no-ops while tracing is disabled; counter-asserting
   tests run under a throwaway memory sink. *)
let with_metrics f =
  let sink, _events = Rtrt_obs.Sink.memory () in
  Rtrt_obs.set_sink sink;
  Fun.protect ~finally:Rtrt_obs.disable f

(* Re-enumerate a shape's runs and check they reproduce the schedule's
   stored item sequence exactly — the structural fact the generated
   executor's bitwise identity rests on. *)
let check_runs_reconstruct name sched shape =
  let rq = Shape.run_ptr shape in
  let rlo = Shape.run_lo shape in
  let rln = Shape.run_len shape in
  let out = ref [] in
  let rows = Array.length rq - 1 in
  for r = 0 to rows - 1 do
    for k = rq.(r) to rq.(r + 1) - 1 do
      for v = rlo.(k) to rlo.(k) + rln.(k) - 1 do
        out := v :: !out
      done
    done
  done;
  let got = Array.of_list (List.rev !out) in
  Alcotest.(check (array int))
    (name ^ " runs reconstruct items")
    (Schedule.flat_items sched) got

(* ------------------------------------------------------------------ *)
(* Shape detector units *)

let test_shape_identity () =
  let n = 64 in
  let s = Schedule.of_tile_fns [| tf 1 (Array.make n 0) |] in
  let sh = Shape.analyze s in
  let sm = Shape.summary sh in
  Alcotest.(check int) "rows" 1 sm.Shape.rows;
  Alcotest.(check int) "runs" 1 sm.Shape.runs;
  Alcotest.(check int) "identity rows" 1 sm.Shape.identity_rows;
  Alcotest.(check int) "max run" n sm.Shape.max_run;
  Alcotest.(check bool) "single loop" true sm.Shape.single_loop;
  Alcotest.(check (option int)) "uniform" (Some n) sm.Shape.uniform_tile_items;
  Alcotest.(check bool) "pinned to schedule" true (Shape.for_schedule sh s);
  check_runs_reconstruct "identity" s sh

let test_shape_single_run_rows () =
  let n = 64 and tiles = 4 in
  let s = Schedule.of_tile_fns [| tf tiles (Array.init n (fun i -> i / 16)) |] in
  let sh = Shape.analyze s in
  let sm = Shape.summary sh in
  Alcotest.(check int) "rows" tiles sm.Shape.rows;
  Alcotest.(check int) "one run per row" tiles sm.Shape.runs;
  Alcotest.(check int) "all identity rows" tiles sm.Shape.identity_rows;
  Alcotest.(check (float 1e-9)) "avg run length" 16.0 sm.Shape.avg_run_len;
  check_runs_reconstruct "single-run" s sh

let test_shape_adversarial_alternating () =
  let n = 64 in
  let s = Schedule.of_tile_fns [| tf 2 (Array.init n (fun i -> i mod 2)) |] in
  let sh = Shape.analyze s in
  let sm = Shape.summary sh in
  (* Stride-2 rows: every item its own run, nothing to exploit. *)
  Alcotest.(check int) "runs" n sm.Shape.runs;
  Alcotest.(check int) "no identity rows" 0 sm.Shape.identity_rows;
  Alcotest.(check (float 1e-9)) "avg run length" 1.0 sm.Shape.avg_run_len;
  check_runs_reconstruct "alternating" s sh

let test_shape_ragged () =
  let n = 64 in
  let tile_of =
    Array.init n (fun i -> if i = 0 then 0 else if i = n - 1 then 2 else 1)
  in
  let s = Schedule.of_tile_fns [| tf 3 tile_of |] in
  let sh = Shape.analyze s in
  let sm = Shape.summary sh in
  Alcotest.(check int) "rows" 3 sm.Shape.rows;
  Alcotest.(check (option int)) "ragged tiles not uniform" None
    sm.Shape.uniform_tile_items;
  Alcotest.(check int) "identity rows" 3 sm.Shape.identity_rows;
  check_runs_reconstruct "ragged" s sh

(* A fresh-array transformation invalidates the physical pin. *)
let test_shape_pin_invalidated () =
  let n = 32 in
  let s = Schedule.of_tile_fns [| tf 2 (Array.init n (fun i -> i / 16)) |] in
  let sh = Shape.analyze s in
  let s' = Schedule.remap_loop s ~loop:0 (Reorder.Perm.id n) in
  Alcotest.(check bool) "pin holds on source" true (Shape.for_schedule sh s);
  Alcotest.(check bool) "pin broken on remap" false (Shape.for_schedule sh s')

(* ------------------------------------------------------------------ *)
(* Random schedules over a kernel's loop chain *)

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

let kernels_under_test =
  [
    ("moldyn", Kernels.Moldyn.of_dataset);
    ("nbf", Kernels.Nbf.of_dataset);
    ("irreg", Kernels.Irreg.of_dataset);
  ]

(* A random but valid schedule for the kernel: every loop of the chain
   gets an arbitrary tile assignment (coverage holds by construction). *)
let random_sched rng (k : Kernels.Kernel.t) =
  let n_tiles = 1 + Datagen.Rng.int rng 5 in
  Schedule.of_tile_fns
    (Array.map
       (fun size -> tf n_tiles (Array.init size (fun _ -> Datagen.Rng.int rng n_tiles)))
       k.Kernels.Kernel.loop_sizes)

(* The generated executor's bitwise identity on random schedules. The
   [Specialize.make] call additionally runs its own two-step bitwise
   verification internally. *)
let prop_shaped_bitwise =
  QCheck.Test.make ~name:"tier A shaped executors bitwise = interpreted"
    ~count:20 arb_dataset (fun spec ->
      let d = dataset_of spec in
      List.for_all
        (fun (_, of_dataset) ->
          let k : Kernels.Kernel.t = of_dataset d in
          let rng = Datagen.Rng.create 42 in
          let sched = random_sched rng k in
          let shape = Shape.analyze sched in
          let k_interp = k.Kernels.Kernel.copy () in
          let k_shaped = k.Kernels.Kernel.copy () in
          k_interp.Kernels.Kernel.run_tiled sched ~steps:3;
          k_shaped.Kernels.Kernel.run_tiled_shaped sched shape ~steps:3;
          ignore (Specialize.make k sched);
          Kernels.Kernel.snapshots_equal_bits
               (k_interp.Kernels.Kernel.snapshot ())
               (k_shaped.Kernels.Kernel.snapshot ()))
        kernels_under_test)

(* Under the pool: the generated executor on the level-major
   renumbered schedule is bitwise identical to the parallel executor on
   it. *)
let check_shaped_matches_par ~domains plan kernel =
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
    let k_shaped = k.Kernels.Kernel.copy () in
    let k_par = k.Kernels.Kernel.copy () in
    Rtrt_par.Pool.with_pool ~domains (fun pool ->
        let pe =
          k_par.Kernels.Kernel.plan_par ~pool sched
            ~level_of:par.Reorder.Tile_par.level_of
        in
        let psched = pe.Kernels.Kernel.par_sched in
        let pshape = Shape.analyze psched in
        k_shaped.Kernels.Kernel.run_tiled_shaped psched pshape ~steps:2;
        pe.Kernels.Kernel.par_run ~steps:2 ());
    Kernels.Kernel.snapshots_equal_bits
      (k_shaped.Kernels.Kernel.snapshot ())
      (k_par.Kernels.Kernel.snapshot ())

let test_shaped_matches_par () =
  let d = Datagen.Generators.foil ~scale:256 () in
  let plan =
    Compose.Plan.with_fst ~seed_part_size:24 Compose.Plan.cpack_lexgroup_twice
  in
  List.iter
    (fun (name, of_dataset) ->
      List.iter
        (fun domains ->
          Alcotest.(check bool)
            (Printf.sprintf "%s shaped = pooled (%d domains)" name domains)
            true
            (check_shaped_matches_par ~domains plan (of_dataset d)))
        [ 2; 4 ])
    kernels_under_test

(* ------------------------------------------------------------------ *)
(* The generated executor on schedules built for its row dispatch *)

(* A tile function over [size] ids in which tile [t]'s row holds
   exactly [runs.(t)] runs: the ids are cut into blocks of consecutive
   ids, no two neighbouring blocks in one tile, so each block of a tile
   is a run of its ascending row. The blocks are labelled greedily,
   always with the tile that has the most blocks left other than the
   previous block's, which succeeds while no tile wants more than half
   the blocks (rounded up); the ids beyond one per block are dealt out
   at random. *)
let tile_fn_with_runs rng ~size runs =
  let left = Array.copy runs in
  let n_blocks = Array.fold_left ( + ) 0 runs in
  let labels = Array.make n_blocks 0 in
  let prev = ref (-1) in
  for b = 0 to n_blocks - 1 do
    let best = ref (-1) in
    Array.iteri
      (fun t n ->
        if t <> !prev && n > 0 && (!best < 0 || n > left.(!best)) then best := t)
      left;
    labels.(b) <- !best;
    left.(!best) <- left.(!best) - 1;
    prev := !best
  done;
  let len = Array.make n_blocks 1 in
  for _ = 1 to size - n_blocks do
    let b = Datagen.Rng.int rng n_blocks in
    len.(b) <- len.(b) + 1
  done;
  let tile_of = Array.make size 0 in
  let pos = ref 0 in
  Array.iteri
    (fun b l ->
      Array.fill tile_of !pos l labels.(b);
      pos := !pos + l)
    len;
  tf (Array.length runs) tile_of

(* Run counts on both sides of the executor's streaming threshold (8
   runs): an empty row, a single run, the most runs a row streams, and
   one more. *)
let edge_runs = [| 0; 1; 8; 9 |]

(* A schedule of [copies] copies of the kernel's chain over 4 to 7
   tiles. In every loop the tiles' rows hold 0, 1, 8 and 9 runs, in
   random tiles, and any further tiles up to 9 runs each while the
   loop has ids for them. *)
let runs_sched rng (k : Kernels.Kernel.t) ~copies =
  let extra = Datagen.Rng.int rng 4 in
  let chain = k.Kernels.Kernel.loop_sizes in
  Schedule.of_tile_fns
    (Array.init
       (copies * Array.length chain)
       (fun l ->
         let size = chain.(l mod Array.length chain) in
         let runs =
           Array.append edge_runs
             (Array.init extra (fun _ -> Datagen.Rng.int rng 10))
         in
         if Array.fold_left ( + ) 0 runs > size then
           Array.fill runs 4 extra 0;
         let perm = Datagen.Rng.permutation rng (Array.length runs) in
         tile_fn_with_runs rng ~size (Array.map (fun i -> runs.(i)) perm)))

(* Whether every loop of the schedule has rows of 0, 1, 8 and 9 runs. *)
let covers_edge_runs sched =
  let rq = Shape.run_ptr (Shape.analyze sched) in
  let nl = Schedule.n_loops sched in
  List.for_all
    (fun l ->
      Array.for_all
        (fun want ->
          List.exists
            (fun t ->
              let r = (t * nl) + l in
              rq.(r + 1) - rq.(r) = want)
            (List.init (Schedule.n_tiles sched) Fun.id))
        edge_runs)
    (List.init nl Fun.id)

(* Datasets with at least 18 nodes and interactions, so every loop can
   hold the 0 + 1 + 8 + 9 runs of [edge_runs]. *)
let arb_runs_case =
  QCheck.make
    ~print:(fun ((n, e), seed) ->
      Printf.sprintf "n=%d m=%d seed=%d" n (Array.length e) seed)
    QCheck.Gen.(
      let* n = int_range 18 60 in
      let* m = int_range 18 150 in
      let* pairs =
        array_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      let* seed = int_range 0 100_000 in
      return ((n, pairs), seed))

(* Every kernel's generated executor, as Specialize.make returns it,
   against the interpreted walk after 3 steps, bit for bit: on rows of
   0, 1, 8 and 9 runs, on time-tiled schedules of 2 and 3 chain copies
   (moldyn, nbf, irreg), and with cg's epilogue fold after every
   step. *)
let prop_generated_bitwise =
  QCheck.Test.make ~name:"generated executor = run_tiled, bitwise"
    ~count:25 arb_runs_case (fun (spec, seed) ->
      let d = dataset_of spec in
      List.for_all
        (fun (of_dataset, copies) ->
          let k : Kernels.Kernel.t = of_dataset d in
          let sched = runs_sched (Datagen.Rng.create (seed + copies)) k ~copies in
          let reference = k.Kernels.Kernel.copy () in
          let generated = k.Kernels.Kernel.copy () in
          reference.Kernels.Kernel.run_tiled sched ~steps:3;
          (Specialize.make generated sched).Specialize.run ~steps:3;
          covers_edge_runs sched
          && Kernels.Kernel.snapshots_equal_bits
               (reference.Kernels.Kernel.snapshot ())
               (generated.Kernels.Kernel.snapshot ()))
        [
          (Kernels.Moldyn.of_dataset, 1); (Kernels.Moldyn.of_dataset, 2);
          (Kernels.Moldyn.of_dataset, 3); (Kernels.Nbf.of_dataset, 1);
          (Kernels.Nbf.of_dataset, 2); (Kernels.Nbf.of_dataset, 3);
          (Kernels.Irreg.of_dataset, 1); (Kernels.Irreg.of_dataset, 2);
          (Kernels.Irreg.of_dataset, 3); (Kernels.Cg.of_dataset, 1);
        ])

(* ------------------------------------------------------------------ *)
(* Validated-once memos (satellite: skip O(rows) re-validation on
   plan-cache hits) *)

let test_check_fits_memo () =
  with_metrics (fun () ->
      let n = 40 in
      let s = Schedule.of_tile_fns [| tf 2 (Array.init n (fun i -> i mod 2)) |] in
      let skips = Rtrt_obs.Metrics.counter "plancache.schedule_check_skips" in
      Alcotest.(check bool)
        "first scan" true
        (Schedule.check_fits s ~loop_sizes:[| n |]);
      let before = Rtrt_obs.Metrics.value skips in
      Alcotest.(check bool)
        "memoized" true
        (Schedule.check_fits s ~loop_sizes:[| n |]);
      Alcotest.(check int)
        "skip counted" (before + 1)
        (Rtrt_obs.Metrics.value skips);
      (* Different claimed sizes must not reuse the memo (and must
         fail). *)
      Alcotest.(check bool)
        "different sizes rescan" false
        (Schedule.check_fits s ~loop_sizes:[| n / 2 |]))

let test_coverage_memo_from_construction () =
  with_metrics (fun () ->
      let n = 40 in
      let s = Schedule.of_tile_fns [| tf 4 (Array.init n (fun i -> i / 10)) |] in
      let skips = Rtrt_obs.Metrics.counter "plancache.coverage_check_skips" in
      let before = Rtrt_obs.Metrics.value skips in
      (* of_tile_fns proved coverage by construction; the first
         explicit check is already a skip. *)
      Alcotest.(check bool)
        "covered" true
        (Schedule.check_coverage s ~loop_sizes:[| n |]);
      Alcotest.(check int)
        "constructed coverage skips" (before + 1)
        (Rtrt_obs.Metrics.value skips))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "specialize"
    [
      ( "shape",
        [
          Alcotest.test_case "identity block" `Quick test_shape_identity;
          Alcotest.test_case "single-run rows" `Quick test_shape_single_run_rows;
          Alcotest.test_case "adversarial alternating" `Quick
            test_shape_adversarial_alternating;
          Alcotest.test_case "ragged tiles" `Quick test_shape_ragged;
          Alcotest.test_case "pin invalidated by remap" `Quick
            test_shape_pin_invalidated;
        ] );
      ( "tier-a",
        Alcotest.test_case "shaped = pooled executors" `Quick
          test_shaped_matches_par
        :: qsuite [ prop_shaped_bitwise ] );
      ("exec", qsuite [ prop_generated_bitwise ]);
      ( "memos",
        [
          Alcotest.test_case "check_fits memo" `Quick test_check_fits_memo;
          Alcotest.test_case "coverage memo from construction" `Quick
            test_coverage_memo_from_construction;
        ] );
    ]
