(* Tests for the experiment harness: measurement math (normalization,
   amortization), parameter sizing, and smoke tests of the figure and
   ablation drivers at tiny scale. *)

let mk ?(plan = "p") ?(insp = 1.0) ?(exec = 1.0) ?(cycles = 100.0) () =
  {
    Harness.Experiment.plan_name = plan;
    inspector_seconds = insp;
    executor_seconds_per_step = exec;
    modeled_cycles_per_step = cycles;
    misses_per_step = 10.0;
    accesses_per_step = 100.0;
    miss_ratio = 0.1;
    n_data_remaps = 1;
    n_tiles = 1;
    par = None;
    plancache = None;
    profile = [];
  }

let test_normalize () =
  let base = mk ~plan:"base" ~cycles:200.0 ~exec:2.0 () in
  let other = mk ~plan:"t" ~cycles:100.0 ~exec:1.0 () in
  match Harness.Experiment.normalize [ base; other ] with
  | [ (_, 1.0, 1.0); (m, nc, nw) ] ->
    Alcotest.(check string) "name" "t" m.Harness.Experiment.plan_name;
    Alcotest.(check (float 1e-9)) "cycles ratio" 0.5 nc;
    Alcotest.(check (float 1e-9)) "wall ratio" 0.5 nw
  | _ -> Alcotest.fail "unexpected shape"

let test_normalize_empty () =
  Alcotest.(check int) "empty" 0
    (List.length (Harness.Experiment.normalize []))

let test_amortization () =
  let base = mk ~exec:2.0 () in
  let faster = mk ~insp:3.0 ~exec:1.5 () in
  (match Harness.Experiment.amortization ~base faster with
  | Some steps -> Alcotest.(check (float 1e-9)) "steps" 6.0 steps
  | None -> Alcotest.fail "expected amortization");
  let slower = mk ~insp:3.0 ~exec:2.5 () in
  Alcotest.(check bool) "no savings" true
    (Harness.Experiment.amortization ~base slower = None)

let test_amortization_modeled () =
  let base = mk ~cycles:200.0 () in
  (* 1e6 cycles/s at exec 1.0e-4 s/step... use simple numbers: cycles
     100, exec 1.0 => 100 cycles/s; savings 100 cycles; inspector 2 s
     = 200 cycles => 2 steps. *)
  let m = mk ~insp:2.0 ~exec:1.0 ~cycles:100.0 () in
  match Harness.Experiment.amortization_modeled ~base m with
  | Some steps -> Alcotest.(check (float 1e-6)) "steps" 2.0 steps
  | None -> Alcotest.fail "expected amortization"

let test_sizing () =
  let d = Datagen.Generators.foil ~scale:512 () in
  let kernel = Kernels.Irreg.of_dataset d in
  (* irreg: 16 bytes/node; 8KB target -> 512 nodes/part, seed 128. *)
  Alcotest.(check int) "gpart size" 512
    (Harness.Figures.gpart_size_for ~target_bytes:8192 kernel);
  Alcotest.(check int) "seed size" 128
    (Harness.Figures.seed_size_for ~target_bytes:8192 kernel);
  (* Floors at 16. *)
  Alcotest.(check int) "floor" 16
    (Harness.Figures.seed_size_for ~target_bytes:64 kernel)

let tiny =
  { Harness.Figures.scale = 512; trace_steps = 1; wall_steps = 1; domains = 1;
    plan_cache = None }

let test_dataset_table () =
  let rows = Harness.Figures.dataset_table ~config:tiny () in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "nodes positive" true (r.Harness.Figures.gen_nodes > 0);
      Alcotest.(check bool) "paper nodes recorded" true
        (r.Harness.Figures.paper_nodes > 0))
    rows

let test_measure_sanity () =
  let d = Datagen.Generators.foil ~scale:512 () in
  let kernel = Kernels.Irreg.of_dataset d in
  let m =
    Harness.Experiment.measure ~trace_steps_n:1 ~wall_steps:1
      ~machine:Cachesim.Machine.pentium4 ~plan:Compose.Plan.cpack_lexgroup
      kernel
  in
  Alcotest.(check string) "plan name" "CL" m.Harness.Experiment.plan_name;
  Alcotest.(check bool) "positive cycles" true
    (m.Harness.Experiment.modeled_cycles_per_step > 0.0);
  Alcotest.(check bool) "misses <= accesses" true
    (m.Harness.Experiment.misses_per_step
    <= m.Harness.Experiment.accesses_per_step);
  Alcotest.(check int) "one remap" 1 m.Harness.Experiment.n_data_remaps

let test_measure_improves () =
  (* CL must beat base in modeled cycles on the small cache. *)
  let d = Datagen.Generators.foil ~scale:128 () in
  let kernel = Kernels.Irreg.of_dataset d in
  let cycles plan =
    (Harness.Experiment.measure ~trace_steps_n:2 ~wall_steps:1
       ~machine:Cachesim.Machine.pentium4 ~plan kernel)
      .Harness.Experiment.modeled_cycles_per_step
  in
  Alcotest.(check bool) "CL < base" true
    (cycles Compose.Plan.cpack_lexgroup < cycles Compose.Plan.base)

let test_executor_rows_smoke () =
  let rows =
    Harness.Figures.executor_time ~machine:Cachesim.Machine.pentium4
      ~config:tiny ()
  in
  Alcotest.(check int) "six rows" 6 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int) "ten plans" 10
        (List.length r.Harness.Figures.per_plan);
      match r.Harness.Figures.per_plan with
      | ("base", 1.0, 1.0) :: _ -> ()
      | _ -> Alcotest.fail "base must normalize to 1.0")
    rows

let test_remap_rows_smoke () =
  let rows =
    Harness.Figures.remap_overhead ~repeats:1
      ~machine:Cachesim.Machine.pentium4 ~config:tiny ()
  in
  Alcotest.(check int) "twelve rows" 12 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "positive times" true
        (r.Harness.Figures.seconds_each > 0.0
        && r.Harness.Figures.seconds_once > 0.0))
    rows

let test_ablations_smoke () =
  let machine = Cachesim.Machine.pentium4 in
  let foil = Option.get (Datagen.Generators.by_name ~scale:512 "foil") in
  let mol = Option.get (Datagen.Generators.by_name ~scale:512 "mol1") in
  let checks =
    [
      Harness.Ablations.data_reorderings ~machine ~config:tiny foil;
      Harness.Ablations.seed_partitioning ~machine ~config:tiny foil;
      Harness.Ablations.seed_loop ~machine ~config:tiny mol;
      Harness.Ablations.regrouping ~machine ~config:tiny mol;
      Harness.Ablations.tile_parallelism ~machine ~config:tiny foil;
    ]
  in
  List.iter
    (fun (title, rows) ->
      Alcotest.(check bool) (title ^ " nonempty") true (List.length rows >= 2))
    checks

let test_ablation_regrouping_direction () =
  (* Regrouping must reduce misses for moldyn (9 co-accessed arrays). *)
  let machine = Cachesim.Machine.pentium4 in
  let mol = Option.get (Datagen.Generators.by_name ~scale:128 "mol1") in
  let _, rows = Harness.Ablations.regrouping ~machine ~config:tiny mol in
  match rows with
  | [ grouped; separate; _; _ ] ->
    Alcotest.(check bool) "grouped fewer misses" true
      (grouped.Harness.Ablations.value < separate.Harness.Ablations.value)
  | _ -> Alcotest.fail "unexpected rows"

let test_guidance_ranks () =
  let d = Datagen.Generators.foil ~scale:96 () in
  let kernel = Kernels.Irreg.of_dataset d in
  let machine = Cachesim.Machine.pentium4 in
  let plans = [ Compose.Plan.base; Compose.Plan.cpack_lexgroup ] in
  let ranking =
    Harness.Guidance.select ~trace_steps:1 ~machine ~steps_budget:1_000_000
      ~plans kernel
  in
  Alcotest.(check int) "both ranked" 2 (List.length ranking);
  (* Totals ascend by construction. *)
  (match ranking with
  | [ a; b ] ->
    Alcotest.(check bool) "sorted" true
      (a.Harness.Guidance.total_cycles <= b.Harness.Guidance.total_cycles);
    (* Over a million steps the reordered executor must win. *)
    Alcotest.(check string) "CL wins long runs" "CL"
      (Compose.Plan.name a.Harness.Guidance.plan)
  | _ -> Alcotest.fail "two choices expected");
  (* The winner of a long run has the cheaper per-step executor. *)
  let best =
    Harness.Guidance.best ~trace_steps:1 ~machine ~steps_budget:1_000_000
      ~plans kernel
  in
  Alcotest.(check bool) "positive costs" true
    (best.Harness.Guidance.executor_cycles_per_step > 0.0)

let test_guidance_empty () =
  let d = Datagen.Generators.foil ~scale:512 () in
  let kernel = Kernels.Irreg.of_dataset d in
  Alcotest.check_raises "no plans"
    (Invalid_argument "Guidance.best: no candidate plans") (fun () ->
      ignore
        (Harness.Guidance.best ~machine:Cachesim.Machine.pentium4
           ~steps_budget:1 ~plans:[] kernel))

(* ------------------------------------------------------------------ *)
(* Bench-diff: flattening, direction heuristics, verdicts             *)

let bench_json ~speedup ~seconds ~misses =
  Rtrt_obs.Json.(
    Obj
      [
        ("schema", String "rtrt.bench/1");
        ("scale", Int 1024);
        ( "rows",
          List
            [
              Obj
                [
                  ("bench", String "moldyn");
                  ("plan", String "cpack_lexgroup");
                  ("measured_speedup", Float speedup);
                  ("serial_seconds_per_step", Float seconds);
                  ("misses_per_step", Float misses);
                  ("bitwise_equal", Bool true);
                ];
            ] );
      ])

let find_row rows path =
  match
    List.find_opt (fun r -> r.Harness.Benchdiff.r_path = path) rows
  with
  | Some r -> r
  | None ->
    Alcotest.fail
      (Fmt.str "no row for %s (have: %s)" path
         (String.concat ", "
            (List.map (fun r -> r.Harness.Benchdiff.r_path) rows)))

let row_path = "rows[moldyn/cpack_lexgroup]"
let verdict = Alcotest.testable (fun ppf v ->
    Fmt.string ppf
      (match v with
      | Harness.Benchdiff.Improved -> "improved"
      | Regressed -> "regressed"
      | Equal -> "equal"
      | Neutral -> "neutral"
      | Missing -> "missing"
      | Added -> "added"))
    ( = )

let test_benchdiff_equal () =
  let j = bench_json ~speedup:3.0 ~seconds:0.5 ~misses:100.0 in
  let rows = Harness.Benchdiff.compare_json j j in
  Alcotest.(check bool) "identical inputs never regress" false
    (Harness.Benchdiff.has_regression rows);
  Alcotest.check verdict "speedup equal" Harness.Benchdiff.Equal
    (find_row rows (row_path ^ ".measured_speedup")).r_verdict;
  (* Informational keys are neutral, never gates. *)
  Alcotest.check verdict "scale is info" Harness.Benchdiff.Neutral
    (find_row rows "scale").r_verdict

let test_benchdiff_regressed () =
  let old_j = bench_json ~speedup:3.0 ~seconds:0.5 ~misses:100.0 in
  (* Speedup halves (higher-better down) and seconds double
     (lower-better up): both regress. *)
  let new_j = bench_json ~speedup:1.5 ~seconds:1.0 ~misses:100.0 in
  let rows = Harness.Benchdiff.compare_json old_j new_j in
  Alcotest.(check bool) "regression detected" true
    (Harness.Benchdiff.has_regression rows);
  Alcotest.check verdict "speedup regressed" Harness.Benchdiff.Regressed
    (find_row rows (row_path ^ ".measured_speedup")).r_verdict;
  Alcotest.check verdict "seconds regressed" Harness.Benchdiff.Regressed
    (find_row rows (row_path ^ ".serial_seconds_per_step")).r_verdict;
  Alcotest.check verdict "misses unchanged" Harness.Benchdiff.Equal
    (find_row rows (row_path ^ ".misses_per_step")).r_verdict;
  Alcotest.(check int) "two regressions" 2
    (List.length (Harness.Benchdiff.regressions rows))

let test_benchdiff_improved () =
  let old_j = bench_json ~speedup:3.0 ~seconds:0.5 ~misses:100.0 in
  let new_j = bench_json ~speedup:4.0 ~seconds:0.25 ~misses:50.0 in
  let rows = Harness.Benchdiff.compare_json old_j new_j in
  Alcotest.(check bool) "improvements never gate" false
    (Harness.Benchdiff.has_regression rows);
  Alcotest.check verdict "speedup improved" Harness.Benchdiff.Improved
    (find_row rows (row_path ^ ".measured_speedup")).r_verdict;
  Alcotest.check verdict "seconds improved" Harness.Benchdiff.Improved
    (find_row rows (row_path ^ ".serial_seconds_per_step")).r_verdict

let test_benchdiff_tolerance () =
  let old_j = bench_json ~speedup:3.0 ~seconds:0.5 ~misses:100.0 in
  (* 5% worse: inside the default 10% tolerance, outside 1%. *)
  let new_j = bench_json ~speedup:2.85 ~seconds:0.5 ~misses:100.0 in
  let lenient = Harness.Benchdiff.compare_json old_j new_j in
  Alcotest.check verdict "within default tolerance" Harness.Benchdiff.Equal
    (find_row lenient (row_path ^ ".measured_speedup")).r_verdict;
  let strict = Harness.Benchdiff.compare_json ~tolerance:0.01 old_j new_j in
  Alcotest.check verdict "outside strict tolerance"
    Harness.Benchdiff.Regressed
    (find_row strict (row_path ^ ".measured_speedup")).r_verdict

let test_benchdiff_boolean_flip () =
  (* bitwise_equal true -> false is a full-magnitude drop in a
     higher-better metric: regression at any tolerance. *)
  let old_j = bench_json ~speedup:3.0 ~seconds:0.5 ~misses:100.0 in
  let new_j =
    match bench_json ~speedup:3.0 ~seconds:0.5 ~misses:100.0 with
    | Rtrt_obs.Json.Obj kvs ->
      Rtrt_obs.Json.Obj
        (List.map
           (function
             | "rows", Rtrt_obs.Json.List [ Rtrt_obs.Json.Obj row ] ->
               ( "rows",
                 Rtrt_obs.Json.List
                   [
                     Rtrt_obs.Json.Obj
                       (List.map
                          (function
                            | "bitwise_equal", _ ->
                              ("bitwise_equal", Rtrt_obs.Json.Bool false)
                            | kv -> kv)
                          row);
                   ] )
             | kv -> kv)
           kvs)
    | _ -> assert false
  in
  let rows = Harness.Benchdiff.compare_json old_j new_j in
  Alcotest.check verdict "bitwise flip regresses" Harness.Benchdiff.Regressed
    (find_row rows (row_path ^ ".bitwise_equal")).r_verdict

let test_benchdiff_missing_added () =
  let old_j = bench_json ~speedup:3.0 ~seconds:0.5 ~misses:100.0 in
  let new_j = Rtrt_obs.Json.(Obj [ ("schema", String "rtrt.bench/1"); ("extra", Int 7) ]) in
  let rows = Harness.Benchdiff.compare_json old_j new_j in
  Alcotest.check verdict "dropped metric is Missing" Harness.Benchdiff.Missing
    (find_row rows (row_path ^ ".measured_speedup")).r_verdict;
  Alcotest.check verdict "new metric is Added" Harness.Benchdiff.Added
    (find_row rows "extra").r_verdict;
  (* A missing gated row fails the gate, so an emptied table cannot
     pass; Added rows and missing informational rows never gate. *)
  Alcotest.(check bool) "dropped gated metric regresses" true
    (Harness.Benchdiff.has_regression rows);
  List.iter
    (fun ratios_only ->
      Alcotest.(check bool) "{} regresses" true
        (Harness.Benchdiff.has_regression
           (Harness.Benchdiff.compare_json ~ratios_only old_j
              (Rtrt_obs.Json.Obj []))))
    [ false; true ];
  let with_keys f =
    match old_j with
    | Rtrt_obs.Json.Obj kvs -> Rtrt_obs.Json.Obj (f kvs)
    | _ -> assert false
  in
  Alcotest.(check bool) "added metric does not gate" false
    (Harness.Benchdiff.has_regression
       (Harness.Benchdiff.compare_json old_j
          (with_keys (fun kvs -> kvs @ [ ("extra", Rtrt_obs.Json.Int 7) ]))));
  Alcotest.(check bool) "missing info metric does not gate" false
    (Harness.Benchdiff.has_regression
       (Harness.Benchdiff.compare_json old_j
          (with_keys (List.filter (fun (k, _) -> k <> "scale")))));
  (* Rows sharing a label stay distinct, so dropping one still gates. *)
  let twice =
    with_keys
      (List.map (function
        | "rows", Rtrt_obs.Json.List [ row ] ->
          ("rows", Rtrt_obs.Json.List [ row; row ])
        | kv -> kv))
  in
  let rows = Harness.Benchdiff.compare_json twice old_j in
  Alcotest.check verdict "second same-label row is Missing"
    Harness.Benchdiff.Missing
    (find_row rows "rows[moldyn/cpack_lexgroup#1].measured_speedup").r_verdict;
  Alcotest.(check bool) "dropped same-label row regresses" true
    (Harness.Benchdiff.has_regression rows)

let test_benchdiff_ratios_only () =
  let old_j = bench_json ~speedup:3.0 ~seconds:0.5 ~misses:100.0 in
  (* Seconds blow up (machine-dependent) but the speedup holds:
     ratios_only must not gate on the timing. *)
  let new_j = bench_json ~speedup:3.0 ~seconds:5.0 ~misses:100.0 in
  let gated = Harness.Benchdiff.compare_json old_j new_j in
  Alcotest.(check bool) "absolute timing gates by default" true
    (Harness.Benchdiff.has_regression gated);
  let ratios = Harness.Benchdiff.compare_json ~ratios_only:true old_j new_j in
  Alcotest.(check bool) "ratios_only ignores absolute timing" false
    (Harness.Benchdiff.has_regression ratios);
  Alcotest.check verdict "timing demoted to info" Harness.Benchdiff.Neutral
    (find_row ratios (row_path ^ ".serial_seconds_per_step")).r_verdict

let test_benchdiff_directions () =
  List.iter
    (fun (path, expected) ->
      let got = Harness.Benchdiff.direction_of path in
      let name = function
        | Harness.Benchdiff.Lower_better -> "lower"
        | Higher_better -> "higher"
        | Info -> "info"
      in
      Alcotest.(check string) path (name expected) (name got))
    [
      ("rows[x].measured_speedup", Harness.Benchdiff.Higher_better);
      ("rows[x].bitwise_equal", Harness.Benchdiff.Higher_better);
      ("rows[x].serial_seconds_per_step", Harness.Benchdiff.Lower_better);
      ("hist.p99_ns", Harness.Benchdiff.Lower_better);
      ("rows[x].misses_per_step", Harness.Benchdiff.Lower_better);
      ("scale", Harness.Benchdiff.Info);
      ("domains", Harness.Benchdiff.Info);
      ("profile[inspect].minor_collections", Harness.Benchdiff.Info);
      ("schema", Harness.Benchdiff.Info);
    ];
  List.iter
    (fun (path, expected) ->
      Alcotest.(check bool) ("ratio_like " ^ path) expected
        (Harness.Benchdiff.ratio_like path))
    [
      ("rows[x].measured_speedup", true);
      ("rows[x].bitwise_equal", true);
      ("rows[x].miss_ratio", true);
      ("rows[x].serial_seconds_per_step", false);
      ("scale", false);
    ]

(* ------------------------------------------------------------------ *)
(* The bench driver: each suite at scale 512 under its own settings
   (hotpath is left to CI: it takes seconds even at this scale). *)

let identity_keys = [ "identical"; "bitwise_equal"; "bit_identical"; "bitwise" ]

let rec identity_flags (j : Rtrt_obs.Json.t) acc =
  match j with
  | Obj kvs ->
    List.fold_left
      (fun acc (k, v) ->
        match v with
        | Rtrt_obs.Json.Bool b when List.mem k identity_keys -> (k, b) :: acc
        | v -> identity_flags v acc)
      acc kvs
  | List xs -> List.fold_left (fun acc x -> identity_flags x acc) acc xs
  | _ -> acc

let test_suite name () =
  let suite =
    List.find (fun s -> s.Harness.Suite.name = name) Harness.Suite.all
  in
  let out = Filename.temp_file ("rtrt-bench-" ^ name) ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  (* One domain asked for: par and autotune still measure a pool. *)
  Harness.Suite.run ~scale:512 ~domains:1 ~out suite;
  let json =
    match
      Rtrt_obs.Json.of_string (In_channel.with_open_text out In_channel.input_all)
    with
    | Ok j -> j
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "passes its own gate" false
    (Harness.Benchdiff.has_regression
       (Harness.Benchdiff.compare_files ~old_path:out ~new_path:out ()));
  List.iter
    (fun (k, b) -> Alcotest.(check bool) (k ^ " reads true") true b)
    (identity_flags json []);
  Alcotest.(check bool) "rows written" true
    (List.exists
       (fun k ->
         match Rtrt_obs.Json.member k json with
         | Some (Rtrt_obs.Json.List (_ :: _)) -> true
         | _ -> false)
       [ "rows"; "plans" ])

(* The churn break-even is decided on step-time ranges, not on the two
   best times, so timer noise cannot flip it between "never" and a
   large step count. *)
let test_steps_to_amortize () =
  let amortize repaired_steps cold_steps =
    Harness.Churnbench.steps_to_amortize ~repair_s:0.001 ~cold_s:0.011
      ~repaired_steps ~cold_steps
  in
  Alcotest.(check (float 0.0))
    "overlapping ranges: no measurable difference" 0.0
    (amortize [ 1.0e-3; 1.2e-3 ] [ 1.1e-3; 1.3e-3 ]);
  Alcotest.(check (float 0.0))
    "repaired range wholly faster: never" (-1.0)
    (amortize [ 0.9e-3; 1.0e-3 ] [ 1.1e-3; 1.3e-3 ]);
  Alcotest.(check (float 1e-6))
    "repaired range wholly slower: break-even from the best times" 100.0
    (amortize [ 1.3e-3; 1.4e-3 ] [ 1.2e-3; 1.25e-3 ])

let () =
  Alcotest.run "harness"
    [
      ( "experiment",
        [
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "normalize empty" `Quick test_normalize_empty;
          Alcotest.test_case "amortization" `Quick test_amortization;
          Alcotest.test_case "amortization modeled" `Quick
            test_amortization_modeled;
          Alcotest.test_case "measure sanity" `Quick test_measure_sanity;
          Alcotest.test_case "measure improves" `Quick test_measure_improves;
        ] );
      ( "figures",
        [
          Alcotest.test_case "sizing" `Quick test_sizing;
          Alcotest.test_case "dataset table" `Quick test_dataset_table;
          Alcotest.test_case "executor rows" `Slow test_executor_rows_smoke;
          Alcotest.test_case "remap rows" `Slow test_remap_rows_smoke;
        ] );
      ( "guidance",
        [
          Alcotest.test_case "ranking" `Slow test_guidance_ranks;
          Alcotest.test_case "empty" `Quick test_guidance_empty;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "smoke" `Slow test_ablations_smoke;
          Alcotest.test_case "regrouping direction" `Quick
            test_ablation_regrouping_direction;
        ] );
      ( "churnbench",
        [
          Alcotest.test_case "steps to amortize" `Quick test_steps_to_amortize;
        ] );
      ( "bench-diff",
        [
          Alcotest.test_case "identical inputs are equal" `Quick
            test_benchdiff_equal;
          Alcotest.test_case "regressions detected" `Quick
            test_benchdiff_regressed;
          Alcotest.test_case "improvements never gate" `Quick
            test_benchdiff_improved;
          Alcotest.test_case "tolerance boundary" `Quick
            test_benchdiff_tolerance;
          Alcotest.test_case "boolean flip regresses" `Quick
            test_benchdiff_boolean_flip;
          Alcotest.test_case "missing and added" `Quick
            test_benchdiff_missing_added;
          Alcotest.test_case "ratios-only gating" `Quick
            test_benchdiff_ratios_only;
          Alcotest.test_case "direction heuristics" `Quick
            test_benchdiff_directions;
        ] );
      ( "bench suites",
        List.map
          (fun name -> Alcotest.test_case name `Slow (test_suite name))
          [ "inspector"; "par"; "autotune"; "churn"; "plancache" ] );
    ]
