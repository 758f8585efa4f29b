(* Tests for the experiment harness: measurement math (normalization,
   amortization), parameter sizing, and smoke tests of the figure and
   ablation drivers at tiny scale. *)

module T = Harness.Table
module B = Harness.Benchdiff

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
  { Harness.Figures.scale = 512; trace_steps = 1; wall_steps = 1;
    plan_cache = None }

(* A figure table's rows after its unlabelled summary row, outside the
   profile section. *)
let figure_rows (t : T.t) =
  List.filter
    (fun (r : T.row) ->
      r.labels <> [] && not (List.mem_assoc "section" r.labels))
    t.rows

let value r name =
  match T.find_metric r name with
  | Some m -> m.T.value
  | None -> Alcotest.fail ("row without " ^ name)

let test_dataset_table () =
  let rows = figure_rows (Harness.Figures.dataset_table ~config:tiny ()) in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "nodes positive" true (value r "nodes" > 0.0);
      Alcotest.(check bool) "paper nodes recorded" true
        (value r "paper_nodes" > 0.0))
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
    figure_rows
      (Harness.Figures.executor_time ~machine:Cachesim.Machine.pentium4
         ~config:tiny ())
  in
  let label k (r : T.row) = List.assoc k r.labels in
  let bases = List.filter (fun r -> label "plan" r = "base") rows in
  Alcotest.(check int) "six (bench, dataset) pairs" 6 (List.length bases);
  List.iter
    (fun base ->
      let same_pair r =
        label "bench" r = label "bench" base
        && label "dataset" r = label "dataset" base
      in
      Alcotest.(check int) "ten plans" 10
        (List.length (List.filter same_pair rows));
      Alcotest.(check bool) "base must normalize to 1.0" true
        (value base "normalized_cycles" = 1.0
        && value base "normalized_wall" = 1.0))
    bases;
  Alcotest.(check int) "sixty rows" 60 (List.length rows)

let test_remap_smoke () =
  let rows =
    Harness.Figures.remap_overhead ~repeats:1
      ~machine:Cachesim.Machine.pentium4 ~config:tiny ()
  in
  let rows = figure_rows rows in
  Alcotest.(check int) "twelve rows" 12 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "positive times" true
        (value r "seconds_remap_each" > 0.0
        && value r "seconds_remap_once" > 0.0))
    rows

(* Every figure of the list at scale 512 reads back through the
   rtrt.table/1 text as the same table (NaN, null on disk, compares
   equal to itself under [compare]), with no two rows sharing labels. *)
let test_figures_round_trip () =
  List.iter
    (fun (f : Harness.Figures.figure) ->
      let t = f.table tiny in
      Alcotest.(check string) "named after the figure" f.name t.T.name;
      Alcotest.(check bool) (f.name ^ " has rows") true (figure_rows t <> []);
      let labels = List.map (fun (r : T.row) -> r.labels) t.rows in
      Alcotest.(check int) (f.name ^ " labels unique") (List.length labels)
        (List.length (List.sort_uniq compare labels));
      match Result.bind (Rtrt_obs.Json.of_string (T.to_string t)) T.of_json with
      | Ok t' ->
        Alcotest.(check bool) (f.name ^ " round trip") true (compare t t' = 0)
      | Error msg -> Alcotest.fail (f.name ^ ": " ^ msg))
    Harness.Figures.all

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
    (fun rows ->
      let title = List.assoc "section" (List.hd rows).T.labels in
      Alcotest.(check bool) (title ^ " nonempty") true
        (List.length (List.concat_map (fun r -> r.T.metrics) rows) >= 2))
    checks

let test_ablation_regrouping_direction () =
  (* Regrouping must reduce misses for moldyn (9 co-accessed arrays). *)
  let machine = Cachesim.Machine.pentium4 in
  let mol = Option.get (Datagen.Generators.by_name ~scale:128 "mol1") in
  let misses r =
    (Option.get (T.find_metric r "misses_per_step")).T.value
  in
  match Harness.Ablations.regrouping ~machine ~config:tiny mol with
  | [ grouped; separate; _; _ ] ->
    Alcotest.(check bool) "grouped fewer misses" true
      (misses grouped < misses separate)
  | _ -> Alcotest.fail "unexpected rows"

let test_guidance_ranks () =
  let d = Datagen.Generators.foil ~scale:96 () in
  let kernel = Kernels.Irreg.of_dataset d in
  let machine = Cachesim.Machine.pentium4 in
  let plans = [ Compose.Plan.base; Compose.Plan.cpack_lexgroup ] in
  let ranking =
    (Harness.Autotune.rank ~trace_steps:1 ~machine ~iterations:1_000_000
       ~plans kernel)
      .T.rows
  in
  Alcotest.(check int) "both ranked" 2 (List.length ranking);
  match ranking with
  | [ a; b ] ->
    (* Totals ascend by construction. *)
    Alcotest.(check bool) "sorted" true
      (value a "total_seconds" <= value b "total_seconds");
    (* Over a million steps the reordered executor must win. *)
    Alcotest.(check string) "CL wins long runs" "CL"
      (List.assoc "plan" a.labels);
    Alcotest.(check bool) "positive costs" true
      (value a "modeled_ns_per_step" > 0.0)
  | _ -> Alcotest.fail "two rows expected"

(* Every total is on the model's clock: the modeled steps plus each
   plan's host inspector seconds priced with the one factor of the
   summary row, which also names the runner-up and the pick's lead
   over it. *)
let test_guidance_one_clock () =
  let d = Datagen.Generators.foil ~scale:96 () in
  let kernel = Kernels.Irreg.of_dataset d in
  let machine = Cachesim.Machine.pentium4 in
  let iterations = 10 in
  let plans =
    Compose.Plan.
      [ base; cpack_lexgroup; with_fst ~seed_part_size:24 cpack_lexgroup ]
  in
  match
    (Harness.Autotune.guide ~trace_steps:1 ~machine ~iterations ~plans kernel)
      .T.rows
  with
  | summary :: rows ->
    Alcotest.(check (list (pair string string))) "summary has no labels" []
      summary.T.labels;
    let factor = value summary "model_ns_per_host_ns" in
    Alcotest.(check bool) "factor is positive and finite" true
      (factor > 0.0 && Float.is_finite factor);
    Alcotest.(check int) "one row per plan" 3 (List.length rows);
    List.iter
      (fun r ->
        Alcotest.(check (float 1e-15))
          (List.assoc "plan" r.T.labels ^ " total in model seconds")
          ((float_of_int iterations *. value r "modeled_ns_per_step" *. 1e-9)
          +. (value r "inspector_seconds" *. factor))
          (value r "total_seconds"))
      rows;
    (match
       List.sort
         (fun (a, _) (b, _) -> Float.compare a b)
         (List.map
            (fun r -> (value r "total_seconds", List.assoc "plan" r.T.labels))
            rows)
     with
    | (best, _) :: (next, runner_up) :: _ ->
      Alcotest.(check (list (pair string string))) "runner-up note"
        [ ("runner_up", runner_up) ]
        summary.T.notes;
      Alcotest.(check (float 1e-12)) "lead over the runner-up" (next /. best)
        (value summary "lead_over_next")
    | _ -> Alcotest.fail "three plans ranked")
  | [] -> Alcotest.fail "empty guide table"

let test_guidance_empty () =
  let d = Datagen.Generators.foil ~scale:512 () in
  let kernel = Kernels.Irreg.of_dataset d in
  Alcotest.check_raises "no plans"
    (Invalid_argument "Autotune.rank: no candidate plans") (fun () ->
      ignore
        (Harness.Autotune.rank ~machine:Cachesim.Machine.pentium4
           ~iterations:1 ~plans:[] kernel))

(* ------------------------------------------------------------------ *)
(* Bench tables and bench-diff: schema, declared directions, verdicts *)

let bench_table ?(bitwise = true) ~speedup ~seconds ~misses () =
  {
    T.name = "test";
    rows =
      [
        T.row [] [ T.info "scale" "divisor" 1024.0 ];
        T.row
          [ ("bench", "moldyn"); ("plan", "cpack_lexgroup") ]
          [
            T.higher "measured_speedup" "ratio" speedup;
            T.lower "serial_seconds_per_step" "s" seconds;
            T.lower "misses_per_step" "misses/step" misses;
            T.flag T.Higher "bitwise_equal" bitwise;
          ];
      ];
  }

let find_row rows path =
  match List.find_opt (fun r -> r.B.r_path = path) rows with
  | Some r -> r
  | None ->
    Alcotest.fail
      (Fmt.str "no row for %s (have: %s)" path
         (String.concat ", " (List.map (fun r -> r.B.r_path) rows)))

let row_path = "moldyn/cpack_lexgroup"
let verdict = Alcotest.testable (fun ppf v ->
    Fmt.string ppf
      (match v with
      | B.Improved -> "improved"
      | Regressed -> "regressed"
      | Equal -> "equal"
      | Neutral -> "neutral"
      | Missing -> "missing"
      | Added -> "added"
      | Invalid -> "invalid"))
    ( = )

let test_benchdiff_equal () =
  let t = bench_table ~speedup:3.0 ~seconds:0.5 ~misses:100.0 () in
  let rows = B.compare t t in
  Alcotest.(check bool) "identical inputs never regress" false
    (B.has_regression rows);
  Alcotest.check verdict "speedup equal" B.Equal
    (find_row rows (row_path ^ ".measured_speedup")).r_verdict;
  (* Informational metrics are neutral, never gates. *)
  Alcotest.check verdict "scale is info" B.Neutral
    (find_row rows "scale").r_verdict

let test_benchdiff_regressed () =
  let old_t = bench_table ~speedup:3.0 ~seconds:0.5 ~misses:100.0 () in
  (* Speedup halves (higher-better down) and seconds double
     (lower-better up): both regress. *)
  let new_t = bench_table ~speedup:1.5 ~seconds:1.0 ~misses:100.0 () in
  let rows = B.compare old_t new_t in
  Alcotest.(check bool) "regression detected" true (B.has_regression rows);
  Alcotest.check verdict "speedup regressed" B.Regressed
    (find_row rows (row_path ^ ".measured_speedup")).r_verdict;
  Alcotest.check verdict "seconds regressed" B.Regressed
    (find_row rows (row_path ^ ".serial_seconds_per_step")).r_verdict;
  Alcotest.check verdict "misses unchanged" B.Equal
    (find_row rows (row_path ^ ".misses_per_step")).r_verdict;
  Alcotest.(check int) "two regressions" 2 (List.length (B.regressions rows))

let test_benchdiff_improved () =
  let old_t = bench_table ~speedup:3.0 ~seconds:0.5 ~misses:100.0 () in
  let new_t = bench_table ~speedup:4.0 ~seconds:0.25 ~misses:50.0 () in
  let rows = B.compare old_t new_t in
  Alcotest.(check bool) "improvements never gate" false (B.has_regression rows);
  Alcotest.check verdict "speedup improved" B.Improved
    (find_row rows (row_path ^ ".measured_speedup")).r_verdict;
  Alcotest.check verdict "seconds improved" B.Improved
    (find_row rows (row_path ^ ".serial_seconds_per_step")).r_verdict

let test_benchdiff_tolerance () =
  let old_t = bench_table ~speedup:3.0 ~seconds:0.5 ~misses:100.0 () in
  (* 5% worse: inside the default 10% tolerance, outside 1%. *)
  let new_t = bench_table ~speedup:2.85 ~seconds:0.5 ~misses:100.0 () in
  Alcotest.check verdict "within default tolerance" B.Equal
    (find_row (B.compare old_t new_t) (row_path ^ ".measured_speedup"))
      .r_verdict;
  Alcotest.check verdict "outside strict tolerance" B.Regressed
    (find_row
       (B.compare ~tolerance:0.01 old_t new_t)
       (row_path ^ ".measured_speedup"))
      .r_verdict

let test_benchdiff_boolean_flip () =
  (* bitwise_equal true -> false is a full-magnitude drop in a
     higher-better metric: regression at any tolerance. *)
  let old_t = bench_table ~speedup:3.0 ~seconds:0.5 ~misses:100.0 () in
  let new_t =
    bench_table ~bitwise:false ~speedup:3.0 ~seconds:0.5 ~misses:100.0 ()
  in
  Alcotest.check verdict "bitwise flip regresses" B.Regressed
    (find_row (B.compare old_t new_t) (row_path ^ ".bitwise_equal"))
      .r_verdict

let test_benchdiff_missing_added () =
  let old_t = bench_table ~speedup:3.0 ~seconds:0.5 ~misses:100.0 () in
  let new_t =
    { old_t with T.rows = [ T.row [] [ T.count "extra" 7 ] ] }
  in
  let rows = B.compare old_t new_t in
  Alcotest.check verdict "dropped metric is Missing" B.Missing
    (find_row rows (row_path ^ ".measured_speedup")).r_verdict;
  Alcotest.check verdict "new metric is Added" B.Added
    (find_row rows "extra").r_verdict;
  (* A missing gated row fails the gate, so an emptied table cannot
     pass; Added rows and missing informational rows never gate. *)
  Alcotest.(check bool) "dropped gated metric regresses" true
    (B.has_regression rows);
  List.iter
    (fun ratios_only ->
      Alcotest.(check bool) "emptied table regresses" true
        (B.has_regression
           (B.compare ~ratios_only old_t { old_t with T.rows = [] })))
    [ false; true ];
  let with_rows f = { old_t with T.rows = f old_t.T.rows } in
  Alcotest.(check bool) "added metric does not gate" false
    (B.has_regression
       (B.compare old_t
          (with_rows (fun rows ->
               rows @ [ T.row [ ("x", "y") ] [ T.count "extra" 7 ] ]))));
  Alcotest.(check bool) "missing info metric does not gate" false
    (B.has_regression (B.compare old_t (with_rows List.tl)))

let test_benchdiff_ratios_only () =
  let old_t = bench_table ~speedup:3.0 ~seconds:0.5 ~misses:100.0 () in
  (* Seconds blow up (machine-dependent) but the speedup holds:
     ratios_only must not gate on the timing. *)
  let new_t = bench_table ~speedup:3.0 ~seconds:5.0 ~misses:100.0 () in
  Alcotest.(check bool) "absolute timing gates by default" true
    (B.has_regression (B.compare old_t new_t));
  let ratios = B.compare ~ratios_only:true old_t new_t in
  Alcotest.(check bool) "ratios_only ignores absolute timing" false
    (B.has_regression ratios);
  Alcotest.check verdict "timing demoted to info" B.Neutral
    (find_row ratios (row_path ^ ".serial_seconds_per_step")).r_verdict;
  (* Booleans are dimensionless: an identity flag still gates. *)
  let flipped =
    bench_table ~bitwise:false ~speedup:3.0 ~seconds:0.5 ~misses:100.0 ()
  in
  Alcotest.check verdict "flag gates under ratios_only" B.Regressed
    (find_row (B.compare ~ratios_only:true old_t flipped)
       (row_path ^ ".bitwise_equal"))
      .r_verdict

(* The direction is the one the table declares, whatever the metric
   is called: a "speedup" declared lower-is-better regresses when it
   rises, and a "hit" declared informational never gates. *)
let test_benchdiff_declared_direction () =
  let table speedup hit =
    {
      T.name = "test";
      rows =
        [
          T.row [ ("k", "v") ]
            [
              T.lower "speedup" "ratio" speedup; T.flag T.Info "cache_hit" hit;
            ];
        ];
    }
  in
  let rows = B.compare (table 1.0 true) (table 2.0 false) in
  Alcotest.check verdict "declared lower" B.Regressed
    (find_row rows "v.speedup").r_verdict;
  Alcotest.check verdict "declared info" B.Neutral
    (find_row rows "v.cache_hit").r_verdict

let parse_table s = Result.bind (Rtrt_obs.Json.of_string s) T.of_json

(* A NaN compares false both ways, so without its own rule a NaN gated
   value would read as equal. *)
let test_benchdiff_nonfinite () =
  let table seconds speedup =
    {
      T.name = "test";
      rows =
        [
          T.row [ ("k", "v") ]
            [
              T.lower "seconds" "s" seconds; T.higher "speedup" "ratio" speedup;
            ];
        ];
    }
  in
  let good = table 1.0 2.0 in
  List.iter
    (fun (what, bad) ->
      List.iter
        (fun (name, old_t, new_t) ->
          Alcotest.(check bool) (what ^ " " ^ name ^ " gates") true
            (B.has_regression (B.compare old_t new_t)))
        [
          ("new lower", good, table bad 2.0);
          ("new higher", good, table 1.0 bad);
          ("old lower", table bad 2.0, good);
          ("old higher", table 1.0 bad, good);
        ])
    [ ("nan", Float.nan); ("+inf", Float.infinity) ];
  (* On disk a non-finite value is null, which reads back as NaN and
     gates the same way. *)
  let written = T.to_string (table Float.nan Float.nan) in
  Alcotest.(check bool) "null written for NaN" true
    (try
       ignore
         (Str.search_forward
            (Str.regexp_string {|"seconds":{"value":null|})
            written 0);
       true
     with Not_found -> false);
  let rows =
    match parse_table written with
    | Ok on_disk -> B.compare good on_disk
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.check verdict "null lower" B.Invalid
    (find_row rows "v.seconds").r_verdict;
  Alcotest.check verdict "null higher" B.Invalid
    (find_row rows "v.speedup").r_verdict;
  Alcotest.(check bool) "info metric never gates" false
    (B.has_regression
       (B.compare
          { T.name = "t"; rows = [ T.row [] [ T.info "x" "s" 1.0 ] ] }
          { T.name = "t"; rows = [ T.row [] [ T.info "x" "s" Float.nan ] ] }))

(* The writer's output reads back as the same table; anything else is
   not a table. *)
let test_table_json () =
  let base = bench_table ~speedup:3.0 ~seconds:0.5 ~misses:100.0 () in
  let t =
    {
      base with
      T.rows =
        base.T.rows
        @ [
            T.row ~notes:[ ("tier", "serial") ] [ ("bench", "cg") ]
              [ T.lower "seconds" "s" 0.1234567890123 ];
          ];
    }
  in
  (match parse_table (T.to_string t) with
  | Ok t' -> Alcotest.(check bool) "round trip" true (t = t')
  | Error msg -> Alcotest.fail msg);
  let rejected what s =
    Alcotest.(check bool) (what ^ " rejected") true
      (Result.is_error (parse_table s))
  in
  rejected "{}" "{}";
  rejected "old shape" {|{"scale":64,"rows":[{"bench":"moldyn","speedup":2}]}|};
  rejected "two rows with the same labels"
    (T.to_string { t with T.rows = t.T.rows @ [ List.nth t.T.rows 1 ] });
  rejected "unknown direction"
    ({|{"schema":"rtrt.table/1","table":"x","rows":[{"labels":{},|}
    ^ {|"metrics":{"m":{"value":1,"unit":"s","better":"up"}}}]}|})

(* ------------------------------------------------------------------ *)
(* The bench driver: each suite at scale 512 under its own settings
   (hotpath is left to CI: it takes seconds even at this scale). A
   suite with a committed baseline must write exactly the baseline's
   rows and metrics, none missing and none added; the values are not
   compared, since the scale differs. *)

let test_suite name () =
  let suite =
    List.find (fun s -> s.Harness.Suite.name = name) Harness.Suite.all
  in
  let out = Filename.temp_file ("rtrt-bench-" ^ name) ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  Harness.Suite.run ~scale:512 ~out suite;
  let table = T.load out in
  Alcotest.(check bool) "passes its own gate" false
    (B.has_regression (B.compare_files ~old_path:out ~new_path:out ()));
  List.iter
    (fun (r : T.row) ->
      List.iter
        (fun (m : T.metric) ->
          if m.unit_ = "bool" && m.better <> T.Info then
            Alcotest.(check bool) (m.name ^ " reads true") true (m.value = 1.0))
        r.metrics)
    table.T.rows;
  Alcotest.(check bool) "rows written" true
    (List.exists (fun (r : T.row) -> r.labels <> []) table.T.rows);
  let baseline =
    Filename.concat "../bench/baselines" (Harness.Suite.default_out suite)
  in
  if name <> "plancache" then
    Alcotest.(check (list string)) "no baseline metric missing or added" []
      (List.filter_map
         (fun r ->
           match r.B.r_verdict with
           | B.Missing | B.Added -> Some r.B.r_path
           | _ -> None)
         (B.compare_files ~old_path:baseline ~new_path:out ()))

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
          Alcotest.test_case "remap rows" `Slow test_remap_smoke;
          Alcotest.test_case "every figure round-trips" `Slow
            test_figures_round_trip;
        ] );
      ( "guidance",
        [
          Alcotest.test_case "ranking" `Slow test_guidance_ranks;
          Alcotest.test_case "empty" `Quick test_guidance_empty;
          Alcotest.test_case "one clock" `Slow test_guidance_one_clock;
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
          Alcotest.test_case "declared direction, not key names" `Quick
            test_benchdiff_declared_direction;
          Alcotest.test_case "non-finite gated values fail" `Quick
            test_benchdiff_nonfinite;
          Alcotest.test_case "table JSON round trip" `Quick test_table_json;
        ] );
      ( "bench suites",
        List.map
          (fun name -> Alcotest.test_case name `Slow (test_suite name))
          [ "inspector"; "autotune"; "churn"; "plancache" ] );
    ]
