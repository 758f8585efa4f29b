(* Tests for staged executor specialization: the Shape run-length
   detector, the Tier A shaped executors (bitwise identical to the
   interpreted walk, serial and pooled), the Tier B compiled executors
   (bitwise identical; a source that holds the kernel's body file once
   and grows with the schedule's runs; graceful fallback without a
   toolchain or a writable cache directory; one cached module when two
   processes compile the same key; a damaged cached module recompiled,
   never loaded), and the validated-once memos that let plan-cache hits
   skip the O(rows) re-validation scans. *)

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
   stored item sequence exactly — the structural fact Tier A's bitwise
   identity rests on. *)
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
  Alcotest.(check bool) "profitable" true (Shape.profitable sm);
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
  Alcotest.(check bool) "profitable" true (Shape.profitable sm);
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
  Alcotest.(check bool) "not profitable" false (Shape.profitable sm);
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

(* Tier A bitwise identity on random schedules, all pair kernels. The
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
          let spec_r = Specialize.make ~tier_b:false k sched in
          spec_r.Specialize.tier <> Specialize.Codegen
          && Kernels.Kernel.snapshots_equal_bits
               (k_interp.Kernels.Kernel.snapshot ())
               (k_shaped.Kernels.Kernel.snapshot ()))
        kernels_under_test)

(* Tier A under the pool: the shaped walk of the level-major renumbered
   schedule is bitwise identical to the parallel executor on it. *)
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
(* Tier B: compiled executors *)

let have_toolchain () =
  Sys.command "ocamlfind ocamlopt -version >/dev/null 2>&1" = 0
  || Sys.command "ocamlopt.opt -version >/dev/null 2>&1" = 0
  || Sys.command "ocamlopt -version >/dev/null 2>&1" = 0

let test_codegen_bitwise () =
  if not (have_toolchain ()) then ()
  else begin
    let d = Datagen.Generators.foil ~scale:256 () in
    let plan =
      Compose.Plan.with_fst ~seed_part_size:32 Compose.Plan.cpack_lexgroup
    in
    List.iter
      (fun (name, of_dataset) ->
        let result = Harness.Experiment.inspect plan (of_dataset d) in
        match result.Compose.Inspector.schedule with
        | None -> Alcotest.fail "plan produced no schedule"
        | Some sched ->
          let k = result.Compose.Inspector.kernel in
          let k_interp = k.Kernels.Kernel.copy () in
          let k_spec = k.Kernels.Kernel.copy () in
          (* make's internal verification also asserts bitwise. *)
          let r = Specialize.make ~tier_b:true k_spec sched in
          Alcotest.(check string)
            (name ^ " reaches codegen tier")
            "codegen"
            (Specialize.tier_name r.Specialize.tier);
          r.Specialize.run ~steps:3;
          k_interp.Kernels.Kernel.run_tiled sched ~steps:3;
          Alcotest.(check bool)
            (name ^ " codegen bitwise")
            true
            (Kernels.Kernel.snapshots_equal_bits
               (k_interp.Kernels.Kernel.snapshot ())
               (k_spec.Kernels.Kernel.snapshot ())))
      kernels_under_test
  end

let count haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i acc =
    if i + nl > hl then acc
    else go (i + 1) (if String.sub haystack i nl = needle then acc + 1 else acc)
  in
  go 0 0

let contains haystack needle = count haystack needle > 0

(* Each kernel's body file, and one statement of each chain class's
   body as that file writes it. *)
let body_markers =
  [
    ( "moldyn",
      ( Kernels.Body_files.moldyn,
        [
          "x.!(i) <- x.!(i) +. (dt *. (vx.!(i) +. fx.!(i)));";
          "fx.!(l) <- fx.!(l) +. (g *. dx);";
          "vx.!(k) <- vx.!(k) +. (dt *. fx.!(k));";
        ] ) );
    ( "nbf",
      ( Kernels.Body_files.nbf,
        [ "x.!(i) <- x.!(i) +. (dt *. fx.!(i));"; "fx.!(l) <- fx.!(l) +. (g *. dx);" ] ) );
    ( "irreg",
      ( Kernels.Body_files.irreg,
        [ "y.!(l) <- y.!(l) +. d;"; "x.!(k) <- x.!(k) +. (relax *. y.!(k))" ] ) );
  ]

(* Source size bound: the schedule costs at most this many bytes per
   run and per row (two table entries each), on top of a fixed part
   holding the bodies and the loop functions. *)
let bytes_per_run = 16
let fixed_bytes = 8192

(* Sixteen tiles deal out blocks of 16 consecutive ids round-robin:
   each node-loop row holds a few runs (streamed run by run) and each
   interaction-loop row dozens (walked through its items). *)
let dealt_sched (k : Kernels.Kernel.t) =
  Schedule.of_tile_fns
    (Array.map
       (fun size -> tf 16 (Array.init size (fun i -> i / 16 mod 16)))
       k.Kernels.Kernel.loop_sizes)

(* The emitted source is printable without a toolchain, carries the
   registration footer the host looks up, holds the kernel's body file
   verbatim and each chain class's body exactly once, and grows with
   the schedule's runs, not with body size times runs. *)
let test_codegen_source_dump () =
  let d = Datagen.Generators.foil ~scale:128 () in
  List.iter
    (fun (name, of_dataset) ->
      let k = of_dataset d in
      let sched = dealt_sched k in
      match Specialize.dump_source k sched with
      | None -> Alcotest.fail (name ^ ": emitter declined a small schedule")
      | Some src ->
        Alcotest.(check bool)
          (name ^ " has exec") true
          (contains src "let exec (ia : int array array)");
        Alcotest.(check bool)
          (name ^ " registers") true
          (contains src "Callback.register");
        let body_file, markers = List.assoc name body_markers in
        Alcotest.(check bool)
          (name ^ " holds its body file verbatim") true
          (contains src body_file);
        List.iter
          (fun marker ->
            Alcotest.(check int)
              (Printf.sprintf "%s body line %S in the body file" name marker)
              1 (count body_file marker);
            Alcotest.(check int)
              (Printf.sprintf "%s body line %S emitted once" name marker)
              1 (count src marker))
          markers;
        let sm = Shape.summary (Shape.analyze sched) in
        let bound =
          (bytes_per_run * (sm.Shape.runs + sm.Shape.rows)) + fixed_bytes
        in
        if String.length src > bound then
          Alcotest.failf "%s: %d bytes of source for %d runs, bound %d" name
            (String.length src) sm.Shape.runs bound)
    kernels_under_test

(* Pointing the compiler override at a nonexistent binary simulates a
   toolchain-free host: Tier B must degrade, not raise. *)
let test_no_toolchain_fallback () =
  with_metrics (fun () ->
      let d = Datagen.Generators.foil ~scale:96 () in
      let k = Kernels.Irreg.of_dataset d in
      let rng = Datagen.Rng.create 11 in
      let sched = random_sched rng k in
      let fallbacks = Rtrt_obs.Metrics.counter "specialize.fallbacks" in
      let before = Rtrt_obs.Metrics.value fallbacks in
      Unix.putenv "RTRT_SPECIALIZE_OCAMLOPT" "/nonexistent/ocamlopt";
      let r =
        Fun.protect
          ~finally:(fun () -> Unix.putenv "RTRT_SPECIALIZE_OCAMLOPT" "")
          (fun () -> Specialize.make ~tier_b:true k sched)
      in
      Alcotest.(check bool)
        "did not reach codegen" true
        (r.Specialize.tier <> Specialize.Codegen);
      Alcotest.(check bool)
        "fallback counted" true
        (Rtrt_obs.Metrics.value fallbacks > before))

(* A cache directory that cannot be created — a path under a regular
   file, whether named by RTRT_PLAN_CACHE_DIR or by the temp dir — is a
   counted fallback, not an exception. *)
let test_unwritable_cache_fallback () =
  with_metrics (fun () ->
      let d = Datagen.Generators.foil ~scale:96 () in
      let k = Kernels.Irreg.of_dataset d in
      let rng = Datagen.Rng.create 13 in
      let sched = random_sched rng k in
      let fallbacks = Rtrt_obs.Metrics.counter "specialize.fallbacks" in
      let file = Filename.temp_file "rtrt-spec" ".notadir" in
      let saved_cache = Sys.getenv_opt "RTRT_PLAN_CACHE_DIR" in
      let saved_tmp = Filename.get_temp_dir_name () in
      let falls_back what =
        let before = Rtrt_obs.Metrics.value fallbacks in
        let r = Specialize.make ~tier_b:true k sched in
        Alcotest.(check bool)
          (what ^ ": did not reach codegen") true
          (r.Specialize.tier <> Specialize.Codegen);
        Alcotest.(check int)
          (what ^ ": fallback counted") (before + 1)
          (Rtrt_obs.Metrics.value fallbacks)
      in
      Fun.protect
        ~finally:(fun () ->
          Unix.putenv "RTRT_PLAN_CACHE_DIR" (Option.value saved_cache ~default:"");
          Filename.set_temp_dir_name saved_tmp;
          Sys.remove file)
        (fun () ->
          Unix.putenv "RTRT_PLAN_CACHE_DIR" (Filename.concat file "cache");
          falls_back "cache dir under a file";
          Unix.putenv "RTRT_PLAN_CACHE_DIR" "";
          Filename.set_temp_dir_name file;
          falls_back "temp dir is a file"))

(* Two processes specialize one schedule into one fresh cache directory
   at the same time ([Self_exec]): a writer exits 0 iff it reached the
   codegen tier, whose bitwise verification [make] runs before
   returning. *)
let writer_env = "RTRT_TEST_SPEC_WRITER"

let writer_input () =
  let k = Kernels.Irreg.of_dataset (Datagen.Generators.foil ~scale:128 ()) in
  (k, dealt_sched k)

let writer () =
  let k, sched = writer_input () in
  let r = Specialize.make ~tier_b:true k sched in
  if r.Specialize.tier = Specialize.Codegen then 0 else 1

let test_concurrent_writers () =
  if not (have_toolchain ()) then ()
  else begin
    let k, sched = writer_input () in
    let key = Specialize.schedule_key k sched in
    let root = Filename.temp_dir "rtrt-spec-writers" "" in
    let statuses =
      Self_exec.run_children 2
        [ (writer_env, "1"); ("RTRT_PLAN_CACHE_DIR", root) ]
    in
    let spec = Filename.concat root "spec" in
    let files = try Sys.readdir spec with Sys_error _ -> [||] in
    Array.iter (fun f -> Sys.remove (Filename.concat spec f)) files;
    (try Sys.rmdir spec with Sys_error _ -> ());
    Sys.rmdir root;
    List.iter
      (fun st ->
        Alcotest.(check bool)
          "writer reached codegen and verified" true (st = Unix.WEXITED 0))
      statuses;
    Alcotest.(check (list string))
      "spec dir holds one .cmxs and nothing else"
      [ Printf.sprintf "spec_irreg_%s.cmxs" key ]
      (Array.to_list files)
  end

(* A cached module cut short, or with one byte flipped, must fail its
   seal and be recompiled, never handed to Dynlink: Dynlink maps the
   file, so a truncated one kills the process that touches it
   (SIGBUS). Each child ([Self_exec]) finds one copy in a cache
   directory of its own; it exits 0 iff it reached the codegen tier
   (verified bitwise) by the route [expect] names: a fresh compile, or
   a [.cmxs] hit with no compile. *)
let loader_env = "RTRT_TEST_SPEC_LOADER"

let loader expect =
  let k, sched = writer_input () in
  let r = Specialize.make ~tier_b:true k sched in
  let hit = r.Specialize.cmxs_cache_hit && r.Specialize.compile_seconds = 0. in
  if r.Specialize.tier = Specialize.Codegen && hit = (expect = "hit") then 0
  else 1

let status_text = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED _ -> "killed by a signal"
  | Unix.WSTOPPED _ -> "stopped by a signal"

let test_damaged_cmxs () =
  if not (have_toolchain ()) then ()
  else begin
    let k, sched = writer_input () in
    let key = Specialize.schedule_key k sched in
    let name = Printf.sprintf "spec_irreg_%s.cmxs" key in
    (* Run one child over a fresh cache directory holding [contents]
       (none: empty) as the module; returns its exit status and the
       module the directory holds afterwards. *)
    let child ~expect contents =
      let root = Filename.temp_dir "rtrt-spec-damage" "" in
      let spec = Filename.concat root "spec" in
      let path = Filename.concat spec name in
      Unix.mkdir spec 0o755;
      Option.iter
        (fun c -> Out_channel.with_open_bin path (fun oc -> output_string oc c))
        contents;
      let status =
        match
          Self_exec.run_children 1
            [ (loader_env, expect); ("RTRT_PLAN_CACHE_DIR", root) ]
        with
        | [ st ] -> st
        | _ -> assert false
      in
      let left = In_channel.with_open_bin path In_channel.input_all in
      Array.iter (fun f -> Sys.remove (Filename.concat spec f)) (Sys.readdir spec);
      Sys.rmdir spec;
      Sys.rmdir root;
      (status, left)
    in
    let status, good = child ~expect:"compile" None in
    Alcotest.(check string) "first child compiled" "exited 0" (status_text status);
    let n = String.length good in
    let flipped = Bytes.of_string good in
    Bytes.set flipped (n / 2)
      (Char.chr (Char.code (Bytes.get flipped (n / 2)) lxor 0x5a));
    let damaged =
      List.filter_map
        (fun len ->
          if len < n then
            Some (Printf.sprintf "truncated to %d bytes" len, String.sub good 0 len)
          else None)
        [ 100; 4096; 8192; 20_000; n / 2; n - 1 ]
      @ [ ("one byte flipped", Bytes.to_string flipped) ]
    in
    List.iter
      (fun (what, contents) ->
        let status, rebuilt = child ~expect:"compile" (Some contents) in
        Alcotest.(check string)
          (what ^ ": rejected, recompiled, verified") "exited 0"
          (status_text status);
        Alcotest.(check bool)
          (what ^ ": replaced in the cache") true (rebuilt <> contents))
      damaged;
    let status, _ = child ~expect:"hit" (Some good) in
    Alcotest.(check string)
      "intact copy loads with no compile" "exited 0" (status_text status)
  end

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
  if Sys.getenv_opt writer_env = Some "1" then exit (writer ());
  Option.iter (fun expect -> exit (loader expect)) (Sys.getenv_opt loader_env);
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
      ( "tier-b",
        [
          Alcotest.test_case "codegen bitwise (pair kernels)" `Quick
            test_codegen_bitwise;
          Alcotest.test_case "source dump" `Quick test_codegen_source_dump;
          Alcotest.test_case "no-toolchain fallback" `Quick
            test_no_toolchain_fallback;
          Alcotest.test_case "unwritable cache dir fallback" `Quick
            test_unwritable_cache_fallback;
          Alcotest.test_case "concurrent writers, one key" `Quick
            test_concurrent_writers;
          Alcotest.test_case "damaged .cmxs recompiled, never loaded" `Quick
            test_damaged_cmxs;
        ] );
      ( "memos",
        [
          Alcotest.test_case "check_fits memo" `Quick test_check_fits_memo;
          Alcotest.test_case "coverage memo from construction" `Quick
            test_coverage_memo_from_construction;
        ] );
    ]
