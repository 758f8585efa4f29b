(* Tests for the plan autotuner: candidate-space validity, plan
   (de)serialization round trips, winner optimality against the
   hand-named suite, the tuned-winner store (including the disk tier),
   bit-identical replay of tuned winners through the plan cache, and
   the degenerate one-candidate space. *)

module A = Harness.Autotune
module Tuned = Rtrt_plancache.Tuned
module Cache = Rtrt_plancache.Cache
open Compose

let machine = Cachesim.Machine.pentium4

let test_kernel () =
  let d = Option.get (Datagen.Generators.by_name ~scale:512 "mol1") in
  Kernels.Moldyn.of_dataset d

(* A fresh empty directory under the system temp dir. *)
let fresh_dir () =
  let f = Filename.temp_file "rtrt_autotune" "" in
  Sys.remove f;
  f

(* ------------------------------------------------------------------ *)
(* Candidate space                                                     *)

let test_candidates_validate () =
  let space = Plan.candidates ~gpart_size:32 ~seed_part_size:24 in
  Alcotest.(check bool)
    "space is a real search space" true
    (List.length space >= 20);
  List.iter
    (fun p ->
      Alcotest.(check (result unit string))
        (Plan.name p ^ " validates") (Ok ()) (Plan.validate p))
    space;
  let names = List.map Plan.name space in
  Alcotest.(check int)
    "candidate names are unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  (* The hand-named standard suite is a subset of the space, so the
     winner can never lose to a named plan on the model. *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Plan.name p ^ " from the suite is in the space")
        true
        (List.mem (Plan.name p) names))
    (Plan.standard_suite ~gpart_size:32 ~seed_part_size:24)

let test_plan_string_roundtrip () =
  List.iter
    (fun p ->
      match A.plan_of_string (A.plan_to_string p) with
      | Error e -> Alcotest.failf "%s does not round-trip: %s" (Plan.name p) e
      | Ok p' ->
        Alcotest.(check string) "name survives" (Plan.name p) (Plan.name p');
        Alcotest.(check string)
          "transforms survive"
          (Fmt.str "%a" Plan.pp p)
          (Fmt.str "%a" Plan.pp p'))
    (Plan.candidates ~gpart_size:32 ~seed_part_size:24);
  match A.plan_of_string "{not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse"

(* ------------------------------------------------------------------ *)
(* Winner optimality                                                   *)

let test_winner_beats_named () =
  let kernel = test_kernel () in
  let r = A.tune ~machine kernel in
  Alcotest.(check (result unit string))
    "winner validates" (Ok ())
    (Plan.validate r.A.at_winner);
  Alcotest.(check bool) "fresh search" false r.A.at_cached;
  Alcotest.(check bool)
    "winner score is the minimum of the table" true
    (List.for_all (fun (_, s) -> r.A.at_winner_score_ns <= s) r.A.at_scores);
  (* Every hand-named suite plan was scored, and none beats the
     winner. *)
  List.iter
    (fun p ->
      match List.assoc_opt (Plan.name p) r.A.at_scores with
      | None -> Alcotest.failf "suite plan %s was not scored" (Plan.name p)
      | Some s ->
        Alcotest.(check bool)
          (Fmt.str "winner <= %s" (Plan.name p))
          true
          (r.A.at_winner_score_ns <= s))
    (Harness.Figures.suite_for ~machine kernel)

(* ------------------------------------------------------------------ *)
(* Tuned store and bit-identical replay                                *)

let test_tuned_store_roundtrip () =
  let kernel = test_kernel () in
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let tuned = Tuned.create ~dir () in
  let cold = A.tune ~cache ~tuned ~machine kernel in
  Alcotest.(check bool) "first tune searches" false cold.A.at_cached;
  let warm = A.tune ~cache ~tuned ~machine kernel in
  Alcotest.(check bool) "second tune is served" true warm.A.at_cached;
  Alcotest.(check string)
    "same winner"
    (Plan.name cold.A.at_winner)
    (Plan.name warm.A.at_winner);
  Alcotest.(check (float 0.0))
    "same score" cold.A.at_winner_score_ns warm.A.at_winner_score_ns;
  (* A fresh store over the same directory (a new process) still
     serves the winner from the disk tier. *)
  let reopened = A.tune ~cache ~tuned:(Tuned.create ~dir ()) ~machine kernel in
  Alcotest.(check bool) "disk tier serves" true reopened.A.at_cached;
  Alcotest.(check string)
    "disk tier winner"
    (Plan.name cold.A.at_winner)
    (Plan.name reopened.A.at_winner);
  (* The tuned winner replays bit-identically through the plan cache:
     a cache-hit inspection drives the same executor output as a cold
     one. *)
  let winner = warm.A.at_winner in
  let cold_r = Harness.Experiment.inspect winner kernel in
  let warm_r = Harness.Experiment.inspect ~cache winner kernel in
  let run (r : Inspector.result) =
    let k = r.Inspector.kernel.Kernels.Kernel.copy () in
    (match r.Inspector.schedule with
    | None -> k.Kernels.Kernel.run ~steps:2
    | Some sched -> k.Kernels.Kernel.run_tiled sched ~steps:2);
    k.Kernels.Kernel.snapshot ()
  in
  Alcotest.(check bool)
    "tuned winner replays bit-identically" true
    (Kernels.Kernel.snapshots_equal_bits (run cold_r) (run warm_r))

(* A tuned entry for a different machine must not be served. *)
let test_tuned_store_machine_keyed () =
  let kernel = test_kernel () in
  let tuned = Tuned.create () in
  let _ = A.tune ~tuned ~machine kernel in
  let other = A.tune ~tuned ~machine:Cachesim.Machine.power3 kernel in
  Alcotest.(check bool)
    "other machine searches afresh" false other.A.at_cached

(* Two writers in one process, each with its own store over one
   directory, store one key again and again: every write must land
   (no temp file shared between them), and a fresh store must hit. *)
let concurrent_key =
  let b = Rtrt_plancache.Fingerprint.create () in
  Rtrt_plancache.Fingerprint.add_string b "two-writers";
  Rtrt_plancache.Fingerprint.value b

let store_repeatedly dir =
  let entry =
    {
      Tuned.winner = "CL";
      winner_plan = "[]";
      winner_score_ns = 1.0;
      scores =
        List.init 512 (fun i ->
            ((if i = 0 then "CL" else Fmt.str "p%d" i), 1.0 +. float_of_int i));
      machine = "m";
    }
  in
  let tuned = Tuned.create ~dir () in
  for _ = 1 to 200 do
    Tuned.store tuned ~key:concurrent_key entry
  done;
  (Tuned.stats tuned).Tuned.disk_errors

let check_one_entry_left dir =
  let fresh = Tuned.create ~dir () in
  Alcotest.(check bool) "a fresh store hits" true
    (Tuned.find fresh ~key:concurrent_key ~machine:"m" <> None);
  Alcotest.(check int) "only the entry is left" 1
    (Array.length (Sys.readdir dir))

let test_tuned_concurrent_writers () =
  let dir = fresh_dir () in
  let other = Domain.spawn (fun () -> store_repeatedly dir) in
  let errors = store_repeatedly dir in
  Alcotest.(check (pair int int)) "no writer counts a disk error" (0, 0)
    (errors, Domain.join other);
  check_one_entry_left dir

(* The same across two processes ([Self_exec]): a writer exits 0 iff
   it counted no disk error. *)
let writer_env = "RTRT_TEST_TUNED_WRITER"

let test_tuned_concurrent_processes () =
  let dir = fresh_dir () in
  List.iter
    (fun status ->
      Alcotest.(check bool) "writer exited 0 with no disk error" true
        (status = Unix.WEXITED 0))
    (Self_exec.run_children 2 [ (writer_env, dir) ]);
  check_one_entry_left dir

(* A small real entry: a winning plan the harness can parse back. *)
let sample_entry =
  let plan = Plan.with_fst ~seed_part_size:24 Plan.cpack_lexgroup in
  {
    Tuned.winner = Plan.name plan;
    winner_plan = A.plan_to_string plan;
    winner_score_ns = 1.0;
    scores = [ ("CL", 2.0); (Plan.name plan, 1.0) ];
    machine = "m";
  }

let key_of name =
  let b = Rtrt_plancache.Fingerprint.create () in
  Rtrt_plancache.Fingerprint.add_string b name;
  Rtrt_plancache.Fingerprint.value b

let entry_path dir key =
  Filename.concat dir
    ("tuned-" ^ Rtrt_plancache.Fingerprint.to_hex key ^ ".json")

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* An entry copied under another key's file name names its own key
   inside: it is a counted disk error and a miss for the other key. *)
let test_tuned_copied_entry () =
  let dir = fresh_dir () in
  let k1 = key_of "one" and k2 = key_of "two" in
  Tuned.store (Tuned.create ~dir ()) ~key:k1 sample_entry;
  let contents = In_channel.with_open_bin (entry_path dir k1) In_channel.input_all in
  Out_channel.with_open_bin (entry_path dir k2) (fun oc ->
      output_string oc contents);
  let fresh = Tuned.create ~dir () in
  Alcotest.(check bool) "copied entry is a miss" true
    (Tuned.find fresh ~key:k2 ~machine:"m" = None);
  let st = Tuned.stats fresh in
  Alcotest.(check (pair int int)) "one disk error, no disk hit" (1, 0)
    (st.Tuned.disk_errors, st.Tuned.disk_hits);
  Alcotest.(check bool) "the original still hits" true
    (Tuned.find fresh ~key:k1 ~machine:"m" <> None);
  remove_dir dir

(* The reader under damage: byte flips, truncations and appends to a
   stored entry. [find] never raises; a miss counts exactly one disk
   error; a hit's winner is in its score table and its plan parses. *)
type damage = Flip of int * int | Truncate of int | Append of string

let prop_tuned_reader_fuzz =
  let key = key_of "fuzz" in
  let stored =
    let dir = fresh_dir () in
    Tuned.store (Tuned.create ~dir ()) ~key sample_entry;
    let s = In_channel.with_open_bin (entry_path dir key) In_channel.input_all in
    remove_dir dir;
    s
  in
  let n = String.length stored in
  let gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun i m -> Flip (i, m)) (int_bound (n - 1)) (int_range 1 255);
          map (fun len -> Truncate len) (int_bound (n - 1));
          map (fun s -> Append s) (string_size ~gen:char (int_range 1 16));
        ])
  in
  let print = function
    | Flip (i, m) -> Printf.sprintf "flip byte %d by 0x%02x" i m
    | Truncate len -> Printf.sprintf "truncate to %d bytes" len
    | Append s -> Printf.sprintf "append %S" s
  in
  QCheck.Test.make ~name:"tuned reader: damaged entry -> miss or valid hit"
    ~count:300 (QCheck.make ~print gen) (fun d ->
      let damaged =
        match d with
        | Flip (i, m) ->
          let b = Bytes.of_string stored in
          Bytes.set b i (Char.chr (Char.code stored.[i] lxor m));
          Bytes.to_string b
        | Truncate len -> String.sub stored 0 len
        | Append s -> stored ^ s
      in
      let dir = fresh_dir () in
      Sys.mkdir dir 0o755;
      Out_channel.with_open_bin (entry_path dir key) (fun oc ->
          output_string oc damaged);
      let t = Tuned.create ~dir () in
      let found = try Ok (Tuned.find t ~key ~machine:"m") with e -> Error e in
      remove_dir dir;
      match found with
      | Error e ->
        QCheck.Test.fail_reportf "find raised %s" (Printexc.to_string e)
      | Ok None -> (Tuned.stats t).Tuned.disk_errors = 1
      | Ok (Some e) ->
        List.mem_assoc e.Tuned.winner e.Tuned.scores
        && Result.is_ok (A.plan_of_string e.Tuned.winner_plan))

(* ------------------------------------------------------------------ *)
(* Degenerate spaces                                                   *)

let test_single_candidate () =
  let kernel = test_kernel () in
  let only = Plan.cpack_lexgroup in
  let r = A.tune ~candidates:[ only ] ~machine kernel in
  Alcotest.(check string)
    "one-candidate space degenerates to it" (Plan.name only)
    (Plan.name r.A.at_winner);
  Alcotest.(check int) "one score" 1 (List.length r.A.at_scores)

let test_bad_spaces_rejected () =
  let kernel = test_kernel () in
  (match A.tune ~candidates:[] ~machine kernel with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty space must be rejected");
  let invalid =
    Plan.with_fst ~seed_part_size:8 (Plan.with_fst ~seed_part_size:8 Plan.base)
  in
  match A.tune ~candidates:[ invalid ] ~machine kernel with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid candidate must be rejected"

let () =
  (match Sys.getenv_opt writer_env with
  | Some dir -> exit (if store_repeatedly dir = 0 then 0 else 1)
  | None -> ());
  Alcotest.run "autotune"
    [
      ( "space",
        [
          Alcotest.test_case "candidates validate" `Quick
            test_candidates_validate;
          Alcotest.test_case "plan string round trip" `Quick
            test_plan_string_roundtrip;
        ] );
      ( "tune",
        [
          Alcotest.test_case "winner beats every named plan" `Slow
            test_winner_beats_named;
          Alcotest.test_case "tuned store round trip + replay" `Slow
            test_tuned_store_roundtrip;
          Alcotest.test_case "tuned store keyed by machine" `Slow
            test_tuned_store_machine_keyed;
          Alcotest.test_case "tuned store: two writers, one key" `Quick
            test_tuned_concurrent_writers;
          Alcotest.test_case "tuned store: two writer processes, one key"
            `Quick test_tuned_concurrent_processes;
          Alcotest.test_case "tuned store: entry copied under another key"
            `Quick test_tuned_copied_entry;
          QCheck_alcotest.to_alcotest prop_tuned_reader_fuzz;
          Alcotest.test_case "single-candidate space" `Quick
            test_single_candidate;
          Alcotest.test_case "bad spaces rejected" `Quick
            test_bad_spaces_rejected;
        ] );
    ]
