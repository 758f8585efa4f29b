(* Tests for the plan autotuner: candidate-space validity, winner
   optimality against the hand-named suite, the tuned-winner store
   (including the disk tier and files of an older format), and
   bit-identical replay of tuned winners through the plan cache. *)

module A = Harness.Autotune
module Tuned = Rtrt_plancache.Tuned
module Cache = Rtrt_plancache.Cache
module J = Rtrt_obs.Json
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

(* The score is the cache model alone: every candidate's entry is its
   modeled cycles per step (one warm-up step, two counted) on the
   machine's clock. No pool width enters a score, so none needs to be
   in the tuned key. *)
let test_scores_are_the_cache_model () =
  let kernel = test_kernel () in
  let space = A.candidates_for ~machine kernel in
  let r = A.tune ~machine kernel in
  Alcotest.(check (list string))
    "one score per candidate, in space order"
    (List.map Plan.name space)
    (List.map fst r.A.at_scores);
  List.iter2
    (fun plan (name, score) ->
      let result = Harness.Experiment.inspect plan kernel in
      let cycles, _, _, _ =
        Harness.Experiment.trace_steps result ~machine ~warmup:1 ~steps:2
      in
      Alcotest.(check (float 0.0))
        (name ^ " scores its modeled ns per step")
        (Cachesim.Machine.ns_of_cycles machine cycles)
        score)
    space r.A.at_scores

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
  (* [Plan.pp] prints the name and the transform list. *)
  Alcotest.(check string)
    "same winner and transforms"
    (Fmt.str "%a" Plan.pp cold.A.at_winner)
    (Fmt.str "%a" Plan.pp warm.A.at_winner);
  Alcotest.(check (float 0.0))
    "same score" cold.A.at_winner_score_ns warm.A.at_winner_score_ns;
  (* A fresh store over the same directory (a new process) still
     serves the winner from the disk tier. *)
  let reopened = A.tune ~cache ~tuned:(Tuned.create ~dir ()) ~machine kernel in
  Alcotest.(check bool) "disk tier serves" true reopened.A.at_cached;
  Alcotest.(check string)
    "disk tier winner and transforms"
    (Fmt.str "%a" Plan.pp cold.A.at_winner)
    (Fmt.str "%a" Plan.pp reopened.A.at_winner);
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

(* A small real entry: a candidate's name wins its score table. *)
let sample_entry =
  let plan = Plan.with_fst ~seed_part_size:24 Plan.cpack_lexgroup in
  {
    Tuned.winner = Plan.name plan;
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

(* The layout known answer, the twin of test_plancache's: the
   fingerprint of the file bytes [Tuned.store] writes for
   [sample_entry]. The file is a storage format, so this constant was
   recorded once, with the v3 codec, and is never re-recorded to make a
   test pass: a change to the layout bumps the format version
   instead. *)
let test_tuned_layout_known_answer () =
  let dir = fresh_dir () in
  let key = key_of "one" in
  Tuned.store (Tuned.create ~dir ()) ~key sample_entry;
  let b = Rtrt_plancache.Fingerprint.create () in
  Rtrt_plancache.Fingerprint.add_string b
    (In_channel.with_open_bin (entry_path dir key) In_channel.input_all);
  Alcotest.(check string) "file bytes" "bd8242b6e9c3432e"
    (Rtrt_plancache.Fingerprint.to_hex (Rtrt_plancache.Fingerprint.value b));
  Alcotest.(check bool) "reads back equal" true
    (Tuned.find (Tuned.create ~dir ()) ~key ~machine:"m" = Some sample_entry);
  remove_dir dir

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

(* Rewrite the entry file at [path]: [f] edits its fields, checksum
   left out, and the result is sealed with a fresh checksum the way
   the writer seals one, so the reader must judge it by its values. *)
let rewrite_entry path f =
  let fields =
    match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok (J.Obj fields) -> f (List.remove_assoc "checksum" fields)
    | _ -> Alcotest.fail "stored entry is not a JSON object"
  in
  let s = J.to_string (J.Obj fields) in
  let sum =
    Rtrt_plancache.Fingerprint.checksum (Bytes.of_string s) (String.length s)
  in
  Out_channel.with_open_bin path (fun oc ->
      let sum = ("checksum", J.String (Printf.sprintf "%016Lx" sum)) in
      output_string oc (J.to_string (J.Obj (fields @ [ sum ])));
      output_char oc '\n')

(* A file of format v2, which also stored the winning plan serialized,
   is one counted disk miss; the next store rewrites it as v3. *)
let test_tuned_v2_entry () =
  let dir = fresh_dir () in
  let key = key_of "v2" in
  let path = entry_path dir key in
  Tuned.store (Tuned.create ~dir ()) ~key sample_entry;
  rewrite_entry path
    (List.concat_map (function
      | "version", _ -> [ ("version", J.Int 2) ]
      | ("winner", _) as w ->
        [
          w;
          ( "winner_plan",
            J.String
              {|{"name":"CL+FST","transforms":[{"t":"cpack"},{"t":"lexgroup"},{"t":"sparse_tile","growth":"full","seed":"block","part_size":24},{"t":"tilepack"}]}|}
          );
        ]
      | field -> [ field ]));
  let fresh = Tuned.create ~dir () in
  Alcotest.(check bool) "a v2 entry is a miss" true
    (Tuned.find fresh ~key ~machine:"m" = None);
  let st = Tuned.stats fresh in
  Alcotest.(check (triple int int int)) "one miss, one disk error, no hit"
    (1, 1, 0) (st.Tuned.misses, st.Tuned.disk_errors, st.Tuned.hits);
  Tuned.store fresh ~key sample_entry;
  let version =
    match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> Option.bind (J.member "version" j) J.to_int_opt
    | Error _ -> None
  in
  Alcotest.(check (option int)) "rewritten as v3" (Some 3) version;
  Alcotest.(check bool) "the rewritten entry hits" true
    (Tuned.find (Tuned.create ~dir ()) ~key ~machine:"m" = Some sample_entry);
  remove_dir dir

(* A stored winner that names no plan of the space is searched afresh,
   and the search's winner is stored over it. *)
let test_tuned_unknown_winner () =
  let kernel = test_kernel () in
  let dir = fresh_dir () in
  let cold = A.tune ~tuned:(Tuned.create ~dir ()) ~machine kernel in
  let path = Filename.concat dir ("tuned-" ^ cold.A.at_key_hex ^ ".json") in
  let nope = J.Obj [ ("name", J.String "nope"); ("score_ns", J.Float 0.0) ] in
  rewrite_entry path
    (List.map (function
      | "winner", _ -> ("winner", J.String "nope")
      | "scores", J.List ss -> ("scores", J.List (nope :: ss))
      | field -> field));
  let again = A.tune ~tuned:(Tuned.create ~dir ()) ~machine kernel in
  Alcotest.(check bool) "searched afresh" false again.A.at_cached;
  let served = A.tune ~tuned:(Tuned.create ~dir ()) ~machine kernel in
  Alcotest.(check bool) "the new winner is served" true served.A.at_cached;
  Alcotest.(check string) "the search's winner"
    (Plan.name cold.A.at_winner) (Plan.name served.A.at_winner);
  remove_dir dir

(* The reader under damage: byte flips, truncations and appends to a
   stored entry. [find] never raises; a miss counts exactly one disk
   error; a hit is the stored entry, every v3 field of it. *)
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
      | Ok (Some e) -> e = sample_entry)

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
        ] );
      ( "tune",
        [
          Alcotest.test_case "winner beats every named plan" `Slow
            test_winner_beats_named;
          Alcotest.test_case "scores are the cache model" `Slow
            test_scores_are_the_cache_model;
          Alcotest.test_case "tuned store round trip + replay" `Slow
            test_tuned_store_roundtrip;
          Alcotest.test_case "tuned store keyed by machine" `Slow
            test_tuned_store_machine_keyed;
          Alcotest.test_case "tuned store: two writers, one key" `Quick
            test_tuned_concurrent_writers;
          Alcotest.test_case "tuned store: two writer processes, one key"
            `Quick test_tuned_concurrent_processes;
          Alcotest.test_case "tuned store: layout known answer" `Quick
            test_tuned_layout_known_answer;
          Alcotest.test_case "tuned store: entry copied under another key"
            `Quick test_tuned_copied_entry;
          Alcotest.test_case "tuned store: v2 entry is a miss, rewritten"
            `Quick test_tuned_v2_entry;
          Alcotest.test_case "tuned store: winner not in the space" `Slow
            test_tuned_unknown_winner;
          QCheck_alcotest.to_alcotest prop_tuned_reader_fuzz;
        ] );
    ]
