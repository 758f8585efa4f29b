(* Tests for the plan-cache subsystem: fingerprint stability,
   sensitivity and known answers, memory-tier hit/miss accounting,
   bit-identical warm replay (the headline guarantee), the on-disk tier
   (its v5 byte layout and checksum, corruption recovery and fuzzing,
   writers in two domains and two processes), LRU eviction, metrics
   visibility, and the Experiment.measure integration. *)

module F = Rtrt_plancache.Fingerprint
module Cache = Rtrt_plancache.Cache
open Compose

let with_memory_sink f =
  let sink, events = Rtrt_obs.Sink.memory () in
  Rtrt_obs.set_sink sink;
  Fun.protect ~finally:Rtrt_obs.disable f;
  events ()

let test_kernel ?(name = "moldyn") () =
  let scale = 512 in
  let d =
    match name with
    | "moldyn" -> Datagen.Generators.mol1 ~scale ()
    | _ -> Datagen.Generators.foil ~scale ()
  in
  (Option.get (Kernels.by_name name)) d

let tiled_plan = Plan.with_fst ~seed_part_size:24 Plan.cpack_lexgroup

(* A fresh empty directory under the system temp dir. *)
let fresh_dir () =
  let f = Filename.temp_file "rtrt_plancache" "" in
  Sys.remove f;
  f

let made_dir () =
  let d = fresh_dir () in
  Unix.mkdir d 0o755;
  d

let key_of_string s =
  let b = F.create () in
  F.add_string b s;
  F.value b

let dummy_entry n =
  {
    Cache.sigma_total = Reorder.Perm.id n;
    delta_total = Reorder.Perm.id n;
    schedule = None;
    reordering_fns = [];
    n_data_remaps = 0;
    cold_inspector_seconds = 0.5;
  }

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)

let test_fingerprint_stable () =
  let kernel = test_kernel () in
  let a = Inspector.fingerprint tiled_plan kernel in
  let b = Inspector.fingerprint tiled_plan kernel in
  Alcotest.(check bool) "same inputs, same key" true (F.equal a b);
  Alcotest.(check string) "same hex" (F.to_hex a) (F.to_hex b);
  Alcotest.(check int) "hex is 16 chars" 16 (String.length (F.to_hex a))

let test_fingerprint_sensitive () =
  let kernel = test_kernel () in
  let base = Inspector.fingerprint tiled_plan kernel in
  let distinct =
    [
      ("plan", Inspector.fingerprint Plan.cpack_lexgroup kernel);
      ( "plan parameter",
        Inspector.fingerprint
          (Plan.with_fst ~seed_part_size:32 Plan.cpack_lexgroup)
          kernel );
      ( "strategy",
        Inspector.fingerprint ~strategy:Inspector.Remap_each tiled_plan kernel
      );
      ( "symmetric-deps flag",
        Inspector.fingerprint ~share_symmetric_deps:false tiled_plan kernel );
      ("kernel", Inspector.fingerprint tiled_plan (test_kernel ~name:"irreg" ()));
      (* Content addressing: a pre-churn entry cannot replay against
         the churned kernel, whose key differs. *)
      ( "churned access of the same shape",
        let d = Datagen.Generators.mol1 ~scale:512 () in
        let churned, _ =
          Datagen.Churn.rewire ~rng:(Datagen.Rng.create 7) ~fraction:0.05 d
        in
        Inspector.fingerprint tiled_plan (Kernels.Moldyn.of_dataset churned)
      );
    ]
  in
  List.iter
    (fun (what, k) ->
      Alcotest.(check bool) (what ^ " changes the key") false (F.equal base k))
    distinct

let test_fingerprint_ignores_plan_name () =
  let kernel = test_kernel () in
  let renamed = Plan.make ~name:"other-name" (Plan.transforms tiled_plan) in
  Alcotest.(check bool) "same transforms, same key" true
    (F.equal
       (Inspector.fingerprint tiled_plan kernel)
       (Inspector.fingerprint renamed kernel))

(* Known answers. A fingerprint names files on disk (plan-cache
   entries, Tuned winners, Tier B .cmxs), so its values are a storage
   format: these constants were recorded once and are never
   re-recorded to make a test pass. The running value is pinned after
   every ingredient, so a failure names the first [add_*] whose bytes
   changed. *)
let quiet_nan = Int64.float_of_bits 0x7ff8000000000001L

let known_answers =
  [
    ("int 0", (fun b -> F.add_int b 0), "529a2cdc8ff533ac");
    ("int -1", (fun b -> F.add_int b (-1)), "45e2cba39aaeda4f");
    ("int max_int", (fun b -> F.add_int b max_int), "3025e51334ff7f82");
    ("int min_int", (fun b -> F.add_int b min_int), "00871e5be44b1279");
    ("bool false", (fun b -> F.add_bool b false), "431522bc465f06b3");
    ("bool true", (fun b -> F.add_bool b true), "b265944b958903a6");
    ("empty string", (fun b -> F.add_string b ""), "d443e9c657edd33f");
    ( "high-byte string",
      (fun b -> F.add_string b "caf\xc3\xa9\x80\xff"),
      "ba8bbd4a24b8f44e" );
    ( "empty int array",
      (fun b -> F.add_int_array b [||]),
      "410aa12a30fd3d7e" );
    ( "mixed-sign int array",
      (fun b -> F.add_int_array b [| 3; -7; max_int; min_int; 0; -1 |]),
      "bb2ea2e9dcca6935" );
    ("float 0.", (fun b -> F.add_float b 0.), "71abce88eaf9ee90");
    ("float -0.", (fun b -> F.add_float b (-0.)), "a023635e4572bc8f");
    ("float nan", (fun b -> F.add_float b quiet_nan), "edf85eeba7ff0b36");
    ("float infinity", (fun b -> F.add_float b infinity), "4cf55a59c4783ad4");
    ("float 1e-300", (fun b -> F.add_float b 1e-300), "e181faf418498352");
  ]

let test_fingerprint_known_answers () =
  let b = F.create () in
  List.iter
    (fun (what, add, hex) ->
      add b;
      Alcotest.(check string) ("after " ^ what) hex (F.to_hex (F.value b)))
    known_answers

(* The keys built from those ingredients, for one fixed kernel and
   plan: the cold inspection key and the Tier B schedule key. *)
let key_plan = Plan.with_fst ~seed_part_size:64 Plan.cpack_lexgroup

let test_keys_known_answers () =
  let kernel = test_kernel () in
  Alcotest.(check string) "Inspector.fingerprint" "85d1db3321f7c117"
    (F.to_hex (Inspector.fingerprint key_plan kernel))

(* Hashing folds bytes into an unboxed local and writes the builder
   once per call, so it allocates a few words per call, never per
   byte. A count rather than a timer: no machine noise can hide a
   boxing regression. *)
let test_fingerprint_allocation () =
  let a = Array.init 100_000 (fun i -> (i * 7919) - 50_000) in
  let b = F.create () in
  let before = Gc.minor_words () in
  F.add_int_array b a;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Fmt.str "hashing 100,000 ints allocated %.0f minor words (< 1,000)" words)
    true (words < 1000.)

(* The builder against the format written out byte by byte: each
   ingredient is a type tag, then int64 little-endian values (lengths
   first for strings and arrays), and the key is 64-bit FNV-1a over
   the whole stream. *)
type ingredient =
  | Int of int
  | Bool of bool
  | Str of string
  | Ints of int array
  | Float of float

let reference_stream ingredients =
  let buf = Buffer.create 256 in
  let int n = Buffer.add_int64_le buf (Int64.of_int n) in
  List.iter
    (function
      | Int n ->
        Buffer.add_uint8 buf 0x01;
        int n
      | Bool v ->
        Buffer.add_uint8 buf 0x02;
        Buffer.add_uint8 buf (Bool.to_int v)
      | Str s ->
        Buffer.add_uint8 buf 0x03;
        int (String.length s);
        Buffer.add_string buf s
      | Ints a ->
        Buffer.add_uint8 buf 0x04;
        int (Array.length a);
        Array.iter int a
      | Float f ->
        Buffer.add_uint8 buf 0x05;
        Buffer.add_int64_le buf (Int64.bits_of_float f))
    ingredients;
  Buffer.contents buf

let fnv1a_64 s =
  String.fold_left
    (fun h c ->
      Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
    0xcbf29ce484222325L s

(* The v5 entry checksum, written out from its definition: four FNV-1a
   lanes over the little-endian 32-bit words (lane i takes words i,
   i + 4, ...), then the byte-serial FNV-1a over the four lane values
   (eight little-endian bytes each) and the bytes after the last whole
   word. *)
let lane_checksum s =
  let lanes = Array.make 4 0xcbf29ce484222325L in
  let words = String.length s / 4 in
  for w = 0 to words - 1 do
    let v = Int64.of_int32 (String.get_int32_le s (4 * w)) in
    let v = Int64.logand v 0xffff_ffffL in
    lanes.(w mod 4) <- Int64.mul (Int64.logxor lanes.(w mod 4) v) 0x100000001b3L
  done;
  let folded = Buffer.create 40 in
  Array.iter (Buffer.add_int64_le folded) lanes;
  Buffer.add_string folded (String.sub s (4 * words) (String.length s - (4 * words)));
  fnv1a_64 (Buffer.contents folded)

let build ingredients =
  let b = F.create () in
  List.iter
    (function
      | Int n -> F.add_int b n
      | Bool v -> F.add_bool b v
      | Str s -> F.add_string b s
      | Ints a -> F.add_int_array b a
      | Float f -> F.add_float b f)
    ingredients;
  F.value b

let arb_ingredients =
  let open QCheck.Gen in
  let any_int = oneof [ int; small_signed_int; oneofl [ max_int; min_int ] ] in
  let ingredient =
    oneof
      [
        map (fun n -> Int n) any_int;
        map (fun v -> Bool v) bool;
        map (fun s -> Str s) (string_size ~gen:char (int_bound 40));
        map (fun a -> Ints a) (array_size (int_bound 40) any_int);
        map (fun v -> Float (Int64.float_of_bits v)) int64;
      ]
  in
  QCheck.make (list_size (int_bound 12) ingredient)

let prop_builder_is_fnv1a =
  QCheck.Test.make ~name:"builder = byte-at-a-time FNV-1a" ~count:300
    arb_ingredients (fun ingredients ->
      String.equal
        (F.to_hex (build ingredients))
        (Printf.sprintf "%016Lx" (fnv1a_64 (reference_stream ingredients))))

(* The hash folds a run of zero bytes into one multiply by a power of
   the prime, and the checksum reads eight bytes at a time: for any int
   (the high bytes of a small non-negative one are the zero run) and
   any prefix of any buffer, the value is still the byte-serial
   FNV-1a's. *)
let arb_int_and_buffer =
  let open QCheck.Gen in
  let any_int =
    oneof
      [
        int;
        small_signed_int;
        oneofl [ 0; -1; max_int; min_int ];
        map (fun b -> 1 lsl b) (int_bound 62);
      ]
  in
  let byte = oneof [ char; return '\000' ] in
  QCheck.make
    ~print:(fun (n, s, len) -> Printf.sprintf "%d, %S, %d" n s len)
    (let* n = any_int in
     let* s = string_size ~gen:byte (int_bound 80) in
     let* len = int_bound (String.length s) in
     return (n, s, len))

let prop_hash_is_byte_serial =
  QCheck.Test.make ~name:"int hash and checksum = byte-serial FNV-1a"
    ~count:1000 arb_int_and_buffer (fun (n, s, len) ->
      String.equal
        (F.to_hex (build [ Int n ]))
        (Printf.sprintf "%016Lx" (fnv1a_64 (reference_stream [ Int n ])))
      && Int64.equal
           (F.checksum (Bytes.of_string s) len)
           (fnv1a_64 (String.sub s 0 len)))

(* The library's lane checksum is the reference's, for any prefix of
   any buffer, also fed in whole-block pieces before the seal (as the
   entry writer feeds its chunk). *)
let prop_lane_checksum_is_reference =
  QCheck.Test.make ~name:"lane checksum = reference, fed in any pieces"
    ~count:1000
    QCheck.(
      make
        ~print:(fun (s, len, cut) -> Printf.sprintf "%S, %d, %d" s len cut)
        Gen.(
          let* s = string_size ~gen:char (int_bound 200) in
          let* len = int_bound (String.length s) in
          let* cut = int_bound (len / 16) in
          return (s, len, cut)))
    (fun (s, len, cut) ->
      let b = Bytes.of_string s in
      let t = F.lanes () in
      F.feed t b 0 (16 * cut);
      let pieces = F.seal t b (16 * cut) (len - (16 * cut)) in
      let want = lane_checksum (String.sub s 0 len) in
      Int64.equal (F.lane_checksum b len) want && Int64.equal pieces want)

(* Every single-bit flip of a buffer changes its checksum: a flipped
   word changes its lane (each lane step is a bijection of the lane
   and of the word), and a flipped tail byte changes the fold. *)
let prop_bit_flip_changes_lane_checksum =
  QCheck.Test.make ~name:"every single-bit flip changes the lane checksum"
    ~count:300
    QCheck.(
      make
        ~print:(fun (s, bit) -> Printf.sprintf "%S, bit %d" s bit)
        Gen.(
          let* s = string_size ~gen:char (int_range 1 120) in
          let* bit = int_bound ((8 * String.length s) - 1) in
          return (s, bit)))
    (fun (s, bit) ->
      let b = Bytes.of_string s in
      let len = Bytes.length b in
      let before = F.lane_checksum b len in
      Bytes.set_uint8 b (bit / 8) (Bytes.get_uint8 b (bit / 8) lxor (1 lsl (bit mod 8)));
      not (Int64.equal before (F.lane_checksum b len)))

(* ------------------------------------------------------------------ *)
(* Memory tier: hit/miss and bit-identical replay                      *)

let check_results_identical label (cold : Inspector.result)
    (warm : Inspector.result) =
  Alcotest.(check bool) (label ^ ": sigma identical") true
    (Reorder.Perm.equal cold.Inspector.sigma_total warm.Inspector.sigma_total);
  Alcotest.(check bool) (label ^ ": delta identical") true
    (Reorder.Perm.equal cold.Inspector.delta_total warm.Inspector.delta_total);
  Alcotest.(check bool) (label ^ ": schedule identical") true
    (match (cold.Inspector.schedule, warm.Inspector.schedule) with
    | None, None -> true
    | Some a, Some b -> Reorder.Schedule.equal a b
    | _ -> false);
  List.iter2
    (fun (n1, p1) (n2, p2) ->
      Alcotest.(check string) (label ^ ": fn name") n1 n2;
      Alcotest.(check bool) (label ^ ": fn perm") true (Reorder.Perm.equal p1 p2))
    cold.Inspector.reordering_fns warm.Inspector.reordering_fns;
  Alcotest.(check bool) (label ^ ": transformed kernel bit-identical") true
    (Kernels.Kernel.snapshots_equal_bits
       (cold.Inspector.kernel.Kernels.Kernel.snapshot ())
       (warm.Inspector.kernel.Kernels.Kernel.snapshot ()));
  (* And the executors driven by the two results stay bit-identical. *)
  let run (r : Inspector.result) =
    let k = r.Inspector.kernel.Kernels.Kernel.copy () in
    (match r.Inspector.schedule with
    | None -> k.Kernels.Kernel.run ~steps:2
    | Some sched -> k.Kernels.Kernel.run_tiled sched ~steps:2);
    k.Kernels.Kernel.snapshot ()
  in
  Alcotest.(check bool) (label ^ ": executor output bit-identical") true
    (Kernels.Kernel.snapshots_equal_bits (run cold) (run warm))

let test_memory_hit_roundtrip () =
  let kernel = test_kernel () in
  let cache = Cache.create () in
  let cold = Inspector.run ~cache tiled_plan kernel in
  let s1 = Cache.stats cache in
  Alcotest.(check int) "first run misses" 1 s1.Cache.misses;
  Alcotest.(check int) "first run stores" 1 s1.Cache.stores;
  Alcotest.(check int) "no hit yet" 0 s1.Cache.hits;
  let warm = Inspector.run ~cache tiled_plan kernel in
  let s2 = Cache.stats cache in
  Alcotest.(check int) "second run hits" 1 s2.Cache.hits;
  Alcotest.(check int) "no new miss" 1 s2.Cache.misses;
  check_results_identical "memory tier" cold warm;
  (* The replay performed at most the one final remap. *)
  Alcotest.(check bool) "replay remaps at most once" true
    (warm.Inspector.n_data_remaps <= 1)

let test_cache_isolation () =
  (* A warm result must not alias cached state: mutating its kernel
     must not corrupt later replays. *)
  let kernel = test_kernel () in
  let cache = Cache.create () in
  let cold = Inspector.run ~cache tiled_plan kernel in
  let warm1 = Inspector.run ~cache tiled_plan kernel in
  warm1.Inspector.kernel.Kernels.Kernel.run ~steps:3;
  let warm2 = Inspector.run ~cache tiled_plan kernel in
  check_results_identical "after mutation" cold warm2

(* A warm replay and a cold run of each strategy must share no array
   with the caller's kernel, although only [Remap_each] copies it
   first, and stepping the result must leave that kernel untouched:
   under a plan that reorders data, and under one whose composed sigma
   is the identity (whose node arrays only the final rebuild writes
   afresh). *)
let test_replay_aliases_nothing () =
  let shares_an_array (a : Kernels.Kernel.t) (b : Kernels.Kernel.t) =
    let ia, fa = a.Kernels.Kernel.exec_arrays ()
    and ib, fb = b.Kernels.Kernel.exec_arrays () in
    Array.exists (fun x -> Array.exists (( == ) x) ib) ia
    || Array.exists (fun x -> Array.exists (( == ) x) fb) fa
  in
  List.iter
    (fun (label, plan, sigma_is_id) ->
      let warm kernel =
        let cache = Cache.create () in
        ignore (Inspector.run ~cache plan kernel);
        let r = Inspector.run ~cache plan kernel in
        Alcotest.(check int) (label ^ ": replayed") 1
          (Cache.stats cache).Cache.hits;
        r
      in
      let cold strategy kernel = Inspector.run ~strategy plan kernel in
      List.iter
        (fun (how, run) ->
          let label = label ^ ", " ^ how in
          let kernel = test_kernel () in
          let before = kernel.Kernels.Kernel.snapshot () in
          let r = run kernel in
          Alcotest.(check bool) (label ^ ": sigma is the identity") sigma_is_id
            (Reorder.Perm.is_id r.Inspector.sigma_total);
          let k = r.Inspector.kernel in
          Alcotest.(check bool) (label ^ ": no array shared") false
            (shares_an_array kernel k);
          let stepped = k.Kernels.Kernel.snapshot () in
          k.Kernels.Kernel.run_tiled (Option.get r.Inspector.schedule) ~steps:2;
          Alcotest.(check bool) (label ^ ": the step wrote node data") false
            (Kernels.Kernel.snapshots_equal_bits stepped
               (k.Kernels.Kernel.snapshot ()));
          Alcotest.(check bool) (label ^ ": caller's kernel bit-identical") true
            (Kernels.Kernel.snapshots_equal_bits before
               (kernel.Kernels.Kernel.snapshot ())))
        [
          ("warm replay", warm);
          ("cold Remap_each", cold Inspector.Remap_each);
          ("cold Remap_once", cold Inspector.Remap_once);
        ])
    [
      ("CL+FST", key_plan, false);
      ( "FST without tilePack",
        Plan.with_fst ~tile_pack:false ~seed_part_size:64 Plan.base,
        true );
    ]

let test_validation_rejects_shape_mismatch () =
  (* An entry stored for one kernel shape must not serve another, even
     under a colliding key. *)
  let cache = Cache.create () in
  let key = key_of_string "shape" in
  Cache.store cache ~key (dummy_entry 8);
  Alcotest.(check bool) "matching shape hits" true
    (Cache.find cache ~key ~n_data:8 ~n_iter:8 ~loop_sizes:[| 8 |] <> None);
  Alcotest.(check bool) "mismatched shape misses" true
    (Cache.find cache ~key ~n_data:9 ~n_iter:8 ~loop_sizes:[| 8 |] = None)

let test_lru_eviction () =
  let cache = Cache.create ~mem_budget_bytes:1 () in
  Cache.store cache ~key:(key_of_string "a") (dummy_entry 16);
  Cache.store cache ~key:(key_of_string "b") (dummy_entry 16);
  let s = Cache.stats cache in
  Alcotest.(check int) "one entry resident" 1 s.Cache.entries;
  Alcotest.(check bool) "evicted at least once" true (s.Cache.evictions >= 1);
  Alcotest.(check bool) "older key evicted" true
    (Cache.peek cache ~key:(key_of_string "a") = None);
  Alcotest.(check bool) "newer key resident" true
    (Cache.peek cache ~key:(key_of_string "b") <> None)

(* ------------------------------------------------------------------ *)
(* Disk tier                                                           *)

(* When RTRT_PLAN_CACHE_DIR is set (the CI cold/warm leg), the test
   reuses it so a second `dune runtest` in the same job starts from
   populated files and exercises the load-validate path for real. *)
let disk_dir () =
  match Cache.dir_from_env () with
  | Some d -> Filename.concat d "test-disk-tier"
  | None -> fresh_dir ()

let entry_file dir key = Filename.concat dir (F.to_hex key ^ ".plan")
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* The file with its checksum recomputed over the bytes before it, by
   the reference [lane_checksum] (v5), or by the byte-serial FNV-1a
   with [~v4:true], which is how a version-4 file was sealed. *)
let reseal ?(v4 = false) contents =
  let n = String.length contents - 8 in
  let b = Bytes.of_string contents in
  let body = String.sub contents 0 n in
  Bytes.set_int64_le b n (if v4 then fnv1a_64 body else lane_checksum body);
  Bytes.to_string b

(* When the directory comes from RTRT_PLAN_CACHE_DIR and already holds
   the entry, a previous process wrote it (the CI warm leg): the first
   run must then load it from disk, not re-inspect and re-store. *)
let test_disk_roundtrip () =
  let kernel = test_kernel () in
  let dir = disk_dir () in
  let path = entry_file dir (Inspector.fingerprint tiled_plan kernel) in
  let preloaded = Cache.dir_from_env () <> None && Sys.file_exists path in
  let cache = Cache.create ~dir () in
  let cold = Inspector.run ~cache tiled_plan kernel in
  if preloaded then begin
    let s = Cache.stats cache in
    Alcotest.(check int) "entry from an earlier process: disk hit" 1
      s.Cache.disk_hits;
    Alcotest.(check int) "entry from an earlier process: no disk error" 0
      s.Cache.disk_errors;
    check_results_identical "earlier process's entry"
      (Inspector.run tiled_plan kernel)
      cold
  end;
  Alcotest.(check bool) "entry file written" true (Sys.file_exists path);
  (* A brand-new cache (fresh process, in spirit) must hit via disk. *)
  let cache2 = Cache.create ~dir () in
  let warm = Inspector.run ~cache:cache2 tiled_plan kernel in
  let s = Cache.stats cache2 in
  Alcotest.(check int) "disk hit" 1 s.Cache.disk_hits;
  Alcotest.(check int) "hit" 1 s.Cache.hits;
  Alcotest.(check int) "no disk error" 0 s.Cache.disk_errors;
  check_results_identical "disk tier" cold warm

(* Both on-disk stores create their directory with its missing
   parents, and raise when it cannot be made: here a path under a
   regular file. *)
let test_disk_create_dirs () =
  let root = fresh_dir () in
  let nested = Filename.concat (Filename.concat root "a") "b" in
  ignore (Cache.create ~dir:nested ());
  Alcotest.(check bool) "cache dir and its parents made" true
    (Sys.is_directory nested);
  let tuned = Filename.concat (Filename.concat root "t") "u" in
  ignore (Rtrt_plancache.Tuned.create ~dir:tuned ());
  Alcotest.(check bool) "tuned dir and its parents made" true
    (Sys.is_directory tuned);
  let file = Filename.temp_file "rtrt_plancache" "" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  List.iter
    (fun (what, create) ->
      match create (Filename.concat file "sub") with
      | () -> Alcotest.fail (what ^ ": made a directory under a file")
      | exception Unix.Unix_error _ -> ())
    [
      ("Cache", fun dir -> ignore (Cache.create ~dir ()));
      ("Tuned", fun dir -> ignore (Rtrt_plancache.Tuned.create ~dir ()));
    ]

let test_disk_corruption_degrades_to_miss () =
  let kernel = test_kernel () in
  let dir = fresh_dir () in
  let reference = Inspector.run tiled_plan kernel in
  ignore (Inspector.run ~cache:(Cache.create ~dir ()) tiled_plan kernel);
  write_file
    (entry_file dir (Inspector.fingerprint tiled_plan kernel))
    "{ not json at all";
  let cache = Cache.create ~dir () in
  let r = Inspector.run ~cache tiled_plan kernel in
  let s = Cache.stats cache in
  Alcotest.(check int) "corrupt file is a miss" 1 s.Cache.misses;
  Alcotest.(check int) "disk error counted" 1 s.Cache.disk_errors;
  check_results_identical "after corruption" reference r;
  (* The miss re-inspected and re-stored a good entry. *)
  let cache2 = Cache.create ~dir () in
  let warm = Inspector.run ~cache:cache2 tiled_plan kernel in
  Alcotest.(check int) "rewritten entry hits again" 1
    (Cache.stats cache2).Cache.hits;
  check_results_identical "after rewrite" reference warm

let test_disk_rejects_non_bijective_perm () =
  (* A well-formed v4 entry, checksum and all, whose sigma is not a
     permutation must degrade to a miss, never produce a bogus
     reordering: the reader's [Perm.of_forward] rejects it. *)
  let dir = fresh_dir () in
  let key = key_of_string "bad-perm" in
  Cache.store (Cache.create ~dir ()) ~key
    {
      (dummy_entry 2) with
      Cache.sigma_total = Reorder.Perm.unsafe_of_forward [| 0; 0 |];
    };
  let cache = Cache.create ~dir () in
  Alcotest.(check bool) "non-bijective sigma is a miss" true
    (Cache.find cache ~key ~n_data:2 ~n_iter:2 ~loop_sizes:[| 2 |] = None);
  Alcotest.(check int) "disk error counted" 1
    (Cache.stats cache).Cache.disk_errors

let has_header version contents =
  String.length contents >= 12
  && String.sub contents 0 8 = "RTRTPLAN"
  && String.get_int32_le contents 8 = Int32.of_int version

let test_disk_rejects_stale_format_version () =
  (* Entries of older formats are misses. A version-2 [<key>.json]
     file is never opened, so it is a plain miss; a JSON body (here a
     version-1 one, with the nested "tiles" schedule of before the
     flat-CSR migration) under the [.plan] name is a counted one, and
     so are a version-3 header and a valid version-4 file (this layout
     under the byte-serial checksum). The next store rewrites the entry
     as version 5. *)
  let dir = made_dir () in
  let key = key_of_string "stale-v1" in
  let hex = F.to_hex key in
  write_file
    (Filename.concat dir (hex ^ ".json"))
    (Fmt.str
       {|{"version":2,"key":"%s","sigma":[0,1],"delta":[0,1],"schedule":null,"fns":[],"n_data_remaps":0,"cold_inspector_seconds":0.0}|}
       hex);
  let find cache =
    Cache.find cache ~key ~n_data:2 ~n_iter:2 ~loop_sizes:[| 2 |]
  in
  let cache = Cache.create ~dir () in
  Alcotest.(check bool) "v2 .json file is a miss" true (find cache = None);
  Alcotest.(check int) "and is never opened" 0
    (Cache.stats cache).Cache.disk_errors;
  let path = entry_file dir key in
  write_file path
    (Fmt.str
       {|{"version":1,"key":"%s","sigma":[0,1],"delta":[0,1],"schedule":{"n_tiles":1,"n_loops":1,"tiles":[[[0,1]]]},"fns":[],"n_data_remaps":0,"cold_inspector_seconds":0.0}|}
       hex);
  Alcotest.(check bool) "v1 body under .plan is a miss" true
    (find cache = None);
  Alcotest.(check int) "disk error counted" 1
    (Cache.stats cache).Cache.disk_errors;
  Cache.store cache ~key (dummy_entry 2);
  Alcotest.(check bool) "rewritten with the v5 magic and version" true
    (has_header 5 (read_file path));
  Alcotest.(check bool) "the rewrite hits" true
    (find (Cache.create ~dir ()) <> None);
  List.iter
    (fun version ->
      let old = Bytes.of_string (read_file path) in
      Bytes.set_int32_le old 8 (Int32.of_int version);
      write_file path (reseal ~v4:(version = 4) (Bytes.to_string old));
      let cache = Cache.create ~dir () in
      Alcotest.(check bool)
        (Fmt.str "v%d file under .plan is a miss" version)
        true (find cache = None);
      Alcotest.(check int)
        (Fmt.str "v%d disk error counted" version)
        1 (Cache.stats cache).Cache.disk_errors;
      Cache.store cache ~key (dummy_entry 2);
      Alcotest.(check bool)
        (Fmt.str "v%d rewritten as v5" version)
        true
        (has_header 5 (read_file path));
      Alcotest.(check bool)
        (Fmt.str "the v%d rewrite hits" version)
        true
        (find (Cache.create ~dir ()) <> None))
    [ 3; 4 ]

(* Entries equal field by field, floats by their bits. *)
let entries_equal (a : Cache.entry) (b : Cache.entry) =
  let module P = Reorder.Perm in
  P.equal a.Cache.sigma_total b.Cache.sigma_total
  && P.equal a.Cache.delta_total b.Cache.delta_total
  && (match (a.Cache.schedule, b.Cache.schedule) with
     | None, None -> true
     | Some x, Some y -> Reorder.Schedule.equal x y
     | _ -> false)
  && List.equal
       (fun (n1, p1) (n2, p2) -> String.equal n1 n2 && P.equal p1 p2)
       a.Cache.reordering_fns b.Cache.reordering_fns
  && a.Cache.n_data_remaps = b.Cache.n_data_remaps
  && Int64.equal
       (Int64.bits_of_float a.Cache.cold_inspector_seconds)
       (Int64.bits_of_float b.Cache.cold_inspector_seconds)

(* The layout known answer: the fingerprint of the file bytes of one
   fixed entry with every member present (a two-loop schedule, a
   reordering function, non-zero remaps and seconds). The entry layout
   is a storage format, so this constant was recorded once, with the
   v5 codec, and is never re-recorded to make a test pass: a change to
   the layout bumps the format version instead. *)
let layout_entry =
  let module R = Reorder in
  let sigma = R.Perm.of_forward [| 2; 0; 1 |] in
  {
    Cache.sigma_total = sigma;
    delta_total = R.Perm.of_forward [| 1; 0; 3; 2 |];
    schedule =
      Some
        (R.Schedule.of_tile_fns
           [|
             { R.Sparse_tile.n_tiles = 2; tile_of = [| 0; 1; 0; 1 |] };
             { R.Sparse_tile.n_tiles = 2; tile_of = [| 1; 0; 0; 1 |] };
           |]);
    reordering_fns = [ ("cpack", sigma) ];
    n_data_remaps = 2;
    cold_inspector_seconds = 0.125;
  }

let test_disk_layout_known_answer () =
  let dir = fresh_dir () in
  let key = key_of_string "layout" in
  Cache.store (Cache.create ~dir ()) ~key layout_entry;
  let bytes = read_file (entry_file dir key) in
  let b = F.create () in
  F.add_string b bytes;
  Alcotest.(check string) "file bytes" "e26269ebe29b7aa7"
    (F.to_hex (F.value b));
  Alcotest.(check bool) "reads back equal" true
    (match
       Cache.find (Cache.create ~dir ()) ~key ~n_data:3 ~n_iter:4
         ~loop_sizes:[| 4; 4 |]
     with
    | Some e -> entries_equal e layout_entry
    | None -> false)

(* A value the format cannot hold fails the disk write, counted; the
   memory tier keeps the entry, and nothing raises. *)
let test_disk_unrepresentable_store () =
  let dir = fresh_dir () in
  let key = key_of_string "too-big" in
  let cache = Cache.create ~dir () in
  Cache.store cache ~key
    { (dummy_entry 2) with Cache.n_data_remaps = 1 lsl 31 };
  Alcotest.(check int) "disk error counted" 1
    (Cache.stats cache).Cache.disk_errors;
  Alcotest.(check (array string)) "no file written" [||] (Sys.readdir dir);
  Alcotest.(check bool) "memory tier hits" true
    (Cache.find cache ~key ~n_data:2 ~n_iter:2 ~loop_sizes:[| 2 |] <> None)

(* One stored scale-512 moldyn CL+FST entry for the reader's fuzzing:
   its kernel, key, entry and file bytes. *)
let fuzz_subject =
  lazy
    (let kernel = test_kernel () in
     let key = Inspector.fingerprint tiled_plan kernel in
     let dir = fresh_dir () in
     let cache = Cache.create ~dir () in
     ignore (Inspector.run ~cache tiled_plan kernel);
     let entry = Option.get (Cache.peek cache ~key) in
     (kernel, key, entry, read_file (entry_file dir key)))

let find_subject ~dir ?(n_data_delta = 0) () =
  let kernel, key, _, _ = Lazy.force fuzz_subject in
  let cache = Cache.create ~dir () in
  let found =
    Cache.find cache ~key
      ~n_data:(kernel.Kernels.Kernel.n_nodes + n_data_delta)
      ~n_iter:kernel.Kernels.Kernel.n_inter
      ~loop_sizes:kernel.Kernels.Kernel.loop_sizes
  in
  (found, (Cache.stats cache).Cache.disk_errors, cache)

type mutation = Flip of int * int | Truncate of int | Append of string

let mutate contents = function
  | Flip (at, x) ->
    let b = Bytes.of_string contents in
    Bytes.set_uint8 b at (Bytes.get_uint8 b at lxor x);
    Bytes.to_string b
  | Truncate n -> String.sub contents 0 n
  | Append extra -> contents ^ extra

let print_mutation = function
  | Flip (at, x) -> Printf.sprintf "flip byte %d by 0x%02x" at x
  | Truncate n -> Printf.sprintf "truncate to %d bytes" n
  | Append s -> Printf.sprintf "append %d bytes" (String.length s)

(* Offsets below [span] of the subject's file. *)
let gen_flip ~span st =
  let open QCheck.Gen in
  Flip (int_bound (span - 1) st, int_range 1 255 st)

let arb_mutation =
  let gen st =
    let _, _, _, contents = Lazy.force fuzz_subject in
    let len = String.length contents in
    let open QCheck.Gen in
    match int_bound 2 st with
    | 0 -> gen_flip ~span:len st
    | 1 -> Truncate (int_bound (len - 1) st)
    | _ -> Append (string_size ~gen:char (int_range 1 64) st)
  in
  QCheck.make gen ~print:print_mutation

(* Every flipped, truncated or extended entry is a miss with exactly
   one counted disk error, and the store that follows rewrites the
   original bytes, which a fresh cache then hits. *)
let prop_mutated_entry_is_a_miss =
  let dir = made_dir () in
  QCheck.Test.make ~name:"mutated entry -> counted miss, then rewrite"
    ~count:150 arb_mutation (fun m ->
      let _, key, entry, contents = Lazy.force fuzz_subject in
      let path = entry_file dir key in
      write_file path (mutate contents m);
      let found, errors, cache = find_subject ~dir () in
      found = None && errors = 1
      && begin
        Cache.store cache ~key entry;
        read_file path = contents
        &&
        match find_subject ~dir () with
        | Some e, 0, _ -> entries_equal e entry
        | _ -> false
      end)

(* Flips under a recomputed checksum reach the decoder itself: it may
   reject or accept what it reads, but it never raises. *)
let prop_resealed_flip_never_raises =
  let dir = made_dir () in
  let arb_flip =
    QCheck.make ~print:print_mutation (fun st ->
        let _, _, _, contents = Lazy.force fuzz_subject in
        gen_flip ~span:(String.length contents - 8) st)
  in
  QCheck.Test.make ~name:"resealed flip -> miss or hit, never a raise"
    ~count:150 arb_flip (fun m ->
      let _, key, _, contents = Lazy.force fuzz_subject in
      write_file (entry_file dir key) (reseal (mutate contents m));
      match find_subject ~dir () with
      | None, 1, _ | Some _, 0, _ -> true
      | _ -> false)

(* Header checks run before any array is decoded: the caller's
   n_data against the header's, the header's sizes against the file
   size, and the key inside the file against the key asked for. *)
let test_disk_header_mismatch () =
  let _, key, _, contents = Lazy.force fuzz_subject in
  let dir = made_dir () in
  let expect_miss what (found, errors, _) =
    Alcotest.(check bool) (what ^ ": miss") true (found = None);
    Alcotest.(check int) (what ^ ": disk error counted") 1 errors
  in
  (* [reseal] computes the checksum the reader checks: an unchanged
     file resealed still hits, so a resealed flip below reaches the
     decoder rather than failing the checksum. *)
  write_file (entry_file dir key) (reseal contents);
  Alcotest.(check bool) "resealed unchanged file hits" true
    (match find_subject ~dir () with Some _, 0, _ -> true | _ -> false);
  write_file (entry_file dir key) contents;
  expect_miss "other n_data than the header's"
    (find_subject ~dir ~n_data_delta:1 ());
  (* The header's n_data (after magic, version and key) rewritten and
     the checksum resealed: the file size now disagrees. *)
  let b = Bytes.of_string contents in
  Bytes.set_int32_le b 28 (Int32.succ (Bytes.get_int32_le b 28));
  write_file (entry_file dir key) (reseal (Bytes.to_string b));
  expect_miss "header n_data off by one" (find_subject ~dir ());
  (* A valid entry under another key's name. *)
  let other = key_of_string "other-key" in
  write_file (entry_file dir other) contents;
  let kernel, _, _, _ = Lazy.force fuzz_subject in
  let cache = Cache.create ~dir () in
  let found =
    Cache.find cache ~key:other ~n_data:kernel.Kernels.Kernel.n_nodes
      ~n_iter:kernel.Kernels.Kernel.n_inter
      ~loop_sizes:kernel.Kernels.Kernel.loop_sizes
  in
  expect_miss "another key's file"
    (found, (Cache.stats cache).Cache.disk_errors, cache);
  write_file (entry_file dir key) contents;
  Alcotest.(check bool) "the original still hits" true
    (match find_subject ~dir () with Some _, 0, _ -> true | _ -> false)

(* A flip in [n_data_remaps] or [cold_inspector_seconds] (the 12
   bytes before the checksum) leaves an entry every validation
   accepts; only the checksum can turn it into a miss. Random flips
   rarely land there. *)
let test_disk_checksum_catches_valid_looking_flips () =
  let _, key, _, contents = Lazy.force fuzz_subject in
  let dir = made_dir () in
  let tail = String.length contents - 8 - 12 in
  for at = tail to tail + 11 do
    write_file (entry_file dir key) (mutate contents (Flip (at, 0x01)));
    match find_subject ~dir () with
    | None, 1, _ -> ()
    | _ -> Alcotest.failf "flip at byte %d was not a counted miss" at
  done

(* Two writers in one process, each with its own cache over one
   directory, store one key again and again. With a temp name shared
   between them, one renamed the file away while the other was still
   writing it; every write must now land, and leave no temp file. *)
let concurrent_key = key_of_string "two-writers"

let store_repeatedly dir =
  let cache = Cache.create ~dir () in
  for _ = 1 to 200 do
    Cache.store cache ~key:concurrent_key (dummy_entry 4096)
  done;
  (Cache.stats cache).Cache.disk_errors

let check_one_entry_left dir =
  let fresh = Cache.create ~dir () in
  Alcotest.(check bool) "a fresh cache hits" true
    (Cache.find fresh ~key:concurrent_key ~n_data:4096 ~n_iter:4096
       ~loop_sizes:[| 4096 |]
    <> None);
  Alcotest.(check (array string)) "only the entry is left"
    [| F.to_hex concurrent_key ^ ".plan" |] (Sys.readdir dir)

let test_disk_concurrent_writers () =
  let dir = fresh_dir () in
  let other = Domain.spawn (fun () -> store_repeatedly dir) in
  let errors = store_repeatedly dir in
  Alcotest.(check (pair int int)) "no writer counts a disk error" (0, 0)
    (errors, Domain.join other);
  check_one_entry_left dir

(* The same across two processes ([Self_exec]): a writer exits 0 iff
   it counted no disk error. *)
let writer_env = "RTRT_TEST_PLANCACHE_WRITER"

let test_disk_concurrent_processes () =
  let dir = fresh_dir () in
  List.iter
    (fun status ->
      Alcotest.(check bool) "writer exited 0 with no disk error" true
        (status = Unix.WEXITED 0))
    (Self_exec.run_children 2 [ (writer_env, dir) ]);
  check_one_entry_left dir

(* ------------------------------------------------------------------ *)
(* Metrics and Experiment integration                                  *)

let test_metrics_visible () =
  ignore
    (with_memory_sink (fun () ->
         Rtrt_obs.Metrics.reset ();
         let kernel = test_kernel () in
         let cache = Cache.create () in
         ignore (Inspector.run ~cache tiled_plan kernel);
         ignore (Inspector.run ~cache tiled_plan kernel);
         let dump = Rtrt_obs.Metrics.dump () in
         let v name = List.assoc_opt name dump in
         Alcotest.(check (option (float 0.0))) "plancache.hit" (Some 1.0)
           (v "plancache.hit");
         Alcotest.(check (option (float 0.0))) "plancache.miss" (Some 1.0)
           (v "plancache.miss");
         Alcotest.(check (option (float 0.0))) "plancache.store" (Some 1.0)
           (v "plancache.store");
         Alcotest.(check bool) "plancache.bytes gauge set" true
           (match v "plancache.bytes" with Some b -> b > 0.0 | None -> false)))

let test_measure_reports_traffic () =
  let kernel = test_kernel () in
  let cache = Cache.create () in
  let machine = Cachesim.Machine.pentium4 in
  let m1 =
    Harness.Experiment.measure ~cache ~trace_steps_n:1 ~wall_steps:1 ~machine
      ~plan:tiled_plan kernel
  in
  let m2 =
    Harness.Experiment.measure ~cache ~trace_steps_n:1 ~wall_steps:1 ~machine
      ~plan:tiled_plan kernel
  in
  (match (m1.Harness.Experiment.plancache, m2.Harness.Experiment.plancache) with
  | Some pc1, Some pc2 ->
    Alcotest.(check bool) "first is a miss" false
      pc1.Harness.Experiment.pc_hit;
    Alcotest.(check bool) "second is a hit" true pc2.Harness.Experiment.pc_hit;
    Alcotest.(check int) "one hit total" 1 pc2.Harness.Experiment.pc_hits;
    Alcotest.(check int) "one miss total" 1 pc2.Harness.Experiment.pc_misses;
    Alcotest.(check (float 0.0)) "cold cost carried over"
      pc1.Harness.Experiment.pc_cold_inspector_seconds
      pc2.Harness.Experiment.pc_cold_inspector_seconds;
    Alcotest.(check bool) "replay cheaper than or equal to cold" true
      (m2.Harness.Experiment.inspector_seconds
      <= pc2.Harness.Experiment.pc_cold_inspector_seconds)
  | _ -> Alcotest.fail "expected plancache reports");
  (* Cached-vs-uncached break-even: with a positive saving, the cached
     side never needs more steps than the uncached side. *)
  let base =
    { m2 with Harness.Experiment.executor_seconds_per_step = 1.0 }
  in
  let faster =
    { m2 with Harness.Experiment.executor_seconds_per_step = 0.5 }
  in
  match Harness.Experiment.amortization_cached ~base faster with
  | Some (uncached, cached) ->
    Alcotest.(check bool) "cached pays off no later" true (cached <= uncached)
  | None -> Alcotest.fail "expected a break-even pair"

let () =
  (match Sys.getenv_opt writer_env with
  | Some dir -> exit (if store_repeatedly dir = 0 then 0 else 1)
  | None -> ());
  Alcotest.run "plancache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "stable" `Quick test_fingerprint_stable;
          Alcotest.test_case "sensitive" `Quick test_fingerprint_sensitive;
          Alcotest.test_case "ignores plan name" `Quick
            test_fingerprint_ignores_plan_name;
          Alcotest.test_case "known answers" `Quick
            test_fingerprint_known_answers;
          Alcotest.test_case "keys known answers" `Quick
            test_keys_known_answers;
          Alcotest.test_case "no allocation per byte" `Quick
            test_fingerprint_allocation;
          QCheck_alcotest.to_alcotest prop_builder_is_fnv1a;
          QCheck_alcotest.to_alcotest prop_hash_is_byte_serial;
          QCheck_alcotest.to_alcotest prop_lane_checksum_is_reference;
          QCheck_alcotest.to_alcotest prop_bit_flip_changes_lane_checksum;
        ] );
      ( "memory tier",
        [
          Alcotest.test_case "hit roundtrip" `Quick test_memory_hit_roundtrip;
          Alcotest.test_case "isolation" `Quick test_cache_isolation;
          Alcotest.test_case "replay aliases nothing" `Quick
            test_replay_aliases_nothing;
          Alcotest.test_case "shape validation" `Quick
            test_validation_rejects_shape_mismatch;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
        ] );
      ( "disk tier",
        [
          Alcotest.test_case "roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "directories made, or create raises" `Quick
            test_disk_create_dirs;
          Alcotest.test_case "corruption -> miss" `Quick
            test_disk_corruption_degrades_to_miss;
          Alcotest.test_case "non-bijective perm -> miss" `Quick
            test_disk_rejects_non_bijective_perm;
          Alcotest.test_case "stale v1 format -> miss" `Quick
            test_disk_rejects_stale_format_version;
          Alcotest.test_case "two writers, one key" `Quick
            test_disk_concurrent_writers;
          Alcotest.test_case "two writer processes, one key" `Quick
            test_disk_concurrent_processes;
          Alcotest.test_case "layout known answer" `Quick
            test_disk_layout_known_answer;
          Alcotest.test_case "unrepresentable store -> disk error" `Quick
            test_disk_unrepresentable_store;
          Alcotest.test_case "header mismatch -> miss" `Quick
            test_disk_header_mismatch;
          Alcotest.test_case "checksum catches valid-looking flips" `Quick
            test_disk_checksum_catches_valid_looking_flips;
          QCheck_alcotest.to_alcotest prop_mutated_entry_is_a_miss;
          QCheck_alcotest.to_alcotest prop_resealed_flip_never_raises;
        ] );
      ( "integration",
        [
          Alcotest.test_case "metrics visible" `Quick test_metrics_visible;
          Alcotest.test_case "measure reports traffic" `Quick
            test_measure_reports_traffic;
        ] );
    ]
