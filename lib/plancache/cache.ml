(* Content-addressed cache of composed inspector results, so repeated
   experiments over an identical (dataset, plan) pair pay the
   inspection cost once (the paper's amortization argument, Figures
   8/9/17, made a first-class subsystem).

   Two tiers:
   - an in-memory LRU keyed by the fingerprint hex, bounded by a byte
     budget (permutations dominate: ~8 bytes per element);
   - an optional on-disk store (one JSON file per key under [dir],
     written atomically via rename), serialized with [Rtrt_obs.Json].

   Loads are validated — array sizes against the kernel the caller is
   about to transform, permutation bijectivity via [Perm.of_forward],
   schedule coverage via [Schedule.check_coverage] — so a corrupt,
   truncated, or mismatched file degrades to a miss, never a crash and
   never a wrong executor. Hit/miss/evict traffic is published as
   [plancache.*] metrics. *)

open Reorder

type entry = {
  sigma_total : Perm.t;
  delta_total : Perm.t;
  schedule : Schedule.t option;
  shape_summary : Shape.summary option;
      (* the schedule's plan-time shape analysis (run counts, identity
         rows, ...), cached so a warm hit can pick its executor tier
         without re-walking the items array. Only the summary is
         stored: the run-length *index* is always rebuilt from the
         validated schedule, never trusted from disk. *)
  reordering_fns : (string * Perm.t) list;
  n_data_remaps : int;
  cold_inspector_seconds : float;
      (* what the inspection cost when it was actually run; a warm hit
         reports its replay time separately, and the pair quantifies
         the amortization win *)
}

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  disk_hits : int;  (* subset of hits served by deserializing a file *)
  disk_errors : int; (* corrupt/unreadable files degraded to misses *)
  entries : int;
  bytes : int;
}

type slot = { entry : entry; slot_bytes : int; mutable last_use : int }

type t = {
  mem_budget : int;
  dir : string option;
  tbl : (string, slot) Hashtbl.t;
  mutex : Mutex.t;
  mutable clock : int;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable disk_hits : int;
  mutable disk_errors : int;
}

let c_hit = Rtrt_obs.Metrics.counter "plancache.hit"
let c_miss = Rtrt_obs.Metrics.counter "plancache.miss"
let c_evict = Rtrt_obs.Metrics.counter "plancache.evict"
let c_store = Rtrt_obs.Metrics.counter "plancache.store"
let c_disk_hit = Rtrt_obs.Metrics.counter "plancache.disk_hit"
let c_disk_error = Rtrt_obs.Metrics.counter "plancache.disk_error"
let g_bytes = Rtrt_obs.Metrics.gauge "plancache.bytes"

let default_mem_budget = 64 * 1024 * 1024

let dir_from_env () = Rtrt_obs.Config.env_dir ~name:"RTRT_PLAN_CACHE_DIR" ()

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(mem_budget_bytes = default_mem_budget) ?dir () =
  (match dir with Some d -> mkdir_p d | None -> ());
  {
    mem_budget = mem_budget_bytes;
    dir;
    tbl = Hashtbl.create 32;
    mutex = Mutex.create ();
    clock = 0;
    bytes = 0;
    hits = 0;
    misses = 0;
    stores = 0;
    evictions = 0;
    disk_hits = 0;
    disk_errors = 0;
  }

let dir t = t.dir

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      stores = t.stores;
      evictions = t.evictions;
      disk_hits = t.disk_hits;
      disk_errors = t.disk_errors;
      entries = Hashtbl.length t.tbl;
      bytes = t.bytes;
    }
  in
  Mutex.unlock t.mutex;
  s

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "%d hits (%d from disk), %d misses, %d stores, %d evictions, %d disk \
     errors, %d entries / %d bytes resident"
    s.hits s.disk_hits s.misses s.stores s.evictions s.disk_errors s.entries
    s.bytes

(* ------------------------------------------------------------------ *)
(* Sizing and the LRU memory tier                                      *)

let perm_bytes p = 8 * Perm.size p

let entry_bytes e =
  perm_bytes e.sigma_total + perm_bytes e.delta_total
  + (match e.schedule with
    | None -> 0
    | Some s -> 8 * Schedule.total_iterations s)
  + List.fold_left
      (fun acc (name, p) -> acc + String.length name + perm_bytes p)
      0 e.reordering_fns
  + 128

(* Callers hold the mutex. O(entries) eviction scan: plan caches hold
   tens of entries, not millions. *)
let evict_until_within t =
  while t.bytes > t.mem_budget && Hashtbl.length t.tbl > 1 do
    let victim =
      Hashtbl.fold
        (fun key slot acc ->
          match acc with
          | Some (_, best) when best.last_use <= slot.last_use -> acc
          | _ -> Some (key, slot))
        t.tbl None
    in
    match victim with
    | None -> ()
    | Some (key, slot) ->
      Hashtbl.remove t.tbl key;
      t.bytes <- t.bytes - slot.slot_bytes;
      t.evictions <- t.evictions + 1;
      Rtrt_obs.Metrics.incr c_evict
  done;
  Rtrt_obs.Metrics.set g_bytes (float_of_int t.bytes)

(* Callers hold the mutex. *)
let insert_mem t hex entry =
  (match Hashtbl.find_opt t.tbl hex with
  | Some old ->
    Hashtbl.remove t.tbl hex;
    t.bytes <- t.bytes - old.slot_bytes
  | None -> ());
  let slot_bytes = entry_bytes entry in
  t.clock <- t.clock + 1;
  Hashtbl.replace t.tbl hex { entry; slot_bytes; last_use = t.clock };
  t.bytes <- t.bytes + slot_bytes;
  evict_until_within t

(* ------------------------------------------------------------------ *)
(* JSON (de)serialization — on-disk tier                               *)

module J = Rtrt_obs.Json

(* Version 2 serializes schedules in the flat CSR shape ([row_ptr] over
   [tile * n_loops + loop] rows plus a contiguous [items] array) that
   [Schedule.t] stores natively. Version-1 files used nested per-tile
   item lists; they fail the version check below and degrade to a miss
   (the inspector then re-runs and overwrites them in v2). *)
let format_version = 2

let json_of_int_array a =
  J.List (List.map (fun i -> J.Int i) (Array.to_list a))

let json_of_perm p = json_of_int_array (Perm.to_forward_array p)

let json_of_schedule s =
  J.Obj
    [
      ("n_tiles", J.Int (Schedule.n_tiles s));
      ("n_loops", J.Int (Schedule.n_loops s));
      ("row_ptr", json_of_int_array (Schedule.row_ptr s));
      ("items", json_of_int_array (Schedule.flat_items s));
    ]

(* The shape member is optional and versionless: files written before
   it existed simply lack it and load with [shape_summary = None]. *)
let json_of_summary (sm : Shape.summary) =
  J.Obj
    [
      ("rows", J.Int sm.Shape.rows);
      ("total_items", J.Int sm.Shape.total_items);
      ("runs", J.Int sm.Shape.runs);
      ("identity_rows", J.Int sm.Shape.identity_rows);
      ("max_run", J.Int sm.Shape.max_run);
      ("single_loop", J.Bool sm.Shape.single_loop);
      ( "uniform_tile_items",
        match sm.Shape.uniform_tile_items with
        | None -> J.Null
        | Some n -> J.Int n );
      ("avg_run_len", J.Float sm.Shape.avg_run_len);
    ]

let json_of_entry ~hex e =
  J.Obj
    [
      ("version", J.Int format_version);
      ("key", J.String hex);
      ("sigma", json_of_perm e.sigma_total);
      ("delta", json_of_perm e.delta_total);
      ( "schedule",
        match e.schedule with None -> J.Null | Some s -> json_of_schedule s );
      ( "shape",
        match e.shape_summary with
        | None -> J.Null
        | Some sm -> json_of_summary sm );
      ( "fns",
        J.List
          (List.map
             (fun (name, p) ->
               J.Obj [ ("name", J.String name); ("perm", json_of_perm p) ])
             e.reordering_fns) );
      ("n_data_remaps", J.Int e.n_data_remaps);
      ("cold_inspector_seconds", J.Float e.cold_inspector_seconds);
    ]

let ( let* ) = Result.bind

let int_array_of_json = function
  | J.List vs ->
    let a = Array.make (List.length vs) 0 in
    let rec go i = function
      | [] -> Ok a
      | J.Int n :: rest ->
        a.(i) <- n;
        go (i + 1) rest
      | _ -> Error "expected an integer array"
    in
    go 0 vs
  | _ -> Error "expected an integer array"

let perm_of_json j =
  let* a = int_array_of_json j in
  match Perm.of_forward a with
  | p -> Ok p
  | exception Invalid_argument msg -> Error ("not a permutation: " ^ msg)

let field name j =
  match J.member name j with
  | Some v -> Ok v
  | None -> Error ("missing field " ^ name)

let int_field name j =
  let* v = field name j in
  match J.to_int_opt v with
  | Some n -> Ok n
  | None -> Error ("field " ^ name ^ " is not an integer")

(* Rebuild a schedule from its flat CSR serialization through per-loop
   tile functions, so [Schedule.of_tile_fns] revalidates from scratch:
   each loop's rows must address its iterations exactly once or the
   reconstruction fails (the bijectivity check for tile schedules, the
   analogue of [Perm.of_forward] for permutations). Reconstruction
   also requires the file's [items] to match the canonical
   (row-ascending) order the constructor produces — every writer emits
   that order, and insisting on it keeps warm replay bit-identical to
   the cold run. *)
let schedule_of_json j =
  let* n_tiles = int_field "n_tiles" j in
  let* n_loops = int_field "n_loops" j in
  if n_tiles <= 0 || n_loops <= 0 then Error "bad schedule shape"
  else
    let* row_ptr =
      let* v = field "row_ptr" j in
      int_array_of_json v
    in
    let* items =
      let* v = field "items" j in
      int_array_of_json v
    in
    let n_rows = n_tiles * n_loops in
    let shape_ok =
      Array.length row_ptr = n_rows + 1
      && row_ptr.(0) = 0
      && row_ptr.(n_rows) = Array.length items
      &&
      let mono = ref true in
      for r = 0 to n_rows - 1 do
        if row_ptr.(r + 1) < row_ptr.(r) then mono := false
      done;
      !mono
    in
    if not shape_ok then Error "bad schedule row pointers"
    else
      let fn_of_loop l =
        let size = ref 0 in
        for tile = 0 to n_tiles - 1 do
          let r = (tile * n_loops) + l in
          size := !size + (row_ptr.(r + 1) - row_ptr.(r))
        done;
        let size = !size in
        let tile_of = Array.make size (-1) in
        let ok = ref true in
        for tile = 0 to n_tiles - 1 do
          let r = (tile * n_loops) + l in
          for i = row_ptr.(r) to row_ptr.(r + 1) - 1 do
            let it = items.(i) in
            if it < 0 || it >= size || tile_of.(it) <> -1 then ok := false
            else tile_of.(it) <- tile
          done
        done;
        if !ok then Ok { Sparse_tile.n_tiles; tile_of }
        else Error "schedule loop does not cover its iterations exactly once"
      in
      let rec fns acc l =
        if l = n_loops then Ok (Array.of_list (List.rev acc))
        else
          let* fn = fn_of_loop l in
          fns (fn :: acc) (l + 1)
      in
      let* fns = fns [] 0 in
      match Schedule.of_tile_fns fns with
      | s ->
        if Schedule.row_ptr s = row_ptr && Schedule.flat_items s = items then
          Ok s
        else Error "schedule items not in canonical order"
      | exception Invalid_argument msg -> Error msg

let summary_of_json j =
  let* rows = int_field "rows" j in
  let* total_items = int_field "total_items" j in
  let* runs = int_field "runs" j in
  let* identity_rows = int_field "identity_rows" j in
  let* max_run = int_field "max_run" j in
  let* single_loop =
    match J.member "single_loop" j with
    | Some (J.Bool b) -> Ok b
    | _ -> Error "single_loop is not a boolean"
  in
  let* uniform_tile_items =
    match J.member "uniform_tile_items" j with
    | None | Some J.Null -> Ok None
    | Some v -> (
      match J.to_int_opt v with
      | Some n -> Ok (Some n)
      | None -> Error "uniform_tile_items is not an integer")
  in
  let* avg_run_len =
    let* v = field "avg_run_len" j in
    match J.to_float_opt v with
    | Some f -> Ok f
    | None -> Error "avg_run_len is not a number"
  in
  Ok
    {
      Shape.rows;
      total_items;
      runs;
      identity_rows;
      max_run;
      single_loop;
      uniform_tile_items;
      avg_run_len;
    }

let entry_of_json j =
  let* version = int_field "version" j in
  if version <> format_version then Error "unsupported format version"
  else
    let* sigma_j = field "sigma" j in
    let* sigma_total = perm_of_json sigma_j in
    let* delta_j = field "delta" j in
    let* delta_total = perm_of_json delta_j in
    let* schedule =
      match J.member "schedule" j with
      | None | Some J.Null -> Ok None
      | Some sj ->
        let* s = schedule_of_json sj in
        Ok (Some s)
    in
    let* shape_summary =
      match J.member "shape" j with
      | None | Some J.Null -> Ok None
      | Some sj ->
        let* sm = summary_of_json sj in
        (* Sanity against the (validated) schedule: a summary that
           cannot belong to it is dropped, not trusted — callers then
           re-analyze. *)
        Ok
          (match schedule with
          | Some s
            when sm.Shape.rows = Schedule.n_tiles s * Schedule.n_loops s
                 && sm.Shape.total_items = Schedule.total_iterations s ->
            Some sm
          | _ -> None)
    in
    let* reordering_fns =
      match J.member "fns" j with
      | Some (J.List fs) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | f :: rest ->
            let* name_j = field "name" f in
            let* name =
              match J.to_string_opt name_j with
              | Some s -> Ok s
              | None -> Error "fn name is not a string"
            in
            let* perm_j = field "perm" f in
            let* p = perm_of_json perm_j in
            go ((name, p) :: acc) rest
        in
        go [] fs
      | _ -> Error "bad fns field"
    in
    let* n_data_remaps = int_field "n_data_remaps" j in
    let* cold_inspector_seconds =
      let* v = field "cold_inspector_seconds" j in
      match J.to_float_opt v with
      | Some f -> Ok f
      | None -> Error "cold_inspector_seconds is not a number"
    in
    Ok
      {
        sigma_total;
        delta_total;
        schedule;
        shape_summary;
        reordering_fns;
        n_data_remaps;
        cold_inspector_seconds;
      }

(* Does a (possibly deserialized, possibly fingerprint-colliding)
   entry actually fit the kernel the caller is about to transform? *)
let validate_entry e ~n_data ~n_iter ~loop_sizes =
  if Perm.size e.sigma_total <> n_data then Error "sigma size mismatch"
  else if Perm.size e.delta_total <> n_iter then Error "delta size mismatch"
  else if
    not
      (List.for_all
         (fun (_, p) ->
           let s = Perm.size p in
           s = n_data || s = n_iter)
         e.reordering_fns)
  then Error "reordering-function size mismatch"
  else
    match e.schedule with
    | None -> Ok ()
    | Some s ->
      if Schedule.n_loops s <> Array.length loop_sizes then
        Error "schedule loop-count mismatch"
      else if
        match Schedule.check_coverage s ~loop_sizes with
        | ok -> not ok
        | exception _ -> true
      then Error "schedule does not cover the loop sizes"
      else Ok ()

(* ------------------------------------------------------------------ *)
(* Disk tier                                                           *)

let file_path dir hex = Filename.concat dir (hex ^ ".json")

let disk_load t hex ~n_data ~n_iter ~loop_sizes =
  match t.dir with
  | None -> None
  | Some dir -> (
    let path = file_path dir hex in
    if not (Sys.file_exists path) then None
    else
      let parsed =
        match In_channel.with_open_bin path In_channel.input_all with
        | contents -> (
          match J.of_string contents with
          | Ok j ->
            let* e = entry_of_json j in
            let* () = validate_entry e ~n_data ~n_iter ~loop_sizes in
            Ok e
          | Error msg -> Error msg)
        | exception Sys_error msg -> Error msg
      in
      match parsed with
      | Ok e -> Some e
      | Error msg ->
        t.disk_errors <- t.disk_errors + 1;
        Rtrt_obs.Metrics.incr c_disk_error;
        Fmt.epr
          "rtrt: warning: plan-cache entry %s is invalid (%s); treating as a \
           miss@."
          path msg;
        None)

let disk_store t hex e =
  match t.dir with
  | None -> ()
  | Some dir -> (
    let path = file_path dir hex in
    match
      Disk_write.atomically path (fun oc ->
          output_string oc (J.to_string (json_of_entry ~hex e));
          output_char oc '\n')
    with
    | Ok () -> ()
    | Error msg ->
      t.disk_errors <- t.disk_errors + 1;
      Rtrt_obs.Metrics.incr c_disk_error;
      Fmt.epr "rtrt: warning: cannot write plan-cache entry %s (%s)@." path msg)

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)

let find t ~key ~n_data ~n_iter ~loop_sizes =
  let hex = Fingerprint.to_hex key in
  Mutex.lock t.mutex;
  let result =
    match Hashtbl.find_opt t.tbl hex with
    | Some slot
      when validate_entry slot.entry ~n_data ~n_iter ~loop_sizes = Ok () ->
      t.clock <- t.clock + 1;
      slot.last_use <- t.clock;
      Some slot.entry
    | _ -> (
      match disk_load t hex ~n_data ~n_iter ~loop_sizes with
      | Some e ->
        t.disk_hits <- t.disk_hits + 1;
        Rtrt_obs.Metrics.incr c_disk_hit;
        insert_mem t hex e;
        Some e
      | None -> None)
  in
  (match result with
  | Some _ ->
    t.hits <- t.hits + 1;
    Rtrt_obs.Metrics.incr c_hit
  | None ->
    t.misses <- t.misses + 1;
    Rtrt_obs.Metrics.incr c_miss);
  Mutex.unlock t.mutex;
  result

let store t ~key entry =
  let hex = Fingerprint.to_hex key in
  Mutex.lock t.mutex;
  t.stores <- t.stores + 1;
  Rtrt_obs.Metrics.incr c_store;
  insert_mem t hex entry;
  disk_store t hex entry;
  Mutex.unlock t.mutex

(* Memory-tier-only lookup with no stats or LRU side effects — for
   reporting layers that want the cold-run cost after [find]/[store]
   already ran. *)
let peek t ~key =
  let hex = Fingerprint.to_hex key in
  Mutex.lock t.mutex;
  let e = Option.map (fun s -> s.entry) (Hashtbl.find_opt t.tbl hex) in
  Mutex.unlock t.mutex;
  e
