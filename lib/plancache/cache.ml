(* Content-addressed cache of composed inspector results, so repeated
   experiments over an identical (dataset, plan) pair pay the
   inspection cost once (the paper's amortization argument, Figures
   8/9/17, made a first-class subsystem).

   Two tiers:
   - an in-memory LRU keyed by the fingerprint hex, bounded by a byte
     budget (permutations dominate: ~8 bytes per element);
   - an optional on-disk store: one binary [<key>.plan] file per key
     under [dir] (format v3, below), written atomically via rename.

   Loads are checked (length, magic, version, checksum, key, header
   sizes) and then validated — array sizes against the kernel the
   caller is about to transform, permutation bijectivity via
   [Perm.of_forward], schedule coverage via [Schedule.check_coverage]
   — so a corrupt, truncated, or mismatched file degrades to a miss,
   never a crash and never a wrong executor. Hit/miss/evict traffic is
   published as [plancache.*] metrics. *)

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

let create ?(mem_budget_bytes = default_mem_budget) ?dir () =
  Option.iter Disk_write.mkdir_p dir;
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
(* Binary entries (format v3) — on-disk tier                           *)

(* One [<key>.plan] file per key. Every int is a little-endian int32 in
   [0, 2^31), every float the int64 of its bits:

   - header: magic ["RTRTPLAN"], version, the key's 16 hex digits, then
     [n_data], [n_iter], [n_tiles], [n_loops], [n_items],
     [has_summary], [n_fns], [fn_name_bytes] and [fn_ints];
   - sigma ([n_data] ints), then delta ([n_iter]);
   - with a schedule ([n_tiles > 0]): [row_ptr] ([n_tiles * n_loops +
     1] ints) and [items] ([n_items]), the flat CSR that [Schedule.t]
     stores natively;
   - with [has_summary = 1]: the shape summary, 8 ints and a float;
   - per reordering function: its name's length and bytes, then its
     size and forward array;
   - [n_data_remaps] and [cold_inspector_seconds];
   - a 64-bit FNV-1a checksum of every byte before it.

   The header's counts fix the file size, so the reader rejects a bad
   length, magic, version, checksum, key or size before it decodes any
   array. Versions 1 and 2 were JSON [<key>.json] files: they are never
   opened, and a JSON body under a [.plan] name fails the magic check,
   so either is a miss that the re-inspection overwrites. The layout
   is a storage format: change it only with a [format_version] bump
   (test_plancache pins it with a known answer). *)
let format_version = 3
let magic = "RTRTPLAN"
let key_bytes = 16
let header_bytes = 8 + 4 + key_bytes + (9 * 4)
let summary_bytes = (8 * 4) + 8
let trailer_bytes = 4 + 8 + 8 (* n_data_remaps, seconds, checksum *)

let file_bytes ~n_data ~n_iter ~n_tiles ~n_loops ~n_items ~has_summary ~n_fns
    ~fn_name_bytes ~fn_ints =
  header_bytes
  + (4 * (n_data + n_iter))
  + (if n_tiles > 0 then 4 * ((n_tiles * n_loops) + 1 + n_items) else 0)
  + (if has_summary then summary_bytes else 0)
  + (8 * n_fns) + fn_name_bytes + (4 * fn_ints) + trailer_bytes

(* A cursor over everything before the checksum. Both directions go
   through [advance], so no read or write can leave [0, limit). *)
type cursor = { buf : Bytes.t; mutable pos : int; limit : int }

exception Corrupt of string
exception Unrepresentable of string

let corrupt msg = raise (Corrupt msg)

let advance c n =
  let p = c.pos in
  if n < 0 || p > c.limit - n then corrupt "entry ends before its contents";
  c.pos <- p + n;
  p

let max_int32 = 0x7fff_ffff

let put_ints c n get =
  let p = advance c (4 * n) in
  for i = 0 to n - 1 do
    let v = get i in
    if v < 0 || v > max_int32 then
      raise (Unrepresentable (Fmt.str "%d is outside [0, 2^31)" v));
    Bytes.set_int32_le c.buf (p + (4 * i)) (Int32.of_int v)
  done

let put_int c v = put_ints c 1 (fun _ -> v)
let put_perm c p = put_ints c (Perm.size p) (Perm.forward p)

let put_string c s =
  Bytes.blit_string s 0 c.buf (advance c (String.length s)) (String.length s)

let put_float c f =
  Bytes.set_int64_le c.buf (advance c 8) (Int64.bits_of_float f)

(* The whole file in one exact-size buffer; raises [Unrepresentable]
   on a value outside [0, 2^31). *)
let encode ~hex e =
  let n_data = Perm.size e.sigma_total and n_iter = Perm.size e.delta_total in
  let n_tiles, n_loops, row_ptr, items =
    match e.schedule with
    | None -> (0, 0, [||], [||])
    | Some s when Schedule.n_tiles s > 0 && Schedule.n_loops s > 0 ->
      (Schedule.n_tiles s, Schedule.n_loops s, Schedule.row_ptr s,
       Schedule.flat_items s)
    | Some _ -> raise (Unrepresentable "a schedule without tiles")
  in
  let n_items = Array.length items in
  let has_summary = Option.is_some e.shape_summary in
  let n_fns = List.length e.reordering_fns in
  let fn_name_bytes =
    List.fold_left (fun n (name, _) -> n + String.length name) 0
      e.reordering_fns
  in
  let fn_ints =
    List.fold_left (fun n (_, p) -> n + Perm.size p) 0 e.reordering_fns
  in
  let len =
    file_bytes ~n_data ~n_iter ~n_tiles ~n_loops ~n_items ~has_summary ~n_fns
      ~fn_name_bytes ~fn_ints
  in
  let c = { buf = Bytes.create len; pos = 0; limit = len - 8 } in
  put_string c magic;
  put_int c format_version;
  put_string c hex;
  List.iter (put_int c)
    [
      n_data;
      n_iter;
      n_tiles;
      n_loops;
      n_items;
      Bool.to_int has_summary;
      n_fns;
      fn_name_bytes;
      fn_ints;
    ];
  put_perm c e.sigma_total;
  put_perm c e.delta_total;
  put_ints c (Array.length row_ptr) (Array.get row_ptr);
  put_ints c (Array.length items) (Array.get items);
  Option.iter
    (fun (sm : Shape.summary) ->
      List.iter (put_int c)
        [
          sm.Shape.rows;
          sm.Shape.total_items;
          sm.Shape.runs;
          sm.Shape.identity_rows;
          sm.Shape.max_run;
          Bool.to_int sm.Shape.single_loop;
          Bool.to_int (sm.Shape.uniform_tile_items <> None);
          Option.value sm.Shape.uniform_tile_items ~default:0;
        ];
      put_float c sm.Shape.avg_run_len)
    e.shape_summary;
  List.iter
    (fun (name, p) ->
      put_int c (String.length name);
      put_string c name;
      put_int c (Perm.size p);
      put_perm c p)
    e.reordering_fns;
  put_int c e.n_data_remaps;
  put_float c e.cold_inspector_seconds;
  Bytes.set_int64_le c.buf c.limit (Fingerprint.checksum c.buf c.limit);
  c.buf

let get_int c =
  let v = Int32.to_int (Bytes.get_int32_le c.buf (advance c 4)) in
  if v < 0 then corrupt "negative count";
  v

let get_bool c =
  match get_int c with
  | 0 -> false
  | 1 -> true
  | _ -> corrupt "flag is neither 0 nor 1"

let get_float c = Int64.float_of_bits (Bytes.get_int64_le c.buf (advance c 8))
let get_string c n = Bytes.sub_string c.buf (advance c n) n

let get_ints c n =
  let p = advance c (4 * n) in
  Array.init n (fun i -> Int32.to_int (Bytes.get_int32_le c.buf (p + (4 * i))))

let get_perm c n =
  match Perm.of_forward (get_ints c n) with
  | p -> p
  | exception Invalid_argument msg -> corrupt ("not a permutation: " ^ msg)

(* Rebuild a schedule from its flat CSR through per-loop tile
   functions, so [Schedule.of_tile_fns] revalidates from scratch: each
   loop's rows must address its iterations exactly once or the
   reconstruction fails (the bijectivity check for tile schedules, the
   analogue of [Perm.of_forward] for permutations). Reconstruction
   also requires the file's [items] to match the canonical
   (row-ascending) order the constructor produces — every writer emits
   that order, and insisting on it keeps warm replay bit-identical to
   the cold run. *)
let schedule_of_csr ~n_tiles ~n_loops ~row_ptr ~items =
  let n_rows = n_tiles * n_loops in
  if row_ptr.(0) <> 0 || row_ptr.(n_rows) <> Array.length items then
    corrupt "bad schedule row pointers";
  for r = 0 to n_rows - 1 do
    if row_ptr.(r + 1) < row_ptr.(r) then corrupt "bad schedule row pointers"
  done;
  let fn_of_loop l =
    let size = ref 0 in
    for tile = 0 to n_tiles - 1 do
      let r = (tile * n_loops) + l in
      size := !size + (row_ptr.(r + 1) - row_ptr.(r))
    done;
    let tile_of = Array.make !size (-1) in
    for tile = 0 to n_tiles - 1 do
      let r = (tile * n_loops) + l in
      for i = row_ptr.(r) to row_ptr.(r + 1) - 1 do
        let it = items.(i) in
        if it < 0 || it >= !size || tile_of.(it) <> -1 then
          corrupt "schedule loop does not cover its iterations exactly once";
        tile_of.(it) <- tile
      done
    done;
    { Sparse_tile.n_tiles; tile_of }
  in
  let s = Schedule.of_tile_fns (Array.init n_loops fn_of_loop) in
  if Schedule.row_ptr s <> row_ptr || Schedule.flat_items s <> items then
    corrupt "schedule items not in canonical order";
  s

let get_summary c =
  let rows = get_int c in
  let total_items = get_int c in
  let runs = get_int c in
  let identity_rows = get_int c in
  let max_run = get_int c in
  let single_loop = get_bool c in
  let uniform = get_bool c in
  let uniform_items = get_int c in
  let avg_run_len = get_float c in
  {
    Shape.rows;
    total_items;
    runs;
    identity_rows;
    max_run;
    single_loop;
    uniform_tile_items = (if uniform then Some uniform_items else None);
    avg_run_len;
  }

(* Raises [Corrupt] (or [Invalid_argument] from a constructor) on
   anything but a well-formed entry for [hex] of the caller's sizes. *)
let decode buf ~hex ~n_data ~n_iter =
  let len = Bytes.length buf in
  if len < header_bytes + trailer_bytes then corrupt "shorter than a header";
  let c = { buf; pos = 0; limit = len - 8 } in
  if get_string c (String.length magic) <> magic then
    corrupt "not a plan-cache entry";
  if get_int c <> format_version then corrupt "unsupported format version";
  if Bytes.get_int64_le buf c.limit <> Fingerprint.checksum buf c.limit then
    corrupt "checksum mismatch";
  if get_string c key_bytes <> hex then corrupt "key mismatch";
  let f_n_data = get_int c in
  let f_n_iter = get_int c in
  let n_tiles = get_int c in
  let n_loops = get_int c in
  let n_items = get_int c in
  let has_summary = get_bool c in
  let n_fns = get_int c in
  let fn_name_bytes = get_int c in
  let fn_ints = get_int c in
  if f_n_data <> n_data then corrupt "sigma size mismatch";
  if f_n_iter <> n_iter then corrupt "delta size mismatch";
  if (n_tiles = 0) <> (n_loops = 0) || (n_tiles = 0 && n_items <> 0)
     || n_tiles * n_loops > len
     || file_bytes ~n_data ~n_iter ~n_tiles ~n_loops ~n_items ~has_summary
          ~n_fns ~fn_name_bytes ~fn_ints
        <> len
  then corrupt "file size disagrees with its header";
  let sigma_total = get_perm c n_data in
  let delta_total = get_perm c n_iter in
  let schedule =
    if n_tiles = 0 then None
    else
      let row_ptr = get_ints c ((n_tiles * n_loops) + 1) in
      let items = get_ints c n_items in
      Some (schedule_of_csr ~n_tiles ~n_loops ~row_ptr ~items)
  in
  let shape_summary =
    if not has_summary then None
    else
      let sm = get_summary c in
      (* Sanity against the (validated) schedule: a summary that cannot
         belong to it is dropped, not trusted — callers then
         re-analyze. *)
      match schedule with
      | Some s
        when sm.Shape.rows = Schedule.n_tiles s * Schedule.n_loops s
             && sm.Shape.total_items = Schedule.total_iterations s ->
        Some sm
      | _ -> None
  in
  let reordering_fns =
    List.init n_fns (fun _ ->
        let name = get_string c (get_int c) in
        let p = get_perm c (get_int c) in
        (name, p))
  in
  let n_data_remaps = get_int c in
  let cold_inspector_seconds = get_float c in
  if c.pos <> c.limit then corrupt "bytes left over after the entry";
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

let file_path dir hex = Filename.concat dir (hex ^ ".plan")

let count_disk_error t =
  t.disk_errors <- t.disk_errors + 1;
  Rtrt_obs.Metrics.incr c_disk_error

(* One read of the whole file, then decode and validate. *)
let load path ~hex ~n_data ~n_iter ~loop_sizes =
  match
    let buf =
      In_channel.with_open_bin path (fun ic ->
          let buf = Bytes.create (Int64.to_int (In_channel.length ic)) in
          match In_channel.really_input ic buf 0 (Bytes.length buf) with
          | Some () -> buf
          | None -> corrupt "file shrank while being read")
    in
    decode buf ~hex ~n_data ~n_iter
  with
  | e -> Result.map (fun () -> e) (validate_entry e ~n_data ~n_iter ~loop_sizes)
  | exception (Corrupt msg | Invalid_argument msg | Sys_error msg) -> Error msg

let disk_load t hex ~n_data ~n_iter ~loop_sizes =
  match t.dir with
  | None -> None
  | Some dir -> (
    let path = file_path dir hex in
    if not (Sys.file_exists path) then None
    else
      match load path ~hex ~n_data ~n_iter ~loop_sizes with
      | Ok e -> Some e
      | Error msg ->
        count_disk_error t;
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
    let written =
      match encode ~hex e with
      | buf ->
        Disk_write.atomically path (fun oc -> Out_channel.output_bytes oc buf)
      | exception Unrepresentable what -> Error ("cannot encode " ^ what)
    in
    match written with
    | Ok () -> ()
    | Error msg ->
      count_disk_error t;
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
