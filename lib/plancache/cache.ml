(* Content-addressed cache of composed inspector results, so repeated
   experiments over an identical (dataset, plan) pair pay the
   inspection cost once (the paper's amortization argument, Figures
   8/9/17, made a first-class subsystem). This module is the entry,
   its binary codec (format v4, below) and its validation against the
   kernel at hand; [Store] holds the memory and disk tiers. *)

open Reorder

type entry = {
  sigma_total : Perm.t;
  delta_total : Perm.t;
  schedule : Schedule.t option;
  reordering_fns : (string * Perm.t) list;
  n_data_remaps : int;
  cold_inspector_seconds : float;
      (* what the inspection cost when it was actually run; a warm hit
         reports its replay time separately, and the pair quantifies
         the amortization win *)
}

type stats = Store.stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  disk_hits : int;  (* subset of hits served by deserializing a file *)
  disk_errors : int; (* corrupt/unreadable files degraded to misses *)
  entries : int;
  bytes : int;
}

(* The kernel an entry must fit: what [find] checks it against. *)
type shape = { n_data : int; n_iter : int; loop_sizes : int array }

let dir_from_env () = Rtrt_obs.Config.env_dir ~name:"RTRT_PLAN_CACHE_DIR" ()

(* ------------------------------------------------------------------ *)
(* Sizing for the memory tier's budget                                 *)

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

(* ------------------------------------------------------------------ *)
(* Binary entries (format v4) — on-disk tier                           *)

(* One [<key>.plan] file per key. Every int is a little-endian int32 in
   [0, 2^31), every float the int64 of its bits:

   - header: magic ["RTRTPLAN"], version, the key's 16 hex digits, then
     [n_data], [n_iter], [n_tiles], [n_loops], [n_items], [n_fns],
     [fn_name_bytes] and [fn_ints];
   - sigma ([n_data] ints), then delta ([n_iter]);
   - with a schedule ([n_tiles > 0]): [row_ptr] ([n_tiles * n_loops +
     1] ints) and [items] ([n_items]), the flat CSR that [Schedule.t]
     stores natively;
   - per reordering function: its name's length and bytes, then its
     size and forward array;
   - [n_data_remaps] and [cold_inspector_seconds];
   - a 64-bit FNV-1a checksum of every byte before it.

   The header's counts fix the file size, so the reader rejects a bad
   length, magic, version, checksum, key or size before it decodes any
   array. Versions 1 and 2 were JSON [<key>.json] files: they are never
   opened, and a JSON body under a [.plan] name fails the magic check,
   so either is a miss that the re-inspection overwrites. A version-3
   file (it also held a shape summary) fails the version check: a miss
   overwritten like any other bad entry. The layout is a storage
   format: change it only with a [format_version] bump (test_plancache
   pins it with a known answer). *)
let format_version = 4
let magic = "RTRTPLAN"
let key_bytes = 16
let header_bytes = 8 + 4 + key_bytes + (8 * 4)
let trailer_bytes = 4 + 8 + 8 (* n_data_remaps, seconds, checksum *)

let file_bytes ~n_data ~n_iter ~n_tiles ~n_loops ~n_items ~n_fns
    ~fn_name_bytes ~fn_ints =
  header_bytes
  + (4 * (n_data + n_iter))
  + (if n_tiles > 0 then 4 * ((n_tiles * n_loops) + 1 + n_items) else 0)
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
  let n_fns = List.length e.reordering_fns in
  let fn_name_bytes =
    List.fold_left (fun n (name, _) -> n + String.length name) 0
      e.reordering_fns
  in
  let fn_ints =
    List.fold_left (fun n (_, p) -> n + Perm.size p) 0 e.reordering_fns
  in
  let len =
    file_bytes ~n_data ~n_iter ~n_tiles ~n_loops ~n_items ~n_fns
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
      n_fns;
      fn_name_bytes;
      fn_ints;
    ];
  put_perm c e.sigma_total;
  put_perm c e.delta_total;
  put_ints c (Array.length row_ptr) (Array.get row_ptr);
  put_ints c (Array.length items) (Array.get items);
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
   functions ([Schedule.tile_fns_of_rows]), so [Schedule.of_tile_fns]
   revalidates from scratch: each loop's rows must address the
   caller's iterations of that loop exactly once or the reconstruction
   fails (the bijectivity check for tile schedules, the analogue of
   [Perm.of_forward] for permutations). Reconstruction also requires
   the file's [items] to match the canonical (row-ascending) order the
   constructor produces — every writer emits that order, and insisting
   on it keeps warm replay bit-identical to the cold run. *)
let schedule_of_csr ~n_tiles ~row_ptr ~items ~loop_sizes =
  let n_rows = Array.length row_ptr - 1 in
  if row_ptr.(0) <> 0 || row_ptr.(n_rows) <> Array.length items then
    corrupt "bad schedule row pointers";
  for r = 0 to n_rows - 1 do
    if row_ptr.(r + 1) < row_ptr.(r) then corrupt "bad schedule row pointers"
  done;
  let tiles, covered =
    Schedule.tile_fns_of_rows ~n_tiles ~row_ptr ~items ~loop_sizes
  in
  if not covered then
    corrupt "schedule loop does not cover its iterations exactly once";
  let s = Schedule.of_tile_fns tiles in
  if Schedule.row_ptr s <> row_ptr || Schedule.flat_items s <> items then
    corrupt "schedule items not in canonical order";
  s

(* Raises [Corrupt] (or [Invalid_argument] from a constructor) on
   anything but a well-formed entry for [hex] of the caller's sizes. *)
let decode buf ~hex { n_data; n_iter; loop_sizes } =
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
  let n_fns = get_int c in
  let fn_name_bytes = get_int c in
  let fn_ints = get_int c in
  if f_n_data <> n_data then corrupt "sigma size mismatch";
  if f_n_iter <> n_iter then corrupt "delta size mismatch";
  if (n_tiles = 0) <> (n_loops = 0) || (n_tiles = 0 && n_items <> 0)
     || n_tiles * n_loops > len
     || file_bytes ~n_data ~n_iter ~n_tiles ~n_loops ~n_items ~n_fns
          ~fn_name_bytes ~fn_ints
        <> len
  then corrupt "file size disagrees with its header";
  let sigma_total = get_perm c n_data in
  let delta_total = get_perm c n_iter in
  let schedule =
    if n_tiles = 0 then None
    else if n_loops <> Array.length loop_sizes then
      corrupt "schedule loop-count mismatch"
    else
      let row_ptr = get_ints c ((n_tiles * n_loops) + 1) in
      let items = get_ints c n_items in
      Some (schedule_of_csr ~n_tiles ~row_ptr ~items ~loop_sizes)
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
    reordering_fns;
    n_data_remaps;
    cold_inspector_seconds;
  }

(* Does a (possibly deserialized, possibly fingerprint-colliding)
   entry actually fit the kernel the caller is about to transform? *)
let validate_entry { n_data; n_iter; loop_sizes } e =
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
(* The store                                                           *)

let format =
  Store.format ~prefix:"plancache" ~what:"plan-cache entry"
    ~file_name:(fun hex -> hex ^ ".plan")
    ~size:entry_bytes
    ~encode:(fun ~hex e ->
      match encode ~hex e with
      | buf -> Ok (Bytes.unsafe_to_string buf)
      | exception Unrepresentable what -> Error ("cannot encode " ^ what))
    ~decode:(fun ~hex shape buf ->
      match decode buf ~hex shape with
      | e -> Ok e
      | exception (Corrupt msg | Invalid_argument msg) -> Error msg)
    ~valid:validate_entry

type t = (entry, shape) Store.t

let create ?mem_budget_bytes ?dir () =
  Store.create format ?mem_budget_bytes ?dir ()

let dir = Store.dir
let stats = Store.stats
let store = Store.store
let peek = Store.peek

let find t ~key ~n_data ~n_iter ~loop_sizes =
  Store.find t ~key { n_data; n_iter; loop_sizes }
