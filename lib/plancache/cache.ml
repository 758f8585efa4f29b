(* Content-addressed cache of composed inspector results, so repeated
   experiments over an identical (dataset, plan) pair pay the
   inspection cost once (the paper's amortization argument, Figures
   8/9/17, made a first-class subsystem). This module is the entry,
   its binary codec (format v5, below) and its validation against the
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
(* Binary entries (format v5) — on-disk tier                           *)

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
   - a 64-bit checksum of every byte before it
     ([Fingerprint.lane_checksum]: four FNV-1a lanes over 32-bit
     words, folded by the byte-serial FNV-1a).

   The header's counts fix the file size, so the reader rejects a bad
   length, magic, version, checksum, key or size before it decodes any
   array. Versions 1 and 2 were JSON [<key>.json] files: they are never
   opened, and a JSON body under a [.plan] name fails the magic check,
   so either is a miss that the re-inspection overwrites. Version 3
   also held a shape summary; version 4 had this layout under the
   byte-serial FNV-1a checksum. Either fails the version check: a
   counted miss overwritten like any other bad entry. The layout is a
   storage format: change it only with a [format_version] bump
   (test_plancache pins it with a known answer). *)
let format_version = 5
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

exception Corrupt of string
exception Unrepresentable of string

let corrupt msg = raise (Corrupt msg)
let max_int32 = 0x7fff_ffff

(* The writer streams the file through one fixed chunk: each put
   first makes room, and making room checksums and writes out the
   chunk's whole 16-byte blocks (the lanes take whole blocks) and moves
   the rest, under 16 bytes, to the front. No buffer the size of the
   file, no copy of any array. *)
let chunk_bytes = 1 lsl 16

type writer = {
  oc : out_channel;
  chunk : Bytes.t;
  mutable pos : int;
  sum : Fingerprint.lanes;
}

let room w n =
  if w.pos > chunk_bytes - n then begin
    let whole = w.pos land lnot 15 in
    Fingerprint.feed w.sum w.chunk 0 whole;
    Out_channel.output w.oc w.chunk 0 whole;
    Bytes.blit w.chunk whole w.chunk 0 (w.pos - whole);
    w.pos <- w.pos - whole
  end

let unrepresentable v =
  raise (Unrepresentable (Fmt.str "%d is outside [0, 2^31)" v))

let put_int w v =
  if v < 0 || v > max_int32 then unrepresentable v;
  room w 4;
  Bytes.set_int32_le w.chunk w.pos (Int32.of_int v);
  w.pos <- w.pos + 4

(* As many ints as the chunk holds per round, in a plain loop. *)
let put_ints w (a : int array) =
  let n = Array.length a in
  let i = ref 0 in
  while !i < n do
    room w 4;
    let first = !i and p = w.pos and chunk = w.chunk in
    let fit = min (n - first) ((chunk_bytes - p) / 4) in
    for k = 0 to fit - 1 do
      let v = a.(first + k) in
      if v < 0 || v > max_int32 then unrepresentable v;
      Bytes.set_int32_le chunk (p + (4 * k)) (Int32.of_int v)
    done;
    w.pos <- p + (4 * fit);
    i := first + fit
  done

let put_string w s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    room w 1;
    let fit = min (n - !i) (chunk_bytes - w.pos) in
    Bytes.blit_string s !i w.chunk w.pos fit;
    w.pos <- w.pos + fit;
    i := !i + fit
  done

let put_float w f =
  room w 8;
  Bytes.set_int64_le w.chunk w.pos (Int64.bits_of_float f);
  w.pos <- w.pos + 8

(* The whole file onto [oc]; raises [Unrepresentable] on a value
   outside [0, 2^31), after which what was written is discarded. *)
let write ~hex e oc =
  let n_data = Perm.size e.sigma_total and n_iter = Perm.size e.delta_total in
  let n_tiles, n_loops, row_ptr, items =
    match e.schedule with
    | None -> (0, 0, [||], [||])
    | Some s when Schedule.n_tiles s > 0 && Schedule.n_loops s > 0 ->
      (Schedule.n_tiles s, Schedule.n_loops s, Schedule.row_ptr s,
       Schedule.flat_items s)
    | Some _ -> raise (Unrepresentable "a schedule without tiles")
  in
  let n_fns = List.length e.reordering_fns in
  let fn_name_bytes =
    List.fold_left (fun n (name, _) -> n + String.length name) 0
      e.reordering_fns
  in
  let fn_ints =
    List.fold_left (fun n (_, p) -> n + Perm.size p) 0 e.reordering_fns
  in
  let w =
    { oc; chunk = Bytes.create chunk_bytes; pos = 0; sum = Fingerprint.lanes () }
  in
  put_string w magic;
  put_int w format_version;
  put_string w hex;
  List.iter (put_int w)
    [
      n_data;
      n_iter;
      n_tiles;
      n_loops;
      Array.length items;
      n_fns;
      fn_name_bytes;
      fn_ints;
    ];
  put_ints w (Perm.unsafe_forward e.sigma_total);
  put_ints w (Perm.unsafe_forward e.delta_total);
  put_ints w row_ptr;
  put_ints w items;
  List.iter
    (fun (name, p) ->
      put_int w (String.length name);
      put_string w name;
      put_int w (Perm.size p);
      put_ints w (Perm.unsafe_forward p))
    e.reordering_fns;
  put_int w e.n_data_remaps;
  put_float w e.cold_inspector_seconds;
  room w 8;
  let sum = Fingerprint.seal w.sum w.chunk 0 w.pos in
  Bytes.set_int64_le w.chunk w.pos sum;
  Out_channel.output w.oc w.chunk 0 (w.pos + 8)

(* A cursor over everything before the checksum. Every read goes
   through [advance], so none can leave [0, limit). *)
type cursor = { buf : Bytes.t; mutable pos : int; limit : int }

let advance c n =
  let p = c.pos in
  if n < 0 || p > c.limit - n then corrupt "entry ends before its contents";
  c.pos <- p + n;
  p

let get_int c =
  let v = Int32.to_int (Bytes.get_int32_le c.buf (advance c 4)) in
  if v < 0 then corrupt "negative count";
  v

let get_float c = Int64.float_of_bits (Bytes.get_int64_le c.buf (advance c 8))
let get_string c n = Bytes.sub_string c.buf (advance c n) n

(* Values as stored, in a plain loop; a negative one stays negative for
   the constructor to reject. *)
let get_ints c n =
  let p = advance c (4 * n) in
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- Int32.to_int (Bytes.get_int32_le c.buf (p + (4 * i)))
  done;
  a

(* A permutation of [0, n), checked as it is read: each value in range
   and not seen before (a bit per value), so the array read is the
   permutation's own, with no copy and no second pass. *)
let get_perm c n =
  let p = advance c (4 * n) in
  let a = Array.make n 0 in
  let seen = Bytes.make ((n + 7) / 8) '\000' in
  for i = 0 to n - 1 do
    let v = Int32.to_int (Bytes.get_int32_le c.buf (p + (4 * i))) in
    if v < 0 || v >= n then corrupt "not a permutation: value out of range";
    let byte = Bytes.get_uint8 seen (v lsr 3) and m = 1 lsl (v land 7) in
    if byte land m <> 0 then corrupt "not a permutation: value duplicated";
    Bytes.set_uint8 seen (v lsr 3) (byte lor m);
    a.(i) <- v
  done;
  Perm.unsafe_of_forward a

(* Raises [Corrupt] (or [Invalid_argument] from [Schedule.of_rows]) on
   anything but a well-formed entry for [hex] of the caller's sizes.
   The schedule is validated in one pass over its rows: each loop's
   rows must name the caller's iterations of that loop exactly once, in
   the ascending order every writer emits, which keeps warm replay
   bit-identical to the cold run. *)
let decode buf ~hex { n_data; n_iter; loop_sizes } =
  let len = Bytes.length buf in
  if len < header_bytes + trailer_bytes then corrupt "shorter than a header";
  let c = { buf; pos = 0; limit = len - 8 } in
  if get_string c (String.length magic) <> magic then
    corrupt "not a plan-cache entry";
  if get_int c <> format_version then corrupt "unsupported format version";
  if Bytes.get_int64_le buf c.limit <> Fingerprint.lane_checksum buf c.limit
  then corrupt "checksum mismatch";
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
      Some (Schedule.of_rows ~n_tiles ~row_ptr ~items ~loop_sizes)
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
    ~write:(fun ~hex e oc ->
      match write ~hex e oc with
      | () -> Ok ()
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
