(* The two tiers under [Cache] and [Tuned] (the contract is in
   store.mli). A format brings the entries' file name, size, codec and
   validation; the memory tier, the file discipline, the disk-fault
   rules and the accounting are decided here, once. *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  disk_hits : int;
  disk_errors : int;
  entries : int;
  bytes : int;
}

type ('e, 'ctx) format = {
  what : string;
  file_name : string -> string;
  size : 'e -> int;
  write : hex:string -> 'e -> out_channel -> (unit, string) result;
  decode : hex:string -> 'ctx -> Bytes.t -> ('e, string) result;
  valid : 'ctx -> 'e -> (unit, string) result;
  c_hit : Rtrt_obs.Metrics.counter;
  c_miss : Rtrt_obs.Metrics.counter;
  c_evict : Rtrt_obs.Metrics.counter;
  c_store : Rtrt_obs.Metrics.counter;
  c_disk_hit : Rtrt_obs.Metrics.counter;
  c_disk_error : Rtrt_obs.Metrics.counter;
  g_bytes : Rtrt_obs.Metrics.gauge;
}

let format ~prefix ~what ~file_name ~size ~write ~decode ~valid =
  let c name = Rtrt_obs.Metrics.counter (prefix ^ "." ^ name) in
  {
    what;
    file_name;
    size;
    write;
    decode;
    valid;
    c_hit = c "hit";
    c_miss = c "miss";
    c_evict = c "evict";
    c_store = c "store";
    c_disk_hit = c "disk_hit";
    c_disk_error = c "disk_error";
    g_bytes = Rtrt_obs.Metrics.gauge (prefix ^ ".bytes");
  }

type 'e slot = { entry : 'e; slot_bytes : int; mutable last_use : int }

type ('e, 'ctx) t = {
  fmt : ('e, 'ctx) format;
  mem_budget : int;
  dir : string option;
  tbl : (string, 'e slot) Hashtbl.t;
  mutex : Mutex.t;
  mutable clock : int;
  mutable counts : stats; (* [entries] is read off [tbl] *)
}

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create fmt ?(mem_budget_bytes = 64 * 1024 * 1024) ?dir () =
  Option.iter mkdir_p dir;
  {
    fmt;
    mem_budget = mem_budget_bytes;
    dir;
    tbl = Hashtbl.create 32;
    mutex = Mutex.create ();
    clock = 0;
    counts =
      {
        hits = 0;
        misses = 0;
        stores = 0;
        evictions = 0;
        disk_hits = 0;
        disk_errors = 0;
        entries = 0;
        bytes = 0;
      };
  }

let dir t = t.dir

let stats t =
  Mutex.protect t.mutex (fun () ->
      { t.counts with entries = Hashtbl.length t.tbl })

(* ------------------------------------------------------------------ *)
(* The LRU memory tier (callers hold the mutex)                        *)

let add_bytes t n = t.counts <- { t.counts with bytes = t.counts.bytes + n }

(* O(entries) eviction scan: these stores hold tens of entries, not
   millions. *)
let evict_until_within t =
  while t.counts.bytes > t.mem_budget && Hashtbl.length t.tbl > 1 do
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
      add_bytes t (-slot.slot_bytes);
      t.counts <- { t.counts with evictions = t.counts.evictions + 1 };
      Rtrt_obs.Metrics.incr t.fmt.c_evict
  done;
  Rtrt_obs.Metrics.set t.fmt.g_bytes (float_of_int t.counts.bytes)

let insert_mem t hex entry =
  Option.iter
    (fun old ->
      Hashtbl.remove t.tbl hex;
      add_bytes t (-old.slot_bytes))
    (Hashtbl.find_opt t.tbl hex);
  let slot_bytes = t.fmt.size entry in
  t.clock <- t.clock + 1;
  Hashtbl.replace t.tbl hex { entry; slot_bytes; last_use = t.clock };
  add_bytes t slot_bytes;
  evict_until_within t

(* ------------------------------------------------------------------ *)
(* The disk tier (callers hold the mutex)                              *)

(* Every write gets its own temp name (pid, domain and a process-wide
   counter). The pid alone is not enough: two writers in one process
   would share a temp file, and one could rename it away while the
   other still writes it. *)
let tmp_counter = Atomic.make 0

(* [write] streams the file into the temp file; a codec's refusal,
   like a failed write, leaves no temp file behind. *)
let write_atomically path write =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let written =
    match Out_channel.with_open_bin tmp write with
    | Ok () -> ( try Ok (Sys.rename tmp path) with Sys_error msg -> Error msg)
    | Error _ as e -> e
    | exception Sys_error msg -> Error msg
  in
  if Result.is_error written then (try Sys.remove tmp with Sys_error _ -> ());
  written

let read_file path =
  match
    In_channel.with_open_bin path (fun ic ->
        let buf = Bytes.create (Int64.to_int (In_channel.length ic)) in
        match In_channel.really_input ic buf 0 (Bytes.length buf) with
        | Some () -> Ok buf
        | None -> Error "file shrank while being read")
  with
  | r -> r
  | exception Sys_error msg -> Error msg

let count_disk_error t =
  t.counts <- { t.counts with disk_errors = t.counts.disk_errors + 1 };
  Rtrt_obs.Metrics.incr t.fmt.c_disk_error

let disk_load t hex ctx =
  match t.dir with
  | None -> None
  | Some dir -> (
    let path = Filename.concat dir (t.fmt.file_name hex) in
    if not (Sys.file_exists path) then None
    else
      let ( let* ) = Result.bind in
      match
        let* buf = read_file path in
        let* e = t.fmt.decode ~hex ctx buf in
        let* () = t.fmt.valid ctx e in
        Ok e
      with
      | Ok e -> Some e
      | Error msg ->
        count_disk_error t;
        Fmt.epr "rtrt: warning: %s %s is invalid (%s); treating as a miss@."
          t.fmt.what path msg;
        None)

let disk_store t hex e =
  match t.dir with
  | None -> ()
  | Some dir -> (
    let path = Filename.concat dir (t.fmt.file_name hex) in
    match write_atomically path (t.fmt.write ~hex e) with
    | Ok () -> ()
    | Error msg ->
      count_disk_error t;
      Fmt.epr "rtrt: warning: cannot write %s %s (%s)@." t.fmt.what path msg)

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)

let find t ~key ctx =
  let hex = Fingerprint.to_hex key in
  Mutex.protect t.mutex (fun () ->
      let result =
        match Hashtbl.find_opt t.tbl hex with
        | Some slot when t.fmt.valid ctx slot.entry = Ok () ->
          t.clock <- t.clock + 1;
          slot.last_use <- t.clock;
          Some slot.entry
        | _ ->
          let e = disk_load t hex ctx in
          Option.iter
            (fun e ->
              t.counts <- { t.counts with disk_hits = t.counts.disk_hits + 1 };
              Rtrt_obs.Metrics.incr t.fmt.c_disk_hit;
              insert_mem t hex e)
            e;
          e
      in
      let c = t.counts in
      (match result with
      | Some _ ->
        t.counts <- { c with hits = c.hits + 1 };
        Rtrt_obs.Metrics.incr t.fmt.c_hit
      | None ->
        t.counts <- { c with misses = c.misses + 1 };
        Rtrt_obs.Metrics.incr t.fmt.c_miss);
      result)

let store t ~key entry =
  let hex = Fingerprint.to_hex key in
  Mutex.protect t.mutex (fun () ->
      t.counts <- { t.counts with stores = t.counts.stores + 1 };
      Rtrt_obs.Metrics.incr t.fmt.c_store;
      insert_mem t hex entry;
      disk_store t hex entry)

let peek t ~key =
  let hex = Fingerprint.to_hex key in
  Mutex.protect t.mutex (fun () ->
      Option.map (fun s -> s.entry) (Hashtbl.find_opt t.tbl hex))
