(* Autotuned-winner store: the second content-addressed tier of the
   plan cache. Where [Cache] memoizes the *result* of inspecting one
   (dataset, plan) pair, [Tuned] memoizes the *choice* of plan — the
   winner of an autotune search over the candidate space — keyed by
   the access-pattern fingerprint plus the machine model, so repeat
   traffic on the same pattern gets the tuned plan without re-scoring
   the space.

   An entry names its winner and stores no serialized plan: the key
   hashes every candidate's transform list, so the caller already
   holds the plan of that name (this library sits below the
   composition layer and cannot name [Transform.t]). Entries also
   carry the full per-candidate score table for reporting.

   Same disk discipline as [Cache]: one [tuned-<hex>.json] file per
   key, atomic tmp+rename writes, validated loads (version, the key
   the entry names, a checksum over its values) that degrade to a
   miss on any corruption. Traffic is published as [autotune.cache.*]
   metrics. *)

type entry = {
  winner : string;            (* name of the winning plan *)
  winner_score_ns : float;    (* modeled ns per step of the winner *)
  scores : (string * float) list;  (* every candidate: name, modeled ns/step *)
  machine : string;           (* machine model the scores belong to *)
}

type stats = {
  hits : int;
  misses : int;
  stores : int;
  disk_hits : int;
  disk_errors : int;
  entries : int;
}

type t = {
  dir : string option;
  tbl : (string, entry) Hashtbl.t;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable disk_hits : int;
  mutable disk_errors : int;
}

let c_hit = Rtrt_obs.Metrics.counter "autotune.cache.hit"
let c_miss = Rtrt_obs.Metrics.counter "autotune.cache.miss"
let c_store = Rtrt_obs.Metrics.counter "autotune.cache.store"
let c_disk_hit = Rtrt_obs.Metrics.counter "autotune.cache.disk_hit"
let c_disk_error = Rtrt_obs.Metrics.counter "autotune.cache.disk_error"

let create ?dir () =
  Option.iter Disk_write.mkdir_p dir;
  {
    dir;
    tbl = Hashtbl.create 16;
    mutex = Mutex.create ();
    hits = 0;
    misses = 0;
    stores = 0;
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
      disk_hits = t.disk_hits;
      disk_errors = t.disk_errors;
      entries = Hashtbl.length t.tbl;
    }
  in
  Mutex.unlock t.mutex;
  s

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "%d hits (%d from disk), %d misses, %d stores, %d disk errors, %d \
     entries resident"
    s.hits s.disk_hits s.misses s.stores s.disk_errors s.entries

(* ------------------------------------------------------------------ *)
(* JSON (de)serialization — on-disk tier                               *)

module J = Rtrt_obs.Json

(* Version 2 added the checksum; version 3 dropped the serialized
   winning plan. A file of an older version is a miss that the next
   store overwrites. *)
let format_version = 3

let fields ~hex e =
  [
    ("version", J.Int format_version);
    ("key", J.String hex);
    ("winner", J.String e.winner);
    ("winner_score_ns", J.Float e.winner_score_ns);
    ( "scores",
      J.List
        (List.map
           (fun (name, score) ->
             J.Obj [ ("name", J.String name); ("score_ns", J.Float score) ])
           e.scores) );
    ("machine", J.String e.machine);
  ]

(* FNV-1a over the entry's JSON without the checksum field. A decoded
   entry prints back to the same bytes (floats print as text that
   reads back exactly), so the reader recomputes it from what it
   decoded: a change to any value that still parses, such as a flipped
   letter in a plan name, is caught. *)
let checksum ~hex e =
  let s = J.to_string (J.Obj (fields ~hex e)) in
  Printf.sprintf "%016Lx"
    (Fingerprint.checksum (Bytes.unsafe_of_string s) (String.length s))

let json_of_entry ~hex e =
  J.Obj (fields ~hex e @ [ ("checksum", J.String (checksum ~hex e)) ])

let ( let* ) = Result.bind

let field name j =
  match J.member name j with
  | Some v -> Ok v
  | None -> Error ("missing field " ^ name)

let string_field name j =
  let* v = field name j in
  match J.to_string_opt v with
  | Some s -> Ok s
  | None -> Error ("field " ^ name ^ " is not a string")

let float_field name j =
  let* v = field name j in
  match J.to_float_opt v with
  | Some f -> Ok f
  | None -> Error ("field " ^ name ^ " is not a number")

(* [hex] names the file: an entry copied under another key's name is
   not that key's winner. *)
let entry_of_json ~hex j =
  let* version =
    let* v = field "version" j in
    match J.to_int_opt v with
    | Some n -> Ok n
    | None -> Error "field version is not an integer"
  in
  if version <> format_version then Error "unsupported format version"
  else
    let* key = string_field "key" j in
    let* () =
      if key = hex then Ok () else Error ("entry stored under key " ^ key)
    in
    let* winner = string_field "winner" j in
    let* winner_score_ns = float_field "winner_score_ns" j in
    let* scores =
      match J.member "scores" j with
      | Some (J.List ss) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | s :: rest ->
            let* name = string_field "name" s in
            let* score = float_field "score_ns" s in
            go ((name, score) :: acc) rest
        in
        go [] ss
      | _ -> Error "bad scores field"
    in
    let* machine = string_field "machine" j in
    let e = { winner; winner_score_ns; scores; machine } in
    let* sum = string_field "checksum" j in
    if sum <> checksum ~hex e then Error "checksum mismatch"
    else if not (List.mem_assoc winner scores) then
      Error "winner missing from the score table"
    else Ok e

(* Is this (possibly deserialized, possibly fingerprint-colliding)
   entry usable for the machine the caller is tuning for? *)
let validate_entry e ~machine =
  if e.machine <> machine then Error "machine mismatch" else Ok ()

(* ------------------------------------------------------------------ *)
(* Disk tier                                                           *)

let file_path dir hex = Filename.concat dir ("tuned-" ^ hex ^ ".json")

let disk_load t hex ~machine =
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
            let* e = entry_of_json ~hex j in
            let* () = validate_entry e ~machine in
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
          "rtrt: warning: tuned-plan entry %s is invalid (%s); treating as a \
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
      Fmt.epr "rtrt: warning: cannot write tuned-plan entry %s (%s)@." path
        msg)

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)

let find t ~key ~machine =
  let hex = Fingerprint.to_hex key in
  Mutex.lock t.mutex;
  let result =
    match Hashtbl.find_opt t.tbl hex with
    | Some e when validate_entry e ~machine = Ok () -> Some e
    | _ -> (
      match disk_load t hex ~machine with
      | Some e ->
        t.disk_hits <- t.disk_hits + 1;
        Rtrt_obs.Metrics.incr c_disk_hit;
        Hashtbl.replace t.tbl hex e;
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
  Hashtbl.replace t.tbl hex entry;
  disk_store t hex entry;
  Mutex.unlock t.mutex
