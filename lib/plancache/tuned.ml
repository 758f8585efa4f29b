(* Autotuned-winner store: where [Cache] memoizes the *result* of
   inspecting one (dataset, plan) pair, [Tuned] memoizes the *choice*
   of plan, the winner of an autotune search over the candidate space,
   keyed by the access-pattern fingerprint plus the machine model.

   An entry names its winner and stores no serialized plan: the key
   hashes every candidate's transform list, so the caller already
   holds the plan of that name (this library sits below the
   composition layer and cannot name [Transform.t]). This module is
   the entry, its JSON codec (format v3) and its machine check;
   [Store] holds the tiers, as for [Cache]. *)

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
let validate_entry machine e =
  if e.machine <> machine then Error "machine mismatch" else Ok ()

(* Resident bytes for the memory tier's budget: about a kilobyte for a
   full candidate space (27 scores), far below the 64 MiB default. *)
let entry_bytes e =
  List.fold_left
    (fun n (name, _) -> n + String.length name + 16)
    (64 + String.length e.winner + String.length e.machine)
    e.scores

(* ------------------------------------------------------------------ *)
(* The store                                                           *)

let format =
  Store.format ~prefix:"autotune.cache" ~what:"tuned-plan entry"
    ~file_name:(fun hex -> "tuned-" ^ hex ^ ".json")
    ~size:entry_bytes
    ~write:(fun ~hex e oc ->
      Ok (output_string oc (J.to_string (json_of_entry ~hex e) ^ "\n")))
    ~decode:(fun ~hex _ buf ->
      Result.bind
        (J.of_string (Bytes.unsafe_to_string buf))
        (entry_of_json ~hex))
    ~valid:validate_entry

type t = (entry, string) Store.t

let create ?dir () = Store.create format ?dir ()
let dir = Store.dir
let find t ~key ~machine = Store.find t ~key machine
let store = Store.store

let stats t =
  let s = Store.stats t in
  {
    hits = s.Store.hits;
    misses = s.misses;
    stores = s.stores;
    disk_hits = s.disk_hits;
    disk_errors = s.disk_errors;
    entries = s.entries;
  }
