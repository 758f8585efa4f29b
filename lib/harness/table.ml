(* The one row schema of every bench table (and of the ablations): a
   table is a list of rows; a row is keyed by string labels (bench,
   dataset, plan, section, ...), may carry descriptive notes (a chosen
   tier, a winning plan) and holds metrics. Each metric declares its
   unit and which way is better, so a reader never guesses either from
   a key name: `rtrt bench-diff` gates on exactly what the producer
   declared.

   On disk a table is one JSON object tagged with [schema], written one
   row per line. A non-finite value has no JSON spelling and is written
   as null; the reader turns null back into NaN. *)

module J = Rtrt_obs.Json

type better = Lower | Higher | Info

type metric = {
  name : string;
  value : float;
  unit_ : string;
  better : better;
}

type row = {
  labels : (string * string) list;
  notes : (string * string) list;
  metrics : metric list;
}

type t = {
  name : string;
  rows : row list;
}

let schema = "rtrt.table/1"

let metric better name unit_ value = { name; value; unit_; better }
let lower = metric Lower
let higher = metric Higher
let info = metric Info
let count name n = info name "count" (float_of_int n)
let flag better name b = metric better name "bool" (if b then 1.0 else 0.0)
let row ?(notes = []) labels metrics = { labels; notes; metrics }

let dimensionless m = m.unit_ = "ratio" || m.unit_ = "bool"

let find_metric r name =
  List.find_opt (fun (m : metric) -> m.name = name) r.metrics

let profile_rows phases =
  List.map
    (fun (p : Rtrt_obs.Profile.phase) ->
      let open Rtrt_obs.Profile in
      row
        [ ("section", "profile"); ("phase", p.ph_name) ]
        [
          lower "seconds" "s" p.ph_seconds;
          info "minor_words" "words" p.ph_minor_words;
          info "promoted_words" "words" p.ph_promoted_words;
          info "major_words" "words" p.ph_major_words;
          count "minor_collections" p.ph_minor_collections;
          count "major_collections" p.ph_major_collections;
          count "compactions" p.ph_compactions;
          info "heap_words" "words" (float_of_int p.ph_heap_words);
        ])
    phases

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let better_name = function
  | Lower -> "lower"
  | Higher -> "higher"
  | Info -> "info"

let strings kvs = J.Obj (List.map (fun (k, v) -> (k, J.String v)) kvs)

let json_of_metric m =
  let value =
    if m.unit_ = "bool" && Float.is_finite m.value then J.Bool (m.value <> 0.0)
    else J.Float m.value
  in
  J.Obj
    [
      ("value", value);
      ("unit", J.String m.unit_);
      ("better", J.String (better_name m.better));
    ]

let json_of_row r =
  J.Obj
    ([ ("labels", strings r.labels) ]
    @ (if r.notes = [] then [] else [ ("notes", strings r.notes) ])
    @ [
        ( "metrics",
          J.Obj
            (List.map
               (fun (m : metric) -> (m.name, json_of_metric m))
               r.metrics) );
      ])

let to_string t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Fmt.str "{\"schema\":%s,\"table\":%s,\"rows\":["
       (J.to_string (J.String schema))
       (J.to_string (J.String t.name)));
  List.iteri
    (fun i r ->
      Buffer.add_string b (if i = 0 then "\n" else ",\n");
      Buffer.add_string b (J.to_string (json_of_row r)))
    t.rows;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write path t =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string t))

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = map_result f xs in
    Ok (y :: ys)

let fields what = function
  | J.Obj kvs -> Ok kvs
  | _ -> Error (what ^ " is not an object")

let string_fields what j =
  let* kvs = fields what j in
  map_result
    (fun (k, v) ->
      match v with
      | J.String s -> Ok (k, s)
      | _ -> Error (Fmt.str "%s.%s is not a string" what k))
    kvs

let metric_of_json (name, j) =
  let* kvs = fields ("metric " ^ name) j in
  let field k = List.assoc_opt k kvs in
  let* value =
    match field "value" with
    | Some (J.Float f) -> Ok f
    | Some (J.Int n) -> Ok (float_of_int n)
    | Some (J.Bool b) -> Ok (if b then 1.0 else 0.0)
    | Some J.Null -> Ok Float.nan
    | _ -> Error ("metric " ^ name ^ ": value is not a number")
  in
  let* unit_ =
    match field "unit" with
    | Some (J.String u) -> Ok u
    | _ -> Error ("metric " ^ name ^ ": unit is not a string")
  in
  let* better =
    match field "better" with
    | Some (J.String "lower") -> Ok Lower
    | Some (J.String "higher") -> Ok Higher
    | Some (J.String "info") -> Ok Info
    | _ -> Error ("metric " ^ name ^ ": better is not lower/higher/info")
  in
  Ok { name; value; unit_; better }

let row_of_json j =
  let* kvs = fields "row" j in
  let field k = List.assoc_opt k kvs in
  let* labels =
    match field "labels" with
    | Some l -> string_fields "labels" l
    | None -> Error "row without labels"
  in
  let* notes =
    match field "notes" with
    | Some n -> string_fields "notes" n
    | None -> Ok []
  in
  let* metrics =
    match field "metrics" with
    | Some m ->
      let* ms = fields "metrics" m in
      map_result metric_of_json ms
    | None -> Error "row without metrics"
  in
  Ok { labels; notes; metrics }

let of_json j =
  match (J.member "schema" j, J.member "table" j, J.member "rows" j) with
  | Some (J.String s), Some (J.String name), Some (J.List rows) when s = schema
    ->
    let* rows = map_result row_of_json rows in
    let seen = Hashtbl.create 64 in
    let duplicate r =
      Hashtbl.mem seen r.labels || (Hashtbl.add seen r.labels (); false)
    in
    (match List.find_opt duplicate rows with
    | Some r ->
      Error (Fmt.str "two rows labelled %s" (J.to_string (strings r.labels)))
    | None -> Ok { name; rows })
  | _ -> Error ("not a table (no \"schema\":\"" ^ schema ^ "\" with rows)")

let load path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Result.bind (J.of_string text) of_json with
  | Ok t -> t
  | Error msg -> Fmt.failwith "%s: %s" path msg

(* ------------------------------------------------------------------ *)
(* Text                                                                *)

let cell m =
  let v = m.value in
  if not (Float.is_finite v) then Fmt.str "%f" v
  else if m.unit_ = "bool" then string_of_bool (v <> 0.0)
  else if Float.is_integer v && Float.abs v < 1e15 then Fmt.str "%.0f" v
  else if Float.abs v >= 1000.0 then Fmt.str "%.1f" v
  else Fmt.str "%.4g" v

(* Keys in first-seen order across rows. *)
let union keys rows =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc k -> if List.mem k acc then acc else acc @ [ k ])
        acc (keys r))
    [] rows

(* One block of aligned columns per run of rows that share label keys
   and section: the section titles the block, the other labels and the
   notes are left-aligned columns, metrics right-aligned under their
   name and unit; "-" where a row lacks a note or metric. *)
let pp_block ppf rows =
  let first = List.hd rows in
  Option.iter (Fmt.pf ppf "  %s:@.") (List.assoc_opt "section" first.labels);
  let note_keys = union (fun r -> List.map fst r.notes) rows in
  let metric_cols =
    union
      (fun r -> List.map (fun (m : metric) -> (m.name, m.unit_)) r.metrics)
      rows
  in
  (* (left-aligned, header, unit, cell of a row) *)
  let cols =
    List.map
      (fun (k, _) -> (true, k, "", fun r -> List.assoc k r.labels))
      (List.filter (fun (k, _) -> k <> "section") first.labels)
    @ List.map
        (fun k ->
          ( true,
            k,
            "",
            fun r -> Option.value (List.assoc_opt k r.notes) ~default:"-" ))
        note_keys
    @ List.map
        (fun (name, unit_) ->
          ( false,
            name,
            unit_,
            fun r -> Option.fold ~none:"-" ~some:cell (find_metric r name) ))
        metric_cols
  in
  let cols =
    List.map
      (fun (left, name, unit_, get) ->
        let cells = Array.of_list (List.map get rows) in
        let w =
          Array.fold_left
            (fun w s -> max w (String.length s))
            (max (String.length name) (String.length unit_))
            cells
        in
        let pad s =
          let fill = String.make (w - String.length s) ' ' in
          if left then s ^ fill else fill ^ s
        in
        (pad name, pad unit_, Array.map pad cells))
      cols
  in
  let line cells = Fmt.pf ppf "  %s@." (String.concat "  " cells) in
  line (List.map (fun (h, _, _) -> h) cols);
  if metric_cols <> [] then line (List.map (fun (_, u, _) -> u) cols);
  List.iteri
    (fun i _ -> line (List.map (fun (_, _, cells) -> cells.(i)) cols))
    rows

let pp ppf t =
  Fmt.pf ppf "%s:@." t.name;
  let block_of r = (List.map fst r.labels, List.assoc_opt "section" r.labels) in
  let rec blocks = function
    | [] -> []
    | r :: _ as rows ->
      let rec split acc = function
        | r' :: rest when block_of r' = block_of r -> split (r' :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let block, rest = split [] rows in
      block :: blocks rest
  in
  List.iteri
    (fun i block ->
      if i > 0 then Fmt.pf ppf "@.";
      pp_block ppf block)
    (blocks t.rows)
