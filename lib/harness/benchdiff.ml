(* Bench-regression differ: compare two BENCH_*.json files
   metric-by-metric.

   Both files are flattened to (path, number) rows — object keys join
   with '.', list elements are labeled by their identifying string
   fields ("bench"/"dataset"/"plan"/"config"/"name", falling back to
   the index; a repeated label gets "#k") so rows line up even if list
   order changes. Each path is classified by key-name heuristics into
   lower-is-better (seconds, misses, ...), higher-is-better (speedup,
   gbps, identity booleans), or informational (scale, steps, counts);
   gated rows whose relative change exceeds the tolerance become
   verdicts.

   Absolute timings differ across machines, so CI gates with
   [ratios_only], which restricts gating to dimensionless or modeled
   metrics (speedups, normalized ratios, miss ratios, identity
   booleans) — everything else is reported but informational. *)

type direction = Lower_better | Higher_better | Info
type verdict = Improved | Regressed | Equal | Neutral | Missing | Added

type row = {
  r_path : string;
  r_old : float option;
  r_new : float option;
  r_delta_pct : float option; (* (new - old) / |old| * 100 *)
  r_dir : direction;
  r_verdict : verdict;
}

(* ------------------------------------------------------------------ *)
(* Flattening                                                          *)

let id_keys = [ "bench"; "dataset"; "plan"; "config"; "name" ]

let label_of_element i j =
  let ids =
    List.filter_map
      (fun k ->
        match Rtrt_obs.Json.member k j with
        | Some (Rtrt_obs.Json.String s) -> Some s
        | _ -> None)
      id_keys
  in
  match ids with
  | [] -> string_of_int i
  | ids -> String.concat "/" ids

let rec flatten prefix (j : Rtrt_obs.Json.t) acc =
  let join a b = if a = "" then b else a ^ "." ^ b in
  match j with
  | Rtrt_obs.Json.Obj kvs ->
    List.fold_left (fun acc (k, v) -> flatten (join prefix k) v acc) acc kvs
  | Rtrt_obs.Json.List xs ->
    (* Elements that share a label (the churn rows of one cell differ
       only in churn_pct) get an occurrence suffix, so no element's
       metrics shadow another's. *)
    let seen = Hashtbl.create 8 in
    let _, acc =
      List.fold_left
        (fun (i, acc) x ->
          let label = label_of_element i x in
          let n = Option.value (Hashtbl.find_opt seen label) ~default:0 in
          Hashtbl.replace seen label (n + 1);
          let label = if n = 0 then label else Fmt.str "%s#%d" label n in
          (i + 1, flatten (Fmt.str "%s[%s]" prefix label) x acc))
        (0, acc) xs
    in
    acc
  | Rtrt_obs.Json.Int n -> (prefix, float_of_int n) :: acc
  | Rtrt_obs.Json.Float f -> (prefix, f) :: acc
  | Rtrt_obs.Json.Bool b -> (prefix, if b then 1.0 else 0.0) :: acc
  | Rtrt_obs.Json.String _ | Rtrt_obs.Json.Null -> acc

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let last_segment path =
  match String.rindex_opt path '.' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let direction_of path =
  let key = String.lowercase_ascii (last_segment path) in
  let has sub = contains ~sub key in
  if
    (* configuration / size facts: changes are neither good nor bad *)
    List.mem key
      [
        "scale"; "steps"; "passes"; "items"; "domains"; "repeats"; "count";
        "n_tiles"; "modeled_makespan"; "heap_words"; "wall_start_unix_s";
      ]
    || has "collections" || has "compactions" || has "words"
  then Info
  else if
    has "speedup" || has "gbps" || has "reduction_pct" || has "identical"
    || has "bitwise" || has "hit"
  then Higher_better
  else if
    has "seconds" || has "_ns" || has "miss" || has "cycles" || has "access"
    || has "breakeven" || has "tiled_over_plain" || has "normalized"
    || has "remap"
  then Lower_better
  else Info

(* Dimensionless or deterministic-model metrics: stable across
   machines, so CI can gate on them with a generous tolerance. *)
let ratio_like path =
  let key = String.lowercase_ascii (last_segment path) in
  let has sub = contains ~sub key in
  has "speedup" || has "tiled_over_plain" || has "normalized"
  || has "miss_ratio" || has "reduction_pct" || has "identical"
  || has "bitwise"

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

let classify ~tolerance ~dir old_v new_v =
  match dir with
  | Info -> Neutral
  | _ ->
    if old_v = new_v then Equal
    else begin
      let denom = Float.abs old_v in
      let rel =
        if denom > 0.0 then (new_v -. old_v) /. denom
        else if new_v > 0.0 then infinity
        else neg_infinity
      in
      let worse, better =
        match dir with
        | Lower_better -> (rel > tolerance, rel < -.tolerance)
        | Higher_better -> (rel < -.tolerance, rel > tolerance)
        | Info -> (false, false)
      in
      if worse then Regressed else if better then Improved else Equal
    end

let compare_json ?(tolerance = 0.1) ?(ratios_only = false) old_j new_j =
  let olds = flatten "" old_j [] and news = flatten "" new_j [] in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (p, v) -> Hashtbl.replace tbl p (Some v, None)) olds;
  List.iter
    (fun (p, v) ->
      match Hashtbl.find_opt tbl p with
      | Some (o, _) -> Hashtbl.replace tbl p (o, Some v)
      | None -> Hashtbl.replace tbl p (None, Some v))
    news;
  let rows =
    Hashtbl.fold
      (fun path (o, n) acc ->
        let dir = direction_of path in
        let dir = if ratios_only && not (ratio_like path) then Info else dir in
        let verdict, delta =
          match (o, n) with
          | Some o, Some n ->
            let delta =
              if Float.abs o > 0.0 then Some ((n -. o) /. Float.abs o *. 100.0)
              else None
            in
            (classify ~tolerance ~dir o n, delta)
          | Some _, None -> (Missing, None)
          | None, Some _ -> (Added, None)
          | None, None -> (Neutral, None)
        in
        {
          r_path = path;
          r_old = o;
          r_new = n;
          r_delta_pct = delta;
          r_dir = dir;
          r_verdict = verdict;
        }
        :: acc)
      tbl []
  in
  List.sort (fun a b -> compare a.r_path b.r_path) rows

(* A gated row the candidate lacks fails like a regression: otherwise a
   suite that wrote no rows, or no file body at all, would pass its
   gate. *)
let gates r =
  match r.r_verdict with
  | Regressed -> true
  | Missing -> r.r_dir <> Info
  | Improved | Equal | Neutral | Added -> false

let regressions rows = List.filter gates rows

let has_regression rows = regressions rows <> []

(* ------------------------------------------------------------------ *)
(* Files and printing                                                  *)

let load path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Rtrt_obs.Json.of_string text with
  | Ok j -> j
  | Error msg -> Fmt.failwith "%s: %s" path msg

let compare_files ?tolerance ?ratios_only ~old_path ~new_path () =
  compare_json ?tolerance ?ratios_only (load old_path) (load new_path)

let verdict_name r =
  match r.r_verdict with
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Equal -> "equal"
  | Neutral -> "info"
  | Missing -> if gates r then "MISSING" else "missing"
  | Added -> "added"

let pp_cell ppf = function
  | None -> Fmt.pf ppf "%14s" "-"
  | Some v ->
    if Float.is_integer v && Float.abs v < 1e15 then
      Fmt.pf ppf "%14.0f" v
    else Fmt.pf ppf "%14.6g" v

let pp_row ppf r =
  Fmt.pf ppf "%-64s %a %a %10s  %s" r.r_path pp_cell r.r_old pp_cell r.r_new
    (match r.r_delta_pct with
    | None -> "-"
    | Some d -> Fmt.str "%+.1f%%" d)
    (verdict_name r)

(* [all] prints every row; otherwise informational rows whose value
   did not move are suppressed so the table stays readable. *)
let pp_table ?(all = false) ppf rows =
  Fmt.pf ppf "%-64s %14s %14s %10s  %s@." "metric" "old" "new" "delta"
    "verdict";
  let interesting r =
    all
    || (match r.r_verdict with
       | Regressed | Improved | Missing | Added -> true
       | Equal -> r.r_dir <> Info
       | Neutral -> false)
  in
  List.iter
    (fun r -> if interesting r then Fmt.pf ppf "%a@." pp_row r)
    rows;
  let count v = List.length (List.filter (fun r -> r.r_verdict = v) rows) in
  Fmt.pf ppf
    "summary: %d metrics, %d improved, %d regressed, %d equal, %d \
     missing (%d gated), %d added@."
    (List.length rows) (count Improved) (count Regressed) (count Equal)
    (count Missing)
    (List.length (List.filter (fun r -> r.r_verdict = Missing && gates r) rows))
    (count Added)
