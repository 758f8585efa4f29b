(* Bench-regression differ: compare two bench tables metric by metric.

   A metric is identified by its row's labels and its name, so rows
   line up even if their order changes. Direction and unit come from
   the declarations in the baseline's table (the candidate's, for a
   metric only it has); gated metrics whose relative change exceeds the
   tolerance become verdicts.

   Absolute timings differ across machines, so CI gates with
   [ratios_only], which restricts gating to dimensionless metrics (unit
   ratio or bool: speedups, normalized ratios, identity flags);
   everything else is reported but informational. *)

type verdict =
  | Improved
  | Regressed
  | Equal
  | Neutral
  | Missing
  | Added
  | Invalid

type row = {
  r_path : string;
  r_old : float option;
  r_new : float option;
  r_delta_pct : float option; (* (new - old) / |old| * 100 *)
  r_dir : Table.better;
  r_verdict : verdict;
}

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

let path (r : Table.row) (m : Table.metric) =
  match r.labels with
  | [] -> m.name
  | labels -> String.concat "/" (List.map snd labels) ^ "." ^ m.name

let metrics (t : Table.t) =
  List.concat_map
    (fun (r : Table.row) ->
      List.map
        (fun (m : Table.metric) -> ((r.labels, m.name), (path r m, m)))
        r.metrics)
    t.rows

let classify ~tolerance ~(dir : Table.better) old_v new_v =
  match dir with
  | Info -> Neutral
  | _ when not (Float.is_finite old_v && Float.is_finite new_v) -> Invalid
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
        | Lower -> (rel > tolerance, rel < -.tolerance)
        | Higher -> (rel < -.tolerance, rel > tolerance)
        | Info -> (false, false)
      in
      if worse then Regressed else if better then Improved else Equal
    end

let compare ?(tolerance = 0.1) ?(ratios_only = false) old_t new_t =
  let olds = metrics old_t and news = metrics new_t in
  let index l =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (k, (_, (m : Table.metric))) -> Hashtbl.replace tbl k m.value)
      l;
    tbl
  in
  let old_values = index olds and new_values = index news in
  let row (path, (m : Table.metric)) o n =
    let dir =
      if ratios_only && not (Table.dimensionless m) then Table.Info
      else m.better
    in
    let verdict, delta =
      match (o, n) with
      | Some o, Some n ->
        let delta =
          if Float.abs o > 0.0 then Some ((n -. o) /. Float.abs o *. 100.0)
          else None
        in
        (classify ~tolerance ~dir o n, delta)
      | Some _, None -> (Missing, None)
      | None, _ -> (Added, None)
    in
    {
      r_path = path;
      r_old = o;
      r_new = n;
      r_delta_pct = delta;
      r_dir = dir;
      r_verdict = verdict;
    }
  in
  List.map
    (fun (k, pm) ->
      row pm (Hashtbl.find_opt old_values k) (Hashtbl.find_opt new_values k))
    olds
  @ List.filter_map
      (fun (k, pm) ->
        if Hashtbl.mem old_values k then None
        else Some (row pm None (Hashtbl.find_opt new_values k)))
      news

(* A gated row the candidate lacks fails like a regression: otherwise a
   suite that wrote no rows would pass its gate. So does a gated value
   that is not a finite number on either side: no comparison with it
   can fail. *)
let gates r =
  match r.r_verdict with
  | Regressed | Invalid -> true
  | Missing -> r.r_dir <> Info
  | Improved | Equal | Neutral | Added -> false

let regressions rows = List.filter gates rows

let has_regression rows = regressions rows <> []

(* ------------------------------------------------------------------ *)
(* Files and printing                                                  *)

let compare_files ?tolerance ?ratios_only ~old_path ~new_path () =
  compare ?tolerance ?ratios_only (Table.load old_path) (Table.load new_path)

let verdict_name r =
  match r.r_verdict with
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Equal -> "equal"
  | Neutral -> "info"
  | Missing -> if gates r then "MISSING" else "missing"
  | Added -> "added"
  | Invalid -> "NONFINITE"

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
       | Regressed | Improved | Missing | Added | Invalid -> true
       | Equal -> r.r_dir <> Info
       | Neutral -> false)
  in
  List.iter
    (fun r -> if interesting r then Fmt.pf ppf "%a@." pp_row r)
    rows;
  let count v = List.length (List.filter (fun r -> r.r_verdict = v) rows) in
  Fmt.pf ppf
    "summary: %d metrics, %d improved, %d regressed, %d equal, %d \
     missing (%d gated), %d added, %d non-finite@."
    (List.length rows) (count Improved) (count Regressed) (count Equal)
    (count Missing)
    (List.length (List.filter (fun r -> r.r_verdict = Missing && gates r) rows))
    (count Added) (count Invalid)
