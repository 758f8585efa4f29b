(** Bench-regression differ: compare two [BENCH_*.json] files
    metric-by-metric with a configurable relative tolerance. Backs
    [rtrt bench-diff] and the CI regression gate.

    Both files are flattened to (path, number) rows; list elements are
    labeled by their identifying string fields
    ([bench]/[dataset]/[plan]/[config]/[name]; the [k]th repeat of a
    label gets [#k]) so rows line up across reorderings. Paths
    classify by key-name heuristics into lower-is-better,
    higher-is-better, or informational. *)

type direction = Lower_better | Higher_better | Info

type verdict =
  | Improved
  | Regressed
  | Equal      (** within tolerance (or exactly equal) *)
  | Neutral    (** informational metric: never gates *)
  | Missing    (** present in old, absent in new; gates unless [Info] *)
  | Added      (** absent in old, present in new *)

type row = {
  r_path : string;
  r_old : float option;
  r_new : float option;
  r_delta_pct : float option;  (** (new - old) / |old| * 100 *)
  r_dir : direction;
  r_verdict : verdict;
}

(** Direction heuristic for a flattened metric path (exposed for
    tests). *)
val direction_of : string -> direction

(** Whether a path is dimensionless/modeled — stable across machines,
    so CI can gate on it ([ratios_only]). *)
val ratio_like : string -> bool

(** [compare_json ~tolerance ~ratios_only old new] — rows sorted by
    path. [tolerance] is relative (default 0.1 = 10%); with
    [ratios_only] (default false) only {!ratio_like} paths gate, the
    rest become informational. *)
val compare_json :
  ?tolerance:float ->
  ?ratios_only:bool ->
  Rtrt_obs.Json.t ->
  Rtrt_obs.Json.t ->
  row list

(** Parse both files (raising [Failure] on unreadable/invalid JSON)
    and compare. *)
val compare_files :
  ?tolerance:float ->
  ?ratios_only:bool ->
  old_path:string ->
  new_path:string ->
  unit ->
  row list

(** Rows that fail the gate: every [Regressed] row, and every
    [Missing] row whose direction is not [Info] (after [ratios_only]).
    [Added] rows and missing [Info] rows never gate. *)
val regressions : row list -> row list

val has_regression : row list -> bool

(** Table of the interesting rows plus a summary line; [all] prints
    every row including unchanged informational ones. *)
val pp_table : ?all:bool -> Format.formatter -> row list -> unit
