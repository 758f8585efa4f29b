(** Bench-regression differ: compare two bench tables ({!Table})
    metric by metric with a configurable relative tolerance. Backs
    [rtrt bench-diff] and the CI regression gate.

    A metric is matched across the two tables by its row's labels and
    its name. Whether it gates, and in which direction, is what its
    table declares ({!Table.better}); the baseline's declaration wins
    when both tables carry the metric. *)

type verdict =
  | Improved
  | Regressed
  | Equal      (** within tolerance (or exactly equal) *)
  | Neutral    (** informational metric: never gates *)
  | Missing    (** present in old, absent in new; gates unless [Info] *)
  | Added      (** absent in old, present in new *)
  | Invalid
      (** a gated metric whose old or new value is NaN or infinite
          ([null] on disk): always gates *)

type row = {
  r_path : string;
      (** the row's label values joined by ["/"], then [.]metric name *)
  r_old : float option;
  r_new : float option;
  r_delta_pct : float option;  (** (new - old) / |old| * 100 *)
  r_dir : Table.better;  (** after [ratios_only] *)
  r_verdict : verdict;
}

(** [compare ~tolerance ~ratios_only old new]: the old table's metrics
    in its order, then the metrics only the new table has.
    [tolerance] is relative (default 0.1 = 10%); with [ratios_only]
    (default false) only {!Table.dimensionless} metrics gate, the rest
    become informational. *)
val compare :
  ?tolerance:float -> ?ratios_only:bool -> Table.t -> Table.t -> row list

(** Load both tables with {!Table.load} (raising [Failure] on an
    unreadable file or one that is not a table) and compare. *)
val compare_files :
  ?tolerance:float ->
  ?ratios_only:bool ->
  old_path:string ->
  new_path:string ->
  unit ->
  row list

(** Whether a row fails the gate: [Regressed] and [Invalid] rows, and
    [Missing] rows whose direction is not [Info] (after
    [ratios_only]). [Added] rows and missing [Info] rows never gate. *)
val gates : row -> bool

(** The rows that fail the gate. *)
val regressions : row list -> row list

val has_regression : row list -> bool

(** Table of the interesting rows plus a summary line; [all] prints
    every row including unchanged informational ones. *)
val pp_table : ?all:bool -> Format.formatter -> row list -> unit
