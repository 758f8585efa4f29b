(** The one row schema of every bench table and of the ablations.

    A table is a list of rows. A row is keyed by its string [labels]
    (bench, dataset, plan, section, ...; no two rows of a table share
    them), may carry descriptive [notes] that are never compared (a
    chosen tier, a winning plan), and holds [metrics]. Each metric
    declares its unit and whether lower or higher is better, or that
    it is informational; [rtrt bench-diff] gates on exactly those
    declarations. The JSON form is tagged [{"schema":"rtrt.table/1"}]
    and written one row per line. *)

type better = Lower | Higher | Info

type metric = {
  name : string;
  value : float;  (** NaN when absent or non-finite on disk ([null]) *)
  unit_ : string;
      (** ["s"], ["ns"], ["GB/s"], ["count"], ["ratio"], ["bool"], ... *)
  better : better;
}

type row = {
  labels : (string * string) list;  (** the row's identity, in order *)
  notes : (string * string) list;
  metrics : metric list;
}

type t = {
  name : string;  (** the table, e.g. ["churn"] *)
  rows : row list;
}

(** [lower name unit value], and likewise [higher] and [info]. *)
val lower : string -> string -> float -> metric
val higher : string -> string -> float -> metric
val info : string -> string -> float -> metric

(** An informational count (unit ["count"]). *)
val count : string -> int -> metric

(** A boolean metric (unit ["bool"], 1 for true). *)
val flag : better -> string -> bool -> metric

val row :
  ?notes:(string * string) list -> (string * string) list -> metric list -> row

(** Whether a metric's unit is dimensionless (["ratio"] or ["bool"]):
    stable across machines, so [bench-diff --ratios-only] gates only
    these. *)
val dimensionless : metric -> bool

val find_metric : row -> string -> metric option

(** One row per phase, labelled [section=profile] and [phase=NAME]:
    wall seconds (lower) and the GC counters (informational). *)
val profile_rows : Rtrt_obs.Profile.phase list -> row list

(** The schema-tagged JSON text, one row per line. *)
val to_string : t -> string

val write : string -> t -> unit

(** [Error] on anything but a well-formed table: a missing or other
    schema tag, a malformed row or metric, or two rows with the same
    labels. *)
val of_json : Rtrt_obs.Json.t -> (t, string) result

(** Read a table file; raises [Failure "PATH: reason"]. *)
val load : string -> t

(** The table as text: its name, then one block of aligned columns
    per run of rows that share label keys and [section] label (which
    titles the block), with each metric's unit under its name. *)
val pp : t Fmt.t
