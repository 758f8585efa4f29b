(** The bench suites behind [rtrt bench --only NAME]. Each entry holds
    the settings its committed baseline ([bench/baselines/]) was
    recorded under, so a run with no overrides reproduces the table CI
    gates, and writes [BENCH_<NAME>.json] by default. *)

type t = {
  name : string;  (** the [--only] value *)
  doc : string;  (** one sentence for [--help] *)
  scale : int;  (** default dataset scale *)
  wall_steps : int;  (** executor steps per wall-clock window *)
  table : Figures.config -> Table.t;  (** measure the table *)
}

(** hotpath, inspector, autotune, churn, plancache. *)
val all : t list

(** [BENCH_<NAME>.json]. *)
val default_out : t -> string

(** Run the suite under its settings, with [scale] replacing its
    default scale; print the table on stdout ({!Table.pp}) and write it
    to [out] (default {!default_out}). *)
val run : ?scale:int -> ?out:string -> t -> unit
