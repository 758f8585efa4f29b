(** Run-length shape analysis over frozen flat-CSR schedules.

    Built once per schedule at plan time, a {!t} indexes every row's
    maximal runs of consecutive iteration ids so the generated
    executor can stream [for i = lo to hi] ranges instead of indirect
    loads. The run enumeration reproduces the stored item sequence
    exactly for any row content, so a run-streaming walk is
    bitwise-identical to the interpreted walk by construction. See
    README "Specialized executors". *)

type summary = {
  rows : int;  (** [n_tiles * n_loops] *)
  total_items : int;  (** schedule iterations *)
  runs : int;  (** maximal +1-runs across all rows *)
  identity_rows : int;  (** rows that are one single contiguous run *)
  max_run : int;  (** longest run length *)
  single_loop : bool;  (** [n_loops = 1] *)
  uniform_tile_items : int option;  (** [Some w] if every tile holds [w] items *)
  avg_run_len : float;  (** [total_items /. runs], 0 when empty *)
}

type t

val analyze : Schedule.t -> t
(** Two passes over [items]; O(total_items). *)

val summary : t -> summary

val run_ptr : t -> int array
(** Length [rows + 1]; row [r]'s runs span
    [run_ptr.(r) .. run_ptr.(r+1) - 1]. Do not mutate. *)

val run_lo : t -> int array
(** First iteration id of each run. Do not mutate. *)

val run_len : t -> int array
(** Length of each run (>= 1). Do not mutate. *)

val for_schedule : t -> Schedule.t -> bool
(** [true] iff the shape was built from exactly this schedule value
    (physical identity on its [items]/[row_ptr] arrays — every schedule
    transformation allocates fresh ones). Run-streaming executors must check
    this before streaming the run index with unsafe reads. *)

val summary_equal : summary -> summary -> bool
val pp_summary : summary Fmt.t
