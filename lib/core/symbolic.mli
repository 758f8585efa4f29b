(** Compile-time composition of run-time reorderings (Sections 4-5):
    folding a plan over a Kelly-Pugh program description while
    maintaining the data mapping [M], composed iteration reordering
    [T], composed data reordering [R], and the dependences [D]. *)

(** How a loop reaches the shared node data space. *)
type access_desc =
  | Direct            (** location = loop index (identity-mapped) *)
  | Indexed of string (** through an index-array UFS, e.g. [left] *)

type loop_desc = {
  index : string;
  position : int; (** 1-based statement position *)
  size : string;  (** symbolic trip count *)
  accesses : access_desc list;
  reduction_only : bool;
      (** loop-carried dependences are reductions, so dependence-free
          iteration reorderings are legal (Section 4, footnote 3) *)
}

type program = {
  name : string;
  loops : loop_desc list;
  data_space : string;
  deps : (string * Presburger.Rel.t) list;
}

(** One record per applied transformation. *)
type step = {
  transform : Transform.t;
  fn_name : string;           (** the reordering UFS introduced *)
  relation : Presburger.Rel.t; (** its [R] or [T] *)
  data_map : Presburger.Rel.t; (** [M] after the step *)
  legality : string;
}

type state

(** The initial data mapping [M_{I0 -> data0}] of a program. *)
val initial_data_map : program -> Presburger.Rel.t

(** The interaction loop (the one using index arrays); raises
    [Invalid_argument] if there is none. *)
val indexed_loop : program -> loop_desc

val create : program -> state

(** Fold a plan. Raises [Invalid_argument] on the plans
    {!Plan.validate} rejects, counting the transformations the state
    has already applied, and then on an iteration reordering of a
    loop that is not [reduction_only]. *)
val apply : state -> Plan.t -> state

val steps : state -> step list
val data_map : state -> Presburger.Rel.t
val t_total : state -> Presburger.Rel.t
val r_total : state -> Presburger.Rel.t
val dependences : state -> (string * Presburger.Rel.t) list
val env : state -> Presburger.Ufs_env.t
val is_tiled : state -> bool

(** The kernel's program, derived from its Walker declaration: the
    interaction loop ([seed_loop]) is [j], reaching the data through
    [left] and [right]; every other loop is a node loop reaching its
    own element, [i] before [j] and [k] after it; the statements are
    numbered one per node loop and one per endpoint, and one named
    dependence set joins each pair of adjacent loops. Each loop's
    [reduction_only] is the kernel's. Moldyn's program is the
    simplified moldyn of Figure 1 / Section 3. The program depends on
    the declaration only, not on the kernel's data. Raises
    [Invalid_argument] on a chain with two adjacent node loops. *)
val program_of : Kernels.Kernel.t -> program

val pp_step : step Fmt.t

(** The full Section 5-style report: every step with its relation and
    updated [M], the composed [R]/[T], and the final dependences. *)
val pp_report : state Fmt.t
