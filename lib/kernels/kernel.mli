(** The uniform executor interface over the benchmarks.

    A kernel owns its data and index arrays; the composition framework
    transforms it through [apply_data_perm] (a data reordering R) and
    [apply_iter_perm] (an iteration reordering T of the interaction
    loop). Executors come in plain (Figure 13) and sparse-tiled
    (Figure 14) forms, each with a traced twin feeding the cache
    model. Every executor runs the kernel's one body per chain class;
    {!Walker} derives them all from the kernel's declaration. *)

(** A parallel tiled executor instance: the level-major renumbered
    schedule it executes (the serial twin for comparison) and the
    run function. *)
type par_exec = {
  par_sched : Reorder.Schedule.t;
  par_run :
    ?batch:int ->
    ?tier:Rtrt_par.Exec.tier ->
    ?profile:bool ->
    steps:int ->
    unit ->
    unit;
      (** [batch] steps per pool dispatch (default 1); [tier] the
          execution strategy (default [Parallel]); [profile] forces
          pool accounting for the run. *)
  par_decide :
    serial_ns_per_step:float -> batch:int -> Rtrt_par.Exec.decision;
      (** The engine's auto-fallback tier model, for selecting [tier]. *)
}

type t = {
  name : string;
  n_nodes : int;
  n_inter : int;
  node_array_names : string list;
  inter_array_names : string list;
  access : Reorder.Access.t;
      (** the interaction loop's access to the node space (current) *)
  loop_sizes : int array;
  seed_loop : int; (** the interaction loop's position in the chain *)
  reduction_only : bool array;
      (** per chain loop: its loop-carried dependences are all
          reductions, so dependence-free iteration reorderings may
          reorder it (Section 4, footnote 3). True for a node loop
          that touches only its own element and for the interaction
          loop when it is the class the parallel engine combines.
          [Compose.Symbolic] derives the kernel's program from it,
          [loop_sizes] and [seed_loop]. *)
  chain_of_access : Reorder.Access.t -> Reorder.Sparse_tile.chain;
      (** the loop chain over an access: one dependence set per
          adjacent pair, each in the orientation the kernel has at hand
          ([Reorder.Sparse_tile.deps]). The bundled kernels hand it the
          interaction access itself, as predecessor or successor rows,
          so building a chain transposes nothing. *)
  wrap_conn_of_access : Reorder.Access.t -> Reorder.Sparse_tile.deps;
      (** cross-time-step dependences between the last loop at step s
          and the first loop at step s+1, in either orientation — lets
          sparse tiling grow across the outer loop *)
  symmetric_backward : (int * int) list;
      (** [(backward_loop, conn_index)]: the dependence set that
          growing [backward_loop] walks and [chain.conn.(conn_index)]
          are keyed by the same index arrays (Section 6 symmetric
          dependences), so the chain stores both as the one
          interaction access, in opposite orientations, and sparse
          tiling walks it once per pair without a transpose. Growth
          does not read this list; it remains an ingredient of
          [Compose.Inspector.fingerprint], whose values name stored
          plans. *)
  apply_data_perm : Reorder.Perm.t -> t;
      (** The kernel under data reordering [sigma]: fresh index arrays
          (values renamed) and fresh node arrays (permuted). The
          per-interaction float arrays are shared with this kernel. *)
  apply_iter_perm : Reorder.Perm.t -> t;
      (** The kernel under interaction reordering [delta]: fresh index
          arrays and fresh per-interaction float arrays (permuted). The
          node arrays are shared with this kernel.

          Both copy the scalar state no reordering moves, so applying
          one of each yields a kernel that shares no array with the
          original, and running it leaves the original untouched. A
          kernel from only one of them shares arrays with the
          original, and running it may write the original's. *)
  apply_perms : delta:Reorder.Perm.t -> sigma:Reorder.Perm.t -> t;
      (** [apply_iter_perm delta] then [apply_data_perm sigma] in one
          rebuild: each index array is written once, as
          [sigma (left (delta^-1 j))], the per-interaction arrays are
          permuted by [delta] and the node arrays by [sigma]. Every
          array is fresh, also under identity permutations, so the
          result shares nothing with this kernel. *)
  run : steps:int -> unit;
      (** The generated executor in the original order. *)
  run_tiled : Reorder.Schedule.t -> steps:int -> unit;
      (** The interpreted reference walk of a schedule: each row's
          items through its class's loop function. *)
  run_tiled_shaped :
    Reorder.Schedule.t -> Reorder.Shape.t -> steps:int -> unit;
      (** The generated executor over a schedule: it streams the runs
          of rows with at most 8 of them from the shape's run index and
          walks the items of denser rows; bitwise identical to
          [run_tiled]. The shape must be {!Reorder.Shape.analyze} of
          this exact schedule value. Callers go through
          [Compose.Specialize.make], which builds the shape once per
          schedule; the shape argument is kept only for perfbench,
          which times this walk directly. *)
  exec_arrays : unit -> int array array * float array array;
      (** The kernel's index arrays and its per-interaction and node
          float arrays, the arrays themselves, not copies. *)
  run_traced :
    steps:int -> layout:Cachesim.Layout.t -> access:(int -> unit) -> unit;
  run_tiled_traced :
    Reorder.Schedule.t ->
    steps:int ->
    layout:Cachesim.Layout.t ->
    access:(int -> unit) ->
    unit;
  plan_par :
    pool:Rtrt_par.Pool.t ->
    Reorder.Schedule.t ->
    level_of:int array ->
    par_exec;
      (** Build a parallel executor for a tiled schedule from the tile
          DAG levelization [level_of]; [par_run] is bitwise identical
          to [run_tiled] on [par_sched]. *)
  snapshot : unit -> (string * float array) list;
  copy : unit -> t;
}

(** The paper's memory layout: inter-array regrouping over the node
    arrays; index arrays separate. *)
val layout : t -> Cachesim.Layout.t

(** No regrouping (each array separate), for the regrouping ablation. *)
val layout_separate : t -> Cachesim.Layout.t

(** Bytes of node data per node (72 for moldyn, as the paper quotes). *)
val bytes_per_node : t -> int

(** Relative comparison of snapshots (reductions are reassociated by
    the transformations, so bitwise equality is not expected). *)
val snapshots_close :
  ?rtol:float ->
  (string * float array) list ->
  (string * float array) list ->
  bool

(** Bitwise snapshot equality (NaN-safe: compares IEEE bit patterns),
    for checking that parallel execution reproduces serial execution
    exactly. *)
val snapshots_equal_bits :
  (string * float array) list -> (string * float array) list -> bool

(** Un-permute a snapshot taken after data reordering [sigma] back to
    original numbering. *)
val unpermute_snapshot :
  Reorder.Perm.t -> (string * float array) list -> (string * float array) list
