(** The executor engine of the pair kernels. A kernel declares its
    arrays, its loop chain and each chain class's body once; {!make}
    derives every walk of {!Kernel.t} from that declaration: the
    original order, the interpreted schedule walk, the generated
    executor, the parallel engine's body, the traced walks and the
    reorderings. Each kernel's bodies live in [<kernel>_body.ml]; at
    build time [lib/kernels/gen/exec_gen.ml] writes the classes' loop
    functions and the kernel's executor ({!t.exec}) from their names,
    and dune compiles the body file, the generated file and the
    declaration as the kernel's one module. *)

(** Unchecked indexing for the loop functions. Sound because every
    index is validated before a walk: endpoints at construction, the
    schedule on every call. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"

external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(** Where a traced reference's element index comes from: the iteration
    itself, or the left or right endpoint of the interaction it is. *)
type index = Iter | Left | Right

(** One chain class: its generated interpreted loop function, over the
    kernel's packed arrays ['a], and the references it makes. *)
type 'a cls = {
  items : 'a -> int array -> int -> int -> unit;
      (** [items a fl lo hi] runs the iterations [fl.(lo) .. fl.(hi - 1)]. *)
  touches : (string * index) list;
      (** One entry per array-element reference of one iteration, in
          the order the cache model sees them. *)
}

(** The iteration space of a loop in the chain. *)
type loop = Nodes | Inters

(** A kernel's arrays: [nodes] and [inters] (per-interaction floats)
    in declaration order, and [scalars], state that no reordering
    moves. *)
type state = {
  n : int;
  left : int array;
  right : int array;
  nodes : float array array;
  inters : float array array;
  scalars : float array;
}

(** A schedule walk in run form, the generated executor's argument:
    [tiles] tiles, each holding [copies] copies of the chain (more than
    one only in a time-tiled schedule), so [tiles * copies * chain]
    rows, row [r] being chain position [r mod chain] of its copy. Row
    [r]'s items are [flat_items.(row_ptr.(r)) .. flat_items.(row_ptr.(r + 1) - 1)].
    The run table holds the runs ({!Reorder.Shape}) of the rows with at
    most 8 of them: row [r]'s are
    [run_ptr.(r) .. run_ptr.(r + 1) - 1], run [k] being the ids
    [run_lo.(k) .. run_lo.(k) + run_len.(k) - 1]. The executor streams
    a row that has runs in the table and walks the items of any other
    row. It indexes every array unchecked: the walks {!make} builds
    are validated first. *)
type walk = {
  tiles : int;
  copies : int;
  row_ptr : int array;
  flat_items : int array;
  run_ptr : int array;
  run_lo : int array;
  run_len : int array;
}

type stash = pos:int -> int array -> int -> int -> unit
type apply = pos:int -> datum:int -> int array -> int -> int -> unit

(** A serial fold after every chain walk: the sum of node array
    [sum_array] over class [sum_class]'s iterations, in the walk's
    order, handed to [finish]. *)
type 'a epilogue = {
  sum_class : int;
  sum_array : string;
  finish : 'a -> float -> unit;
}

type 'a t = {
  name : string;
  nodes : (string * (int -> float)) list;
      (** node arrays in layout order, with each element's initial value *)
  inters : (string * (int -> float)) list;
      (** per-interaction float arrays, with initial values *)
  scalars : float array;  (** initial scalars *)
  pack : state -> 'a;  (** the loop functions' view of the arrays *)
  loops : loop array;  (** the chain, one entry per class *)
  conn : Reorder.Access.t -> Reorder.Sparse_tile.deps array;
      (** the chain's dependence sets from the interaction access, one
          per adjacent loop pair, each in the orientation in which the
          access already holds it: [Preds acc] where the later loop is
          the interaction loop, [Succs acc] where the earlier one is.
          No set needs a transpose. *)
  wrap : int -> Reorder.Access.t -> Reorder.Sparse_tile.deps;
      (** [Kernel.wrap_conn_of_access], given the node count *)
  seed_loop : int;
  symmetric_backward : (int * int) list;
  time_tiling : bool;  (** whether a schedule may unroll several chains *)
  classes : 'a cls array;
  exec : 'a -> walk -> unit;
      (** the generated executor: one walk over the kernel's arrays *)
  reduction : int;  (** the class the parallel engine combines *)
  par : 'a -> int -> stash * apply;
      (** the parallel engine's stash and apply for the reduction
          class, given the interaction count for their scratch *)
  epilogue : 'a epilogue option;
}

(** [at ix names]: one reference to each array, all at [ix]. *)
val at : index -> string list -> (string * index) list

(** Deterministic initial value of element [i] for [salt]. *)
val seeded : int -> int -> float

(** Tiles, then chain positions, then each row's items through class
    [c mod Array.length fns]. The schedule must already be validated. *)
val walk_items :
  ('a -> int array -> int -> int -> unit) array ->
  'a ->
  Reorder.Schedule.t ->
  unit

(** The kernel over a dataset's interactions, arrays at their declared
    initial values. Raises [Invalid_argument] on an endpoint outside
    [\[0, n_nodes)] or unequal [left]/[right] lengths. *)
val of_dataset : 'a t -> Datagen.Dataset.t -> Kernel.t
