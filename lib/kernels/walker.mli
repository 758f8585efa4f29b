(** The executor engine of the pair kernels. A kernel declares its
    arrays, its loop chain and each chain class's body once; {!make}
    derives every walk of {!Kernel.t} from that declaration: the
    original order, the tiled and shaped schedule walks, the parallel
    engine's body, the traced walks and the reorderings. For moldyn,
    nbf and irreg the bodies live in a Stdlib-only [<kernel>_body.ml],
    compiled into the kernel's module ahead of its declaration and
    spliced by Tier B (Compose.Codegen) into every specialized module,
    so the walker and Tier B run the same text. *)

(** Unchecked indexing for the loop functions. Sound because every
    index is validated before a walk: endpoints at construction, the
    schedule on every call. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"

external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(** Where a traced reference's element index comes from: the iteration
    itself, or the left or right endpoint of the interaction it is. *)
type index = Iter | Left | Right

(** One chain class: its body run two ways, over the kernel's packed
    arrays ['a], and the references it makes. *)
type 'a cls = {
  items : 'a -> int array -> int -> int -> unit;
      (** [items a fl lo hi] runs the iterations [fl.(lo) .. fl.(hi - 1)]. *)
  runs : 'a -> int array -> int array -> int -> int -> unit;
      (** [runs a lo len klo khi] runs, for each run [k] in
          [klo .. khi - 1], the iterations [lo.(k) .. lo.(k) + len.(k) - 1]. *)
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
  conn : Reorder.Access.t -> Reorder.Access.t array;
      (** the chain's connectivity from the interaction access *)
  wrap : int -> Reorder.Access.t -> Reorder.Access.t;
      (** [Kernel.wrap_conn_of_access], given the node count *)
  seed_loop : int;
  symmetric_backward : (int * int) list;
  time_tiling : bool;  (** whether a schedule may unroll several chains *)
  classes : 'a cls array;
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
