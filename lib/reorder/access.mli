(** Run-time counterpart of a data mapping [M_{I->a}]: per-iteration
    touched locations of one data space, in touch order, one row per
    iteration. Data-reordering inspectors traverse exactly this
    structure.

    When every row has the same length [arity > 0] (the pair loops'
    [(left, right)], the node loops' identity), only [dat] is stored:
    row [r] is [dat.(arity * r) .. dat.(arity * r + arity - 1)] and
    [ptr] is empty. Otherwise [arity = 0] and row [r] is
    [dat.(ptr.(r)) .. dat.(ptr.(r + 1) - 1)], a CSR row pointer of
    length [n_iter + 1]. Code outside this module that walks rows reads
    the fields and computes the bounds itself. Every access built with
    a row pointer is counted in [access.row_pointers]. *)

type t = private {
  n_iter : int;
  n_data : int;
  arity : int;
  ptr : int array;
  dat : int array;
}

val n_iter : t -> int
val n_data : t -> int

(** Total number of (iteration, location) touches. *)
val n_touches : t -> int

(** The same mapping: physically the same value, else the same sizes,
    row bounds and touches, whether or not each stores its row pointer
    (a monomorphic comparison). *)
val equal : t -> t -> bool

(** Raw constructor of a ragged access ([arity = 0]); validates the
    CSR shape (length, endpoints, a non-decreasing [ptr]) and location
    bounds. *)
val make : n_iter:int -> n_data:int -> ptr:int array -> dat:int array -> t

(** Trusted raw constructor (no validation, no copy); for inspector
    hot paths whose arrays are valid by construction: [ptr] is read
    only when [arity = 0], and must then be a valid row pointer. *)
val unsafe_make :
  n_iter:int -> n_data:int -> arity:int -> ptr:int array -> dat:int array -> t

(** Iteration [j] touches [(left.(j), right.(j))] in that order (the j
    loop of moldyn/nbf/irreg); arity 2. *)
val of_pairs : n_data:int -> int array -> int array -> t

(** Iteration [j] touches the single location [idx.(j)]; arity 1. *)
val of_single : n_data:int -> int array -> t

(** Iteration [i] touches location [i]; arity 1. *)
val identity : int -> t

val of_lists : n_data:int -> int list array -> t

(** [of_touches ~n_iter ~n_data fill] builds the mapping in two passes
    over the generator: [fill it emit] must emit iteration [it]'s
    touches identically on both passes (raises otherwise). No
    intermediate lists are allocated — the touches scatter straight
    into the CSR arrays. [sort_rows] sorts each iteration's touches
    ascending. *)
val of_touches :
  ?sort_rows:bool ->
  n_iter:int ->
  n_data:int ->
  (int -> (int -> unit) -> unit) ->
  t

val touches : t -> int -> int array
val iter_touches : t -> int -> (int -> unit) -> unit
val fold_touches : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

(** First location iteration [it] touches. *)
val first_touch : t -> int -> int

(** Effect of a data reordering sigma on the mapping ([R . M]). *)
val map_data : Perm.t -> t -> t

(** Effect of an iteration reordering delta ([M . T^-1]). Like
    [map_data] and [shift_data], it keeps a fixed arity. *)
val reorder_iters : Perm.t -> t -> t

(** Same touches, locations shifted by [offset] into a larger space of
    [n_data] locations (stacking several arrays into one space). *)
val shift_data : offset:int -> n_data:int -> t -> t

(** For each datum, the iterations touching it (ascending); ragged.
    Counted in [access.transposes]. *)
val transpose : t -> t

(** Data-affinity graph: locations co-touched by an iteration are
    adjacent. *)
val to_graph : t -> Irgraph.Csr.t

val pp : t Fmt.t
