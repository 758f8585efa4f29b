(** Run-time counterpart of a data mapping [M_{I->a}]: per-iteration
    touched locations of one data space, CSR-style, in touch order.
    Data-reordering inspectors traverse exactly this structure. *)

type t = private {
  n_iter : int;
  n_data : int;
  ptr : int array;
  dat : int array;
}

val n_iter : t -> int
val n_data : t -> int

(** Total number of (iteration, location) touches. *)
val n_touches : t -> int

(** The same mapping: physically the same value, else the same sizes
    and arrays (a monomorphic comparison). *)
val equal : t -> t -> bool

(** Raw constructor; validates CSR shape and location bounds. *)
val make : n_iter:int -> n_data:int -> ptr:int array -> dat:int array -> t

(** Trusted raw constructor (no validation, no copy); for inspector
    hot paths whose arrays are valid CSR by construction. *)
val unsafe_make :
  n_iter:int -> n_data:int -> ptr:int array -> dat:int array -> t

(** Iteration [j] touches [(left.(j), right.(j))] in that order (the j
    loop of moldyn/nbf/irreg). *)
val of_pairs : n_data:int -> int array -> int array -> t

(** Iteration [j] touches the single location [idx.(j)]. *)
val of_single : n_data:int -> int array -> t

(** Iteration [i] touches location [i]. *)
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

(** Effect of an iteration reordering delta ([M . T^-1]). *)
val reorder_iters : Perm.t -> t -> t

(** Same touches, locations shifted by [offset] into a larger space of
    [n_data] locations (stacking several arrays into one space). *)
val shift_data : offset:int -> n_data:int -> t -> t

(** For each datum, the iterations touching it (ascending). Counted in
    [access.transposes]. *)
val transpose : t -> t

(** Data-affinity graph: locations co-touched by an iteration are
    adjacent. *)
val to_graph : t -> Irgraph.Csr.t

val pp : t Fmt.t
