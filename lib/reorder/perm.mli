(** Permutations of [0, n): the run-time realization of reordering
    functions sigma (data) and delta (iteration).

    Convention: [forward old = new]. The paper's inspectors often build
    the inverse array ([sigma_inv.(new) = old]); use {!of_inverse} for
    those. *)

type t

val size : t -> int

(** Build from [forward.(old) = new]; validates bijectivity. *)
val of_forward : int array -> t

(** Build from [inv.(new) = old]; validates bijectivity. *)
val of_inverse : int array -> t

(** Trusted constructor (no validation); for inspectors whose output is
    a permutation by construction. The array is not copied. *)
val unsafe_of_forward : int array -> t

val id : int -> t
val is_id : t -> bool

(** New position of old index [i]. *)
val forward : t -> int -> int

(** The forward array itself, without copying, for loops that stream
    it (the plan cache's writer). Do not mutate. *)
val unsafe_forward : t -> int array

(** Old position of new index [j] (allocates the inverse; hoist out of
    loops). *)
val backward : t -> int -> int

val invert : t -> t

(** [compose p2 p1] applies [p1] first. *)
val compose : t -> t -> t

(** [compose_into p2 acc] composes in place over a caller-owned
    forward accumulator (e.g. an [Irgraph.Scratch] backing store):
    [acc.(old) <- forward p2 acc.(old)] for the first [size p2] cells.
    No allocation; the walk-loop replacement for {!compose}. *)
val compose_into : t -> int array -> unit

(** [invert_into p dst] writes the inverse into the first [size p]
    cells of [dst]: [dst.(forward p i) = i]. No allocation. *)
val invert_into : t -> int array -> unit

(** Move values to their new positions: [(apply p a).(forward p i) = a.(i)]. *)
val apply_to_array : t -> 'a array -> 'a array

val apply_to_float_array : t -> float array -> float array

(** Remap index-array *values* after the pointed-to data moved:
    [new_idx.(k) = forward idx.(k)]. *)
val remap_values : t -> int array -> int array

(** An index array under iteration reordering [delta] and then data
    reordering [sigma], in one pass:
    [(reindex ~delta ~sigma idx).(forward delta i) = forward sigma idx.(i)],
    so it equals [remap_values sigma (apply_to_array delta idx)]. An
    absent reordering is the identity. Always a fresh array. *)
val reindex : ?delta:t -> ?sigma:t -> int array -> int array

val to_forward_array : t -> int array
val to_inverse_array : t -> int array
val equal : t -> t -> bool
val pp : t Fmt.t
