(** Bounded-size partitionings of nodes/iterations.

    [gpart] is the lightweight BFS-grown partitioner in the spirit of
    Han-Tseng's GPART (used by the Gpart data reordering); [block] is
    the contiguous partitioner used to seed full sparse tiling after a
    good data + iteration reordering. *)

type t = private {
  n_parts : int;
  assign : int array;
}

val n_parts : t -> int
val part_of : t -> int -> int

(** The underlying node -> part array itself, without copying. Do not
    mutate. *)
val assignment : t -> int array

(** Build from an explicit assignment; raises [Invalid_argument] if an
    id is out of range. *)
val make : n_parts:int -> assign:int array -> t

(** Per-part sizes. *)
val sizes : t -> int array

(** Contiguous blocks of [part_size] consecutive ids. *)
val block : n:int -> part_size:int -> t

(** BFS-grown parts of at most [part_size] nodes; near-linear time. *)
val gpart : Csr.t -> part_size:int -> t

(** Number of edges crossing parts. *)
val edge_cut : Csr.t -> t -> int

(** [members p] lists each part's nodes in ascending order. *)
val members : t -> int array array

val pp : t Fmt.t
