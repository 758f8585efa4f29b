(** Multilevel recursive-bisection graph partitioning (METIS-style):
    heavy-edge-matching coarsening, weighted-BFS initial bisection, and
    boundary Kernighan-Lin refinement at every level. The heavyweight
    alternative GPART was designed to undercut; used in the ablations. *)

(** Partition into [n_parts] approximately balanced parts. *)
val partition : Csr.t -> n_parts:int -> Partition.t

(** Partition into parts of roughly [part_size] nodes. *)
val partition_by_size : Csr.t -> part_size:int -> Partition.t
