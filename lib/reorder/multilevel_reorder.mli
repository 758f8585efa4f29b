(** Multilevel (METIS-style) partitioning as a run-time data
    reordering: better cuts than {!Gpart_reorder}, higher inspector
    cost. *)

(** [run access ~part_size] returns the data reordering sigma_ml. *)
val run : Access.t -> part_size:int -> Perm.t
val run_with_partition : Access.t -> part_size:int -> Perm.t * Irgraph.Partition.t

(** Number data consecutively by an existing partition, BFS-ordered
    within each part. *)
val order_by_partition :
  graph:Irgraph.Csr.t -> n_data:int -> Irgraph.Partition.t -> Perm.t
