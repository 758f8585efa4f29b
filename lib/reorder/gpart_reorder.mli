(** Gpart data reordering (Han & Tseng 2000): partition the
    data-affinity graph into cache-sized parts and number data
    consecutively within each part. *)

(** [run access ~part_size] returns the data reordering sigma_gp. *)
val run : Access.t -> part_size:int -> Perm.t

(** Also return the partition (for metrics / sparse-tiling seeds). *)
val run_with_partition : Access.t -> part_size:int -> Perm.t * Irgraph.Partition.t
