(** Consecutive packing (CPACK, Ding & Kennedy 1999): data-reordering
    inspector packing locations in first-touch order (Figure 10 of the
    paper). *)

(** [run access] traverses iterations in order and returns the data
    reordering sigma_cp. *)
val run : Access.t -> Perm.t

(** CPACK over an explicit iteration visit order (used by tilePack). *)
val run_in_order : Access.t -> order:int array -> Perm.t

(** CPACK over a fused-composition view of [base]: current iteration
    [cur] touches [sigma.(d)] for each datum [d] of base iteration
    [delta_inv.(cur)]. [order] optionally fixes the visit order over
    current iterations (default ascending). Bit-identical to {!run} /
    {!run_in_order} on the materialized access. *)
val run_view :
  ?order:int array -> Access.t -> sigma:int array -> delta_inv:int array ->
  Perm.t
