(** Consecutive packing (CPACK, Ding & Kennedy 1999): data-reordering
    inspector packing locations in first-touch order (Figure 10 of the
    paper). *)

(** [run access] traverses iterations in order and returns the data
    reordering sigma_cp. *)
val run : Access.t -> Perm.t

(** CPACK over a fused-composition view of [base]: current iteration
    [cur] touches [sigma.(d)] for each datum [d] of base iteration
    [delta_inv.(cur)]. [order] optionally fixes the visit order over
    current iterations (default ascending; tilePack visits in schedule
    order). Bit-identical to {!run} on the materialized access when the
    order is ascending. *)
val run_view :
  ?order:int array -> Access.t -> sigma:int array -> delta_inv:int array ->
  Perm.t
