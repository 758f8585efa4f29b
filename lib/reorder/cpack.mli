(** Consecutive packing (CPACK, Ding & Kennedy 1999): data-reordering
    inspector packing locations in first-touch order (Figure 10 of the
    paper). *)

(** [run access] traverses iterations in order and returns the data
    reordering sigma_cp.

    [keys], when given (length [n_iter]), receives for each iteration
    the new number under sigma_cp of the first location it touches.
    That is lexGroup's key once sigma_cp is composed, so
    [Lexgroup.sort_by_key] of it is the lexGroup that follows this
    CPACK, without a traversal of its own. With [keys], an iteration
    that touches nothing raises the [Invalid_argument] lexGroup
    raises. *)
val run : ?keys:int array -> Access.t -> Perm.t

(** CPACK over a fused-composition view of [base]: current iteration
    [cur] touches [sigma.(d)] for each datum [d] of base iteration
    [delta_inv.(cur)]. [order] optionally fixes the visit order over
    current iterations (default ascending; tilePack visits in tile
    order). Bit-identical to {!run} on the materialized access when the
    order is ascending; [keys] as in {!run}, indexed by current
    iteration. *)
val run_view :
  ?order:int array ->
  ?keys:int array ->
  Access.t ->
  sigma:int array ->
  delta_inv:int array ->
  Perm.t
