(** Lexicographical grouping (lexGroup, Ding & Kennedy 1999):
    iteration-reordering inspector grouping iterations by the first
    location they touch (stable counting sort). *)

(** [sort_by_key ~n_data key] is the stable counting sort of
    iterations by [key] (values from 0 to [n_data - 1]): the iteration
    reordering that groups iterations by key, keeping their order
    within a group. lexGroup is this sort keyed by each iteration's
    first touch; after a CPACK that key comes from CPACK's own pass
    ([Cpack.run ~keys]). *)
val sort_by_key : n_data:int -> int array -> Perm.t

(** [run access] returns the iteration reordering delta_lg. *)
val run : Access.t -> Perm.t

(** lexGroup over a fused-composition view of [base]: iteration [cur]
    is keyed by [sigma.(first_touch base delta_inv.(cur))].
    Bit-identical to {!run} on the materialized access. Each call is
    counted in [lexgroup.view_passes]. *)
val run_view : Access.t -> sigma:int array -> delta_inv:int array -> Perm.t
