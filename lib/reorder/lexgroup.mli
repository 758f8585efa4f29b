(** Lexicographical grouping (lexGroup, Ding & Kennedy 1999):
    iteration-reordering inspector grouping iterations by the first
    location they touch (stable counting sort). *)

(** [run access] returns the iteration reordering delta_lg. *)
val run : Access.t -> Perm.t

(** lexGroup over a fused-composition view of [base]: iteration [cur]
    is keyed by [sigma.(first_touch base delta_inv.(cur))].
    Bit-identical to {!run} on the materialized access. *)
val run_view : Access.t -> sigma:int array -> delta_inv:int array -> Perm.t
