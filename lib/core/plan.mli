(** Validated compositions of run-time reordering transformations,
    including the standard compositions of the paper's evaluation. *)

type t

val make : name:string -> Transform.t list -> t
val transforms : t -> Transform.t list
val name : t -> string

(** Number of data reorderings (= remap passes for a Remap_each
    inspector; Section 6 / Figure 16). *)
val n_data_reorders : t -> int

val has_sparse_tiling : t -> bool

(** Static composition rules (Section 4): no dependence-free iteration
    reordering after sparse tiling, tilePack only after sparse tiling,
    at most one sparse tiling. *)
val validate : t -> (unit, string) result

(** The empty composition. *)
val base : t

val cpack : t

(** CPACK followed by lexGroup ("CL"). *)
val cpack_lexgroup : t

(** Gpart followed by lexGroup ("GL"). *)
val gpart_lexgroup : part_size:int -> t

(** Gpart followed by CPACK ("GC"): two data reorderings back to
    back, the composition the fused inspector benchmark times. *)
val gpart_cpack : part_size:int -> t

(** CPACK, lexGroup, CPACK, lexGroup ("CLCL", Section 5.3). *)
val cpack_lexgroup_twice : t

(** Append full sparse tiling (block seed) and, by default, tilePack. *)
val with_fst : ?tile_pack:bool -> seed_part_size:int -> t -> t

(** Append cache blocking. *)
val with_cache_block : seed_part_size:int -> t -> t

(** The hand-named compositions of Figures 6-9 plus GC and GC+FST:
    base, cpack, CL, GL, GC, CLCL, and the +FST extensions of CL, GL,
    GC, and CLCL. *)
val standard_suite : gpart_size:int -> seed_part_size:int -> t list

(** The autotuner's candidate space: every composition over
    {cpack, gpart, lexGroup, lexSort, FST, tilePack} with at most two
    data/iteration reordering stages followed by an optional full
    sparse tiling (with or without tilePack), pruned by {!validate}
    and deduplicated. Contains {!standard_suite} as a subset. *)
val candidates : gpart_size:int -> seed_part_size:int -> t list

val pp : t Fmt.t
