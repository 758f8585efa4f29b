(** Stable 64-bit content hashes for plan-cache keys (FNV-1a over a
    type-tagged byte stream). Unlike [Hashtbl.hash], the result is
    stable across processes and OCaml versions, so it can address
    cache files on disk. *)

type t

val equal : t -> t -> bool

(** 16 lowercase hex digits; used as the on-disk file stem. *)
val to_hex : t -> string

val pp : t Fmt.t

(** Incremental hash builder. Every ingredient is type-tagged and
    length-prefixed, so adjacent fields never alias. *)
type builder

val create : unit -> builder
val add_int : builder -> int -> unit
val add_bool : builder -> bool -> unit
val add_string : builder -> string -> unit
val add_int_array : builder -> int array -> unit
val add_float : builder -> float -> unit
val value : builder -> t

(** 64-bit FNV-1a of the first [len] bytes of a buffer, untagged: the
    checksum sealing plan-cache entries and Tier B [.cmxs] files. *)
val checksum : Bytes.t -> int -> int64
