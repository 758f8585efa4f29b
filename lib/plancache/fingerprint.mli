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

(** An access's row pointer then its touches, as two [add_int_array]s;
    a fixed-arity access hashes the row pointer it implies, so an access
    and its ragged twin (same rows, explicit [ptr]) hash alike. *)
val add_access : builder -> Reorder.Access.t -> unit

val add_float : builder -> float -> unit
val value : builder -> t

(** 64-bit FNV-1a of the first [len] bytes of a buffer, untagged: the
    checksum sealing [Tuned]'s entries. *)
val checksum : Bytes.t -> int -> int64

(** {2 The plan-cache checksum}

    Four FNV-1a lanes over little-endian 32-bit words: lane [i] takes
    words [i], [i + 4], [i + 8], ..., each step [h <- (h xor w) * p].
    The four lane values (eight little-endian bytes each) and then the
    bytes after the last whole word are folded by the byte-serial
    FNV-1a. Lanes start at the FNV offset basis. *)

(** Lane state of a checksum in progress. *)
type lanes

val lanes : unit -> lanes

(** [feed t buf off len] takes [len] bytes of [buf] from [off], a
    multiple of 16 (whole blocks of one word per lane). Raises
    [Invalid_argument] otherwise or outside the buffer. *)
val feed : lanes -> Bytes.t -> int -> int -> unit

(** [seal t buf off len] takes the last [len] bytes (any length) and
    returns the checksum of everything fed; [t] is spent. *)
val seal : lanes -> Bytes.t -> int -> int -> int64

(** The checksum of the first [len] bytes of a buffer:
    [seal (lanes ()) buf 0 len]. *)
val lane_checksum : Bytes.t -> int -> int64
