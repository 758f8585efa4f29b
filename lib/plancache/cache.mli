(** Content-addressed cache of composed inspector results.

    Keys are {!Fingerprint.t} hashes of everything that determines the
    inspection outcome (kernel access pattern, plan transformations,
    strategy, symmetric-dependence sharing). Two tiers, kept by the
    library's internal store: an in-memory LRU bounded by a byte
    budget, and an optional on-disk store of one binary [<key>.plan]
    file per key (format v5: a fixed header, little-endian int32
    arrays and a trailing checksum, four FNV-1a lanes over 32-bit
    words; {!Fingerprint.lane_checksum}), so the amortization survives
    process restarts. A store streams the file through one fixed-size
    chunk, checksumming as it writes.

    Disk entries are checked on load (length, magic, version,
    checksum, key, header sizes) and then validated — array sizes
    against the kernel at hand, permutation bijectivity, schedule
    coverage — so a corrupt or stale file degrades to a counted miss,
    never a crash. Files of older formats (JSON, [<key>.json]) are
    ignored; a v3 or v4 [<key>.plan] file fails the version check, a
    counted miss that the next store overwrites. All operations are
    mutex-guarded and safe to call from worker domains.

    Traffic is published to {!Rtrt_obs.Metrics} under
    [plancache.hit], [plancache.miss], [plancache.evict],
    [plancache.store], [plancache.disk_hit], [plancache.disk_error]
    and the gauge [plancache.bytes] (visible whenever a trace sink is
    active); {!stats} reports the same numbers unconditionally. *)

open Reorder

(** What a warm run needs to skip re-inspection: the total reordering
    functions, the executor schedule, and the cost the cold inspection
    paid (for amortization reporting). *)
type entry = {
  sigma_total : Perm.t;  (** composed data reordering *)
  delta_total : Perm.t;  (** composed iteration reordering *)
  schedule : Schedule.t option;  (** sparse-tiled executor schedule *)
  reordering_fns : (string * Perm.t) list;
      (** per-transformation reordering functions, in application order *)
  n_data_remaps : int;
  cold_inspector_seconds : float;
      (** inspector wall time of the run that produced this entry *)
}

type stats = Store.stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  disk_hits : int;  (** subset of [hits] served by deserializing a file *)
  disk_errors : int;  (** corrupt/unwritable files degraded to misses *)
  entries : int;  (** resident in the memory tier *)
  bytes : int;  (** estimated resident size of the memory tier *)
}

type t

(** [create ()] is memory-only with a 64 MiB budget. [dir] enables the
    disk tier (created if missing). At least one entry stays resident
    regardless of budget. *)
val create : ?mem_budget_bytes:int -> ?dir:string -> unit -> t

val dir : t -> string option

(** [RTRT_PLAN_CACHE_DIR], trimmed; empty/unset means no disk tier. *)
val dir_from_env : unit -> string option

(** Look up a key, checking the memory tier then the disk tier. The
    entry is validated against the caller's kernel shape ([n_data],
    [n_iter], [loop_sizes]) before being returned; anything invalid is
    a miss. A disk hit is promoted into the memory tier. *)
val find :
  t ->
  key:Fingerprint.t ->
  n_data:int ->
  n_iter:int ->
  loop_sizes:int array ->
  entry option

(** Insert into the memory tier (evicting least-recently-used entries
    past the byte budget) and, when a [dir] is configured, write the
    entry file atomically (tmp + rename). Write failures, including an
    entry holding a value the format cannot represent (negative, or
    2{^31} and up), warn and count as [disk_errors]; they never
    raise, and the memory tier keeps the entry. *)
val store : t -> key:Fingerprint.t -> entry -> unit

(** Memory-tier-only lookup with no stats or LRU side effects. *)
val peek : t -> key:Fingerprint.t -> entry option

val stats : t -> stats
