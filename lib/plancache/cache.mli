(** Content-addressed cache of composed inspector results.

    Keys are {!Fingerprint.t} hashes of everything that determines the
    inspection outcome (kernel access pattern, plan transformations,
    strategy, symmetric-dependence sharing). Two tiers: an in-memory
    LRU bounded by a byte budget, and an optional on-disk store (one
    binary [<key>.plan] file per key, format v3: a fixed header,
    little-endian int32 arrays and a trailing FNV-1a checksum) so the
    amortization survives process restarts.

    Disk entries are checked on load (length, magic, version,
    checksum, key, header sizes) and then validated — array sizes
    against the kernel at hand, permutation bijectivity, schedule
    coverage — so a corrupt or stale file degrades to a miss, never a
    crash. Files of older formats (JSON, [<key>.json]) are ignored. All
    operations are mutex-guarded and safe to call from worker domains.

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
  shape_summary : Shape.summary option;
      (** plan-time {!Reorder.Shape} analysis of [schedule], cached so
          warm hits pick an executor tier without re-walking the items
          array. Only the summary is stored; the run-length index is
          always rebuilt from the validated schedule. A loaded summary
          that cannot belong to its schedule is dropped to [None]. *)
  reordering_fns : (string * Perm.t) list;
      (** per-transformation reordering functions, in application order *)
  n_data_remaps : int;
  cold_inspector_seconds : float;
      (** inspector wall time of the run that produced this entry *)
}

type stats = {
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
val pp_stats : stats Fmt.t
