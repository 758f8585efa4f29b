(** Autotuned-winner store: memoizes the *choice* of plan the way
    {!Cache} memoizes the result of inspecting one.

    Keys are {!Fingerprint.t} hashes of the access pattern, the
    machine model, and every candidate's transform list; the value
    names the winning plan (no serialized plan is stored: the caller
    holds the space the key hashed, so the name picks the plan out of
    it) together with the full per-candidate score table for
    reporting.

    Two tiers, the ones {!Cache} keeps: an in-memory LRU and an
    optional on-disk store (one [tuned-<hex>.json] per key, written
    atomically). Disk loads are validated — version (now 3; older
    files are misses that the next store overwrites), the key the
    entry names, a checksum over its values, machine, winner present
    in the score table — so a corrupt, stale or misnamed file degrades
    to a counted miss, never a crash or another entry's winner.
    Traffic is published to {!Rtrt_obs.Metrics} under
    [autotune.cache.hit], [autotune.cache.miss], [autotune.cache.store],
    [autotune.cache.disk_hit], [autotune.cache.disk_error],
    [autotune.cache.evict] and the gauge [autotune.cache.bytes]. *)

type entry = {
  winner : string;  (** name of the winning plan *)
  winner_score_ns : float;  (** modeled ns per step of the winner *)
  scores : (string * float) list;
      (** every scored candidate: name, modeled ns per step *)
  machine : string;  (** machine model the scores belong to *)
}

type stats = {
  hits : int;
  misses : int;
  stores : int;
  disk_hits : int;  (** subset of [hits] served by deserializing a file *)
  disk_errors : int;  (** corrupt/unwritable files degraded to misses *)
  entries : int;  (** resident in the memory tier *)
}

type t

(** [create ()] is memory-only; [dir] enables the disk tier (created
    if missing, shareable with {!Cache} — file names do not
    collide). *)
val create : ?dir:string -> unit -> t

val dir : t -> string option

(** Look up a key, memory tier first, then disk. The entry is
    validated for [machine] before being returned (a hit tuned for a
    different machine is a miss); a disk hit is promoted into the
    memory tier. *)
val find : t -> key:Fingerprint.t -> machine:string -> entry option

(** Insert into the memory tier and, when a [dir] is configured, write
    the JSON file atomically (tmp + rename). Write failures warn and
    count as [disk_errors]; they never raise. *)
val store : t -> key:Fingerprint.t -> entry -> unit

val stats : t -> stats
