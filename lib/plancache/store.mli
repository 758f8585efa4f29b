(** The two-tier content-addressed store under {!Cache} and {!Tuned}:
    an LRU memory tier bounded by a byte budget, and an optional disk
    tier of one file per key, written atomically (temp file, then
    rename). A {!format} brings the entries' codec and validation;
    the tiering, the disk-fault rules and the accounting live here.

    Any read, decode or validation failure of a file is a counted
    [disk_errors], a warning on stderr and a miss, never an exception.
    A failed write (or an entry the codec cannot encode) is a counted
    [disk_errors] and a warning; the memory tier keeps the entry. All
    operations are mutex-guarded and safe to call from worker
    domains. *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  disk_hits : int;  (** subset of [hits] served by decoding a file *)
  disk_errors : int;  (** unreadable, invalid or unwritable files *)
  entries : int;  (** resident in the memory tier *)
  bytes : int;  (** estimated resident size of the memory tier *)
}

(** How one kind of entry is named, sized, stored and checked. ['ctx]
    is what a lookup must check an entry against. *)
type ('e, 'ctx) format

(** Registers the counters [<prefix>.hit], [.miss], [.evict],
    [.store], [.disk_hit], [.disk_error] and the gauge [<prefix>.bytes]
    (resident bytes); call it once, at module load.
    - [what] names an entry in warnings ("plan-cache entry");
    - [file_name hex] is the entry file's name under the directory;
    - [size e] estimates [e]'s resident bytes;
    - [write ~hex e oc] writes the file's contents to [oc], or says
      why [e] has none (what it wrote by then is discarded);
    - [decode ~hex ctx buf] reads a file's bytes back, rejecting an
      entry that names another key;
    - [valid ctx e] checks a resident or decoded entry before it is
      served; an invalid resident entry is looked up on disk. *)
val format :
  prefix:string ->
  what:string ->
  file_name:(string -> string) ->
  size:('e -> int) ->
  write:(hex:string -> 'e -> out_channel -> (unit, string) result) ->
  decode:(hex:string -> 'ctx -> Bytes.t -> ('e, string) result) ->
  valid:('ctx -> 'e -> (unit, string) result) ->
  ('e, 'ctx) format

type ('e, 'ctx) t

(** Memory-only unless [dir] is given (created if missing, with its
    parents). The memory budget defaults to 64 MiB. *)
val create :
  ('e, 'ctx) format -> ?mem_budget_bytes:int -> ?dir:string -> unit ->
  ('e, 'ctx) t

val dir : ('e, 'ctx) t -> string option

(** The memory tier, then the disk tier; a disk hit is promoted into
    the memory tier. *)
val find : ('e, 'ctx) t -> key:Fingerprint.t -> 'ctx -> 'e option

(** Into the memory tier (evicting least-recently-used entries past
    the budget) and, with a [dir], onto disk. Never raises on a disk
    fault. *)
val store : ('e, 'ctx) t -> key:Fingerprint.t -> 'e -> unit

(** Memory-tier-only lookup with no stats or LRU side effects. *)
val peek : ('e, 'ctx) t -> key:Fingerprint.t -> 'e option

val stats : ('e, 'ctx) t -> stats
