(** Directory creation and atomic file writes shared by the on-disk
    tiers. *)

(** [atomically path write] runs [write] on a temp file of its own in
    [path]'s directory, then renames it to [path]. [Error] carries the
    [Sys_error] message of a failed write or rename; the temp file is
    removed then. *)
val atomically :
  string -> (out_channel -> unit) -> (unit, string) result

(** [mkdir_p dir] creates [dir] and its missing parents (mode 0o755);
    a directory that already exists, or that another process creates
    meanwhile, is fine. Raises [Unix.Unix_error] on any other
    failure. *)
val mkdir_p : string -> unit
