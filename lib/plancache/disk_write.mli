(** Atomic file writes shared by the on-disk tiers. *)

(** [atomically path write] runs [write] on a temp file of its own in
    [path]'s directory, then renames it to [path]. [Error] carries the
    [Sys_error] message of a failed write or rename; the temp file is
    removed then. *)
val atomically :
  string -> (out_channel -> unit) -> (unit, string) result
