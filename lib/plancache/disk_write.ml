(* Atomic file writes for the on-disk tiers of [Cache] and [Tuned],
   and the directory creation they share.

   A write goes to a temp file next to the target, then is renamed
   over the target, so a reader sees the old file or the new one,
   never a partial one. Every write gets its own temp name (pid,
   domain and a process-wide counter). The pid alone is not enough:
   two writers in one process would share a temp file, and one could
   rename it away while the other still writes it. *)

let counter = Atomic.make 0

let atomically path write =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
      (Atomic.fetch_and_add counter 1)
  in
  match
    Out_channel.with_open_bin tmp write;
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error msg

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
