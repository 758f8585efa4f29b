(* Atomic file writes for the on-disk tiers of [Cache] and [Tuned]:
   write a temp file next to the target, then rename it over the
   target, so a reader sees the old file or the new one, never a
   partial one. Every write gets its own temp name (pid, domain and a
   process-wide counter, as [Specialize] names its build directories).
   The pid alone is not enough: two writers in one process would share
   a temp file, and one could rename it away while the other still
   writes it. *)

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
