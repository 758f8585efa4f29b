(* Two-process tests re-run their own test executable as each child
   (forking is unavailable once a domain has run). A child inherits the
   caller's environment with [vars] set on top; each test's main
   function checks its variable first and, when set, runs the child's
   part and exits. [run_children] starts [n] children at once and
   returns their exit statuses. *)

let run_children n vars =
  let overridden e =
    List.exists (fun (v, _) -> String.starts_with ~prefix:(v ^ "=") e) vars
  in
  let env =
    Array.of_list
      (List.map (fun (v, value) -> v ^ "=" ^ value) vars
      @ List.filter
          (fun e -> not (overridden e))
          (Array.to_list (Unix.environment ())))
  in
  let pids =
    List.init n (fun _ ->
        Unix.create_process_env Sys.executable_name [| Sys.executable_name |]
          env Unix.stdin Unix.stdout Unix.stderr)
  in
  List.map (fun pid -> snd (Unix.waitpid [] pid)) pids
