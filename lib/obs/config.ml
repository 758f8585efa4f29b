(* Environment/CLI configuration surface:

     RTRT_TRACE=pretty            indented trace on stderr
     RTRT_TRACE=jsonl             JSONL trace to ./rtrt_trace.jsonl
     RTRT_TRACE=jsonl:PATH        JSONL trace to PATH
     RTRT_TRACE=off|0|none|""     disabled (the default)

   `rtrt --trace` passes [~default:Pretty] so the env var still wins
   when both are given. An at_exit hook flushes the metrics registry
   and closes the sink, so JSONL traces always end with the counter
   and gauge totals. *)

type mode = Off | Pretty | Jsonl of string

let default_jsonl_path = "rtrt_trace.jsonl"

(* ------------------------------------------------------------------ *)
(* Warn-and-default environment parsing, shared by every RTRT_* env
   var (RTRT_TRACE here, RTRT_DOMAINS in Pool, RTRT_PLAN_CACHE_DIR in
   Plancache):
   an unset variable silently yields the default, an unparsable value
   warns once on stderr and yields the default — never a silent
   partial fallback, never an exception. *)

let env_parse ~name ~parse ~default () =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
    match parse s with
    | Ok v -> v
    | Error msg ->
      Fmt.epr "rtrt: warning: %s=%S %s; using default@." name s msg;
      default)

let env_int ?(min = min_int) ~name ~default () =
  env_parse ~name ~default ()
    ~parse:(fun s ->
      match int_of_string_opt s with
      | Some n when n >= min -> Ok n
      | Some _ -> Error (Fmt.str "is below the minimum %d" min)
      | None -> Error "is not an integer")

let env_bool ~name ~default () =
  env_parse ~name ~default ()
    ~parse:(fun s ->
      match String.lowercase_ascii s with
      | "1" | "true" | "yes" | "on" -> Ok true
      | "" | "0" | "false" | "no" | "off" -> Ok false
      | _ -> Error "is not a boolean (expected 1|true|yes|on|0|false|no|off)")

(* A directory-valued variable; empty or whitespace-only means unset. *)
let env_dir ~name () =
  match Sys.getenv_opt name with
  | None -> None
  | Some s ->
    let s = String.trim s in
    if s = "" then None else Some s

let parse spec =
  match spec with
  | "" | "0" | "off" | "none" -> Ok Off
  | "pretty" -> Ok Pretty
  | "jsonl" -> Ok (Jsonl default_jsonl_path)
  | s when String.length s > 6 && String.sub s 0 6 = "jsonl:" ->
    Ok (Jsonl (String.sub s 6 (String.length s - 6)))
  | s ->
    Error
      (Fmt.str "unknown RTRT_TRACE value %S (expected pretty | jsonl[:PATH] | off)"
         s)

let exit_hook_registered = ref false

let register_exit_hook () =
  if not !exit_hook_registered then begin
    exit_hook_registered := true;
    at_exit (fun () ->
        if Runtime.is_enabled () then begin
          Metrics.flush ();
          Runtime.disable () (* flushes and closes the sink *)
        end)
  end

let install = function
  | Off -> Runtime.disable ()
  | Pretty ->
    register_exit_hook ();
    Metrics.switch_sink (Sink.pretty Fmt.stderr)
  | Jsonl path -> (
    match Sink.jsonl_file path with
    | sink ->
      register_exit_hook ();
      Metrics.switch_sink sink;
      Fmt.epr "rtrt: writing jsonl trace to %s@." path
    | exception Sys_error msg ->
      Fmt.epr "rtrt: cannot open jsonl trace (%s); tracing disabled@." msg;
      Runtime.disable ())

let init ?(default = Off) () =
  install
    (env_parse ~name:"RTRT_TRACE" ~default ()
       ~parse:(fun spec ->
         match parse spec with
         | Ok m -> Ok m
         | Error _ -> Error "is not pretty | jsonl[:PATH] | off"))
