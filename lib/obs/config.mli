(** Tracing configuration from the [RTRT_TRACE] environment variable
    ([pretty] | [jsonl[:PATH]] | [off]) with an optional programmatic
    default (the CLI's [--trace] flag). *)

type mode = Off | Pretty | Jsonl of string

val default_jsonl_path : string
val parse : string -> (mode, string) result

(** Directory-valued variable; unset, empty, or whitespace-only is
    [None]. *)
val env_dir : name:string -> unit -> string option

(** Activate a mode now (registers the exit hook that flushes metrics
    and closes the sink). *)
val install : mode -> unit

(** Read [RTRT_TRACE] and install it; fall back to [default] (itself
    defaulting to [Off]) when the variable is unset. An unparsable
    value warns on stderr and disables tracing. *)
val init : ?default:mode -> unit -> unit
