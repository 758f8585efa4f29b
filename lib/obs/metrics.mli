(** Named counters and gauges. Create handles once at module load;
    [add]/[incr]/[set] cost one branch when tracing is disabled and do
    not accumulate. Values are atomic, so handles may be updated from
    worker domains without losing increments; registration and the
    whole-registry traversals ([dump]/[flush]/[reset]) are serialized
    by one mutex, so lanes may register handles concurrently with a
    dump on another domain without entries being silently dropped.

    {2 Lifecycle}

    Metric values belong to the trace that was active while they
    accumulated. Use {!switch_sink} (or [Rtrt_obs.set_sink], which
    forwards here) to change sinks mid-run: it flushes accumulated
    values to the {e old} sink, installs the new one, then resets every
    counter, gauge and histogram — so a new trace never starts with
    stale values attributed to it. [Runtime.set_sink] alone does none
    of this and is only for internal use. [flush] is also called
    automatically at exit by [Config]'s hook. *)

type counter
type gauge

(** Idempotent per name: returns the existing handle if registered. *)
val counter : string -> counter

val add : counter -> int -> unit
val incr : counter -> unit
val value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float option

(** Zero every counter, unset every gauge, clear every histogram. *)
val reset : unit -> unit

(** Touched handles as (name, value), sorted by name. Histograms
    appear as their derived [<name>.{count,...,p99_ns}] gauges. *)
val dump : unit -> (string * float) list

(** Emit one Metric event per registered counter, zeros included, so
    a trace shows a counter that read 0; per set gauge; and per derived
    stat of a touched histogram, to the active sink. *)
val flush : unit -> unit

(** [switch_sink s]: flush to the current sink, route events to [s]
    (enabling tracing), and reset all metric state. The supported way
    to change sinks mid-run. *)
val switch_sink : Sink.t -> unit
