(** A reusable pool of OCaml 5 domains. Workers are spawned once and
    then live inside a sense-reversing centralized barrier: between
    {!parallel} calls every worker is parked at the start barrier, so
    dispatch is a single barrier arrival by the caller — no
    mutex/condition broadcast on the hot path. Waiters spin a bounded
    number of [Domain.cpu_relax] iterations (none when the pool is
    wider than the machine) before falling back to a futex-style
    blocking sleep. Every barrier crossing establishes
    happens-before, so plain array writes made by one lane are visible
    to every lane afterwards. *)

type t

(** [create ~domains] spawns [domains - 1] workers; the calling domain
    is lane 0. Raises [Invalid_argument] when [domains < 1]. *)
val create : domains:int -> t

(** Total number of lanes (including the caller). *)
val size : t -> int

(** [parallel t f] runs [f lane] on every lane in [0, size t) and
    returns once all lanes finish (full barrier). The first exception
    raised by any lane is re-raised on the caller after the barrier.
    A pool of size 1 runs [f 0] inline. [profile] forces accounting on
    or off for this round (default: whether tracing is enabled). *)
val parallel : ?profile:bool -> t -> (int -> unit) -> unit

(** [barrier t ~lane] is an in-job phase barrier: callable only from
    inside a {!parallel} job, and every lane must call it the same
    number of times per job (the executors guarantee this statically).
    A pool of size 1 makes it a no-op. Time spent waiting counts
    toward the lane's barrier accounting when the round is profiled. *)
val barrier : t -> lane:int -> unit

(** Join the workers and publish per-lane accounting as
    [pool.lane<i>.{work,barrier,idle}_ns] gauges. The pool must not be
    used afterwards; idempotent. *)
val shutdown : t -> unit

(** {2 Synchronization-cost calibration}

    Measured once per pool on first demand, then cached; also
    exported as the [pool.barrier_cost_ns] and [pool.dispatch_cost_ns]
    gauges. The barrier is measured {e loaded} — a fixed per-lane work
    loop between barriers, with the barrier-free work time subtracted
    — so it reflects the overhead a barrier adds to a step that
    computes something, not an empty-barrier contention storm. Both
    costs are 0 for a pool of size 1. The executor's auto-fallback
    tier decision feeds these into its makespan model. *)

(** Steady-state cost of one in-job {!barrier} crossing under load, ns. *)
val barrier_cost_ns : t -> float

(** Cost of one empty {!parallel} round (dispatch + end barrier), ns. *)
val dispatch_cost_ns : t -> float

(** {2 Per-lane accounting}

    When a round is profiled (tracing enabled at dispatch time, or
    [~profile:true]), it is split per lane into dispatch/idle time
    (wake latency), work time (inside the job, minus in-job barrier
    waits) and barrier time (in-job barrier waits plus the end-of-round
    wait for stragglers). Per-round barrier totals feed the
    [pool.barrier_wait] histogram; the dispatch-to-last-lane-entry
    latency feeds [pool.dispatch_wait]. With tracing off and no
    [~profile:true], no clocks are read. *)

type lane_stats = {
  work_ns : int;     (** total ns inside jobs, excluding barrier waits *)
  barrier_ns : int;  (** total in-job + end-of-round barrier wait ns *)
  idle_ns : int;     (** total dispatch/wake latency ns *)
}

(** Accumulated per-lane totals over the accounted rounds. For every
    lane, [work + barrier + idle = accounted_ns] exactly. Call at
    quiescent points (no parallel call in flight). *)
val lane_stats : t -> lane_stats array

(** Number of rounds that were accounted (profiled). *)
val accounted_rounds : t -> int

(** Sum over accounted rounds of (round end - dispatch) ns. *)
val accounted_ns : t -> int

(** Sum over accounted rounds of (last lane's work entry - dispatch)
    ns — the cumulative [pool.dispatch_wait]. *)
val dispatch_wait_ns : t -> int

(** [with_pool ~domains f] creates a pool, runs [f], and shuts the
    pool down even on exceptions. *)
val with_pool : domains:int -> (t -> 'a) -> 'a
