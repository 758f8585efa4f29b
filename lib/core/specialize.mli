(** Staged executor specialization over a frozen schedule.

    Three execution strategies for the same flat-CSR schedule, all
    bitwise identical:

    - [Interp]: the kernels' interpreted [run_tiled] walk;
    - [Shaped] (Tier A, on whenever {!Reorder.Shape.profitable}): the
      run-length-index streaming executors, selected at plan time;
    - [Codegen] (Tier B, only where the caller passes [~tier_b:true];
      moldyn, nbf and irreg): a table-driven OCaml
      module emitted by {!Codegen.specialized_source} for this exact
      (kernel, schedule) pair, around the kernel's own body file,
      compiled with [ocamlopt -shared] and loaded with [Dynlink].
      Compiled modules are cached on disk (under
      [RTRT_PLAN_CACHE_DIR/spec] when the plan cache is configured)
      keyed by a fingerprint over the schedule content, the OCaml
      version, word size and OS, plus an in-process memo. Each compile
      runs in a build directory of its own, so concurrent compiles of
      one key share no file; only the finished [.cmxs], sealed with its
      length, the emitter version and a checksum, is renamed into the
      cache, and a failed compile leaves its log beside it. A cached
      file whose seal does not match (truncated, corrupted, or written
      by another emitter) is never loaded: it is a miss that the
      recompile replaces.

    Every failure to reach a higher tier — no toolchain, compile
    error, a cache directory that cannot be created or written,
    emitter budget overflow, unprofitable shape — degrades
    gracefully to the next tier down and bumps
    [specialize.fallbacks]. By default the chosen tier is verified
    bitwise against the interpreted walk on two-step state copies
    before it is returned. Gauges: [specialize.tier] (0/1/2),
    [specialize.runs_detected], [specialize.compile_ns]; counters:
    [specialize.compiles], [specialize.cmxs_cache_hits],
    [specialize.memo_hits], [specialize.fallbacks]. *)

type tier = Interp | Shaped | Codegen

val tier_name : tier -> string

type t = {
  tier : tier;
  shape : Reorder.Shape.t;
  summary : Reorder.Shape.summary;
  run : steps:int -> unit;
      (** Execute [steps] schedule walks on the kernel state the
          specialization was built from, as [run_tiled ~steps] does. *)
  compile_seconds : float;
      (** Tier B out-of-process compile time; 0 on a cache hit or for
          the other tiers. *)
  cmxs_cache_hit : bool;
      (** Tier B executor came from the in-process memo or the on-disk
          [.cmxs] cache rather than a fresh compile. *)
}

(** The 16-hex-digit fingerprint that names Tier B's compiled module
    for this (kernel, schedule) pair: the kernel's name and sizes, the
    schedule's rows and items, and the compiler identity (OCaml
    version, word size, OS). {!make} computes it only on the Tier B
    path; Tiers A and interp never hash the schedule. *)
val schedule_key : Kernels.Kernel.t -> Reorder.Schedule.t -> string

(** Specialize [kernel]'s execution of [sched]. [tier_b] (default
    [false]) asks for Tier B; Tier A needs no opt-in. [verify]
    (default [true]) asserts the chosen tier bitwise against
    [run_tiled] on two-step copies and raises [Failure] on divergence.
    Never raises for a missing toolchain — that is a counted
    fallback. *)
val make :
  ?tier_b:bool -> ?verify:bool -> Kernels.Kernel.t -> Reorder.Schedule.t -> t

(** The exact Tier B source {!make} would compile for this pair (no
    toolchain needed), for [rtrt codegen --plan]. [None] when the
    emitter declines (a kernel without a body file, such as cg, or
    source-budget overflow). *)
val dump_source :
  Kernels.Kernel.t -> Reorder.Schedule.t -> string option
