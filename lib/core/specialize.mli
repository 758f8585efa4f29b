(** The executor of a frozen schedule: the kernel's generated executor
    ([Kernels.Kernel.run_tiled_shaped], written at build time by
    [lib/kernels/gen/exec_gen.ml]) over the schedule's
    {!Reorder.Shape} run index, which {!make} builds once. By default
    it is verified bitwise against the interpreted [run_tiled] walk on
    two-step state copies before it is returned. Gauge:
    [specialize.runs_detected]. *)

(** The executor behind a {!t}. {!make} produces only [Shaped], the
    generated executor. [Interp] and [Codegen] are never produced:
    they are kept only for perfbench, which matches on them. *)
type tier = Interp | Shaped | Codegen

type t = {
  tier : tier;  (** always [Shaped] *)
  summary : Reorder.Shape.summary;
  run : steps:int -> unit;
      (** Execute [steps] schedule walks on the kernel state the
          specialization was built from, as [run_tiled ~steps] does. *)
  compile_seconds : float;
      (** Always 0: nothing is compiled at run time. Kept only for
          perfbench. *)
  cmxs_cache_hit : bool;  (** Always [false]. Kept only for perfbench. *)
}

(** Specialize [kernel]'s execution of [sched]. [verify] (default
    [true]) asserts the executor bitwise against [run_tiled] on
    two-step copies and raises [Failure] on divergence. [tier_b] is
    ignored; it is kept only for perfbench. *)
val make :
  ?tier_b:bool -> ?verify:bool -> Kernels.Kernel.t -> Reorder.Schedule.t -> t

(** Always [None]: no executor source is emitted at run time. Kept
    only for perfbench. *)
val dump_source : Kernels.Kernel.t -> Reorder.Schedule.t -> string option
