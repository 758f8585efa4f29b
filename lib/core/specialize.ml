(* The executor of a frozen schedule. Every kernel's executor is
   generated at build time (lib/kernels/gen/exec_gen.ml) and runs as
   [Kernel.run_tiled_shaped] over the schedule's Reorder.Shape run
   index, built here once per schedule. [make] checks it bitwise
   against the interpreted [run_tiled] on two-step copies by default,
   the same way rtrt_par asserts parallel-vs-serial equivalence. *)

type tier = Interp | Shaped | Codegen

type t = {
  tier : tier;
  summary : Reorder.Shape.summary;
  run : steps:int -> unit;
  compile_seconds : float;
  cmxs_cache_hit : bool;
}

let g_runs = Rtrt_obs.Metrics.gauge "specialize.runs_detected"

(* Verification steps: enough to cover every chain class and catch
   order-of-visit divergence, cheap enough to run by default. *)
let verify_steps = 2

let make ?tier_b:_ ?(verify = true) (kernel : Kernels.Kernel.t)
    (sched : Reorder.Schedule.t) =
  let shape = Reorder.Shape.analyze sched in
  let summary = Reorder.Shape.summary shape in
  if verify then begin
    let reference = kernel.Kernels.Kernel.copy () in
    let candidate = kernel.Kernels.Kernel.copy () in
    reference.Kernels.Kernel.run_tiled sched ~steps:verify_steps;
    candidate.Kernels.Kernel.run_tiled_shaped sched shape ~steps:verify_steps;
    if
      not
        (Kernels.Kernel.snapshots_equal_bits
           (reference.Kernels.Kernel.snapshot ())
           (candidate.Kernels.Kernel.snapshot ()))
    then
      failwith
        (Printf.sprintf
           "Specialize: generated executor diverged bitwise from run_tiled (%s)"
           kernel.Kernels.Kernel.name)
  end;
  Rtrt_obs.Metrics.set g_runs (float_of_int summary.Reorder.Shape.runs);
  {
    tier = Shaped;
    summary;
    run =
      (fun ~steps -> kernel.Kernels.Kernel.run_tiled_shaped sched shape ~steps);
    compile_seconds = 0.;
    cmxs_cache_hit = false;
  }

let dump_source _ _ = None
