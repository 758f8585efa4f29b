(** The composed run-time inspector (Section 5, Figures 11 and 15):
    runs each transformation's inspector against the data mappings and
    dependences as modified by the previously planned inspectors. *)

(** Section 6's remap trade-off: [Remap_each] remaps the kernel after
    every transformation (Figure 15); [Remap_once] remaps the data
    arrays a single time at the end (Figure 11). Where Figure 11
    adjusts a working copy of the index arrays after every
    transformation, [Remap_once] defers the index and schedule updates
    too: inspectors traverse a *view* of the original access through
    the composed (sigma, delta) accumulators (updated in place with
    {!Reorder.Perm.compose_into}), so a composition performs one pass
    over the access per transformation and one final remap. Results
    are identical across both (bit for bit); only the inspector cost
    differs (Figure 16). *)
type strategy = Remap_each | Remap_once

type result = {
  kernel : Kernels.Kernel.t; (** transformed kernel for the executor *)
  schedule : Reorder.Schedule.t option;
      (** tile schedule when the plan sparse-tiles *)
  sigma_total : Reorder.Perm.t; (** composed data reordering *)
  delta_total : Reorder.Perm.t; (** composed interaction reordering *)
  inspector_seconds : float;
  n_data_remaps : int; (** full data-array remap passes performed *)
  reordering_fns : (string * Reorder.Perm.t) list;
      (** each generated reordering function, named as the symbolic
          layer names it (sigma_cp, delta_lg, sigma_cp2, ...), so
          compile-time formulas can be evaluated against run-time
          output *)
}

(** The plan-cache key for an inspection: a stable hash of the
    kernel's shape and access pattern, the plan's transformations and
    parameters, the remap strategy, and the symmetric-dependence flag.
    Defaults match {!run}'s defaults. The plan name is excluded — two
    differently-named plans with the same transforms share a key. *)
val fingerprint :
  ?strategy:strategy ->
  ?share_symmetric_deps:bool ->
  Plan.t ->
  Kernels.Kernel.t ->
  Rtrt_plancache.Fingerprint.t

(** [run ?strategy ?share_symmetric_deps plan kernel] validates the
    plan and executes the composed inspector. The result's kernel
    never aliases the caller's arrays: a cold [Remap_each] inspection
    works on a private copy, and every other path (the [Remap_once]
    cold tail, a warm replay) ends in a {!remap}, which builds fresh
    ones. When the composed delta and sigma are both identities
    (the base plan, base+FST) there is nothing to remap: the caller's
    kernel is copied after the clock stops, outside the
    [inspector.run] and [inspector.replay] spans, so the copy is not
    counted in [inspector_seconds].
    [share_symmetric_deps] enables the Section 6 symmetric-dependence
    elision during sparse-tile growth (default true): under either
    strategy, growth walks each of the chain's dependence sets once,
    in the orientation the kernel stores it (for the bundled kernels,
    the interaction access itself), and builds no transpose. With
    [false], each set stored opposite to the orientation growth
    gathers over is first transposed into it
    ([Reorder.Sparse_tile.gather_oriented]); the schedule is the same.
    Default strategy is [Remap_once].

    [pool] is unused: inspection is serial. It stays only because the
    end-to-end benchmark's md-steady probe passes one, and goes with
    that benchmark's next change.

    When [cache] is given, the inspection is keyed by {!fingerprint}:
    a hit skips every per-transformation inspector and {!remap}s the
    caller's kernel through the cached composed reorderings
    (bit-identical to the cold run, since both remap strategies reduce
    to applying the composed delta then sigma); a miss runs the
    inspectors and stores the result, after checking that it agrees
    with any entry stored under the key meanwhile. *)
val run :
  ?cache:Rtrt_plancache.Cache.t ->
  ?pool:Rtrt_par.Pool.t ->
  ?strategy:strategy ->
  ?share_symmetric_deps:bool ->
  Plan.t ->
  Kernels.Kernel.t ->
  result

(** [remap kernel ~delta ~sigma] applies composed reorderings:
    [kernel] under the interaction reordering [delta], then the data
    reordering [sigma], built in one rebuild
    ([Kernel.apply_perms]), with the number of data remaps that counts
    (0 when [sigma] is the identity, else 1). The result shares no
    array with [kernel], also under identity permutations, so [kernel]
    is never copied. {!Repair}'s frozen replays go through it, and so
    do the [Remap_once] cold tail and cache hits whenever delta or
    sigma moves anything. *)
val remap :
  Kernels.Kernel.t ->
  delta:Reorder.Perm.t ->
  sigma:Reorder.Perm.t ->
  Kernels.Kernel.t * int
