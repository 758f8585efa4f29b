(* The uniform executor interface over the pair kernels (moldyn, nbf,
   irreg, cg).

   A kernel instance owns its data arrays and index arrays. The
   composition framework transforms it through [apply_data_perm]
   (a data reordering R: permute every node array, remap index-array
   values — and implicitly reorder the identity-mapped node loops) and
   [apply_iter_perm] (an iteration reordering T of the interaction
   loop: permute the index arrays and any per-interaction data).

   Executors come in four flavors: plain (Figure 13-style: the code is
   unchanged, only the arrays moved) and sparse-tiled (Figure 14-style:
   tiles outermost), each with a traced twin that reports every memory
   reference to a cache model. All of them are one loop body per chain
   class run in different iteration orders: Walker derives every field
   below from a kernel's declaration. *)

(* A parallel tiled executor instance: the level-major renumbered
   schedule it executes (the serial twin for comparison) plus the run
   function, built by [plan_par] over an Exec engine. [par_run] takes
   the engine's batching/tier/profiling knobs; [par_decide] evaluates
   the auto-fallback tier model against a measured serial step time. *)
type par_exec = {
  par_sched : Reorder.Schedule.t;
  par_run :
    ?batch:int ->
    ?tier:Rtrt_par.Exec.tier ->
    ?profile:bool ->
    steps:int ->
    unit ->
    unit;
  par_decide :
    serial_ns_per_step:float -> batch:int -> Rtrt_par.Exec.decision;
}

type t = {
  name : string;
  n_nodes : int;
  n_inter : int;
  (* Node arrays in layout order (grouped for inter-array regrouping);
     lengths all n_nodes. *)
  node_array_names : string list;
  (* Per-interaction arrays (index arrays and e.g. edge weights). *)
  inter_array_names : string list;
  (* The interaction loop's access to the node space (current). *)
  access : Reorder.Access.t;
  (* Loop chain for sparse tiling, with the interaction loop's position.
     [chain_of_access] builds the chain from any (possibly transformed)
     access so composed inspectors can work on pending reorderings. *)
  loop_sizes : int array;
  seed_loop : int;
  (* Per chain loop: all its loop-carried dependences are reductions
     (Section 4, footnote 3), the legality of a dependence-free
     iteration reordering. Compose.Symbolic derives the kernel's
     program from this, [loop_sizes] and [seed_loop]. *)
  reduction_only : bool array;
  (* The loop chain over an access: one dependence set per adjacent
     pair, each in the orientation the kernel has at hand, so building
     it transposes nothing. *)
  chain_of_access : Reorder.Access.t -> Reorder.Sparse_tile.chain;
  (* Cross-time-step dependences between the chain's LAST loop at step
     s and its FIRST loop at step s+1, in either orientation. Lets
     sparse tiling grow across the outer time-stepping loop (Section
     2.3: "across an outer loop"). *)
  wrap_conn_of_access : Reorder.Access.t -> Reorder.Sparse_tile.deps;
  (* [apply_data_perm]: fresh index and node arrays, per-interaction
     arrays shared; [apply_iter_perm]: fresh index and per-interaction
     arrays, node arrays shared; [apply_perms ~delta ~sigma]: both in
     one rebuild, every array fresh. All copy the scalars, so one of
     each, or one [apply_perms], aliases nothing of the original
     kernel. *)
  apply_data_perm : Reorder.Perm.t -> t;
  apply_iter_perm : Reorder.Perm.t -> t;
  apply_perms : delta:Reorder.Perm.t -> sigma:Reorder.Perm.t -> t;
  (* Executors; [run*] mutate the kernel's arrays in place. [run] is
     the generated executor in the original order, [run_tiled] the
     interpreted reference walk of a schedule. *)
  run : steps:int -> unit;
  run_tiled : Reorder.Schedule.t -> steps:int -> unit;
  (* The generated executor over a schedule: same iterations in the
     same order as [run_tiled], streaming the schedule's run-length
     index (lo..hi ranges) on rows of at most 8 runs instead of loading
     every iteration id; bitwise identical by construction. The shape
     must have been built (Reorder.Shape.analyze) from this exact
     schedule value. *)
  run_tiled_shaped :
    Reorder.Schedule.t -> Reorder.Shape.t -> steps:int -> unit;
  (* The kernel's index arrays and float arrays, the arrays themselves,
     not copies. *)
  exec_arrays : unit -> int array array * float array array;
  run_traced :
    steps:int -> layout:Cachesim.Layout.t -> access:(int -> unit) -> unit;
  run_tiled_traced :
    Reorder.Schedule.t ->
    steps:int ->
    layout:Cachesim.Layout.t ->
    access:(int -> unit) ->
    unit;
  (* Parallel executor over a tiled schedule; [par_run] is bitwise
     identical to [run_tiled] on the renumbered [par_sched]. *)
  plan_par :
    pool:Rtrt_par.Pool.t ->
    Reorder.Schedule.t ->
    level_of:int array ->
    par_exec;
  (* Current node arrays, for correctness comparison. *)
  snapshot : unit -> (string * float array) list;
  (* Deep copy (fresh arrays, same values). *)
  copy : unit -> t;
}

(* The memory layout used by the paper's experiments: inter-array data
   regrouping over the node arrays, index/interaction arrays
   separate. *)
let layout k =
  let node_group = List.map (fun n -> (n, k.n_nodes)) k.node_array_names in
  let inter_group = List.map (fun n -> (n, k.n_inter)) k.inter_array_names in
  Cachesim.Layout.grouped ~groups:(node_group :: List.map (fun a -> [ a ]) inter_group) ()

(* Layout without regrouping (each array separate) for the regrouping
   ablation. *)
let layout_separate k =
  let node_arrays = List.map (fun n -> (n, k.n_nodes)) k.node_array_names in
  let inter_arrays = List.map (fun n -> (n, k.n_inter)) k.inter_array_names in
  Cachesim.Layout.separate (node_arrays @ inter_arrays)

(* Bytes of node data per node (the paper quotes 72 B for moldyn). *)
let bytes_per_node k = 8 * List.length k.node_array_names

(* Relative comparison of two snapshots; reductions are reassociated by
   the transformations, so exact equality is not expected. *)
let snapshots_close ?(rtol = 1e-9) s1 s2 =
  List.for_all2
    (fun (n1, a1) (n2, a2) ->
      String.equal n1 n2
      && Array.length a1 = Array.length a2
      && Array.for_all2
           (fun x y ->
             let scale = max (abs_float x) (abs_float y) in
             abs_float (x -. y) <= rtol *. max scale 1.0)
           a1 a2)
    s1 s2

(* Bitwise equality via IEEE bit patterns, so NaN payloads and signed
   zeros also have to match — the standard parallel executions claim. *)
let snapshots_equal_bits s1 s2 =
  List.length s1 = List.length s2
  && List.for_all2
       (fun (n1, a1) (n2, a2) ->
         String.equal n1 n2
         && Array.length a1 = Array.length a2
         && Array.for_all2
              (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
              a1 a2)
       s1 s2

(* Un-permute a snapshot taken after a data reordering [sigma] back to
   original numbering, for comparison against an untransformed run. *)
let unpermute_snapshot sigma s =
  List.map
    (fun (name, a) ->
      (name, Reorder.Perm.apply_to_float_array (Reorder.Perm.invert sigma) a))
    s
