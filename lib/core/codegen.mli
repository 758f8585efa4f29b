(** Pseudo-code generation for composed inspectors and executors
    (Figures 10-15), derived mechanically from the symbolic state: the
    compile-time data mappings carry exactly the subscript chains a
    specialized inspector traverses (the paper's "automatic generation
    of specialized run-time inspectors" future work). That output is
    C-like pseudo-code for inspection, not compiled. The one compiled
    output is {!specialized_source}, Tier B's executor module, which
    takes its loop bodies from the kernel's body file rather than
    writing any of its own. *)

(** Render a term as a subscript chain: [sigma_cp(left(j))] becomes
    ["sigma_cp[left[j]]"]. *)
val subscript : Presburger.Term.t -> string

(** The subscript expressions of the loop at statement position [pos]
    in a data mapping, with the iteration variable renamed to [iv]. *)
val mapping_subscripts :
  pos:int -> iv:string -> Presburger.Rel.t -> string list

(** A specialized CPACK inspector (Figure 10/12 shape) traversing the
    given data mapping. *)
val cpack_inspector :
  instance:string -> program:Symbolic.program -> Presburger.Rel.t -> string

(** A specialized lexGroup inspector note. *)
val lexgroup_inspector :
  instance:string -> program:Symbolic.program -> Presburger.Rel.t -> string

(** The composed inspector driver (Figure 11 shape): one call per
    transformation, one final remap. *)
val composed_inspector : Symbolic.state -> string

(** The executor (Figure 13 plain / Figure 14 tiled shape). *)
val executor : Symbolic.state -> program:Symbolic.program -> string

(** Specialized inspectors for every step, the composed driver, and
    the executor. *)
val full_report : Symbolic.state -> program:Symbolic.program -> string

(** Tier B: the complete OCaml source of a table-driven executor
    specialized to one (kernel, schedule) pair. It opens with the
    kernel's body file ({!Kernels.Body_files}) verbatim, so it runs the
    walker's own loop bodies. The schedule's row bounds and the
    {!Reorder.Shape} runs of its rows with at most 8 runs follow as
    array literals; then, per chain class, two closed loop functions
    that call the class's body (one streams a run of consecutive ids,
    one walks a denser row's items slice); then one tile loop that
    hands every row to them. Source size is O(rows + runs) table
    entries plus the body file. The kernel is one of moldyn, nbf and
    irreg; the executor is handed to the host via
    [Callback.register ("rtrt.spec." ^ key)]. [None] for any other
    kernel, when the shape was not built from the schedule, or when the
    source would exceed 2 MiB; callers fall back to the Tier A shaped
    walk. See {!Specialize} for the compile / load / cache pipeline. *)
val specialized_source :
  Kernels.Kernel.t ->
  key:string ->
  Reorder.Schedule.t ->
  Reorder.Shape.t ->
  string option
