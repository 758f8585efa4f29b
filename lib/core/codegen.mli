(** Pseudo-code generation for composed inspectors and executors
    (Figures 10-15), derived mechanically from the symbolic state: the
    compile-time data mappings carry exactly the subscript chains a
    specialized inspector traverses (the paper's "automatic generation
    of specialized run-time inspectors" future work). That output is
    C-like pseudo-code for inspection, not compiled. The executor that
    runs is generated at build time from each kernel's body file (see
    [lib/kernels/gen/exec_gen.ml]). *)

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
