(* Consecutive packing (Ding & Kennedy): a run-time data-reordering
   inspector that traverses the data mapping in iteration order and
   packs locations consecutively in first-touch order; untouched
   locations keep their relative order at the end. This is Figure 10
   of the paper, generalized from the (left, right) index-array pair to
   any access pattern.

   Returns the data reordering sigma_cp with
   [Perm.forward sigma old = new]. *)

let c_runs = Rtrt_obs.Metrics.counter "cpack.runs"
let c_touches_scanned = Rtrt_obs.Metrics.counter "cpack.touches_scanned"

(* Locations placed by the iteration scan (the rest keep their
   relative order in the trailing catch-all loop). *)
let c_first_touch = Rtrt_obs.Metrics.counter "cpack.first_touch_placements"

let run (access : Access.t) =
  let n_data = Access.n_data access in
  let already_ordered = Array.make n_data false in
  (* sigma_cp_inv in the paper: position -> original location. *)
  let inv = Array.make n_data 0 in
  let count = ref 0 in
  let place loc =
    if not already_ordered.(loc) then begin
      inv.(!count) <- loc;
      already_ordered.(loc) <- true;
      incr count
    end
  in
  for it = 0 to Access.n_iter access - 1 do
    Access.iter_touches access it place
  done;
  Rtrt_obs.Metrics.incr c_runs;
  Rtrt_obs.Metrics.add c_touches_scanned (Access.n_touches access);
  Rtrt_obs.Metrics.add c_first_touch !count;
  (* Remaining locations in original order, as in the paper's final
     loop over all nodes. *)
  for loc = 0 to n_data - 1 do
    place loc
  done;
  Perm.of_inverse inv

(* CPACK over a *view* of the base access: current iteration [cur]
   touches [sigma.(d)] for each datum [d] of base iteration
   [delta_inv.(cur)] — the fused-composition traversal that never
   materializes the intermediate access. [order] optionally gives an
   explicit visit order over current iterations (tilePack's schedule
   traversal); default is ascending. Bit-identical to [run] on the
   materialized access when the order is ascending. A plain loop over
   the access's fields: besides its output and two arrays per datum it
   allocates nothing per iteration, and a fixed-arity row costs no
   row-pointer read. *)
let run_view ?order (base : Access.t) ~(sigma : int array)
    ~(delta_inv : int array) =
  let n_data = Access.n_data base in
  let k = base.Access.arity and ptr = base.Access.ptr in
  let dat = base.Access.dat in
  let already_ordered = Array.make n_data false in
  let inv = Array.make n_data 0 in
  let count = ref 0 in
  let place loc =
    if not already_ordered.(loc) then begin
      inv.(!count) <- loc;
      already_ordered.(loc) <- true;
      incr count
    end
  in
  let visit cur =
    let r = delta_inv.(cur) in
    let lo = if k > 0 then k * r else ptr.(r) in
    let hi = if k > 0 then lo + k else ptr.(r + 1) in
    for idx = lo to hi - 1 do
      place sigma.(dat.(idx))
    done
  in
  (match order with
  | Some order -> Array.iter visit order
  | None ->
    for cur = 0 to Access.n_iter base - 1 do
      visit cur
    done);
  Rtrt_obs.Metrics.incr c_runs;
  Rtrt_obs.Metrics.add c_touches_scanned (Access.n_touches base);
  Rtrt_obs.Metrics.add c_first_touch !count;
  for loc = 0 to n_data - 1 do
    place loc
  done;
  Perm.of_inverse inv
