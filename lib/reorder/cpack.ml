(* Consecutive packing (Ding & Kennedy): a run-time data-reordering
   inspector that traverses the data mapping in iteration order and
   packs locations consecutively in first-touch order; untouched
   locations keep their relative order at the end. This is Figure 10
   of the paper, generalized from the (left, right) index-array pair to
   any access pattern.

   Returns the data reordering sigma_cp with
   [Perm.forward sigma old = new]. The pass writes that forward array
   itself, -1 until a location is placed: the paper's sigma_cp_inv and
   its already-ordered flags are the same information, so the output
   is the one array allocated. *)

let c_runs = Rtrt_obs.Metrics.counter "cpack.runs"
let c_touches_scanned = Rtrt_obs.Metrics.counter "cpack.touches_scanned"

(* Locations placed by the iteration scan (the rest keep their
   relative order in the trailing catch-all loop). *)
let c_first_touch = Rtrt_obs.Metrics.counter "cpack.first_touch_placements"

(* lexGroup's exception for an iteration without a first touch. *)
let empty_row () = invalid_arg "Access.first_touch: empty"

(* The paper's final loop over all nodes: the locations no iteration
   touched, in original order, after the [placed] ones. *)
let finish (access : Access.t) fwd placed =
  Rtrt_obs.Metrics.incr c_runs;
  Rtrt_obs.Metrics.add c_touches_scanned (Access.n_touches access);
  Rtrt_obs.Metrics.add c_first_touch placed;
  let count = ref placed in
  for loc = 0 to Array.length fwd - 1 do
    if fwd.(loc) < 0 then begin
      fwd.(loc) <- !count;
      incr count
    end
  done;
  Perm.unsafe_of_forward fwd

(* The fused CPACK -> lexGroup pass: with [keys], iteration [it]'s key
   is the new number of its first touch, read once that touch is
   placed. *)
let run ?keys (access : Access.t) =
  let k = access.Access.arity and ptr = access.Access.ptr in
  let dat = access.Access.dat in
  let fwd = Array.make (Access.n_data access) (-1) in
  let count = ref 0 in
  for it = 0 to Access.n_iter access - 1 do
    let lo = if k > 0 then k * it else ptr.(it) in
    let hi = if k > 0 then lo + k else ptr.(it + 1) in
    for idx = lo to hi - 1 do
      let loc = dat.(idx) in
      if fwd.(loc) < 0 then begin
        fwd.(loc) <- !count;
        incr count
      end
    done;
    match keys with
    | None -> ()
    | Some key -> if hi = lo then empty_row () else key.(it) <- fwd.(dat.(lo))
  done;
  finish access fwd !count

(* CPACK over a *view* of the base access: current iteration [cur]
   touches [sigma.(d)] for each datum [d] of base iteration
   [delta_inv.(cur)] — the fused-composition traversal that never
   materializes the intermediate access. [order] optionally gives an
   explicit visit order over current iterations (tilePack's tiled
   traversal); default is ascending. Bit-identical to [run] on the
   materialized access when the order is ascending, keys included.
   One plain loop over the access's fields: besides its output it
   allocates nothing, and a fixed-arity row costs no row-pointer
   read. *)
let run_view ?order ?keys (base : Access.t) ~(sigma : int array)
    ~(delta_inv : int array) =
  let k = base.Access.arity and ptr = base.Access.ptr in
  let dat = base.Access.dat in
  let fwd = Array.make (Access.n_data base) (-1) in
  let count = ref 0 in
  let visits =
    match order with Some o -> Array.length o | None -> Access.n_iter base
  in
  for i = 0 to visits - 1 do
    let cur = match order with Some o -> o.(i) | None -> i in
    let r = delta_inv.(cur) in
    let lo = if k > 0 then k * r else ptr.(r) in
    let hi = if k > 0 then lo + k else ptr.(r + 1) in
    for idx = lo to hi - 1 do
      let loc = sigma.(dat.(idx)) in
      if fwd.(loc) < 0 then begin
        fwd.(loc) <- !count;
        incr count
      end
    done;
    match keys with
    | None -> ()
    | Some key ->
      if hi = lo then empty_row () else key.(cur) <- fwd.(sigma.(dat.(lo)))
  done;
  finish base fwd !count
