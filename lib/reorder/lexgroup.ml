(* Lexicographical grouping (Ding & Kennedy): iteration-reordering
   inspector that groups iterations by the first data location they
   touch, preserving the original order within a group. After a data
   reordering, iterations touching the same or adjacent locations then
   execute consecutively (Figure 4 of the paper).

   Implemented as a stable counting sort keyed on the first touch,
   which is O(n_iter + n_data). Returns delta_lg with
   [Perm.forward delta old_iter = new_iter]. *)

(* View passes: each is a traversal of the access that a lexGroup
   right after a CPACK does without (its key comes from CPACK's pass,
   and only [sort_by_key] runs). One branch when tracing is off. *)
let c_view_passes = Rtrt_obs.Metrics.counter "lexgroup.view_passes"

(* Stable counting sort of iterations by [key] (locations in
   [0, n_data)). *)
let sort_by_key ~n_data key =
  let n_iter = Array.length key in
  let count = Array.make (n_data + 1) 0 in
  for it = 0 to n_iter - 1 do
    let k = key.(it) in
    count.(k + 1) <- count.(k + 1) + 1
  done;
  for d = 0 to n_data - 1 do
    count.(d + 1) <- count.(d + 1) + count.(d)
  done;
  let forward = Array.make n_iter 0 in
  for it = 0 to n_iter - 1 do
    let k = key.(it) in
    forward.(it) <- count.(k);
    count.(k) <- count.(k) + 1
  done;
  Perm.unsafe_of_forward forward

let run (access : Access.t) =
  sort_by_key ~n_data:(Access.n_data access)
    (Array.init (Access.n_iter access) (Access.first_touch access))

(* lexGroup over a fused-composition view: current iteration [cur]'s
   key is the current position of the first location base iteration
   [delta_inv.(cur)] touches, i.e. [sigma.(first_touch base
   delta_inv.(cur))]. Bit-identical to [run] on the materialized
   access (the counting sort sees the same key sequence). A plain
   loop over the access's fields that rejects an empty iteration as
   [Access.first_touch] does. *)
let run_view (base : Access.t) ~(sigma : int array) ~(delta_inv : int array) =
  Rtrt_obs.Metrics.incr c_view_passes;
  let n_iter = Access.n_iter base in
  let k = base.Access.arity and ptr = base.Access.ptr in
  let dat = base.Access.dat in
  let key = Array.make n_iter 0 in
  for cur = 0 to n_iter - 1 do
    let r = delta_inv.(cur) in
    let lo =
      if k > 0 then k * r
      else if ptr.(r + 1) > ptr.(r) then ptr.(r)
      else invalid_arg "Access.first_touch: empty"
    in
    key.(cur) <- sigma.(dat.(lo))
  done;
  sort_by_key ~n_data:(Access.n_data base) key
