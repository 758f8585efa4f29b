(* The run-time counterpart of a data mapping M_{I->a}: for each
   iteration of one loop, the list of locations it touches in one data
   space, stored CSR-style in touch order. Run-time data-reordering
   inspectors traverse exactly this structure. *)

type t = {
  n_iter : int;
  n_data : int;
  ptr : int array; (* length n_iter + 1 *)
  dat : int array; (* touched locations, grouped by iteration *)
}

let invalid fmt = Fmt.kstr invalid_arg fmt

let n_iter a = a.n_iter
let n_data a = a.n_data
let n_touches a = Array.length a.dat

(* Trusted constructor for inspector hot paths that build valid CSR
   arrays by construction (the inspector's view materializer); skips
   the O(touches) validation of [make]. The arrays are not copied. *)
let unsafe_make ~n_iter ~n_data ~ptr ~dat = { n_iter; n_data; ptr; dat }

let make ~n_iter ~n_data ~ptr ~dat =
  if Array.length ptr <> n_iter + 1 then invalid "Access.make: ptr length";
  if ptr.(0) <> 0 || ptr.(n_iter) <> Array.length dat then
    invalid "Access.make: ptr endpoints";
  Array.iter
    (fun d -> if d < 0 || d >= n_data then invalid "Access.make: datum %d" d)
    dat;
  { n_iter; n_data; ptr; dat }

(* Each iteration touches exactly the pair (left.(j), right.(j)), in
   that order — the j loop of moldyn/nbf/irreg. *)
let of_pairs ~n_data left right =
  let n_iter = Array.length left in
  if Array.length right <> n_iter then invalid "Access.of_pairs: lengths";
  let ptr = Array.init (n_iter + 1) (fun j -> 2 * j) in
  let dat = Array.make (2 * n_iter) 0 in
  for j = 0 to n_iter - 1 do
    dat.(2 * j) <- left.(j);
    dat.((2 * j) + 1) <- right.(j)
  done;
  make ~n_iter ~n_data ~ptr ~dat

(* Each iteration touches one location given by [idx]. *)
let of_single ~n_data idx =
  let n_iter = Array.length idx in
  let ptr = Array.init (n_iter + 1) (fun j -> j) in
  make ~n_iter ~n_data ~ptr ~dat:(Array.copy idx)

(* Iteration i touches location i (the i and k loops of moldyn). *)
let identity n = of_single ~n_data:n (Array.init n (fun i -> i))

(* Two-pass builder with no intermediate lists: [fill it emit] must
   emit iteration [it]'s touches, the same multiset on both passes
   (pass one counts, pass two scatters straight into the CSR arrays).
   [sort_rows] additionally sorts each iteration's touches ascending
   in place. This is the inspector-hot-path replacement for
   [of_lists]. *)
let of_touches ?(sort_rows = false) ~n_iter ~n_data fill =
  let ptr = Array.make (n_iter + 1) 0 in
  for it = 0 to n_iter - 1 do
    let c = ref 0 in
    fill it (fun (_ : int) -> incr c);
    ptr.(it + 1) <- !c
  done;
  for it = 1 to n_iter do
    ptr.(it) <- ptr.(it) + ptr.(it - 1)
  done;
  let dat = Array.make ptr.(n_iter) 0 in
  let cursor = ref 0 in
  let bad = ref false in
  for it = 0 to n_iter - 1 do
    let stop = ptr.(it + 1) in
    fill it (fun d ->
        if !cursor >= stop then bad := true
        else begin
          dat.(!cursor) <- d;
          incr cursor
        end);
    if !cursor <> stop then bad := true;
    if sort_rows then Irgraph.Scratch.sort_range dat ~lo:ptr.(it) ~hi:stop
  done;
  if !bad then invalid "Access.of_touches: generator is not repeatable";
  make ~n_iter ~n_data ~ptr ~dat

let of_lists ~n_data lists =
  let n_iter = Array.length lists in
  let ptr = Array.make (n_iter + 1) 0 in
  for j = 0 to n_iter - 1 do
    ptr.(j + 1) <- ptr.(j) + List.length lists.(j)
  done;
  let dat = Array.make ptr.(n_iter) 0 in
  Array.iteri
    (fun j l -> List.iteri (fun k d -> dat.(ptr.(j) + k) <- d) l)
    lists;
  make ~n_iter ~n_data ~ptr ~dat

let touches a it = Array.sub a.dat a.ptr.(it) (a.ptr.(it + 1) - a.ptr.(it))

let iter_touches a it f =
  for idx = a.ptr.(it) to a.ptr.(it + 1) - 1 do
    f a.dat.(idx)
  done

let fold_touches a it f acc =
  let acc = ref acc in
  iter_touches a it (fun d -> acc := f !acc d);
  !acc

(* First location an iteration touches; raises for empty iterations. *)
let first_touch a it =
  if a.ptr.(it + 1) = a.ptr.(it) then invalid "Access.first_touch: empty"
  else a.dat.(a.ptr.(it))

(* Effect of a data reordering sigma: every touched location moves. *)
let map_data sigma a =
  if Perm.size sigma <> a.n_data then invalid "Access.map_data: size";
  { a with dat = Perm.remap_values sigma a.dat }

(* Effect of an iteration reordering delta: iteration delta(j) of the
   new access touches what iteration j touched. *)
let reorder_iters delta a =
  if Perm.size delta <> a.n_iter then invalid "Access.reorder_iters: size";
  let inv = Perm.to_inverse_array delta in
  let counts = Array.init a.n_iter (fun nw ->
      let old = inv.(nw) in
      a.ptr.(old + 1) - a.ptr.(old))
  in
  let ptr = Array.make (a.n_iter + 1) 0 in
  for j = 0 to a.n_iter - 1 do
    ptr.(j + 1) <- ptr.(j) + counts.(j)
  done;
  let dat = Array.make ptr.(a.n_iter) 0 in
  for nw = 0 to a.n_iter - 1 do
    let old = inv.(nw) in
    let len = a.ptr.(old + 1) - a.ptr.(old) in
    Array.blit a.dat a.ptr.(old) dat ptr.(nw) len
  done;
  { a with ptr; dat }

(* Re-embed the data space: same touches, locations shifted by
   [offset] into a space of [n_data] locations. Used to stack several
   arrays' access patterns into one combined space (e.g. for
   dependence classification across arrays). *)
let shift_data ~offset ~n_data a =
  if offset < 0 || n_data < offset + a.n_data then
    invalid "Access.shift_data: bad embedding";
  { a with n_data; dat = Array.map (fun d -> d + offset) a.dat }

(* Transpose: for each datum, the iterations that touch it, in
   ascending iteration order. Used to derive dependence connectivity
   (e.g. which j iterations read x.(i)). Plain loops over [ptr]/[dat]:
   besides its output it allocates only the per-datum cursor. *)
let transpose a =
  let ptr = Array.make (a.n_data + 1) 0 in
  Array.iter (fun d -> ptr.(d + 1) <- ptr.(d + 1) + 1) a.dat;
  for d = 0 to a.n_data - 1 do
    ptr.(d + 1) <- ptr.(d) + ptr.(d + 1)
  done;
  let dat = Array.make ptr.(a.n_data) 0 in
  let cursor = Array.sub ptr 0 a.n_data in
  for it = 0 to a.n_iter - 1 do
    for idx = a.ptr.(it) to a.ptr.(it + 1) - 1 do
      let d = a.dat.(idx) in
      dat.(cursor.(d)) <- it;
      cursor.(d) <- cursor.(d) + 1
    done
  done;
  { n_iter = a.n_data; n_data = a.n_iter; ptr; dat }

(* Data-affinity graph: locations touched by the same iteration are
   adjacent (what Gpart partitions). *)
let to_graph a =
  let per_iter =
    Array.init a.n_iter (fun it -> touches a it)
  in
  Irgraph.Csr.of_accesses ~n_data:a.n_data per_iter

let pp ppf a =
  Fmt.pf ppf "access(%d iters -> %d locations, %d touches)" a.n_iter a.n_data
    (n_touches a)
