(* The run-time counterpart of a data mapping M_{I->a}: for each
   iteration of one loop, the list of locations it touches in one data
   space, in touch order. An access whose every iteration touches the
   same number k of locations (the pair loops' (left, right), the node
   loops' identity) stores only the touches: row r is
   dat.(k r) .. dat.(k r + k - 1). Any other access keeps a CSR row
   pointer. Run-time data-reordering inspectors traverse exactly this
   structure. *)

type t = {
  n_iter : int;
  n_data : int;
  arity : int; (* every row's length; 0 when rows differ, see [ptr] *)
  ptr : int array; (* arity 0: length n_iter + 1; otherwise empty *)
  dat : int array; (* touched locations, grouped by iteration *)
}

let invalid fmt = Fmt.kstr invalid_arg fmt

(* Row pointers built; one branch when tracing is off. The pair
   kernels' accesses are fixed-arity, so a traced cold inspection of
   one that counts any here has built a ragged access it could do
   without. *)
let c_row_pointers = Rtrt_obs.Metrics.counter "access.row_pointers"

let n_iter a = a.n_iter
let n_data a = a.n_data
let n_touches a = Array.length a.dat

(* Row [r] is [dat.(row_lo a r) .. dat.(row_hi a r - 1)]. Callers in
   other modules compute the same bounds from the fields: the dev
   profile compiles every module -opaque, so a per-row call into this
   module is never inlined. *)
let[@inline] row_lo a r = if a.arity > 0 then a.arity * r else a.ptr.(r)
let[@inline] row_hi a r =
  if a.arity > 0 then a.arity * (r + 1) else a.ptr.(r + 1)

(* Trusted constructor for inspector hot paths that build valid
   arrays by construction (the inspector's view materializer); skips
   the O(touches) validation of [make]. The arrays are not copied. *)
let unsafe_make ~n_iter ~n_data ~arity ~ptr ~dat =
  if arity = 0 then Rtrt_obs.Metrics.incr c_row_pointers;
  { n_iter; n_data; arity; ptr; dat }

let ragged ~n_iter ~n_data ~ptr ~dat =
  unsafe_make ~n_iter ~n_data ~arity:0 ~ptr ~dat

let check_data what ~n_data dat =
  for i = 0 to Array.length dat - 1 do
    let d = dat.(i) in
    if d < 0 || d >= n_data then invalid "%s: datum %d" what d
  done

let make ~n_iter ~n_data ~ptr ~dat =
  if n_iter < 0 || Array.length ptr <> n_iter + 1 then
    invalid "Access.make: ptr length";
  if ptr.(0) <> 0 || ptr.(n_iter) <> Array.length dat then
    invalid "Access.make: ptr endpoints";
  for it = 0 to n_iter - 1 do
    if ptr.(it + 1) < ptr.(it) then
      invalid "Access.make: ptr decreases at %d" it
  done;
  check_data "Access.make" ~n_data dat;
  ragged ~n_iter ~n_data ~ptr ~dat

(* Each iteration touches exactly the pair (left.(j), right.(j)), in
   that order — the j loop of moldyn/nbf/irreg. One pass validates and
   interleaves. *)
let of_pairs ~n_data left right =
  let n_iter = Array.length left in
  if Array.length right <> n_iter then invalid "Access.of_pairs: lengths";
  let dat = Array.make (2 * n_iter) 0 in
  for j = 0 to n_iter - 1 do
    let l = left.(j) and r = right.(j) in
    if l < 0 || l >= n_data then invalid "Access.of_pairs: datum %d" l;
    if r < 0 || r >= n_data then invalid "Access.of_pairs: datum %d" r;
    dat.(2 * j) <- l;
    dat.((2 * j) + 1) <- r
  done;
  { n_iter; n_data; arity = 2; ptr = [||]; dat }

(* Each iteration touches one location given by [idx]. *)
let of_single ~n_data idx =
  check_data "Access.of_single" ~n_data idx;
  let n_iter = Array.length idx in
  { n_iter; n_data; arity = 1; ptr = [||]; dat = Array.copy idx }

(* Iteration i touches location i (the i and k loops of moldyn). *)
let identity n =
  { n_iter = n; n_data = n; arity = 1; ptr = [||]; dat = Array.init n Fun.id }

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

let touches a it =
  let lo = row_lo a it in
  Array.sub a.dat lo (row_hi a it - lo)

let iter_touches a it f =
  for idx = row_lo a it to row_hi a it - 1 do
    f a.dat.(idx)
  done

let fold_touches a it f acc =
  let acc = ref acc in
  iter_touches a it (fun d -> acc := f !acc d);
  !acc

(* First location an iteration touches; raises for empty iterations. *)
let first_touch a it =
  let lo = row_lo a it in
  if row_hi a it = lo then invalid "Access.first_touch: empty"
  else a.dat.(lo)

(* Effect of a data reordering sigma: every touched location moves. *)
let map_data sigma a =
  if Perm.size sigma <> a.n_data then invalid "Access.map_data: size";
  { a with dat = Perm.remap_values sigma a.dat }

(* Effect of an iteration reordering delta: iteration delta(j) of the
   new access touches what iteration j touched. Rows keep their
   lengths, so a fixed-arity access stays one. *)
let reorder_iters delta a =
  if Perm.size delta <> a.n_iter then invalid "Access.reorder_iters: size";
  let inv = Perm.to_inverse_array delta in
  let ptr = if a.arity > 0 then [||] else Array.make (a.n_iter + 1) 0 in
  let dat = Array.make (Array.length a.dat) 0 in
  let dst = ref 0 in
  for nw = 0 to a.n_iter - 1 do
    let old = inv.(nw) in
    for idx = row_lo a old to row_hi a old - 1 do
      dat.(!dst) <- a.dat.(idx);
      incr dst
    done;
    if a.arity = 0 then ptr.(nw + 1) <- !dst
  done;
  if a.arity > 0 then { a with dat }
  else ragged ~n_iter:a.n_iter ~n_data:a.n_data ~ptr ~dat

(* Re-embed the data space: same touches, locations shifted by
   [offset] into a space of [n_data] locations. Used to stack several
   arrays' access patterns into one combined space (e.g. for
   dependence classification across arrays). *)
let shift_data ~offset ~n_data a =
  if offset < 0 || n_data < offset + a.n_data then
    invalid "Access.shift_data: bad embedding";
  { a with n_data; dat = Array.map (fun d -> d + offset) a.dat }

(* Transposes built; one branch when tracing is off. Sparse tiling,
   the legality check and repair's support check walk each dependence
   set in the orientation it is stored, so a traced inspection that
   counts any here has a caller that could do without. *)
let c_transposes = Rtrt_obs.Metrics.counter "access.transposes"

let ints_equal (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  go (Array.length a - 1)

(* Physically (the bundled kernels' chains hold the access value
   itself), else by content: the same rows, however each is stored. *)
let equal a b =
  a == b
  || a.n_iter = b.n_iter && a.n_data = b.n_data
     && ((a.arity > 0 && a.arity = b.arity)
        ||
        let rec go r = r < 0 || (row_lo a r = row_lo b r && go (r - 1)) in
        go a.n_iter)
     && ints_equal a.dat b.dat

(* Transpose: for each datum, the iterations that touch it, in
   ascending iteration order. Used to derive dependence connectivity
   (e.g. which j iterations read x.(i)). Plain loops over the fields:
   besides its output it allocates only the per-datum cursor. *)
let transpose a =
  Rtrt_obs.Metrics.incr c_transposes;
  let ptr = Array.make (a.n_data + 1) 0 in
  Array.iter (fun d -> ptr.(d + 1) <- ptr.(d + 1) + 1) a.dat;
  for d = 0 to a.n_data - 1 do
    ptr.(d + 1) <- ptr.(d) + ptr.(d + 1)
  done;
  let dat = Array.make ptr.(a.n_data) 0 in
  let cursor = Array.sub ptr 0 a.n_data in
  for it = 0 to a.n_iter - 1 do
    for idx = row_lo a it to row_hi a it - 1 do
      let d = a.dat.(idx) in
      dat.(cursor.(d)) <- it;
      cursor.(d) <- cursor.(d) + 1
    done
  done;
  ragged ~n_iter:a.n_data ~n_data:a.n_iter ~ptr ~dat

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
