(* Cg's loop bodies, the only copy: one per chain class, each taking
   the kernel's arrays in the order its declaration packs them (the
   scalars last) and then the iteration. dune compiles this file into
   module Cg, ahead of the loop functions and executor that
   gen/exec_gen.exe generates from the bodies' names. *)

external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let beta = 0.5
let rho = 0.25

let[@inline always] spmv (_, _, _, p, q, _, _, diag, _, _, i) =
  q.!(i) <- diag.!(i) *. p.!(i)

let[@inline always] scatter (left, right, w, p, q, _, _, _, _, _, j) =
  let l = left.!(j) and rr = right.!(j) in
  let wj = w.!(j) in
  q.!(l) <- q.!(l) +. (wj *. p.!(rr));
  q.!(rr) <- q.!(rr) +. (wj *. p.!(l))

(* alpha (the scalars' one element) changes only in the epilogue,
   between walks. *)
let[@inline always] update (_, _, _, p, q, x, r, _, dot, scal, k) =
  let alpha = scal.!(0) in
  let pk = p.!(k) and qk = q.!(k) in
  dot.!(k) <- pk *. qk;
  x.!(k) <- x.!(k) +. (alpha *. pk);
  let rk = r.!(k) -. (alpha *. qk) in
  r.!(k) <- rk;
  p.!(k) <- rk +. (beta *. pk)
