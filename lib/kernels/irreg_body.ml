(* Irreg's loop bodies, the only copy: one per chain class, each taking
   the kernel's arrays in Kernel.exec_arrays order and then the
   iteration. Stdlib only: dune splices this file into module Irreg
   and Compose.Codegen into every specialized irreg module. *)

external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let relax = 0.001

(* The edge flux, shared by the edge body and the parallel stash. *)
let[@inline always] flux (w, x, l, r, j) = w.!(j) *. (x.!(l) -. x.!(r))

let[@inline always] edge (left, right, w, x, y, j) =
  let l = left.!(j) and r = right.!(j) in
  let d = flux (w, x, l, r, j) in
  y.!(l) <- y.!(l) +. d;
  y.!(r) <- y.!(r) -. d

let[@inline always] node (_, _, _, x, y, k) =
  x.!(k) <- x.!(k) +. (relax *. y.!(k))
