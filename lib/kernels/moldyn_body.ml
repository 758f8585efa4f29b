(* Moldyn's loop bodies, the only copy: one per chain class, each
   taking the kernel's arrays in the order its declaration packs them
   and then the iteration. dune compiles this file into module Moldyn,
   ahead of the loop functions and executor that gen/exec_gen.exe
   generates from the bodies' names. *)

external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let dt = 0.0001

(* The force law, shared by the pair body and the parallel stash. *)
let[@inline always] force dx dy dz =
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1.0 in
  1.0 /. r2

let[@inline always] position (_, _, x, y, z, vx, vy, vz, fx, fy, fz, i) =
  x.!(i) <- x.!(i) +. (dt *. (vx.!(i) +. fx.!(i)));
  y.!(i) <- y.!(i) +. (dt *. (vy.!(i) +. fy.!(i)));
  z.!(i) <- z.!(i) +. (dt *. (vz.!(i) +. fz.!(i)))

let[@inline always] pair (left, right, x, y, z, _, _, _, fx, fy, fz, j) =
  let l = left.!(j) and r = right.!(j) in
  let dx = x.!(l) -. x.!(r) in
  let dy = y.!(l) -. y.!(r) in
  let dz = z.!(l) -. z.!(r) in
  let g = force dx dy dz in
  fx.!(l) <- fx.!(l) +. (g *. dx);
  fx.!(r) <- fx.!(r) -. (g *. dx);
  fy.!(l) <- fy.!(l) +. (g *. dy);
  fy.!(r) <- fy.!(r) -. (g *. dy);
  fz.!(l) <- fz.!(l) +. (g *. dz);
  fz.!(r) <- fz.!(r) -. (g *. dz)

let[@inline always] velocity (_, _, _, _, _, vx, vy, vz, fx, fy, fz, k) =
  vx.!(k) <- vx.!(k) +. (dt *. fx.!(k));
  vy.!(k) <- vy.!(k) +. (dt *. fy.!(k));
  vz.!(k) <- vz.!(k) +. (dt *. fz.!(k))
