(* The moldyn benchmark (non-bonded force molecular dynamics, Figure 1
   of the paper generalized to 3-D): 9 node arrays of doubles — 72
   bytes per molecule, the figure the paper quotes when explaining why
   data reordering alone saturates on a 64-byte-line machine.

   Loop chain per time step:
     S1 (i loop): position update     x += vx + fx        (writes x)
     S2/S3 (j loop): pairwise forces  fx[l] += g, fx[r] -= g
     S4 (k loop): velocity update     vx += fx            (reads fx)

   A Walker declaration. dune compiles it after moldyn_body.ml, which
   holds each class's body once; the loop functions below inline them,
   and Walker derives every executor from the loop functions. *)

open Walker

let position_items (l, r, x, y, z, vx, vy, vz, fx, fy, fz) fl lo hi =
  for idx = lo to hi - 1 do
    position (l, r, x, y, z, vx, vy, vz, fx, fy, fz, fl.!(idx))
  done

let position_runs (l, r, x, y, z, vx, vy, vz, fx, fy, fz) rlo rln klo khi =
  for k = klo to khi - 1 do
    for i = rlo.!(k) to rlo.!(k) + rln.!(k) - 1 do
      position (l, r, x, y, z, vx, vy, vz, fx, fy, fz, i)
    done
  done

let pair_items (l, r, x, y, z, vx, vy, vz, fx, fy, fz) fl lo hi =
  for idx = lo to hi - 1 do
    pair (l, r, x, y, z, vx, vy, vz, fx, fy, fz, fl.!(idx))
  done

let pair_runs (l, r, x, y, z, vx, vy, vz, fx, fy, fz) rlo rln klo khi =
  for k = klo to khi - 1 do
    for j = rlo.!(k) to rlo.!(k) + rln.!(k) - 1 do
      pair (l, r, x, y, z, vx, vy, vz, fx, fy, fz, j)
    done
  done

let velocity_items (l, r, x, y, z, vx, vy, vz, fx, fy, fz) fl lo hi =
  for idx = lo to hi - 1 do
    velocity (l, r, x, y, z, vx, vy, vz, fx, fy, fz, fl.!(idx))
  done

let velocity_runs (l, r, x, y, z, vx, vy, vz, fx, fy, fz) rlo rln klo khi =
  for k = klo to khi - 1 do
    for i = rlo.!(k) to rlo.!(k) + rln.!(k) - 1 do
      velocity (l, r, x, y, z, vx, vy, vz, fx, fy, fz, i)
    done
  done

(* Parallel reduction over the pair class: [stash] computes each
   interaction's contribution g*dx (etc.) into per-interaction scratch —
   a pure function of x/y/z, which are read-only during the position —
   and [apply] folds the contributions into fx/fy/fz per datum in the
   serial order, so the result is bitwise the serial walk's. *)
let par (left, right, x, y, z, _, _, _, fx, fy, fz) m =
  let gx = Array.make m 0.0 in
  let gy = Array.make m 0.0 in
  let gz = Array.make m 0.0 in
  let stash ~pos:_ items lo hi =
    for idx = lo to hi - 1 do
      let j = items.!(idx) in
      let l = left.!(j) and r = right.!(j) in
      let dx = x.!(l) -. x.!(r) in
      let dy = y.!(l) -. y.!(r) in
      let dz = z.!(l) -. z.!(r) in
      let g = force dx dy dz in
      gx.!(j) <- g *. dx;
      gy.!(j) <- g *. dy;
      gz.!(j) <- g *. dz
    done
  in
  let apply ~pos:_ ~datum refs lo hi =
    for k = lo to hi - 1 do
      let rv = refs.(k) in
      let j = rv lsr 1 in
      if rv land 1 = 0 then begin
        fx.(datum) <- fx.(datum) +. gx.(j);
        fy.(datum) <- fy.(datum) +. gy.(j);
        fz.(datum) <- fz.(datum) +. gz.(j)
      end
      else begin
        fx.(datum) <- fx.(datum) -. gx.(j);
        fy.(datum) <- fy.(datum) -. gy.(j);
        fz.(datum) <- fz.(datum) -. gz.(j)
      end
    done
  in
  (stash, apply)

let decl =
  {
    name = "moldyn";
    nodes =
      [
        ("x", seeded 1); ("y", seeded 2); ("z", seeded 3);
        ("vx", seeded 4); ("vy", seeded 5); ("vz", seeded 6);
        ("fx", Fun.const 0.0); ("fy", Fun.const 0.0); ("fz", Fun.const 0.0);
      ];
    inters = [];
    scalars = [||];
    pack =
      (fun (s : state) ->
        match s.nodes with
        | [| x; y; z; vx; vy; vz; fx; fy; fz |] ->
          (s.left, s.right, x, y, z, vx, vy, vz, fx, fy, fz)
        | _ -> assert false);
    loops = [| Nodes; Inters; Nodes |];
    (* The chain's two dependence sets are symmetric (both constrained
       by left/right, Section 6): conn.(1) is the transpose that
       backward growth of loop 0 also needs. *)
    conn = (fun acc -> [| acc; Reorder.Access.transpose acc |]);
    wrap = (fun n _ -> Reorder.Access.identity n);
    seed_loop = 1;
    symmetric_backward = [ (0, 1) ];
    time_tiling = true;
    classes =
      [|
        {
          items = position_items;
          runs = position_runs;
          touches =
            at Iter [ "x"; "y"; "z"; "vx"; "vy"; "vz"; "fx"; "fy"; "fz" ];
        };
        {
          items = pair_items;
          runs = pair_runs;
          touches =
            at Iter [ "left"; "right" ]
            @ at Left [ "x"; "y"; "z" ] @ at Right [ "x"; "y"; "z" ]
            @ at Left [ "fx"; "fy"; "fz" ] @ at Right [ "fx"; "fy"; "fz" ];
        };
        {
          items = velocity_items;
          runs = velocity_runs;
          touches = at Iter [ "vx"; "vy"; "vz"; "fx"; "fy"; "fz" ];
        };
      |];
    reduction = 1;
    par;
    epilogue = None;
  }

let of_dataset = Walker.of_dataset decl
