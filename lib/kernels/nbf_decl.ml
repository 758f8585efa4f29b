(* The nbf benchmark (non-bonded force kernel, CHARMM-style, from the
   Han-Tseng suite): 6 node arrays (48 bytes per node) and a heavier
   Lennard-Jones-like force expression than moldyn's.

   Loop chain per time step:
     loop 0 (i): position integration  x += c * fx   (writes x, reads fx)
     loop 1 (j): pairwise LJ forces    fx[l] += g, fx[r] -= g

   A Walker declaration. dune compiles it after nbf_body.ml, which holds
   each class's body once; the loop functions below inline them, and
   Walker derives every executor from the loop functions. *)

open Walker

let update_items (l, r, x, y, z, fx, fy, fz) fl lo hi =
  for idx = lo to hi - 1 do
    update (l, r, x, y, z, fx, fy, fz, fl.!(idx))
  done

let update_runs (l, r, x, y, z, fx, fy, fz) rlo rln klo khi =
  for k = klo to khi - 1 do
    for i = rlo.!(k) to rlo.!(k) + rln.!(k) - 1 do
      update (l, r, x, y, z, fx, fy, fz, i)
    done
  done

let pair_items (l, r, x, y, z, fx, fy, fz) fl lo hi =
  for idx = lo to hi - 1 do
    pair (l, r, x, y, z, fx, fy, fz, fl.!(idx))
  done

let pair_runs (l, r, x, y, z, fx, fy, fz) rlo rln klo khi =
  for k = klo to khi - 1 do
    for j = rlo.!(k) to rlo.!(k) + rln.!(k) - 1 do
      pair (l, r, x, y, z, fx, fy, fz, j)
    done
  done

(* Parallel reduction over the force class (fx/fy/fz). The stashed
   contribution g*dx is a pure function of x/y/z, read-only during the
   position, so the ordered apply reproduces the serial float
   operations bit for bit. *)
let par (left, right, x, y, z, fx, fy, fz) m =
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
    name = "nbf";
    nodes =
      [
        ("x", seeded 11); ("y", seeded 12); ("z", seeded 13);
        ("fx", Fun.const 0.0); ("fy", Fun.const 0.0); ("fz", Fun.const 0.0);
      ];
    inters = [];
    scalars = [||];
    pack =
      (fun (s : state) ->
        match s.nodes with
        | [| x; y; z; fx; fy; fz |] -> (s.left, s.right, x, y, z, fx, fy, fz)
        | _ -> assert false);
    loops = [| Nodes; Inters |];
    conn = (fun acc -> [| acc |]);
    wrap = (fun _ -> Reorder.Access.transpose);
    seed_loop = 1;
    symmetric_backward = [];
    time_tiling = true;
    classes =
      [|
        {
          items = update_items;
          runs = update_runs;
          touches = at Iter [ "x"; "y"; "z"; "fx"; "fy"; "fz" ];
        };
        {
          items = pair_items;
          runs = pair_runs;
          touches =
            at Iter [ "left"; "right" ]
            @ at Left [ "x"; "y"; "z" ] @ at Right [ "x"; "y"; "z" ]
            @ at Left [ "fx"; "fy"; "fz" ] @ at Right [ "fx"; "fy"; "fz" ];
        };
      |];
    reduction = 1;
    par;
    epilogue = None;
  }

let of_dataset = Walker.of_dataset decl
