(* The nbf benchmark (non-bonded force kernel, CHARMM-style, from the
   Han-Tseng suite): 6 node arrays (48 bytes per node) and a heavier
   Lennard-Jones-like force expression than moldyn's.

   Loop chain per time step:
     loop 0 (i): position integration  x += c * fx   (writes x, reads fx)
     loop 1 (j): pairwise LJ forces    fx[l] += g, fx[r] -= g

   A Walker declaration. dune compiles it after nbf_body.ml, which holds
   each class's body once, and after the loop functions and executor
   that gen/exec_gen.exe generates from the bodies' names; Walker
   derives every walk from them. *)

open Walker

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
    conn = (fun acc -> [| Reorder.Sparse_tile.Preds acc |]);
    (* Step s's pairs precede step s+1's updates of their endpoints. *)
    wrap = (fun _ acc -> Reorder.Sparse_tile.Succs acc);
    seed_loop = 1;
    time_tiling = true;
    classes =
      [|
        {
          items = update_items;
          touches = at Iter [ "x"; "y"; "z"; "fx"; "fy"; "fz" ];
        };
        {
          items = pair_items;
          touches =
            at Iter [ "left"; "right" ]
            @ at Left [ "x"; "y"; "z" ] @ at Right [ "x"; "y"; "z" ]
            @ at Left [ "fx"; "fy"; "fz" ] @ at Right [ "fx"; "fy"; "fz" ];
        };
      |];
    exec;
    reduction = 1;
    par;
    epilogue = None;
  }

let of_dataset = Walker.of_dataset decl
