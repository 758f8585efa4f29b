(* The moldyn benchmark (non-bonded force molecular dynamics, Figure 1
   of the paper generalized to 3-D): 9 node arrays of doubles — 72
   bytes per molecule, the figure the paper quotes when explaining why
   data reordering alone saturates on a 64-byte-line machine.

   Loop chain per time step:
     S1 (i loop): position update     x += vx + fx        (writes x)
     S2/S3 (j loop): pairwise forces  fx[l] += g, fx[r] -= g
     S4 (k loop): velocity update     vx += fx            (reads fx)

   A Walker declaration. dune compiles it after moldyn_body.ml, which
   holds each class's body once, and after the loop functions and
   executor that gen/exec_gen.exe generates from the bodies' names;
   Walker derives every walk from them. *)

open Walker

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
       by left/right, Section 6): each is the pair access itself, as
       the pairs' predecessor rows and as their successor rows. *)
    conn = (fun acc -> Reorder.Sparse_tile.[| Preds acc; Succs acc |]);
    wrap = (fun n _ -> Reorder.Sparse_tile.Preds (Reorder.Access.identity n));
    seed_loop = 1;
    time_tiling = true;
    classes =
      [|
        {
          items = position_items;
          touches =
            at Iter [ "x"; "y"; "z"; "vx"; "vy"; "vz"; "fx"; "fy"; "fz" ];
        };
        {
          items = pair_items;
          touches =
            at Iter [ "left"; "right" ]
            @ at Left [ "x"; "y"; "z" ] @ at Right [ "x"; "y"; "z" ]
            @ at Left [ "fx"; "fy"; "fz" ] @ at Right [ "fx"; "fy"; "fz" ];
        };
        {
          items = velocity_items;
          touches = at Iter [ "vx"; "vy"; "vz"; "fx"; "fy"; "fz" ];
        };
      |];
    exec;
    reduction = 1;
    par;
    epilogue = None;
  }

let of_dataset = Walker.of_dataset decl
