(* The irreg benchmark (irregular CFD-style edge/node kernel from the
   Han-Tseng suite): only 2 node arrays (16 bytes per node) and a
   per-edge weight array, so spatial reordering has the most room to
   help (many nodes per cache line).

   Loop chain per time step:
     loop 0 (j): edge flux    y[l] += w*(x[l]-x[r]); y[r] += w*(x[r]-x[l])
     loop 1 (k): node update  x[k] += c * y[k]

   A Walker declaration. dune compiles it after irreg_body.ml, which
   holds each class's body once, and after the loop functions and
   executor that gen/exec_gen.exe generates from the bodies' names;
   Walker derives every walk from them. *)

open Walker

(* Parallel reduction over the flux class (y). The stashed flux is a
   pure function of w and x, read-only during the position, so the
   ordered apply reproduces the serial float operations bit for bit. *)
let par (left, right, w, x, y) m =
  let dj = Array.make m 0.0 in
  let stash ~pos:_ items lo hi =
    for idx = lo to hi - 1 do
      let j = items.!(idx) in
      dj.!(j) <- flux (w, x, left.!(j), right.!(j), j)
    done
  in
  let apply ~pos:_ ~datum refs lo hi =
    for k = lo to hi - 1 do
      let rv = refs.(k) in
      let j = rv lsr 1 in
      if rv land 1 = 0 then y.(datum) <- y.(datum) +. dj.(j)
      else y.(datum) <- y.(datum) -. dj.(j)
    done
  in
  (stash, apply)

let decl =
  {
    name = "irreg";
    nodes = [ ("x", seeded 22); ("y", Fun.const 0.0) ];
    (* per-edge weights: follow iteration reorderings *)
    inters = [ ("w", seeded 21) ];
    scalars = [||];
    pack =
      (fun (s : state) ->
        match (s.inters, s.nodes) with
        | [| w |], [| x; y |] -> (s.left, s.right, w, x, y)
        | _ -> assert false);
    loops = [| Inters; Nodes |];
    (* Chain [j; k]: k-iterations depend on the j-iterations touching
       their node, so the j access lists each j's successors. *)
    conn = (fun acc -> [| Reorder.Sparse_tile.Succs acc |]);
    wrap = (fun _ acc -> Reorder.Sparse_tile.Preds acc);
    seed_loop = 0;
    symmetric_backward = [];
    time_tiling = true;
    classes =
      [|
        {
          items = edge_items;
          touches =
            at Iter [ "left"; "right"; "w" ]
            @ [ ("x", Left); ("x", Right); ("y", Left); ("y", Right) ];
        };
        {
          items = node_items;
          touches = at Iter [ "x"; "y" ];
        };
      |];
    exec;
    reduction = 0;
    par;
    epilogue = None;
  }

let of_dataset = Walker.of_dataset decl
