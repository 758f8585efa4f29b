(* A CG-style dependent-reduction kernel (after Yang et al.,
   "Simplifying Dependent Reductions in the Polyhedral Model"): each
   step applies the sparse operator and folds a dot product whose
   value feeds the next step's vector updates.

   Loop chain per step over nodes (n) and interactions (m):
     S1 (i loop): diagonal SpMV        q[i]  = diag[i] * p[i]
     S2 (j loop): off-diagonal scatter q[l] += w*p[r], q[r] += w*p[l]
     S3 (k loop): dot partials + update
                  dot[k] = p[k]*q[k]
                  x[k] += alpha*p[k];  r[k] -= alpha*q[k]
                  p[k]  = r[k] + beta*p[k]
     epilogue (scalar, serial): pap = fold of dot[k] in execution
                  order; alpha = rho / (1 + |pap|)

   The dot product is the dependent reduction: its partials are
   produced inside the tiles (S3), but the scalar it feeds (alpha)
   is consumed by every tile of the *next* step, so the reduction
   genuinely crosses tile boundaries. Executors therefore fold the
   per-node partials serially after each whole schedule walk, in
   schedule order — the same float additions in the same order for the
   interpreted, shaped, and parallel executors, which keeps all three
   bitwise identical on a given schedule. (Like every reduction here,
   *different* schedules reassociate the folds, so cross-plan
   comparisons use [snapshots_close].)

   Because alpha must be refreshed between consecutive chain walks,
   time-step sparse tiling is illegal for this kernel: the tiled
   executors require a schedule whose loop count is exactly the 3-loop
   chain and raise otherwise.

   A Walker declaration: each class's body once, inlined into its two
   loop functions; Walker derives every executor from them. *)

open Walker

let beta = 0.5
let rho = 0.25

let[@inline always] spmv (p, q, diag, i) = q.!(i) <- diag.!(i) *. p.!(i)

let[@inline always] scatter (left, right, w, p, q, j) =
  let l = left.!(j) and rr = right.!(j) in
  let wj = w.!(j) in
  q.!(l) <- q.!(l) +. (wj *. p.!(rr));
  q.!(rr) <- q.!(rr) +. (wj *. p.!(l))

let[@inline always] update (alpha, p, q, x, r, dot, k) =
  let pk = p.!(k) and qk = q.!(k) in
  dot.!(k) <- pk *. qk;
  x.!(k) <- x.!(k) +. (alpha *. pk);
  let rk = r.!(k) -. (alpha *. qk) in
  r.!(k) <- rk;
  p.!(k) <- rk +. (beta *. pk)

let spmv_items (_, _, _, p, q, _, _, diag, _, _) fl lo hi =
  for idx = lo to hi - 1 do
    spmv (p, q, diag, fl.!(idx))
  done

let spmv_runs (_, _, _, p, q, _, _, diag, _, _) rlo rln klo khi =
  for k = klo to khi - 1 do
    for i = rlo.!(k) to rlo.!(k) + rln.!(k) - 1 do
      spmv (p, q, diag, i)
    done
  done

let scatter_items (left, right, w, p, q, _, _, _, _, _) fl lo hi =
  for idx = lo to hi - 1 do
    scatter (left, right, w, p, q, fl.!(idx))
  done

let scatter_runs (left, right, w, p, q, _, _, _, _, _) rlo rln klo khi =
  for k = klo to khi - 1 do
    for j = rlo.!(k) to rlo.!(k) + rln.!(k) - 1 do
      scatter (left, right, w, p, q, j)
    done
  done

(* alpha changes only in the epilogue, between walks. *)
let update_items (_, _, _, p, q, x, r, _, dot, scal) fl lo hi =
  let alpha = scal.(0) in
  for idx = lo to hi - 1 do
    update (alpha, p, q, x, r, dot, fl.!(idx))
  done

let update_runs (_, _, _, p, q, x, r, _, dot, scal) rlo rln klo khi =
  let alpha = scal.(0) in
  for k = klo to khi - 1 do
    for i = rlo.!(k) to rlo.!(k) + rln.!(k) - 1 do
      update (alpha, p, q, x, r, dot, i)
    done
  done

(* Parallel reduction over the scatter class: [stash] computes each
   interaction's two contributions (w*p[r] toward the left slot, w*p[l]
   toward the right slot) — pure reads of p, which only S3 writes — and
   [apply] folds them into q per datum in serial order, so parallel
   execution is bitwise the serial walk. *)
let par (left, right, w, p, q, _, _, _, _, _) m =
  let gl = Array.make m 0.0 in
  let gr = Array.make m 0.0 in
  let stash ~pos:_ items lo hi =
    for idx = lo to hi - 1 do
      let j = items.!(idx) in
      let wj = w.!(j) in
      gl.!(j) <- wj *. p.!(right.!(j));
      gr.!(j) <- wj *. p.!(left.!(j))
    done
  in
  let apply ~pos:_ ~datum refs lo hi =
    for k = lo to hi - 1 do
      let rv = refs.(k) in
      let j = rv lsr 1 in
      if rv land 1 = 0 then q.(datum) <- q.(datum) +. gl.(j)
      else q.(datum) <- q.(datum) +. gr.(j)
    done
  in
  (stash, apply)

let decl =
  {
    name = "cg";
    (* The diagonal dominates the off-diagonal weights, so the
       iteration contracts instead of overflowing. *)
    nodes =
      [
        ("p", seeded 1);
        ("q", Fun.const 0.0);
        ("x", Fun.const 0.0);
        ("r", seeded 2);
        ("diag", fun i -> 1.0 +. seeded 7 i);
        ("dot", Fun.const 0.0);
      ];
    inters = [ ("w", fun j -> 0.01 *. seeded 11 j) ];
    scalars = [| 0.1 (* alpha *) |];
    pack =
      (fun (s : state) ->
        match (s.inters, s.nodes) with
        | [| w |], [| p; q; x; r; diag; dot |] ->
          (s.left, s.right, w, p, q, x, r, diag, dot, s.scalars)
        | _ -> assert false);
    loops = [| Nodes; Inters; Nodes |];
    (* Same chain shape as moldyn: both dependence sets of the 3-loop
       chain are constrained by left/right (Section 6 symmetric
       dependences), so conn.(1) doubles as loop 0's successor set. *)
    conn = (fun acc -> [| acc; Reorder.Access.transpose acc |]);
    wrap = (fun n _ -> Reorder.Access.identity n);
    seed_loop = 1;
    symmetric_backward = [ (0, 1) ];
    time_tiling = false;
    classes =
      [|
        {
          items = spmv_items;
          runs = spmv_runs;
          touches = at Iter [ "diag"; "p"; "q" ];
        };
        {
          items = scatter_items;
          runs = scatter_runs;
          touches =
            at Iter [ "left"; "right"; "w" ]
            @ [ ("p", Left); ("p", Right); ("q", Left); ("q", Right) ];
        };
        {
          items = update_items;
          runs = update_runs;
          touches = at Iter [ "p"; "q"; "x"; "r"; "dot" ];
        };
      |];
    reduction = 1;
    par;
    epilogue =
      Some
        {
          sum_class = 2;
          sum_array = "dot";
          finish =
            (fun (_, _, _, _, _, _, _, _, _, scal) pap ->
              scal.(0) <- rho /. (1.0 +. Float.abs pap));
        };
  }

let of_dataset = Walker.of_dataset decl
