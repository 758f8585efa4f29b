(* One engine for every executor walk of the pair kernels (moldyn, nbf,
   irreg, cg). A kernel is a declaration: its node and per-interaction
   arrays with their initial values, its loop chain, each chain class's
   interpreted loop function and touches for the cache model, its
   generated executor, and the reduction stash/apply of the parallel
   engine. [make] derives the whole Kernel.t from it, so every walk
   runs the same bodies in a different iteration order (the paper's
   Figures 13-14):

   - run / run_tiled_shaped: the generated executor ([exec]) over a
     walk in run form: the original order's one run per loop, or a
     schedule's rows with the Reorder.Shape runs of those it streams;
     position c runs class (c mod chain), so a schedule of S chains is
     S time steps;
   - run_tiled: the interpreted reference walk, tiles, then chain
     positions, then each row's items through its class's loop
     function;
   - plan_par: the items loop as Rtrt_par.Exec.run's body;
   - run_traced / run_tiled_traced: the same orders, reporting each
     class's touches (bounds-checked, no arithmetic);
   - the data and iteration reorderings (one rebuild, alone or
     composed), copy, snapshot, exec_arrays.

   Each class's body is an [@inline always] function of the kernel's
   arrays and the iteration, written once in <kernel>_body.ml. At build
   time lib/kernels/gen/exec_gen.ml writes, from the bodies' names,
   each class's loop functions and the executor, and dune compiles the
   body file, that file and the declaration as one module (see
   lib/kernels/dune), so the loop functions inline the bodies.

   Validated at construction, then unsafe. Every Kernel.t is built
   through Access.of_pairs, whose Access.make rejects an endpoint
   outside [0, n) and unequal left/right lengths; [make] checks every
   array's length; the tiled walks check the schedule
   (Schedule.check_fits, Shape.for_schedule) on every call. So the loop
   functions index with the unchecked [.!()]. The transformations build
   new index arrays and never write them in place. *)

external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

type index = Iter | Left | Right

type 'a cls = {
  items : 'a -> int array -> int -> int -> unit;
  touches : (string * index) list;
}

type loop = Nodes | Inters

type state = {
  n : int;
  left : int array;
  right : int array;
  nodes : float array array;
  inters : float array array;
  scalars : float array;
}

type walk = {
  tiles : int;
  copies : int;
  row_ptr : int array;
  flat_items : int array;
  run_ptr : int array;
  run_lo : int array;
  run_len : int array;
}

(* Rows of at most this many runs stream them; denser rows walk their
   items, where a run's two loads and loop set-up cost more than the
   indirect loads they save. *)
let stream_runs_max = 8

type stash = pos:int -> int array -> int -> int -> unit
type apply = pos:int -> datum:int -> int array -> int -> int -> unit

type 'a epilogue = {
  sum_class : int;
  sum_array : string;
  finish : 'a -> float -> unit;
}

type 'a t = {
  name : string;
  nodes : (string * (int -> float)) list;
  inters : (string * (int -> float)) list;
  scalars : float array;
  pack : state -> 'a;
  loops : loop array;
  conn : Reorder.Access.t -> Reorder.Sparse_tile.deps array;
  wrap : int -> Reorder.Access.t -> Reorder.Sparse_tile.deps;
  seed_loop : int;
  symmetric_backward : (int * int) list;
  time_tiling : bool;
  classes : 'a cls array;
  exec : 'a -> walk -> unit;
  reduction : int;
  par : 'a -> int -> stash * apply;
  epilogue : 'a epilogue option;
}

(* [at ix names]: one touch of each array, at the same index. *)
let at ix names = List.map (fun name -> (name, ix)) names

(* Deterministic initial conditions derived from ids, so two runs on
   permuted data remain comparable after un-permuting. *)
let seeded salt i =
  let h = ((i + 1) * 2654435761) land 0xFFFFFF in
  float_of_int ((h lxor salt) land 0xFFFF) /. 65536.0

(* ------------------------------------------------------------------ *)
(* Walks. *)

(* A schedule in run form: its rows and items, and the runs of the rows
   the executor streams, copied out of the run index of a shape built
   from the schedule. The denser rows' runs, which the executor never
   reads, are left out, so the table it streams is packed: on a working
   set near L2 the full index cost the four-kernel step a few percent. *)
let of_shape ~chain sched shape =
  let src_ptr = Reorder.Shape.run_ptr shape in
  let src_lo = Reorder.Shape.run_lo shape in
  let src_len = Reorder.Shape.run_len shape in
  let rows = Array.length src_ptr - 1 in
  let run_ptr = Array.make (rows + 1) 0 in
  for r = 0 to rows - 1 do
    let n = src_ptr.(r + 1) - src_ptr.(r) in
    run_ptr.(r + 1) <- (run_ptr.(r) + if n <= stream_runs_max then n else 0)
  done;
  let run_lo = Array.make run_ptr.(rows) 0 in
  let run_len = Array.make run_ptr.(rows) 0 in
  for r = 0 to rows - 1 do
    let n = run_ptr.(r + 1) - run_ptr.(r) in
    Array.blit src_lo src_ptr.(r) run_lo run_ptr.(r) n;
    Array.blit src_len src_ptr.(r) run_len run_ptr.(r) n
  done;
  {
    tiles = Reorder.Schedule.n_tiles sched;
    copies = Reorder.Schedule.n_loops sched / chain;
    row_ptr = Reorder.Schedule.row_ptr sched;
    flat_items = Reorder.Schedule.flat_items sched;
    run_ptr;
    run_lo;
    run_len;
  }

(* The original order: one tile, each loop one run. Every row is
   streamed, so the row bounds are never read and there are no items. *)
let original loop_sizes =
  let chain = Array.length loop_sizes in
  {
    tiles = 1;
    copies = 1;
    row_ptr = Array.make (chain + 1) 0;
    flat_items = [||];
    run_ptr = Array.init (chain + 1) Fun.id;
    run_lo = Array.make chain 0;
    run_len = loop_sizes;
  }

let walk_items fns a sched =
  let rp = Reorder.Schedule.row_ptr sched in
  let fl = Reorder.Schedule.flat_items sched in
  let nl = Reorder.Schedule.n_loops sched in
  for t = 0 to Reorder.Schedule.n_tiles sched - 1 do
    for c = 0 to nl - 1 do
      let r = (t * nl) + c in
      fns.(c mod Array.length fns) a fl rp.!(r) rp.!(r + 1)
    done
  done

(* The epilogue's fold of [v] over chain position [pos]'s iterations,
   tile-major: the walk's own iterations in the walk's own order. *)
let sum_items sched ~pos (v : float array) =
  let rp = Reorder.Schedule.row_ptr sched in
  let fl = Reorder.Schedule.flat_items sched in
  let nl = Reorder.Schedule.n_loops sched in
  let acc = ref 0.0 in
  for t = 0 to Reorder.Schedule.n_tiles sched - 1 do
    let r = (t * nl) + pos in
    for idx = rp.!(r) to rp.!(r + 1) - 1 do
      acc := !acc +. v.!(fl.!(idx))
    done
  done;
  !acc

(* The same fold over the original order: loop [pos] in id order. *)
let sum_ids ~n (v : float array) =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. v.!(i)
  done;
  !acc

(* Traced walk: [row r f] applies [f] to row r's iterations in order.
   Each iteration reports its class's touches; then the epilogue's fold
   reports its reads. *)
let trace decl st ~steps ~layout ~access ~n_tiles ~n_loops row =
  let compile touches =
    Array.of_list
      (List.map
         (fun (name, ix) -> (Cachesim.Layout.addresser layout name, ix))
         touches)
  in
  let by_class = Array.map (fun c -> compile c.touches) decl.classes in
  let sum_reads =
    Option.map
      (fun e -> (e.sum_class, compile [ (e.sum_array, Iter) ]))
      decl.epilogue
  in
  let visit touches v =
    for k = 0 to Array.length touches - 1 do
      let addr, ix = touches.(k) in
      access
        (addr
           (match ix with
           | Iter -> v
           | Left -> st.left.(v)
           | Right -> st.right.(v)))
    done
  in
  for _ = 1 to steps do
    for t = 0 to n_tiles - 1 do
      for c = 0 to n_loops - 1 do
        row ((t * n_loops) + c) (visit by_class.(c mod Array.length by_class))
      done
    done;
    Option.iter
      (fun (pos, reads) ->
        for t = 0 to n_tiles - 1 do
          row ((t * n_loops) + pos) (visit reads)
        done)
      sum_reads
  done

(* ------------------------------------------------------------------ *)
(* The Kernel.t of a declaration over one state. *)

let rec make decl st =
  let n = st.n and m = Array.length st.left in
  let access = Reorder.Access.of_pairs ~n_data:n st.left st.right in
  let check len =
    Array.iter (fun a ->
        if Array.length a <> len then
          invalid_arg (decl.name ^ ": array length"))
  in
  check n st.nodes;
  check m st.inters;
  let a = decl.pack st in
  let loop_sizes = Array.map (function Nodes -> n | Inters -> m) decl.loops in
  let chain = Array.length loop_sizes in
  let items = Array.map (fun c -> c.items) decl.classes in
  let plain = original loop_sizes in
  (* The last shape's walk: a specialization steps with one shape, so
     its tables are packed on the first step only. *)
  let last = ref None in
  let who f = String.capitalize_ascii decl.name ^ "." ^ f in
  let legal f sched =
    if not (decl.time_tiling || Reorder.Schedule.n_loops sched = chain) then
      invalid_arg (who f ^ ": time-step tiling is illegal for this kernel")
  in
  let fits f sched =
    legal f sched;
    if not (Reorder.Schedule.check_fits sched ~loop_sizes) then
      invalid_arg (who f ^ ": schedule does not fit the kernel")
  in
  let epilogue =
    Option.map
      (fun e ->
        let is_summed (name, _) = String.equal name e.sum_array in
        (e, st.nodes.(Option.get (List.find_index is_summed decl.nodes))))
      decl.epilogue
  in
  (* [steps] whole walks, each followed by the epilogue's fold in the
     walk's own order. *)
  let stepping ~steps walk sum =
    for _ = 1 to steps do
      walk ();
      Option.iter (fun (e, v) -> e.finish a (sum ~pos:e.sum_class v)) epilogue
    done
  in
  let trace = trace decl st in
  let rebuild st' = make decl { st' with scalars = Array.copy st.scalars } in
  (* Every reordering is this one rebuild. An iteration reordering
     [delta] moves the index and per-interaction arrays, a data
     reordering [sigma] renames the index arrays and moves the node
     arrays, and each array is written once, whichever of the two are
     given. A missing reordering leaves the arrays only it would move
     shared. *)
  let permute ?delta ?sigma () =
    let move p a =
      match p with
      | Some p -> Reorder.Perm.apply_to_float_array p a
      | None -> a
    in
    rebuild
      {
        st with
        left = Reorder.Perm.reindex ?delta ?sigma st.left;
        right = Reorder.Perm.reindex ?delta ?sigma st.right;
        nodes = Array.map (move sigma) st.nodes;
        inters = Array.map (move delta) st.inters;
      }
  in
  {
    Kernel.name = decl.name;
    n_nodes = n;
    n_inter = m;
    node_array_names = List.map fst decl.nodes;
    inter_array_names = "left" :: "right" :: List.map fst decl.inters;
    access;
    loop_sizes;
    seed_loop = decl.seed_loop;
    (* A node class that touches only its own element carries no
       dependence between its iterations; the interaction class is a
       reduction when it is the one whose stash/apply the parallel
       engine combines (held to the serial walk bitwise by test_par). *)
    reduction_only =
      Array.mapi
        (fun c cls ->
          match decl.loops.(c) with
          | Nodes -> List.for_all (fun (_, ix) -> ix = Iter) cls.touches
          | Inters -> c = decl.reduction)
        decl.classes;
    chain_of_access =
      (fun acc ->
        Reorder.Sparse_tile.make_oriented_chain ~loop_sizes
          ~conn:(decl.conn acc));
    wrap_conn_of_access = decl.wrap n;
    symmetric_backward = decl.symmetric_backward;
    apply_data_perm = (fun sigma -> permute ~sigma ());
    apply_iter_perm = (fun delta -> permute ~delta ());
    apply_perms = (fun ~delta ~sigma -> permute ~delta ~sigma ());
    run =
      (fun ~steps ->
        stepping ~steps
          (fun () -> decl.exec a plain)
          (fun ~pos v -> sum_ids ~n:loop_sizes.(pos) v));
    run_tiled =
      (fun sched ~steps ->
        fits "run_tiled" sched;
        stepping ~steps (fun () -> walk_items items a sched) (sum_items sched));
    run_tiled_shaped =
      (fun sched shape ~steps ->
        if not (Reorder.Shape.for_schedule shape sched) then
          invalid_arg
            (who "run_shaped" ^ ": shape built from a different schedule");
        fits "run_shaped" sched;
        let w =
          match !last with
          | Some (packed, w) when packed == shape -> w
          | _ ->
            let w = of_shape ~chain sched shape in
            last := Some (shape, w);
            w
        in
        stepping ~steps (fun () -> decl.exec a w) (sum_items sched));
    exec_arrays =
      (fun () -> ([| st.left; st.right |], Array.append st.inters st.nodes));
    run_traced =
      (fun ~steps ~layout ~access ->
        trace ~steps ~layout ~access ~n_tiles:1 ~n_loops:chain (fun c f ->
            for v = 0 to loop_sizes.(c) - 1 do
              f v
            done));
    run_tiled_traced =
      (fun sched ~steps ~layout ~access ->
        legal "run_tiled_traced" sched;
        let rp = Reorder.Schedule.row_ptr sched in
        let fl = Reorder.Schedule.flat_items sched in
        trace ~steps ~layout ~access ~n_tiles:(Reorder.Schedule.n_tiles sched)
          ~n_loops:(Reorder.Schedule.n_loops sched) (fun r f ->
            for i = rp.(r) to rp.(r + 1) - 1 do
              f fl.(i)
            done));
    plan_par =
      (fun ~pool sched ~level_of ->
        fits "plan_par" sched;
        let stash, apply = decl.par a m in
        let exec =
          Rtrt_par.Exec.make ~pool ~sched ~level_of
            ~is_reduction:(fun c -> c mod chain = decl.reduction)
            ~left:st.left ~right:st.right ~n_data:n
        in
        let par_sched = Rtrt_par.Exec.schedule exec in
        let body ~pos fl lo hi = items.(pos mod chain) a fl lo hi in
        let run ?batch ?tier ?profile ~steps () =
          Rtrt_par.Exec.run ?batch ?tier ?profile exec ~steps ~body ~stash
            ~apply
        in
        (* An epilogue is a cross-tile dependence between consecutive
           chain walks, which step batching may not elide: one engine
           dispatch per step, and the decision is evaluated at batch 1. *)
        let batches = Option.is_none epilogue in
        {
          Kernel.par_sched;
          par_run =
            (fun ?batch ?tier ?profile ~steps () ->
              if batches then run ?batch ?tier ?profile ~steps ()
              else
                stepping ~steps
                  (fun () -> run ?tier ?profile ~steps:1 ())
                  (sum_items par_sched));
          par_decide =
            (fun ~serial_ns_per_step ~batch ->
              Rtrt_par.Exec.decide exec ~serial_ns_per_step
                ~batch:(if batches then batch else 1));
        });
    snapshot =
      (fun () ->
        List.mapi
          (fun i (name, _) -> (name, Array.copy st.nodes.(i)))
          decl.nodes);
    copy =
      (fun () ->
        rebuild
          {
            st with
            left = Array.copy st.left;
            right = Array.copy st.right;
            nodes = Array.map Array.copy st.nodes;
            inters = Array.map Array.copy st.inters;
          });
  }

let of_dataset decl (d : Datagen.Dataset.t) =
  let n = d.Datagen.Dataset.n_nodes in
  let m = Datagen.Dataset.n_interactions d in
  let init len (_, value) = Array.init len value in
  make decl
    {
      n;
      left = Array.copy d.Datagen.Dataset.left;
      right = Array.copy d.Datagen.Dataset.right;
      nodes = Array.of_list (List.map (init n) decl.nodes);
      inters = Array.of_list (List.map (init m) decl.inters);
      scalars = Array.copy decl.scalars;
    }
