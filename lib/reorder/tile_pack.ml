(* Tile packing (Section 2.3 / 5.4): after sparse tiling, reorder the
   data arrays by how tiles access them — consecutive packing over the
   tiled execution order. In the paper's Figure 5 this turns the data
   order into 4, 2, 5, 6, 3, 1 so the highlighted tile's data is
   consecutive.

   The inspector traverses the tiling function and the data mappings
   of the listed loops, first-touch-packing each location the first
   time any iteration of any tile touches it. The tiled order of a loop
   is a stable counting sort of its tile function: tiles ascending,
   each tile's members ascending, exactly the rows the executor's
   schedule will hold, so no schedule has to exist yet. *)

(* The loop's iterations in tiled order, and [ends.(t)], the position
   after tile [t]'s last member. *)
let order_and_ends (tf : Sparse_tile.tile_fn) =
  let tile_of = tf.Sparse_tile.tile_of in
  let n = Array.length tile_of in
  let ends = Array.make tf.Sparse_tile.n_tiles 0 in
  for it = 0 to n - 1 do
    let t = tile_of.(it) in
    ends.(t) <- ends.(t) + 1
  done;
  (* Start positions first, then each scatter advances its tile's
     cursor to the tile's end. *)
  let pos = ref 0 in
  for t = 0 to Array.length ends - 1 do
    let c = ends.(t) in
    ends.(t) <- !pos;
    pos := !pos + c
  done;
  let order = Array.make n 0 in
  for it = 0 to n - 1 do
    let t = tile_of.(it) in
    order.(ends.(t)) <- it;
    ends.(t) <- ends.(t) + 1
  done;
  (order, ends)

let order tf = fst (order_and_ends tf)

let run ~(tiles : Sparse_tile.tile_fn array) ~(accesses : (int * Access.t) list)
    ~n_data =
  let walks =
    List.map
      (fun (l, access) ->
        if l < 0 || l >= Array.length tiles then
          invalid_arg "Tile_pack.run: loop out of range";
        (access, order_and_ends tiles.(l)))
      accesses
  in
  let n_tiles =
    if Array.length tiles = 0 then 0 else tiles.(0).Sparse_tile.n_tiles
  in
  let fwd = Array.make n_data (-1) in
  let count = ref 0 in
  for tile = 0 to n_tiles - 1 do
    List.iter
      (fun ((access : Access.t), (order, ends)) ->
        let k = access.Access.arity and ptr = access.Access.ptr in
        let dat = access.Access.dat in
        for i = (if tile = 0 then 0 else ends.(tile - 1)) to ends.(tile) - 1 do
          let it = order.(i) in
          let lo = if k > 0 then k * it else ptr.(it) in
          let hi = if k > 0 then lo + k else ptr.(it + 1) in
          for idx = lo to hi - 1 do
            let loc = dat.(idx) in
            if fwd.(loc) < 0 then begin
              fwd.(loc) <- !count;
              incr count
            end
          done
        done)
      walks
  done;
  for loc = 0 to n_data - 1 do
    if fwd.(loc) < 0 then begin
      fwd.(loc) <- !count;
      incr count
    end
  done;
  Perm.unsafe_of_forward fwd
