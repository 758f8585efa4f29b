(* Tile packing (Section 2.3 / 5.4): after sparse tiling, reorder the
   data arrays by how tiles access them — consecutive packing over the
   tiled execution order. In the paper's Figure 5 this turns the data
   order into 4, 2, 5, 6, 3, 1 so the highlighted tile's data is
   consecutive.

   The inspector traverses the tiling function (via the schedule) and
   the data mappings of the listed loops, first-touch-packing each
   location the first time any iteration of any tile touches it. *)

let run ~(schedule : Schedule.t) ~(accesses : (int * Access.t) list) ~n_data =
  List.iter
    (fun (l, _) ->
      if l < 0 || l >= Schedule.n_loops schedule then
        invalid_arg "Tile_pack.run: loop out of range")
    accesses;
  let already_ordered = Array.make n_data false in
  let inv = Array.make n_data 0 in
  let count = ref 0 in
  let place loc =
    if not already_ordered.(loc) then begin
      inv.(!count) <- loc;
      already_ordered.(loc) <- true;
      incr count
    end
  in
  let rp = Schedule.row_ptr schedule and fl = Schedule.flat_items schedule in
  let nl = Schedule.n_loops schedule in
  for tile = 0 to Schedule.n_tiles schedule - 1 do
    List.iter
      (fun (loop, (access : Access.t)) ->
        let k = access.Access.arity and ptr = access.Access.ptr in
        let dat = access.Access.dat in
        let r = (tile * nl) + loop in
        for i = rp.(r) to rp.(r + 1) - 1 do
          let it = fl.(i) in
          let lo = if k > 0 then k * it else ptr.(it) in
          let hi = if k > 0 then lo + k else ptr.(it + 1) in
          for idx = lo to hi - 1 do
            place dat.(idx)
          done
        done)
      accesses
  done;
  for loc = 0 to n_data - 1 do
    place loc
  done;
  Perm.of_inverse inv
