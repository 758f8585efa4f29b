(* Partitioning of nodes or iterations into bounded-size parts.

   [gpart] is a lightweight BFS-grown partitioner in the spirit of Han
   and Tseng's GPART: grow each part by breadth-first search from a
   seed until it reaches [part_size], then pick the next unvisited seed
   (preferring frontier nodes so consecutive parts touch). It trades
   partition quality for near-linear running time, which is the point
   of Gpart vs. heavyweight partitioners like Metis.

   [block] is the trivial contiguous partitioner used to seed full
   sparse tiling after a good data+iteration reordering (Section 2.3:
   "a simple block partitioning of the iterations is sufficient"). *)

type t = {
  n_parts : int;
  assign : int array; (* node -> part id, 0-based *)
}

let n_parts p = p.n_parts
let part_of p v = p.assign.(v)
let assignment p = p.assign

let invalid fmt = Fmt.kstr invalid_arg fmt

let make ~n_parts ~assign =
  Array.iter
    (fun a -> if a < 0 || a >= n_parts then invalid "Partition.make: id %d" a)
    assign;
  { n_parts; assign }

(* Sizes of each part. *)
let sizes p =
  let s = Array.make p.n_parts 0 in
  Array.iter (fun a -> s.(a) <- s.(a) + 1) p.assign;
  s

(* Block [b] is ids [b * part_size, min n ((b + 1) * part_size)), each
   filled with its id in one [Array.fill]: no division and no closure
   call per id. *)
let block ~n ~part_size =
  if part_size <= 0 then invalid "Partition.block: part_size %d" part_size;
  let n_parts = (n + part_size - 1) / part_size in
  let assign = Array.make n 0 in
  for b = 1 to n_parts - 1 do
    let lo = b * part_size in
    Array.fill assign lo (min part_size (n - lo)) b
  done;
  { n_parts = max n_parts 1; assign }

let gpart g ~part_size =
  if part_size <= 0 then invalid "Partition.gpart: part_size %d" part_size;
  let n = Csr.num_nodes g in
  let assign = Array.make n (-1) in
  let queue = Queue.create () in
  let frontier = Queue.create () in
  let current = ref 0 in
  let filled = ref 0 in
  let next_seed = ref 0 in
  let take_seed () =
    (* Prefer a node left on the previous part's frontier so that
       consecutive parts are spatially adjacent; otherwise scan. *)
    let rec from_frontier () =
      if Queue.is_empty frontier then None
      else
        let v = Queue.pop frontier in
        if assign.(v) < 0 then Some v else from_frontier ()
    in
    match from_frontier () with
    | Some v -> Some v
    | None ->
      while !next_seed < n && assign.(!next_seed) >= 0 do
        incr next_seed
      done;
      if !next_seed < n then Some !next_seed else None
  in
  let assigned = ref 0 in
  while !assigned < n do
    match take_seed () with
    | None -> assert false
    | Some seed ->
      (* A part that ran out of component keeps filling from the next
         seed; only a full part closes. *)
      if !filled >= part_size then begin
        incr current;
        filled := 0
      end;
      Queue.clear queue;
      assign.(seed) <- !current;
      incr assigned;
      incr filled;
      Queue.add seed queue;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        Csr.iter_neighbors g v (fun w ->
            if assign.(w) < 0 then
              if !filled < part_size then begin
                assign.(w) <- !current;
                incr assigned;
                incr filled;
                Queue.add w queue
              end
              else Queue.add w frontier)
      done
  done;
  { n_parts = (if n = 0 then 0 else !current + 1); assign }

(* Number of edges whose endpoints lie in different parts. *)
let edge_cut g p =
  let cut = ref 0 in
  for v = 0 to Csr.num_nodes g - 1 do
    Csr.iter_neighbors g v (fun w ->
        if v < w && p.assign.(v) <> p.assign.(w) then incr cut)
  done;
  !cut

(* Group members by part: result.(t) lists the nodes of part t in
   ascending node order. *)
let members p =
  let s = sizes p in
  let out = Array.map (fun k -> Array.make k 0) s in
  let cursor = Array.make p.n_parts 0 in
  Array.iteri
    (fun v a ->
      out.(a).(cursor.(a)) <- v;
      cursor.(a) <- cursor.(a) + 1)
    p.assign;
  out

let pp ppf p = Fmt.pf ppf "partition(%d parts over %d nodes)" p.n_parts
    (Array.length p.assign)
