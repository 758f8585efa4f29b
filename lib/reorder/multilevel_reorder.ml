(* Multilevel (METIS-style) partitioning as a run-time data reordering:
   like {!Gpart_reorder} but with the heavyweight partitioner — better
   cuts, higher inspector cost. Data within a part is numbered by a
   BFS over the part's subgraph (Gpart gets this for free from its
   BFS growth; a cut-optimizing partitioner must order explicitly),
   parts in part order. *)

let order_by_partition ~graph ~n_data partition =
  let members = Irgraph.Partition.members partition in
  let assign = Irgraph.Partition.assignment partition in
  let inv = Array.make n_data 0 in
  let pos = ref 0 in
  let placed = Array.make n_data false in
  let queue = Queue.create () in
  let place v =
    placed.(v) <- true;
    inv.(!pos) <- v;
    incr pos
  in
  Array.iteri
    (fun part_id part ->
      (* BFS within the part, restarting at unplaced members. *)
      Array.iter
        (fun root ->
          if not placed.(root) then begin
            place root;
            Queue.add root queue;
            while not (Queue.is_empty queue) do
              let v = Queue.pop queue in
              Irgraph.Csr.iter_neighbors graph v (fun w ->
                  if (not placed.(w)) && assign.(w) = part_id then begin
                    place w;
                    Queue.add w queue
                  end)
            done
          end)
        part)
    members;
  Perm.of_inverse inv

let run_with_partition (access : Access.t) ~part_size =
  let g = Access.to_graph access in
  let partition = Irgraph.Multilevel.partition_by_size g ~part_size in
  (order_by_partition ~graph:g ~n_data:(Access.n_data access) partition, partition)

let run access ~part_size = fst (run_with_partition access ~part_size)
