(* Gpart data reordering (Han & Tseng): partition the data-affinity
   graph into parts that fit in (some level of) cache, then number the
   data consecutively within each part. Within a part we keep BFS
   discovery order, which is what the partitioner grows, so data that
   is connected ends up adjacent. *)

(* The partition itself, for callers that also need it (e.g. to report
   edge cuts or reuse it as a sparse-tiling seed). *)
let run_with_partition (access : Access.t) ~part_size =
  let g = Access.to_graph access in
  let partition = Irgraph.Partition.gpart g ~part_size in
  let members = Irgraph.Partition.members partition in
  let n_data = Access.n_data access in
  let inv = Array.make n_data 0 in
  let pos = ref 0 in
  Array.iter
    (fun part -> Array.iter (fun v -> inv.(!pos) <- v; incr pos) part)
    members;
  (Perm.of_inverse inv, partition)

let run access ~part_size = fst (run_with_partition access ~part_size)
