(* Compressed-sparse-row graphs over nodes [0, n). This is the runtime
   view of the data-to-data affinity induced by a loop's data mappings:
   two data locations are adjacent when some iteration touches both
   (the graph Gpart partitions, Section 2.1). *)

type t = {
  n : int;            (* number of nodes *)
  row_ptr : int array; (* length n+1 *)
  col : int array;     (* length row_ptr.(n); neighbor lists *)
}

let num_nodes g = g.n

(* Multigraph count: arcs / 2. A duplicate edge (which [of_edges]
   deliberately keeps — meshes may carry multi-edges) contributes once
   per copy; use [num_distinct_edges] for the simple-graph count. *)
let num_edges g = Array.length g.col / 2
let num_arcs g = Array.length g.col

let degree g v = g.row_ptr.(v + 1) - g.row_ptr.(v)

let iter_neighbors g v f =
  for idx = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
    f g.col.(idx)
  done

let fold_neighbors g v f acc =
  let acc = ref acc in
  iter_neighbors g v (fun w -> acc := f !acc w);
  !acc

let neighbors g v = Array.sub g.col g.row_ptr.(v) (degree g v)

(* Build an undirected graph from an edge list; both endpoints get an
   arc to the other. Self-loops are dropped, duplicate edges kept
   (meshes may legitimately carry multi-edges; callers that care can
   dedupe first). *)
let of_edges ~n edges =
  let deg = Array.make n 0 in
  let live = ref 0 in
  Array.iter
    (fun (u, v) ->
      if u <> v then begin
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1;
        incr live
      end)
    edges;
  let row_ptr = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row_ptr.(v + 1) <- row_ptr.(v) + deg.(v)
  done;
  let col = Array.make (2 * !live) 0 in
  let cursor = Array.copy row_ptr in
  Array.iter
    (fun (u, v) ->
      if u <> v then begin
        col.(cursor.(u)) <- v;
        cursor.(u) <- cursor.(u) + 1;
        col.(cursor.(v)) <- u;
        cursor.(v) <- cursor.(v) + 1
      end)
    edges;
  { n; row_ptr; col }

(* Build from an iteration-to-data access pattern: data locations
   touched by the same iteration become a clique (usually a pair).
   Two counting-sort passes straight into the CSR arrays — no
   intermediate edge list. *)
let of_accesses ~n_data accesses =
  let deg = Array.make n_data 0 in
  let arcs = ref 0 in
  Array.iter
    (fun touched ->
      let k = Array.length touched in
      for a = 0 to k - 1 do
        for b = a + 1 to k - 1 do
          let u = touched.(a) and v = touched.(b) in
          if u <> v then begin
            deg.(u) <- deg.(u) + 1;
            deg.(v) <- deg.(v) + 1;
            arcs := !arcs + 2
          end
        done
      done)
    accesses;
  let row_ptr = Array.make (n_data + 1) 0 in
  for v = 0 to n_data - 1 do
    row_ptr.(v + 1) <- row_ptr.(v) + deg.(v)
  done;
  let col = Array.make !arcs 0 in
  let cursor = Array.copy row_ptr in
  Array.iter
    (fun touched ->
      let k = Array.length touched in
      for a = 0 to k - 1 do
        for b = a + 1 to k - 1 do
          let u = touched.(a) and v = touched.(b) in
          if u <> v then begin
            col.(cursor.(u)) <- v;
            cursor.(u) <- cursor.(u) + 1;
            col.(cursor.(v)) <- u;
            cursor.(v) <- cursor.(v) + 1
          end
        done
      done)
    accesses;
  { n = n_data; row_ptr; col }

(* Undirected edge array with u < v, one entry per stored arc pair
   (so a multi-edge appears once per copy), u ascending. *)
let edges g =
  let out = Array.make (num_edges g) (0, 0) in
  let pos = ref 0 in
  for v = 0 to g.n - 1 do
    iter_neighbors g v (fun w ->
        if v < w then begin
          out.(!pos) <- (v, w);
          incr pos
        end)
  done;
  (* All arcs pair up v < w with w > v, so [pos] lands exactly on
     [num_edges] unless the graph carries (impossible) self-loops. *)
  if !pos <> Array.length out then Array.sub out 0 !pos else out

(* Simple-graph edge count: per-node sorted-unique neighbors above the
   node, using one pooled scratch buffer. *)
let num_distinct_edges g =
  Scratch.with_buf @@ fun buf ->
  let count = ref 0 in
  for v = 0 to g.n - 1 do
    Scratch.clear buf;
    iter_neighbors g v (fun w -> if w > v then Scratch.push buf w);
    Scratch.sort_dedup buf;
    count := !count + Scratch.length buf
  done;
  !count

(* Breadth-first search from [root] over nodes not yet [visited];
   calls [f] on each node in BFS order and marks it visited. *)
let bfs_from g ~visited ~root f =
  let queue = Queue.create () in
  if not visited.(root) then begin
    visited.(root) <- true;
    Queue.add root queue
  end;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    f v;
    iter_neighbors g v (fun w ->
        if not visited.(w) then begin
          visited.(w) <- true;
          Queue.add w queue
        end)
  done

(* BFS order over the whole graph, restarting at the lowest-numbered
   unvisited node of each component. *)
let bfs_order g =
  let visited = Array.make g.n false in
  let order = Array.make g.n 0 in
  let pos = ref 0 in
  for root = 0 to g.n - 1 do
    if not visited.(root) then
      bfs_from g ~visited ~root (fun v ->
          order.(!pos) <- v;
          incr pos)
  done;
  order

let connected_components g =
  let comp = Array.make g.n (-1) in
  let count = ref 0 in
  let visited = Array.make g.n false in
  for root = 0 to g.n - 1 do
    if not visited.(root) then begin
      bfs_from g ~visited ~root (fun v -> comp.(v) <- !count);
      incr count
    end
  done;
  (!count, comp)

let pp ppf g =
  Fmt.pf ppf "graph(n=%d, arcs=%d)" g.n (num_arcs g)
