(** Compressed-sparse-row undirected graphs over nodes [0, n).

    This is the runtime view of data-to-data affinity induced by a
    loop's data mappings: two data locations are adjacent when some
    iteration touches both (the graph that Gpart partitions). *)

type t = private {
  n : int;
  row_ptr : int array;
  col : int array;
}

val num_nodes : t -> int

(** Number of undirected edges counted with multiplicity (arcs / 2):
    a duplicate edge, which {!of_edges} deliberately keeps, counts
    once per copy. See {!num_distinct_edges} for the simple-graph
    count. *)
val num_edges : t -> int

(** Number of distinct undirected edges (duplicates collapsed). Costs
    a sort of each adjacency list; not a hot-path accessor. *)
val num_distinct_edges : t -> int

(** Number of stored arcs (each undirected edge appears twice). *)
val num_arcs : t -> int

val degree : t -> int -> int
val iter_neighbors : t -> int -> (int -> unit) -> unit
val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
val neighbors : t -> int -> int array

(** [of_edges ~n edges] builds an undirected graph; self-loops are
    dropped, duplicates kept. *)
val of_edges : n:int -> (int * int) array -> t

(** [of_accesses ~n_data accesses] connects data locations touched by
    the same iteration (pairwise clique per iteration). *)
val of_accesses : n_data:int -> int array array -> t

(** Undirected edge array with [u < v], [u] ascending; multi-edges
    appear once per copy. *)
val edges : t -> (int * int) array

(** BFS from [root] over unvisited nodes, marking and visiting each. *)
val bfs_from : t -> visited:bool array -> root:int -> (int -> unit) -> unit

(** Whole-graph BFS order (restarts per component). *)
val bfs_order : t -> int array

(** [(count, comp)] where [comp.(v)] is the component id of [v]. *)
val connected_components : t -> int * int array

val pp : t Fmt.t
