(** Ablation studies over the design choices DESIGN.md calls out:
    data-reordering algorithm, FST seed partitioning and seed loop,
    inter-array regrouping, symmetric-dependence elision, and
    tile-level parallelism. Each ablation returns its section of
    {!Table} rows, labelled [section] (the ablation's title) and
    [variant]. *)

(** A1: CPACK / RCM / Gpart / Morton-SFC data reorderings (+lexGroup). *)
val data_reorderings :
  machine:Cachesim.Machine.t ->
  config:Figures.config ->
  Datagen.Dataset.t ->
  Table.row list

(** A2: block vs Gpart seed for FST. *)
val seed_partitioning :
  machine:Cachesim.Machine.t ->
  config:Figures.config ->
  Datagen.Dataset.t ->
  Table.row list

(** A3: seeding the chain on the interaction loop vs loop 0. *)
val seed_loop :
  machine:Cachesim.Machine.t ->
  config:Figures.config ->
  Datagen.Dataset.t ->
  Table.row list

(** A4: inter-array regrouping on/off. *)
val regrouping :
  machine:Cachesim.Machine.t ->
  config:Figures.config ->
  Datagen.Dataset.t ->
  Table.row list

(** A5: symmetric-dependence elision on/off (inspector seconds). *)
val symmetric_sharing :
  config:Figures.config -> Datagen.Dataset.t -> Table.row list

(** A6: tile-level parallelism statistics of a sparse-tiled schedule. *)
val tile_parallelism :
  machine:Cachesim.Machine.t ->
  config:Figures.config ->
  Datagen.Dataset.t ->
  Table.row list

(** A7: sparse tiling across the outer time-stepping loop
    ({!Compose.Timetile}), modeled cycles vs the untiled executor. *)
val time_tiling :
  machine:Cachesim.Machine.t ->
  config:Figures.config ->
  Datagen.Dataset.t ->
  Table.row list

(** A8: full sparse tiling vs cache blocking. *)
val tiling_growth :
  machine:Cachesim.Machine.t ->
  config:Figures.config ->
  Datagen.Dataset.t ->
  Table.row list

(** A9: lexGroup vs lexSort vs bucket tiling after CPACK. *)
val iter_reorderings :
  machine:Cachesim.Machine.t ->
  config:Figures.config ->
  Datagen.Dataset.t ->
  Table.row list

(** Run every ablation at the config's scale: the ["ablations"]
    table. *)
val all : machine:Cachesim.Machine.t -> config:Figures.config -> unit -> Table.t
