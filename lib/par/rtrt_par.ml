(** Multicore execution for the run-time reordering framework: a
    spawn-once domain {!Pool}, static {!Chunk}ing, and the bit-exact
    parallel tiled-executor engine {!Exec}. Inspection is serial. *)

module Pool = Pool
module Chunk = Chunk
module Exec = Exec
