(** The paper's three benchmarks and a CG-style dependent reduction as
    loop-chain declarations over flat float arrays, from which
    {!Walker} derives the generated executor, the interpreted
    sparse-tiled reference walk, and the parallel and trace-emitting
    executors, plus a Gauss-Seidel smoother for the
    sparse-tiling generality claim. *)

module Kernel = Kernel
module Moldyn = Moldyn
module Nbf = Nbf
module Irreg = Irreg
module Cg = Cg
module Gauss_seidel = Gauss_seidel

(** Benchmark constructors by name. *)
let by_name = function
  | "moldyn" -> Some Moldyn.of_dataset
  | "nbf" -> Some Nbf.of_dataset
  | "irreg" -> Some Irreg.of_dataset
  | "cg" -> Some Cg.of_dataset
  | _ -> None

let all_names = [ "irreg"; "nbf"; "moldyn"; "cg" ]
