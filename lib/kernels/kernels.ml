(** The paper's three benchmarks and a CG-style dependent reduction as
    loop-chain declarations over flat float arrays, from which
    {!Walker} derives plain, sparse-tiled, shaped, parallel and
    trace-emitting executors, plus a Gauss-Seidel smoother for the
    sparse-tiling generality claim. *)

module Kernel = Kernel
module Moldyn = Moldyn
module Nbf = Nbf
module Irreg = Irreg
module Cg = Cg
module Gauss_seidel = Gauss_seidel

(** The Tier B kernels' body files, [<kernel>_body.ml], as strings. *)
module Body_files = Body_files

(** Benchmark constructors by name. *)
let by_name = function
  | "moldyn" -> Some Moldyn.of_dataset
  | "nbf" -> Some Nbf.of_dataset
  | "irreg" -> Some Irreg.of_dataset
  | "cg" -> Some Cg.of_dataset
  | _ -> None

let all_names = [ "irreg"; "nbf"; "moldyn"; "cg" ]
