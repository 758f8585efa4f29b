(* Plans: compositions of run-time reordering transformations, with
   static validation and the standard compositions of the paper's
   evaluation (Section 2.4):

     base, CPACK, CPACK+lexGroup (CL), Gpart+lexGroup (GL),
     CL+CL, and each of the last three followed by full sparse
     tiling + tilePack. *)

type t = {
  name : string;
  transforms : Transform.t list;
}

let make ~name transforms = { name; transforms }

let transforms p = p.transforms
let name p = p.name

(* Number of data reorderings — determines how many remaps a
   Remap_each inspector performs (Section 6 / Figure 16). *)
let n_data_reorders p =
  List.length (List.filter Transform.is_data_reorder p.transforms)

let has_sparse_tiling p =
  List.exists
    (function Transform.Sparse_tile _ -> true | _ -> false)
    p.transforms

(* Static validation of composition rules (Section 4):
   - iteration reorderings that ignore dependences (lexGroup, lexSort,
     bucket tiling) may not follow a sparse tiling: they would destroy
     the tile-induced order;
   - tilePack requires an earlier sparse tiling (it traverses the tile
     function);
   - at most one sparse tiling per plan (the executor runs one tiled
     schedule). *)
let validate p =
  let rec go ~tiled = function
    | [] -> Ok ()
    | Transform.Sparse_tile _ :: _ when tiled ->
      Error "plan: multiple sparse tilings"
    | Transform.Sparse_tile _ :: rest -> go ~tiled:true rest
    | Transform.Iter_reorder _ :: _ when tiled ->
      Error "plan: dependence-free iteration reordering after sparse tiling"
    | Transform.Data_reorder Transform.Tile_pack :: _ when not tiled ->
      Error "plan: tilePack without a preceding sparse tiling"
    | (Transform.Iter_reorder _ | Transform.Data_reorder _) :: rest ->
      go ~tiled rest
  in
  go ~tiled:false p.transforms

(* ------------------------------------------------------------------ *)
(* The paper's standard compositions. Partition sizes are in
   iterations/nodes and are chosen by the caller from the cache-size
   target (Section 2.4 targets the L1). *)

let base = make ~name:"base" []

let cpack = make ~name:"cpack" [ Transform.Data_reorder Transform.Cpack ]

let cpack_lexgroup =
  make ~name:"CL"
    [
      Transform.Data_reorder Transform.Cpack;
      Transform.Iter_reorder Transform.Lexgroup;
    ]

let gpart_lexgroup ~part_size =
  make ~name:"GL"
    [
      Transform.Data_reorder (Transform.Gpart { part_size });
      Transform.Iter_reorder Transform.Lexgroup;
    ]

let gpart_cpack ~part_size =
  make ~name:"GC"
    [
      Transform.Data_reorder (Transform.Gpart { part_size });
      Transform.Data_reorder Transform.Cpack;
    ]

let cpack_lexgroup_twice =
  make ~name:"CLCL"
    [
      Transform.Data_reorder Transform.Cpack;
      Transform.Iter_reorder Transform.Lexgroup;
      Transform.Data_reorder Transform.Cpack;
      Transform.Iter_reorder Transform.Lexgroup;
    ]

(* Append full sparse tiling (block seed, as Section 2.3 recommends
   after a good data+iteration reordering) followed by tilePack. *)
let with_fst ?(tile_pack = true) ~seed_part_size p =
  let fst_t =
    Transform.Sparse_tile
      {
        growth = Transform.Full;
        seed = Transform.Seed_block { part_size = seed_part_size };
      }
  in
  let tail =
    if tile_pack then [ fst_t; Transform.Data_reorder Transform.Tile_pack ]
    else [ fst_t ]
  in
  make ~name:(p.name ^ "+FST") (p.transforms @ tail)

let with_cache_block ~seed_part_size p =
  make ~name:(p.name ^ "+CB")
    (p.transforms
    @ [
        Transform.Sparse_tile
          {
            growth = Transform.Cache_block;
            seed = Transform.Seed_block { part_size = seed_part_size };
          };
      ])

(* The full suite of Figures 6-9: data/iteration compositions and
   their sparse-tiled extensions, including the fused-inspector GC
   composition and its tiled extension. *)
let standard_suite ~gpart_size ~seed_part_size =
  [
    base;
    cpack;
    cpack_lexgroup;
    gpart_lexgroup ~part_size:gpart_size;
    gpart_cpack ~part_size:gpart_size;
    cpack_lexgroup_twice;
    with_fst ~seed_part_size cpack_lexgroup;
    with_fst ~seed_part_size (gpart_lexgroup ~part_size:gpart_size);
    with_fst ~seed_part_size (gpart_cpack ~part_size:gpart_size);
    with_fst ~seed_part_size cpack_lexgroup_twice;
  ]

(* ------------------------------------------------------------------ *)
(* Candidate enumeration for the autotuner: every composition over
   {cpack, gpart, lexGroup, lexSort, FST, tilePack} the tuner
   considers. Shape: a data/iteration prefix (at most two reordering
   stages, the depth the paper's own compositions use) followed by an
   optional full sparse tiling with or without tilePack. The
   enumeration is pruned by [validate] and deduplicated on the
   transform list, and it contains {!standard_suite} as a subset, so
   an autotuned winner can never lose to a hand-named plan under the
   same cost model. *)
let candidates ~gpart_size ~seed_part_size =
  let gpart = make ~name:"gpart" [ Transform.Data_reorder (Transform.Gpart { part_size = gpart_size }) ] in
  let cpack_lexsort =
    make ~name:"CS"
      [
        Transform.Data_reorder Transform.Cpack;
        Transform.Iter_reorder Transform.Lexsort;
      ]
  in
  let gpart_lexsort =
    make ~name:"GS"
      [
        Transform.Data_reorder (Transform.Gpart { part_size = gpart_size });
        Transform.Iter_reorder Transform.Lexsort;
      ]
  in
  let prefixes =
    [
      base;
      cpack;
      gpart;
      gpart_cpack ~part_size:gpart_size;
      cpack_lexgroup;
      cpack_lexsort;
      gpart_lexgroup ~part_size:gpart_size;
      gpart_lexsort;
      cpack_lexgroup_twice;
    ]
  in
  let tiled_variants p =
    let no_pack =
      let q = with_fst ~tile_pack:false ~seed_part_size p in
      make ~name:(p.name ^ "+FSTnp") q.transforms
    in
    [ p; with_fst ~seed_part_size p; no_pack ]
  in
  let all = List.concat_map tiled_variants prefixes in
  let valid = List.filter (fun p -> validate p = Ok ()) all in
  (* Dedupe on the transform list (names are presentation only). *)
  List.rev
    (List.fold_left
       (fun acc p ->
         if List.exists (fun q -> q.transforms = p.transforms) acc then acc
         else p :: acc)
       [] valid)

let pp ppf p =
  Fmt.pf ppf "%s = [%a]" p.name Fmt.(list ~sep:(any "; ") Transform.pp)
    p.transforms
