(* Cold-inspection cost of composed plans (Figure 16's axis): for
   each composition, the Remap_each inspector as the baseline against
   the one-pass Remap_once composition. Every timed run's output is
   checked bit-identical to the baseline (sigma/delta, reordering
   functions, and the tile schedule when the plan sparse-tiles), so
   the table can never report a speedup of a different answer.
   Results land in BENCH_INSPECTOR.json and the [inspctime.*]
   gauges. *)

let g_remap_once_speedup =
  Rtrt_obs.Metrics.gauge "inspctime.remap_once_speedup"

(* Best-of-N cold inspections; each run pays the full inspector (no
   cache is passed), and the minimum is the least-perturbed round. The
   result returned is the best round's, for the identity check. *)
let best_of ~repeats run =
  let best = ref infinity and result = ref None in
  for _ = 1 to repeats do
    let r = run () in
    let s = r.Compose.Inspector.inspector_seconds in
    if s < !best then begin
      best := s;
      result := Some r
    end
  done;
  (!best, Option.get !result)

let schedules_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    Reorder.Schedule.row_ptr a = Reorder.Schedule.row_ptr b
    && Reorder.Schedule.flat_items a = Reorder.Schedule.flat_items b
  | _ -> false

let results_equal (a : Compose.Inspector.result)
    (b : Compose.Inspector.result) =
  Reorder.Perm.equal a.sigma_total b.sigma_total
  && Reorder.Perm.equal a.delta_total b.delta_total
  && schedules_equal a.schedule b.schedule
  && List.length a.reordering_fns = List.length b.reordering_fns
  && List.for_all2
       (fun (na, pa) (nb, pb) -> na = nb && Reorder.Perm.equal pa pb)
       a.reordering_fns b.reordering_fns

(* Best of 5 cold inspections per variant. *)
let repeats = 5

(* One row per strategy: remap-each, the baseline, then remap-once. *)
let measure_plan plan kernel =
  let inspect ~strategy () = Compose.Inspector.run ~strategy plan kernel in
  let serial_seconds, baseline =
    best_of ~repeats (inspect ~strategy:Compose.Inspector.Remap_each)
  in
  let timing config seconds result =
    Table.row
      [ ("plan", Compose.Plan.name plan); ("config", config) ]
      [
        Table.lower "seconds" "s" seconds;
        Table.higher "speedup" "ratio" (serial_seconds /. max 1e-12 seconds);
        Table.flag Table.Higher "identical" (results_equal baseline result);
      ]
  in
  let once_seconds, once =
    best_of ~repeats (inspect ~strategy:Compose.Inspector.Remap_once)
  in
  [
    timing "remap-each" serial_seconds baseline;
    timing "remap-once" once_seconds once;
  ]

(* GC (two back-to-back data reorderings) plus the two full-sparse-
   tiling compositions — the plans whose inspectors dominate Figure 16's
   cost axis. *)
let plans ~part_size ~seed_part_size =
  [
    Compose.Plan.gpart_cpack ~part_size;
    Compose.Plan.with_fst ~seed_part_size Compose.Plan.cpack_lexgroup;
    Compose.Plan.with_fst ~seed_part_size
      (Compose.Plan.gpart_lexgroup ~part_size);
  ]

let measure ~scale () =
  let dataset = Option.get (Datagen.Generators.by_name ~scale "mol1") in
  let kernel = (Option.get (Kernels.by_name "moldyn")) dataset in
  let rows, profile =
    List.split
      (List.map
         (fun plan ->
           Rtrt_obs.Profile.record
             ~name:("plan:" ^ Compose.Plan.name plan)
             (fun () -> measure_plan plan kernel))
         (plans ~part_size:64 ~seed_part_size:64))
  in
  (match rows with
  | [ _; once ] :: _ ->
    Option.iter
      (fun (m : Table.metric) ->
        Rtrt_obs.Metrics.set g_remap_once_speedup m.value)
      (Table.find_metric once "speedup")
  | _ -> ());
  {
    Table.name = "inspector";
    rows =
      Table.row []
        [
          Table.info "scale" "divisor" (float_of_int scale);
          Table.count "repeats" repeats;
        ]
      :: List.concat rows
      @ Table.profile_rows profile;
  }
