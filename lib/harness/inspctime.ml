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

type timing = {
  t_config : string;  (** "remap-each" or "remap-once" *)
  t_seconds : float;  (** best cold [inspector_seconds] of the repeats *)
  t_speedup : float;  (** remap-each best / this best *)
  t_identical : bool;  (** output bit-identical to the remap-each run *)
}

type row = {
  row_plan : string;
  row_serial_seconds : float;  (** remap-each best *)
  row_timings : timing list;  (** remap-each first, then remap-once *)
}

type report = {
  rep_scale : int;
  rep_repeats : int;
  rows : row list;
  rep_profile : Rtrt_obs.Profile.phase list;  (* one phase per plan row *)
}

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

let measure_plan plan kernel =
  let inspect ~strategy () = Compose.Inspector.run ~strategy plan kernel in
  let serial_seconds, baseline =
    best_of ~repeats (inspect ~strategy:Compose.Inspector.Remap_each)
  in
  let timing ~config seconds result =
    {
      t_config = config;
      t_seconds = seconds;
      t_speedup = serial_seconds /. max 1e-12 seconds;
      t_identical = results_equal baseline result;
    }
  in
  let each =
    timing ~config:"remap-each" serial_seconds baseline
  in
  let once =
    let seconds, result =
      best_of ~repeats (inspect ~strategy:Compose.Inspector.Remap_once)
    in
    timing ~config:"remap-once" seconds result
  in
  {
    row_plan = Compose.Plan.name plan;
    row_serial_seconds = serial_seconds;
    row_timings = [ each; once ];
  }

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
  let rows_profiled =
    List.map
      (fun plan ->
        Rtrt_obs.Profile.record
          ~name:("plan:" ^ Compose.Plan.name plan)
          (fun () -> measure_plan plan kernel))
      (plans ~part_size:64 ~seed_part_size:64)
  in
  let rows = List.map fst rows_profiled in
  (match rows with
  | first :: _ ->
    List.iter
      (fun t ->
        if t.t_config = "remap-once" then
          Rtrt_obs.Metrics.set g_remap_once_speedup t.t_speedup)
      first.row_timings
  | [] -> ());
  {
    rep_scale = scale;
    rep_repeats = repeats;
    rows;
    rep_profile = List.map snd rows_profiled;
  }

let identical r =
  List.for_all
    (fun row -> List.for_all (fun t -> t.t_identical) row.row_timings)
    r.rows

let json_of_report r =
  Rtrt_obs.Json.(
    Obj
      [
        ("scale", Int r.rep_scale);
        ("repeats", Int r.rep_repeats);
        ("identical", Bool (identical r));
        ( "plans",
          List
            (List.map
               (fun row ->
                 Obj
                   [
                     ("plan", String row.row_plan);
                     ("serial_seconds", Float row.row_serial_seconds);
                     ( "timings",
                       List
                         (List.map
                            (fun t ->
                              Obj
                                [
                                  ("config", String t.t_config);
                                  ("seconds", Float t.t_seconds);
                                  ("speedup", Float t.t_speedup);
                                  ("identical", Bool t.t_identical);
                                ])
                            row.row_timings) );
                   ])
               r.rows) );
        ("profile", Rtrt_obs.Profile.json_of_phases r.rep_profile);
      ])

let pp_report ppf r =
  Fmt.pf ppf "inspector cold-cost table, scale %d, best of %d@." r.rep_scale
    r.rep_repeats;
  List.iter
    (fun row ->
      Fmt.pf ppf "  %s:@." row.row_plan;
      List.iter
        (fun t ->
          Fmt.pf ppf "    %-13s %.6fs  %.2fx%s@." t.t_config t.t_seconds
            t.t_speedup
            (if t.t_identical then "" else "  MISMATCH"))
        row.row_timings)
    r.rows;
  if not (identical r) then
    Fmt.pf ppf "WARNING: a remap-once variant diverged from remap-each@."
