(* Schedule shape analysis for the generated executor (the paper's
   "automatic generation of specialized executors" future work). A frozen flat-CSR schedule often has exploitable structure:
   after tilePack the identity-mapped loops' rows are literally
   [lo, lo+1, ..., hi], and even without it cpack/lexgroup leave long
   stretches where consecutive items differ by one. This module builds,
   once per schedule, a run-length index over the rows — maximal runs
   of consecutive integers — so executors can stream [for i = lo to hi]
   ranges instead of loading every iteration id through the indirection
   array.

   Soundness does not depend on any property of the items: maximal
   +1-runs reproduce the stored sequence exactly for *any* row content
   (a delta other than +1 simply ends the current run), so a
   run-streaming walk visits the same iterations in the same order as
   the element-at-a-time walk, bitwise. The payoff is merely
   proportional to the average run length, so the generated executor
   streams only rows of few runs. *)

type summary = {
  rows : int;            (* n_tiles * n_loops *)
  total_items : int;     (* Array.length items *)
  runs : int;            (* total maximal +1-runs across all rows *)
  identity_rows : int;   (* rows that are one single run (lo..hi) *)
  max_run : int;         (* length of the longest run *)
  single_loop : bool;    (* n_loops = 1 *)
  uniform_tile_items : int option; (* Some w if every tile holds w items *)
  avg_run_len : float;   (* total_items /. runs (0 when empty) *)
}

type t = {
  summary : summary;
  run_ptr : int array; (* length rows+1: row r's runs are run_ptr.(r)..run_ptr.(r+1)-1 *)
  run_lo : int array;  (* first iteration id of each run *)
  run_len : int array; (* length of each run, >= 1 *)
  src_items : int array;   (* the analyzed schedule's arrays, by identity: *)
  src_row_ptr : int array; (* a shape is only valid for that exact schedule *)
}

let c_analyses = Rtrt_obs.Metrics.counter "specialize.shape_analyses"

let summary t = t.summary
let run_ptr t = t.run_ptr
let run_lo t = t.run_lo
let run_len t = t.run_len

(* Physical identity on [items]: [remap_loop]/[permute_tiles] always
   allocate fresh arrays, so sharing the exact array (and row_ptr)
   pins the shape to the schedule value it was built from. *)
let for_schedule t s =
  t.src_items == Schedule.flat_items s && t.src_row_ptr == Schedule.row_ptr s

let analyze (s : Schedule.t) =
  let row_ptr = Schedule.row_ptr s in
  let items = Schedule.flat_items s in
  let n_loops = Schedule.n_loops s in
  let n_tiles = Schedule.n_tiles s in
  let rows = n_tiles * n_loops in
  (* Pass 1: count runs per row. *)
  let run_ptr = Array.make (rows + 1) 0 in
  for r = 0 to rows - 1 do
    let lo = row_ptr.(r) and hi = row_ptr.(r + 1) in
    let runs = ref (if hi > lo then 1 else 0) in
    for i = lo + 1 to hi - 1 do
      if items.(i) <> items.(i - 1) + 1 then incr runs
    done;
    run_ptr.(r + 1) <- run_ptr.(r) + !runs
  done;
  let n_runs = run_ptr.(rows) in
  let run_lo = Array.make n_runs 0 and run_len = Array.make n_runs 0 in
  (* Pass 2: fill, tracking the summary counters. *)
  let identity_rows = ref 0 and max_run = ref 0 in
  let k = ref 0 in
  for r = 0 to rows - 1 do
    let lo = row_ptr.(r) and hi = row_ptr.(r + 1) in
    if hi > lo then begin
      let start = ref lo in
      for i = lo + 1 to hi - 1 do
        if items.(i) <> items.(i - 1) + 1 then begin
          let len = i - !start in
          run_lo.(!k) <- items.(!start);
          run_len.(!k) <- len;
          if len > !max_run then max_run := len;
          incr k;
          start := i
        end
      done;
      let len = hi - !start in
      run_lo.(!k) <- items.(!start);
      run_len.(!k) <- len;
      if len > !max_run then max_run := len;
      incr k;
      if run_ptr.(r + 1) - run_ptr.(r) = 1 then incr identity_rows
    end
  done;
  assert (!k = n_runs);
  let uniform_tile_items =
    if n_tiles = 0 then None
    else begin
      let w = row_ptr.(n_loops) - row_ptr.(0) in
      let ok = ref true in
      for t = 1 to n_tiles - 1 do
        if row_ptr.((t + 1) * n_loops) - row_ptr.(t * n_loops) <> w then
          ok := false
      done;
      if !ok then Some w else None
    end
  in
  let total_items = Array.length items in
  let summary =
    {
      rows;
      total_items;
      runs = n_runs;
      identity_rows = !identity_rows;
      max_run = !max_run;
      single_loop = n_loops = 1;
      uniform_tile_items;
      avg_run_len =
        (if n_runs = 0 then 0. else float_of_int total_items /. float_of_int n_runs);
    }
  in
  Rtrt_obs.Metrics.incr c_analyses;
  { summary; run_ptr; run_lo; run_len; src_items = items; src_row_ptr = row_ptr }

let summary_equal (a : summary) (b : summary) = a = b

let pp_summary ppf sm =
  Fmt.pf ppf
    "shape(%d rows, %d items, %d runs, avg %.1f, max %d, %d identity rows%s%s)"
    sm.rows sm.total_items sm.runs sm.avg_run_len sm.max_run sm.identity_rows
    (if sm.single_loop then ", single-loop" else "")
    (match sm.uniform_tile_items with
    | Some w -> Fmt.str ", uniform tiles of %d" w
    | None -> "")
