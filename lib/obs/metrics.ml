(* Named counters and gauges for domain events (data remaps performed,
   dependences traversed, tiles grown, cache accesses per level, ...).

   Handles are created once at module-initialization time; the hot-path
   operations ([add], [incr], [set]) are a single enabled-branch plus
   an atomic update, so instrumented code pays nothing measurable when
   tracing is off. Values live in [Atomic.t] cells so instrumented
   code may run inside worker domains without losing increments.

   Registration and whole-registry traversals (dump/flush/reset) are
   serialized by [registry_mutex]: pool lanes may create handles
   concurrently with a dump on another domain without the Hashtbl
   resize racing the fold and silently dropping entries.

   Lifecycle: [switch_sink] is the supported way to change sinks
   mid-run — it flushes accumulated values to the OLD sink, installs
   the new one, then resets, so no stale value is ever attributed to
   the new trace. Histogram handles ({!Hist}) ride the same
   reset/dump/flush paths, lowered to derived gauges. *)

type counter = { c_name : string; c_value : int Atomic.t }

type gauge = {
  g_name : string;
  g_value : float Atomic.t;
  g_set : bool Atomic.t;
}

let registry_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32

let registered tbl name make =
  Mutex.lock registry_mutex;
  let handle =
    match Hashtbl.find_opt tbl name with
    | Some h -> h
    | None ->
      let h = make () in
      Hashtbl.add tbl name h;
      h
  in
  Mutex.unlock registry_mutex;
  handle

let counter name =
  registered counters name (fun () ->
      { c_name = name; c_value = Atomic.make 0 })

let add c n =
  if Runtime.is_enabled () then ignore (Atomic.fetch_and_add c.c_value n)

let incr c = add c 1
let value c = Atomic.get c.c_value

let gauge name =
  registered gauges name (fun () ->
      { g_name = name; g_value = Atomic.make 0.0; g_set = Atomic.make false })

let set g v =
  if Runtime.is_enabled () then begin
    Atomic.set g.g_value v;
    Atomic.set g.g_set true
  end

let gauge_value g =
  if Atomic.get g.g_set then Some (Atomic.get g.g_value) else None

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counters;
  Hashtbl.iter
    (fun _ g ->
      Atomic.set g.g_value 0.0;
      Atomic.set g.g_set false)
    gauges;
  Mutex.unlock registry_mutex;
  Hist.reset ()

(* Snapshot the handle lists under the mutex so a concurrent
   registration (Hashtbl resize) cannot race the fold; values are read
   after, from the atomic cells. *)
let snapshot () =
  Mutex.lock registry_mutex;
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) counters [] in
  let gs = Hashtbl.fold (fun _ g acc -> g :: acc) gauges [] in
  Mutex.unlock registry_mutex;
  (cs, gs)

(* Touched handles only, sorted by name for deterministic output.
   Histogram summaries are interleaved as derived gauges. *)
let dump () =
  let cs, gs = snapshot () in
  let cs =
    List.filter_map
      (fun c ->
        let v = Atomic.get c.c_value in
        if v <> 0 then Some (c.c_name, float_of_int v) else None)
      cs
  in
  let gs =
    List.filter_map
      (fun g ->
        if Atomic.get g.g_set then Some (g.g_name, Atomic.get g.g_value)
        else None)
      gs
  in
  List.sort compare (cs @ gs @ Hist.dump ())

let flush () =
  if Runtime.is_enabled () then begin
    let t = Runtime.now () in
    let emit kind name v =
      Runtime.emit
        (Sink.Metric { m_name = name; m_kind = kind; m_value = v; m_time = t })
    in
    let cs, gs = snapshot () in
    List.iter
      (fun c -> emit Sink.Counter c.c_name (float_of_int (Atomic.get c.c_value)))
      (List.sort (fun a b -> compare a.c_name b.c_name) cs);
    let gs = List.filter (fun g -> Atomic.get g.g_set) gs in
    List.iter
      (fun g -> emit Sink.Gauge g.g_name (Atomic.get g.g_value))
      (List.sort (fun a b -> compare a.g_name b.g_name) gs);
    Hist.flush ()
  end

let switch_sink s =
  flush ();
  (* no-op when disabled; otherwise the old sink gets the totals *)
  Runtime.set_sink s;
  reset ()
