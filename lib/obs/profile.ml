(* Per-phase execution profiles: monotonic wall time plus
   Gc.quick_stat deltas around a closure. [record] is always on — one
   quick_stat read per side is nanoseconds — so figure and bench tables
   carry profile rows whether or not tracing is enabled. *)

type phase = {
  ph_name : string;
  ph_seconds : float;           (* monotonic *)
  ph_minor_words : float;
  ph_promoted_words : float;
  ph_major_words : float;
  ph_minor_collections : int;
  ph_major_collections : int;
  ph_compactions : int;
  ph_heap_words : int;          (* major heap size at phase end *)
}

let record ~name f =
  let q0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  let y = f () in
  let dt = Clock.now_ns () - t0 in
  let q1 = Gc.quick_stat () in
  ( y,
    {
      ph_name = name;
      ph_seconds = Clock.to_s dt;
      ph_minor_words = q1.Gc.minor_words -. q0.Gc.minor_words;
      ph_promoted_words = q1.Gc.promoted_words -. q0.Gc.promoted_words;
      ph_major_words = q1.Gc.major_words -. q0.Gc.major_words;
      ph_minor_collections = q1.Gc.minor_collections - q0.Gc.minor_collections;
      ph_major_collections = q1.Gc.major_collections - q0.Gc.major_collections;
      ph_compactions = q1.Gc.compactions - q0.Gc.compactions;
      ph_heap_words = q1.Gc.heap_words;
    } )
