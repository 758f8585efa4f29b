(** Per-phase execution profiles: monotonic timings plus
    [Gc.quick_stat] deltas (minor/major words, collections) captured
    around a closure. Capture is always on — two [quick_stat] reads
    cost nanoseconds — so figure and bench tables carry profile rows
    even with tracing disabled. *)

type phase = {
  ph_name : string;
  ph_seconds : float;            (** monotonic wall time *)
  ph_minor_words : float;
  ph_promoted_words : float;
  ph_major_words : float;
  ph_minor_collections : int;
  ph_major_collections : int;
  ph_compactions : int;
  ph_heap_words : int;           (** major heap size at phase end *)
}

(** [record ~name f] runs [f ()] and returns its result with the
    phase profile. *)
val record : name:string -> (unit -> 'a) -> 'a * phase

val pp_phase : Format.formatter -> phase -> unit
