(* Staged executor specialization over a frozen schedule (ROADMAP
   item 2). Two tiers above the interpreted flat-CSR walk:

   - Tier A (Shaped, always on when profitable): the plan-time
     {!Reorder.Shape} analysis builds a run-length index once per
     schedule and the kernels' [run_tiled_shaped] executors stream it
     as [for lo to hi] ranges instead of loading iteration ids.

   - Tier B (Codegen, only where the caller passes [~tier_b:true]):
     {!Codegen.specialized_source} emits a table-driven OCaml module
     for the exact (kernel, schedule) pair (the kernel's body file,
     then the schedule as array literals), compiled out-of-process
     with ocamlopt -shared in a build directory of its own and loaded
     with [Dynlink]. Compiled [.cmxs] files are cached on disk keyed by
     a fingerprint over the schedule content and the compiler identity,
     plus an in-process memo, so a plan-cache hit never recompiles.

   The dynlinked module references only [Stdlib] and publishes its
   executor through [Callback.register "rtrt.spec.<key>"]; the host
   reads the same registry back through a C stub around
   [caml_named_value] (see specialize_stubs.c). The executor takes the
   kernel's arrays as arguments — int arrays first (index arrays in
   [Kernels.Kernel.exec_arrays] order, then the schedule's flat items),
   float arrays second — so one compiled module can drive any state
   copy of the kernel, which is how the bitwise verification below
   runs it against the interpreted walk without disturbing the real
   state.

   Both tiers are bitwise identical to [run_tiled]; [make] asserts
   this on two-step copies by default, the same way rtrt_par asserts
   parallel-vs-serial equivalence. Every downgrade (no toolchain,
   compile failure, unwritable cache directory, source-budget overflow,
   unprofitable shape) is graceful and counted in
   [specialize.fallbacks]. *)

type tier = Interp | Shaped | Codegen

let tier_name = function
  | Interp -> "interp"
  | Shaped -> "shaped"
  | Codegen -> "codegen"

let tier_level = function Interp -> 0. | Shaped -> 1. | Codegen -> 2.

type t = {
  tier : tier;
  shape : Reorder.Shape.t;
  summary : Reorder.Shape.summary;
  run : steps:int -> unit;
  compile_seconds : float;
      (** Tier B out-of-process compile time; 0 on a cache hit or for
          the other tiers. *)
  cmxs_cache_hit : bool;
}

(* -------------------------------------------------------------- *)
(* Observability *)

let g_tier = Rtrt_obs.Metrics.gauge "specialize.tier"
let g_runs = Rtrt_obs.Metrics.gauge "specialize.runs_detected"
let g_compile_ns = Rtrt_obs.Metrics.gauge "specialize.compile_ns"
let c_compiles = Rtrt_obs.Metrics.counter "specialize.compiles"
let c_cmxs_hits = Rtrt_obs.Metrics.counter "specialize.cmxs_cache_hits"
let c_memo_hits = Rtrt_obs.Metrics.counter "specialize.memo_hits"
let c_fallbacks = Rtrt_obs.Metrics.counter "specialize.fallbacks"

(* -------------------------------------------------------------- *)
(* Compiled-executor plumbing *)

type exec = int array array -> float array array -> int -> unit

external get_named : string -> Obj.t option = "rtrt_specialize_get_named"

(* Keep the Callback registry linked into the host so plugin-side
   [Callback.register] and the stub's [caml_named_value] meet in the
   same table. *)
let () = Callback.register "rtrt.spec.host" (fun () -> ())

let fetch_exec key : exec option =
  match get_named ("rtrt.spec." ^ key) with
  | Some o -> Some (Obj.obj o : exec)
  | None -> None

(* Compiler discovery: RTRT_SPECIALIZE_OCAMLOPT overrides (probed, so
   pointing it at a nonexistent binary simulates a toolchain-free
   host); otherwise the first of ocamlfind ocamlopt / ocamlopt.opt /
   ocamlopt that answers [-version]. Each probe starts a shell, so the
   answer is kept per value of the override and only a changed value
   probes again. *)
let probe cmd = Sys.command (cmd ^ " -version >/dev/null 2>&1") = 0

let compiler_memo : (string option * string option) option Atomic.t =
  Atomic.make None

let find_compiler () =
  let wanted =
    match Sys.getenv_opt "RTRT_SPECIALIZE_OCAMLOPT" with
    | Some cmd when String.trim cmd <> "" -> Some (String.trim cmd)
    | _ -> None
  in
  match Atomic.get compiler_memo with
  | Some (w, found) when w = wanted -> found
  | _ ->
    let found =
      match wanted with
      | Some cmd -> if probe cmd then Some cmd else None
      | None ->
        List.find_opt probe [ "ocamlfind ocamlopt"; "ocamlopt.opt"; "ocamlopt" ]
    in
    Atomic.set compiler_memo (Some (wanted, found));
    found

(* Compiled modules live next to the plan cache when one is configured
   (same locality story: the fingerprint names both), else under the
   system temp dir. *)
let cache_dir () =
  match Rtrt_obs.Config.env_dir ~name:"RTRT_PLAN_CACHE_DIR" () with
  | Some d -> Filename.concat d "spec"
  | None -> Filename.concat (Filename.get_temp_dir_name ()) "rtrt-spec"

(* Bumped whenever the emitted code or the cached file's layout
   changes. The seal below records it, so a module written by another
   emitter never loads: it is recompiled over. *)
let emitter_version = 3

(* The version of the key's ingredient list, bumped only when what the
   key hashes changes (test_plancache pins the key with a known
   answer). The emitter is checked by the seal, not the key. *)
let key_format = 2

let schedule_key (kernel : Kernels.Kernel.t) (sched : Reorder.Schedule.t) =
  let b = Rtrt_plancache.Fingerprint.create () in
  Rtrt_plancache.Fingerprint.add_string b kernel.Kernels.Kernel.name;
  Rtrt_plancache.Fingerprint.add_int b kernel.Kernels.Kernel.n_nodes;
  Rtrt_plancache.Fingerprint.add_int b kernel.Kernels.Kernel.n_inter;
  Rtrt_plancache.Fingerprint.add_int b (Reorder.Schedule.n_loops sched);
  Rtrt_plancache.Fingerprint.add_int_array b (Reorder.Schedule.row_ptr sched);
  Rtrt_plancache.Fingerprint.add_int_array b (Reorder.Schedule.flat_items sched);
  Rtrt_plancache.Fingerprint.add_string b Sys.ocaml_version;
  Rtrt_plancache.Fingerprint.add_int b Sys.word_size;
  Rtrt_plancache.Fingerprint.add_string b Sys.os_type;
  Rtrt_plancache.Fingerprint.add_int b key_format;
  Rtrt_plancache.Fingerprint.to_hex (Rtrt_plancache.Fingerprint.value b)

let memo : (string, exec) Hashtbl.t = Hashtbl.create 16
let memo_mutex = Mutex.create ()
let with_memo f = Mutex.protect memo_mutex f

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* A cached module ends with a seal: its length, the emitter version
   and a 64-bit FNV-1a checksum of its bytes, 8 bytes each,
   little-endian (the loader ignores trailing bytes). Dynlink maps the
   file without reading it, so a truncated one faults the process on
   first touch (SIGBUS) instead of failing to load. [load_cmxs] checks
   the seal first: a file that fails it is a miss, which the recompile
   replaces. *)
let seal_bytes = 24

let seal_of data n =
  let t = Bytes.create seal_bytes in
  Bytes.set_int64_le t 0 (Int64.of_int n);
  Bytes.set_int64_le t 8 (Int64.of_int emitter_version);
  Bytes.set_int64_le t 16
    (Rtrt_plancache.Fingerprint.checksum (Bytes.unsafe_of_string data) n);
  Bytes.unsafe_to_string t

let seal path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      output_string oc (seal_of data (String.length data)))

let sealed path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> false
  | data ->
    let n = String.length data - seal_bytes in
    n >= 0 && String.sub data n seal_bytes = seal_of data n

let load_cmxs cmxs key =
  if not (sealed cmxs) then None
  else
    try
      Dynlink.loadfile_private cmxs;
      fetch_exec key
    with Dynlink.Error _ | Sys_error _ -> None

let build_counter = Atomic.make 0

let remove_build_dir d =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
    (try Sys.readdir d with Sys_error _ -> [||]);
  try Sys.rmdir d with Sys_error _ -> ()

(* Each compile runs in a fresh build directory of its own (pid and
   counter), so concurrent compiles of one key, in two processes or two
   domains, never share a file: ocamlopt's .cmi/.cmx/.o land there, only
   the finished .cmxs is renamed into the cache, and the directory is
   then removed. The compiler log survives, beside the .cmxs it would
   have named, only when the compile failed. Returns the compile
   seconds. *)
let compile ~cc ~dir ~name source =
  let build =
    Filename.concat dir
      (Printf.sprintf "build-%d-%d" (Unix.getpid ())
         (Atomic.fetch_and_add build_counter 1))
  in
  Unix.mkdir build 0o755;
  Fun.protect
    ~finally:(fun () -> remove_build_dir build)
    (fun () ->
      let in_build ext = Filename.concat build (name ^ ext) in
      write_file (in_build ".ml") source;
      let cmd =
        Printf.sprintf "%s -shared -w -a -o %s %s >%s 2>&1" cc
          (Filename.quote (in_build ".cmxs"))
          (Filename.quote (in_build ".ml"))
          (Filename.quote (in_build ".log"))
      in
      let rc, secs = Rtrt_obs.Clock.time (fun () -> Sys.command cmd) in
      if rc <> 0 then begin
        (try Sys.rename (in_build ".log") (Filename.concat dir (name ^ ".log"))
         with Sys_error _ -> ());
        None
      end
      else begin
        seal (in_build ".cmxs");
        (* Atomic: a concurrent reader sees no .cmxs or a sealed one. *)
        Sys.rename (in_build ".cmxs") (Filename.concat dir (name ^ ".cmxs"));
        Some secs
      end)

(* Compile [source] (or reuse the cached .cmxs) and return the
   executor with its compile time and whether the disk cache hit. A
   cache directory that cannot be created or written is a miss like
   any other: [None], which callers count as a fallback. *)
let compile_and_load ~kernel ~key source : (exec * float * bool) option =
  match with_memo (fun () -> Hashtbl.find_opt memo key) with
  | Some f ->
    Rtrt_obs.Metrics.incr c_memo_hits;
    Some (f, 0., true)
  | None -> (
    try
      let dir = cache_dir () in
      Rtrt_plancache.Disk_write.mkdir_p dir;
      let name = Printf.sprintf "spec_%s_%s" kernel key in
      let cmxs = Filename.concat dir (name ^ ".cmxs") in
      let loaded =
        match load_cmxs cmxs key with
        | Some f ->
          Rtrt_obs.Metrics.incr c_cmxs_hits;
          Some (f, 0., true)
        | None -> (
          match find_compiler () with
          | None -> None
          | Some cc -> (
            match compile ~cc ~dir ~name source with
            | None -> None
            | Some secs ->
              Rtrt_obs.Metrics.incr c_compiles;
              Rtrt_obs.Metrics.set g_compile_ns (secs *. 1e9);
              Option.map (fun f -> (f, secs, false)) (load_cmxs cmxs key)))
      in
      Option.iter
        (fun (f, _, _) -> with_memo (fun () -> Hashtbl.replace memo key f))
        loaded;
      loaded
    with Unix.Unix_error _ | Sys_error _ -> None)

(* -------------------------------------------------------------- *)
(* Host-side validation: the emitted bodies use unsafe accesses, so
   before ever running compiled code we prove every index in bounds —
   [check_fits] covers the iteration ids ([of_tile_fns] builds each
   loop's items as a permutation, so total = size implies id < size),
   and the kernel's own index arrays were range-checked when it was
   built (the kernels' Walker, through Access.of_pairs). *)

let exec_args (kernel : Kernels.Kernel.t) sched =
  let ia, fa = kernel.Kernels.Kernel.exec_arrays () in
  (Array.append ia [| Reorder.Schedule.flat_items sched |], fa)

let finish ~verify_run result =
  (match result.tier with
  | Interp -> ()
  | Shaped | Codegen -> verify_run result);
  Rtrt_obs.Metrics.set g_tier (tier_level result.tier);
  Rtrt_obs.Metrics.set g_runs (float_of_int result.summary.Reorder.Shape.runs);
  result

(* Verification steps: enough to cover every chain class and catch
   order-of-visit divergence, cheap enough to run by default. *)
let verify_steps = 2

let make ?(tier_b = false) ?(verify = true) (kernel : Kernels.Kernel.t)
    (sched : Reorder.Schedule.t) =
  let shape = Reorder.Shape.analyze sched in
  let summary = Reorder.Shape.summary shape in
  let base tier run =
    { tier; shape; summary; run; compile_seconds = 0.; cmxs_cache_hit = false }
  in
  let shaped () =
    if Reorder.Shape.profitable summary then
      base Shaped (fun ~steps ->
          kernel.Kernels.Kernel.run_tiled_shaped sched shape ~steps)
    else base Interp (fun ~steps -> kernel.Kernels.Kernel.run_tiled sched ~steps)
  in
  (* Only Tier B names a compiled module, so only it hashes the
     schedule. *)
  let key = lazy (schedule_key kernel sched) in
  let codegen () =
    if
      not
        (Reorder.Schedule.check_fits sched
           ~loop_sizes:kernel.Kernels.Kernel.loop_sizes)
    then None
    else
      let key = Lazy.force key in
      match Codegen.specialized_source kernel ~key sched shape with
      | None -> None
      | Some source -> (
        match compile_and_load ~kernel:kernel.Kernels.Kernel.name ~key source with
        | None -> None
        | Some (exec, compile_seconds, cmxs_cache_hit) ->
          Some
            {
              tier = Codegen;
              shape;
              summary;
              run =
                (fun ~steps ->
                  let ia, fa = exec_args kernel sched in
                  exec ia fa steps);
              compile_seconds;
              cmxs_cache_hit;
            })
  in
  let result =
    if not tier_b then shaped ()
    else
      match codegen () with
      | Some r -> r
      | None ->
        Rtrt_obs.Metrics.incr c_fallbacks;
        shaped ()
  in
  let verify_run r =
    if verify then begin
      let reference = kernel.Kernels.Kernel.copy () in
      let candidate = kernel.Kernels.Kernel.copy () in
      reference.Kernels.Kernel.run_tiled sched ~steps:verify_steps;
      (match r.tier with
      | Interp -> ()
      | Shaped ->
        candidate.Kernels.Kernel.run_tiled_shaped sched shape
          ~steps:verify_steps
      | Codegen -> (
        match
          compile_and_load ~kernel:kernel.Kernels.Kernel.name
            ~key:(Lazy.force key) "(* cached *)"
        with
        | Some (exec, _, _) ->
          let ia, fa = exec_args candidate sched in
          exec ia fa verify_steps
        | None -> failwith "Specialize: compiled executor vanished"));
      if
        not
          (Kernels.Kernel.snapshots_equal_bits
             (reference.Kernels.Kernel.snapshot ())
             (candidate.Kernels.Kernel.snapshot ()))
      then
        failwith
          (Printf.sprintf
             "Specialize: %s tier diverged bitwise from run_tiled (%s)"
             (tier_name r.tier) kernel.Kernels.Kernel.name)
    end
  in
  finish ~verify_run result

(* -------------------------------------------------------------- *)
(* Source dump for [rtrt codegen --plan]: the exact Tier B module that
   would be compiled, independent of whether a toolchain exists. *)

let dump_source (kernel : Kernels.Kernel.t) (sched : Reorder.Schedule.t) =
  let shape = Reorder.Shape.analyze sched in
  Codegen.specialized_source kernel ~key:(schedule_key kernel sched) sched
    shape
