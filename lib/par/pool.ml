(* A reusable pool of OCaml 5 domains for SPMD execution.

   Workers are spawned once (domain spawn costs ~10us, far too much to
   pay per tile level) and then *live inside a sense-reversing
   centralized barrier*: between rounds every worker is parked at the
   start barrier, so dispatching a job is nothing more than lane 0
   publishing the job fields (plain writes) and arriving at that same
   barrier. One mechanism covers wake-up, in-job phase barriers and
   the end-of-round join.

   Barrier protocol: a shared [arrived] counter, a shared [sense] flag
   and a per-lane local sense. Each arrival flips its local sense; the
   last arriver resets [arrived] *before* flipping [sense], so the
   barrier is immediately reusable. Waiters spin a bounded number of
   [Domain.cpu_relax] iterations, then fall back to a futex-style
   sleep: increment [sleepers], recheck the predicate under the mutex,
   and wait on the condition. The releasing lane sets [sense] first
   and only then reads [sleepers]; since [sleepers] is always >= the
   number of registered sleepers, a releaser that reads 0 is
   sequentially before any sleeper's registration, whose later
   predicate read must then observe the new sense — no lost wake-ups.
   Atomic RMWs on [arrived] give the cross-lane happens-before that
   makes plain float/int array writes from one lane visible to every
   other lane after any barrier — the executors rely on exactly this
   for their per-level phases. The spin budget is forced to 0 when the
   pool is wider than the machine (oversubscribed lanes must yield,
   not burn the core).

   Lane 0 is the calling domain itself, so [create ~domains:n] spawns
   n-1 workers and a pool of 1 degenerates to plain serial calls.

   Per-lane accounting: when the round is profiled (tracing enabled at
   dispatch time, or [~profile:true]), each round splits per lane into
     idle    = lane start - dispatch stamp     (wake/dispatch latency)
     work    = lane done - lane start - in-job barrier ns
     barrier = in-job barrier ns + (round end - lane done)
   where "round end" is the latest lane-done stamp and in-job barrier
   ns is accumulated by [barrier] itself. The three pieces sum exactly
   to (round end - dispatch) for every lane, so per-lane totals
   satisfy work + barrier + idle = accounted_ns — the invariant
   test_par checks. Stamps are written lock-free into padded per-lane
   slots and read by lane 0 after the end barrier. Per-round barrier
   waits feed the pool.barrier_wait histogram; the dispatch latency
   (dispatch stamp to the *last* lane entering work) feeds
   pool.dispatch_wait; per-lane totals are published as
   pool.lane<i>.{work,barrier,idle}_ns gauges at shutdown. *)

type lane_stats = {
  work_ns : int;
  barrier_ns : int;
  idle_ns : int;
}

(* Slot stride for per-lane int arrays: 8 words = 64 bytes keeps each
   lane's hot slot on its own cache line. *)
let pad = 8

type t = {
  domains : int;
  (* sense-reversing barrier *)
  arrived : int Atomic.t;
  sense : int Atomic.t;
  sleepers : int Atomic.t;       (* conservative >= registered sleepers *)
  lane_sense : int array;        (* per-lane local sense, stride [pad] *)
  spin : int;                    (* cpu_relax budget before sleeping *)
  mutex : Mutex.t;               (* blocking fallback + failure record *)
  cond : Condition.t;
  (* round state: written by lane 0 before the release barrier, read
     by workers after it (barrier orders the plain accesses) *)
  mutable job : (int -> unit) option;
  mutable profiled : bool;       (* current round is accounted *)
  mutable failure : exn option;  (* first exception of the round *)
  mutable stop : bool;
  mutable shut : bool;
  mutable workers : unit Domain.t array;
  (* accounting *)
  mutable t_dispatch : int;      (* ns stamp of current dispatch *)
  lane_start : int array;        (* per-lane job-entry stamp, stride pad *)
  lane_done : int array;         (* per-lane job-exit stamp, stride pad *)
  lane_bar : int array;          (* per-lane in-job barrier ns, stride pad *)
  acc_work : int array;          (* per-lane totals across rounds *)
  acc_barrier : int array;
  acc_idle : int array;
  mutable acc_dispatch_wait : int;
  mutable accounted_rounds : int;
  mutable accounted_ns : int;    (* sum of (round end - dispatch) *)
  (* one-shot synchronization-cost calibration, < 0 = not yet run *)
  mutable barrier_cost : float;
  mutable dispatch_cost : float;
}

let h_barrier = Rtrt_obs.Hist.hist "pool.barrier_wait"
let h_dispatch = Rtrt_obs.Hist.hist "pool.dispatch_wait"
let size t = t.domains

let record_failure t exn =
  Mutex.lock t.mutex;
  if t.failure = None then t.failure <- Some exn;
  Mutex.unlock t.mutex

(* ------------------------------------------------------------------ *)
(* The barrier                                                         *)

let wait_sense t target =
  let spins = ref t.spin in
  while Atomic.get t.sense <> target && !spins > 0 do
    Domain.cpu_relax ();
    decr spins
  done;
  if Atomic.get t.sense <> target then begin
    Atomic.incr t.sleepers;
    Mutex.lock t.mutex;
    while Atomic.get t.sense <> target do
      Condition.wait t.cond t.mutex
    done;
    Mutex.unlock t.mutex;
    Atomic.decr t.sleepers
  end

(* Release order matters: set [sense] first, then look for sleepers
   (see the module comment's no-lost-wake-up argument). *)
let barrier_raw t lane =
  let target = 1 - t.lane_sense.(lane * pad) in
  t.lane_sense.(lane * pad) <- target;
  if Atomic.fetch_and_add t.arrived 1 = t.domains - 1 then begin
    Atomic.set t.arrived 0;
    Atomic.set t.sense target;
    if Atomic.get t.sleepers > 0 then begin
      Mutex.lock t.mutex;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex
    end
  end
  else wait_sense t target

(* In-job barrier: contributes to the lane's barrier accounting when
   the round is profiled. *)
let barrier t ~lane =
  if t.domains > 1 then
    if t.profiled then begin
      let t0 = Rtrt_obs.Clock.now_ns () in
      barrier_raw t lane;
      t.lane_bar.(lane * pad) <-
        t.lane_bar.(lane * pad) + (Rtrt_obs.Clock.now_ns () - t0)
    end
    else barrier_raw t lane

(* ------------------------------------------------------------------ *)
(* Worker loop: park in the start barrier, run the job, join at the
   end barrier, repeat.                                                *)

let rec worker_loop t lane =
  barrier_raw t lane;
  (* start of round (or shutdown) *)
  if not t.stop then begin
    let job = match t.job with Some j -> j | None -> assert false in
    let profiled = t.profiled in
    if profiled then t.lane_start.(lane * pad) <- Rtrt_obs.Clock.now_ns ();
    (try job lane with exn -> record_failure t exn);
    if profiled then t.lane_done.(lane * pad) <- Rtrt_obs.Clock.now_ns ();
    barrier_raw t lane;
    (* end of round *)
    worker_loop t lane
  end

(* An oversubscribed pool (more lanes than cores) must never spin: the
   waited-for lane needs this core to make progress. *)
let spin_budget ~domains =
  if domains > Domain.recommended_domain_count () then 0 else 4096

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      domains;
      arrived = Atomic.make 0;
      sense = Atomic.make 0;
      sleepers = Atomic.make 0;
      lane_sense = Array.make (domains * pad) 0;
      spin = spin_budget ~domains;
      mutex = Mutex.create ();
      cond = Condition.create ();
      job = None;
      profiled = false;
      failure = None;
      stop = false;
      shut = false;
      workers = [||];
      t_dispatch = 0;
      lane_start = Array.make (domains * pad) 0;
      lane_done = Array.make (domains * pad) 0;
      lane_bar = Array.make (domains * pad) 0;
      acc_work = Array.make domains 0;
      acc_barrier = Array.make domains 0;
      acc_idle = Array.make domains 0;
      acc_dispatch_wait = 0;
      accounted_rounds = 0;
      accounted_ns = 0;
      barrier_cost = -1.0;
      dispatch_cost = -1.0;
    }
  in
  t.workers <-
    Array.init (domains - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

(* Lane 0 only, after the end barrier: every stamp is visible (the
   barrier's RMW chain orders them) and no lane is running. *)
let settle_round t =
  let t_end = ref t.lane_done.(0) in
  for l = 1 to t.domains - 1 do
    if t.lane_done.(l * pad) > !t_end then t_end := t.lane_done.(l * pad)
  done;
  let t_entry = ref t.lane_start.(0) in
  for l = 1 to t.domains - 1 do
    if t.lane_start.(l * pad) > !t_entry then t_entry := t.lane_start.(l * pad)
  done;
  let dispatch_wait = !t_entry - t.t_dispatch in
  t.acc_dispatch_wait <- t.acc_dispatch_wait + dispatch_wait;
  Rtrt_obs.Hist.record h_dispatch dispatch_wait;
  for l = 0 to t.domains - 1 do
    let bar_in = t.lane_bar.(l * pad) in
    t.lane_bar.(l * pad) <- 0;
    let wait = bar_in + (!t_end - t.lane_done.(l * pad)) in
    t.acc_idle.(l) <- t.acc_idle.(l) + (t.lane_start.(l * pad) - t.t_dispatch);
    t.acc_work.(l) <-
      t.acc_work.(l)
      + (t.lane_done.(l * pad) - t.lane_start.(l * pad) - bar_in);
    t.acc_barrier.(l) <- t.acc_barrier.(l) + wait;
    Rtrt_obs.Hist.record h_barrier wait
  done;
  t.accounted_rounds <- t.accounted_rounds + 1;
  t.accounted_ns <- t.accounted_ns + (!t_end - t.t_dispatch)

let parallel ?profile t f =
  if t.domains = 1 then f 0
  else begin
    if t.shut then invalid_arg "Pool.parallel: pool is shut down";
    let profiled =
      match profile with Some p -> p | None -> Rtrt_obs.enabled ()
    in
    t.profiled <- profiled;
    t.job <- Some f;
    t.failure <- None;
    if profiled then t.t_dispatch <- Rtrt_obs.Clock.now_ns ();
    barrier_raw t 0;
    (* workers released *)
    if profiled then t.lane_start.(0) <- Rtrt_obs.Clock.now_ns ();
    (* Lane 0 works too; its exception must still wait for the end
       barrier so no worker is left running inside freed state. *)
    (try f 0 with exn -> record_failure t exn);
    if profiled then t.lane_done.(0) <- Rtrt_obs.Clock.now_ns ();
    barrier_raw t 0;
    (* end of round: all stamps and the failure slot are visible *)
    t.job <- None;
    let failure = t.failure in
    t.failure <- None;
    if profiled then settle_round t;
    match failure with None -> () | Some exn -> raise exn
  end

(* ------------------------------------------------------------------ *)
(* Synchronization-cost calibration                                    *)

(* Measured once per pool, on demand: the steady-state cost of one
   in-job barrier and of one empty dispatch round. Runs unprofiled so
   calibration never pollutes the accounted totals. Exported as
   pool.barrier_cost_ns / pool.dispatch_cost_ns gauges and consumed by
   the executor's auto-fallback tier decision.

   The barrier is measured LOADED: every lane runs a fixed work loop
   between barriers, and the same work without barriers is timed in a
   second dispatch, so the reported cost is the overhead a barrier
   adds to a step that actually computes something. Back-to-back
   empty barriers measure a contention storm (every lane arriving in
   the same instant, nothing but synchronization competing for the
   cores) that real executor steps never exhibit — on a throttled or
   oversubscribed host that storm reads tens of microseconds per
   barrier while loaded steps observe well under one, which made the
   tier decision reject parallelism that measurably paid. *)
let calibrate t =
  if t.domains = 1 then begin
    t.barrier_cost <- 0.0;
    t.dispatch_cost <- 0.0
  end
  else begin
    let rounds = 256 in
    let work_iters = 4096 in
    let work () =
      let acc = ref 0.0 in
      for i = 1 to work_iters do
        acc := !acc +. float_of_int i
      done;
      ignore (Sys.opaque_identity !acc)
    in
    parallel ~profile:false t (fun lane ->
        for _ = 1 to 32 do
          work ();
          barrier_raw t lane
        done);
    let (), loaded_ns =
      Rtrt_obs.Clock.time_ns (fun () ->
          parallel ~profile:false t (fun lane ->
              for _ = 1 to rounds do
                work ();
                barrier_raw t lane
              done))
    in
    let (), work_ns =
      Rtrt_obs.Clock.time_ns (fun () ->
          parallel ~profile:false t (fun _ ->
              for _ = 1 to rounds do
                work ()
              done))
    in
    t.barrier_cost <-
      Float.max 0.0 (float_of_int (loaded_ns - work_ns) /. float_of_int rounds);
    let dispatches = 64 in
    for _ = 1 to 8 do parallel ~profile:false t (fun _ -> ()) done;
    let (), disp_ns =
      Rtrt_obs.Clock.time_ns (fun () ->
          for _ = 1 to dispatches do
            parallel ~profile:false t (fun _ -> ())
          done)
    in
    t.dispatch_cost <- float_of_int disp_ns /. float_of_int dispatches
  end;
  Rtrt_obs.Metrics.set
    (Rtrt_obs.Metrics.gauge "pool.barrier_cost_ns")
    t.barrier_cost;
  Rtrt_obs.Metrics.set
    (Rtrt_obs.Metrics.gauge "pool.dispatch_cost_ns")
    t.dispatch_cost

let barrier_cost_ns t =
  if t.barrier_cost < 0.0 then calibrate t;
  t.barrier_cost

let dispatch_cost_ns t =
  if t.dispatch_cost < 0.0 then calibrate t;
  t.dispatch_cost

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let lane_stats t =
  Array.init t.domains (fun l ->
      {
        work_ns = t.acc_work.(l);
        barrier_ns = t.acc_barrier.(l);
        idle_ns = t.acc_idle.(l);
      })

let accounted_rounds t = t.accounted_rounds
let accounted_ns t = t.accounted_ns
let dispatch_wait_ns t = t.acc_dispatch_wait

(* Publish per-lane totals as gauges. Gauges are last-write-wins, so
   with several pools in one trace the most recently shut-down pool's
   breakdown is reported. *)
let publish_stats t =
  if t.accounted_rounds > 0 then
    for l = 0 to t.domains - 1 do
      let set suffix v =
        Rtrt_obs.Metrics.set
          (Rtrt_obs.Metrics.gauge (Fmt.str "pool.lane%d.%s" l suffix))
          (float_of_int v)
      in
      set "work_ns" t.acc_work.(l);
      set "barrier_ns" t.acc_barrier.(l);
      set "idle_ns" t.acc_idle.(l)
    done

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    if t.domains > 1 then begin
      t.stop <- true;
      (* Arriving at the start barrier releases the parked workers;
         they observe [stop] and return. *)
      barrier_raw t 0;
      Array.iter Domain.join t.workers;
      t.workers <- [||]
    end;
    publish_stats t
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
