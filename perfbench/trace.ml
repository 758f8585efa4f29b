(* Layer spans recorded by the benchmark itself, around its calls into
   the library's public functions (spans inside the library are a
   separate concern). Spans stay in memory and are written once, at
   the end of the run. With tracing off, [span] is a plain call and
   nothing is recorded, so the untraced run pays no bookkeeping. *)

module Clock = Rtrt_obs.Clock
module J = Rtrt_obs.Json

type span = {
  id : int;
  parent : int;  (** -1 at top level *)
  job : int;  (** index of the enclosing job, -1 outside jobs *)
  name : string;  (** "<layer>.<operation>"; a job's own span is "job" *)
  start_ns : int;
  stop_ns : int;
}

let enabled = ref false
let current_job = ref (-1)
let finished : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

(* [record f] runs [f], which returns its result and the span's name:
   the name may depend on the outcome (a plan-cache hit is attributed to
   the cache, a miss to the inspector). *)
let record (f : unit -> 'a * string) : 'a =
  if not !enabled then fst (f ())
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let job = !current_job in
    let start_ns = Clock.now_ns () in
    let finish name =
      let stop_ns = Clock.now_ns () in
      stack := List.tl !stack;
      finished := { id; parent; job; name; start_ns; stop_ns } :: !finished
    in
    match f () with
    | r, name ->
      finish name;
      r
    | exception e ->
      finish "failed.exception";
      raise e
  end

let span name f = record (fun () -> (f (), name))

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time of every span of job [job], summed per layer. A span's self
   time is its duration minus the part its child spans cover; the job
   span's own self time is the share no layer span covers. The values
   sum to the job span's duration exactly. *)
let self_ns_by_layer ~job =
  let spans = List.filter (fun s -> s.job = job) !finished in
  let children = Hashtbl.create 64 in
  let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (get children s.parent + (s.stop_ns - s.start_ns)))
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.stop_ns - s.start_ns - get children s.id in
      let layer = if s.name = "job" then "unattributed" else layer_of s.name in
      Hashtbl.replace by_layer layer (get by_layer layer + self))
    spans;
  by_layer

let write_jsonl ~path ~run_id =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("run", J.String run_id);
                    ("id", J.Int s.id);
                    ("parent", J.Int s.parent);
                    ("job", J.Int s.job);
                    ("name", J.String s.name);
                    ("start_ns", J.Int s.start_ns);
                    ("end_ns", J.Int s.stop_ns);
                  ]));
          output_char oc '\n')
        (List.rev !finished))
