(* Tests for the Rtrt_obs observability layer: span nesting and
   self-time arithmetic, counter accumulation (and the disabled-path
   no-op), JSONL sink round-trips through the parser, figure JSON
   export validity, and the guarantee that instrumentation does not
   change Experiment.measure results. *)

let with_memory_sink f =
  let sink, events = Rtrt_obs.Sink.memory () in
  Rtrt_obs.set_sink sink;
  Fun.protect ~finally:Rtrt_obs.disable f;
  events ()

let span_name (n : Rtrt_obs.Report.node) = n.Rtrt_obs.Report.span.Rtrt_obs.Sink.name

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let busy () = ignore (Sys.opaque_identity (Array.init 4096 (fun i -> i * i)))

let test_span_nesting () =
  let events =
    with_memory_sink (fun () ->
        Rtrt_obs.Span.with_ ~name:"root" (fun () ->
            Rtrt_obs.Span.with_ ~name:"child" busy;
            Rtrt_obs.Span.with_ ~name:"child" (fun () ->
                Rtrt_obs.Span.with_ ~name:"grandchild" busy)))
  in
  (* 4 spans, each with a start and an end event, plus the wall-clock
     trace-header metric set_sink emits. *)
  Alcotest.(check int) "nine events" 9 (List.length events);
  match Rtrt_obs.Report.tree_of_events events with
  | [ root ] ->
    Alcotest.(check string) "root name" "root" (span_name root);
    Alcotest.(check int) "root depth" 0 root.span.Rtrt_obs.Sink.depth;
    Alcotest.(check bool) "root has no parent" true
      (root.span.Rtrt_obs.Sink.parent = None);
    Alcotest.(check int) "two children" 2 (List.length root.children);
    List.iter
      (fun (c : Rtrt_obs.Report.node) ->
        Alcotest.(check string) "child name" "child" (span_name c);
        Alcotest.(check int) "child depth" 1 c.span.Rtrt_obs.Sink.depth;
        Alcotest.(check bool) "child parent is root" true
          (c.span.Rtrt_obs.Sink.parent = Some root.span.Rtrt_obs.Sink.id))
      root.children;
    (* Self-time arithmetic: self + children = total, exactly. *)
    let self = Rtrt_obs.Report.self_seconds root in
    let kids = Rtrt_obs.Report.child_seconds root in
    Alcotest.(check (float 1e-12)) "self + children = total" root.dur
      (self +. kids);
    Alcotest.(check bool) "children fit in parent" true (kids <= root.dur)
  | roots -> Alcotest.fail (Fmt.str "expected 1 root, got %d" (List.length roots))

let test_span_disabled_is_transparent () =
  (* Tracing off: with_ must run the body and emit nothing. *)
  Alcotest.(check bool) "disabled" false (Rtrt_obs.enabled ());
  let hit = ref 0 in
  let y = Rtrt_obs.Span.with_ ~name:"ignored" (fun () -> incr hit; 42) in
  Alcotest.(check int) "body ran" 1 !hit;
  Alcotest.(check int) "value through" 42 y

let test_span_exception_pops_stack () =
  let events =
    with_memory_sink (fun () ->
        (try
           Rtrt_obs.Span.with_ ~name:"outer" (fun () ->
               Rtrt_obs.Span.with_ ~name:"thrower" (fun () -> failwith "boom"))
         with Failure _ -> ());
        Rtrt_obs.Span.with_ ~name:"after" (fun () -> ()))
  in
  match Rtrt_obs.Report.tree_of_events events with
  | [ outer; after ] ->
    Alcotest.(check string) "outer closed" "outer" (span_name outer);
    Alcotest.(check string) "after is a root" "after" (span_name after);
    Alcotest.(check int) "after at depth 0" 0 after.span.Rtrt_obs.Sink.depth
  | roots -> Alcotest.fail (Fmt.str "expected 2 roots, got %d" (List.length roots))

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)

let test_counter_accumulation () =
  let c = Rtrt_obs.Metrics.counter "test.counter" in
  let g = Rtrt_obs.Metrics.gauge "test.gauge" in
  Rtrt_obs.Metrics.reset ();
  (* Disabled: adds are no-ops. *)
  Rtrt_obs.Metrics.add c 5;
  Rtrt_obs.Metrics.set g 1.5;
  Alcotest.(check int) "disabled add is a no-op" 0 (Rtrt_obs.Metrics.value c);
  Alcotest.(check bool) "disabled set is a no-op" true
    (Rtrt_obs.Metrics.gauge_value g = None);
  let events =
    with_memory_sink (fun () ->
        Rtrt_obs.Metrics.add c 3;
        Rtrt_obs.Metrics.incr c;
        Rtrt_obs.Metrics.set g 2.5;
        Alcotest.(check int) "accumulated" 4 (Rtrt_obs.Metrics.value c);
        Rtrt_obs.Metrics.flush ())
  in
  let ms = Rtrt_obs.Report.metrics events in
  let find name =
    List.find_opt (fun (m : Rtrt_obs.Sink.metric) -> m.m_name = name) ms
  in
  (match find "test.counter" with
  | Some m ->
    Alcotest.(check (float 0.0)) "counter flushed" 4.0 m.Rtrt_obs.Sink.m_value;
    Alcotest.(check bool) "kind counter" true
      (m.Rtrt_obs.Sink.m_kind = Rtrt_obs.Sink.Counter)
  | None -> Alcotest.fail "counter event missing");
  (match find "test.gauge" with
  | Some m ->
    Alcotest.(check (float 0.0)) "gauge flushed" 2.5 m.Rtrt_obs.Sink.m_value
  | None -> Alcotest.fail "gauge event missing");
  Rtrt_obs.Metrics.reset ();
  Alcotest.(check int) "reset" 0 (Rtrt_obs.Metrics.value c);
  (* Same name returns the same handle. *)
  Alcotest.(check bool) "registry is idempotent" true
    (Rtrt_obs.Metrics.counter "test.counter" == c)

(* A registered counter nothing touched is flushed as 0, so a trace
   can show that an event never happened. *)
let test_untouched_counter_flushed () =
  let c = Rtrt_obs.Metrics.counter "test.untouched" in
  let events = with_memory_sink Rtrt_obs.Metrics.flush in
  Alcotest.(check int) "untouched" 0 (Rtrt_obs.Metrics.value c);
  match
    List.find_opt
      (fun (m : Rtrt_obs.Sink.metric) -> m.m_name = "test.untouched")
      (Rtrt_obs.Report.metrics events)
  with
  | Some m ->
    Alcotest.(check (float 0.0)) "flushed as 0" 0.0 m.Rtrt_obs.Sink.m_value;
    Alcotest.(check bool) "kind counter" true
      (m.Rtrt_obs.Sink.m_kind = Rtrt_obs.Sink.Counter)
  | None -> Alcotest.fail "untouched counter not flushed"

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

let test_hist_basic () =
  let h = Rtrt_obs.Hist.hist "basic.hist" in
  ignore
    (with_memory_sink (fun () ->
         (* Values below 16 land in exact unit buckets. *)
         List.iter (Rtrt_obs.Hist.record h) [ 5; 5; 7; 10; 15 ];
         Rtrt_obs.Hist.record h (-3) (* clamps to 0 *)));
  let st = Rtrt_obs.Hist.stats h in
  Alcotest.(check int) "count" 6 st.Rtrt_obs.Hist.st_count;
  Alcotest.(check int) "min (clamped sample)" 0 st.Rtrt_obs.Hist.st_min;
  Alcotest.(check int) "max" 15 st.Rtrt_obs.Hist.st_max;
  Alcotest.(check (float 1e-9)) "mean is exact" 7.0 st.Rtrt_obs.Hist.st_mean;
  Alcotest.(check int) "p50" 5 st.Rtrt_obs.Hist.st_p50;
  Alcotest.(check int) "p99 clamps to max" 15 st.Rtrt_obs.Hist.st_p99;
  (* Derived pairs appear in dump under <name>.<stat>. *)
  let dumped = Rtrt_obs.Hist.dump () in
  Alcotest.(check bool) "dump has basic.hist.count" true
    (List.assoc_opt "basic.hist.count" dumped = Some 6.0);
  Alcotest.(check bool) "dump has basic.hist.p50_ns" true
    (List.assoc_opt "basic.hist.p50_ns" dumped = Some 5.0)

let test_hist_disabled_noop () =
  Alcotest.(check bool) "tracing off" false (Rtrt_obs.enabled ());
  let h = Rtrt_obs.Hist.hist "disabled.hist" in
  Rtrt_obs.Hist.record h 123;
  Alcotest.(check int) "record is a no-op when disabled" 0
    (Rtrt_obs.Hist.count h);
  (* Same name returns the same handle, like counters. *)
  Alcotest.(check bool) "registry is idempotent" true
    (Rtrt_obs.Hist.hist "disabled.hist" == h)

(* Bucket geometry: [lower_bound (index_of v)] brackets v, and bucket
   widths stay within the documented 6.25% relative error (unit
   buckets below 16). *)
let prop_hist_buckets =
  let arb =
    QCheck.make ~print:string_of_int
      QCheck.Gen.(
        frequency
          [
            (1, int_bound 15);
            (2, int_bound 4095);
            (2, int_bound ((1 lsl 30) - 1));
          ])
  in
  QCheck.Test.make ~name:"bucket bounds bracket the value" ~count:1000 arb
    (fun v ->
      let idx = Rtrt_obs.Hist.index_of v in
      let lo = Rtrt_obs.Hist.lower_bound idx in
      let hi = Rtrt_obs.Hist.lower_bound (idx + 1) in
      if not (lo <= v && v < hi) then
        QCheck.Test.fail_reportf "v=%d outside bucket [%d, %d)" v lo hi;
      if v < 16 then hi - lo = 1 else (hi - lo) * 16 <= lo)

(* Quantile estimates are within one bucket width of the exact
   rank-order quantile of the recorded samples. *)
let prop_hist_quantiles =
  let arb =
    QCheck.make
      ~print:QCheck.Print.(list int)
      QCheck.Gen.(
        list_size (int_range 1 300)
          (frequency
             [
               (1, int_bound 15);
               (2, int_bound 4095);
               (2, int_bound ((1 lsl 30) - 1));
             ]))
  in
  QCheck.Test.make ~name:"quantiles within one bucket of exact" ~count:100 arb
    (fun samples ->
      let h = Rtrt_obs.Hist.hist "qcheck.hist" in
      (* set_sink resets every histogram, so each trial starts clean. *)
      ignore
        (with_memory_sink (fun () ->
             List.iter (Rtrt_obs.Hist.record h) samples));
      let n = List.length samples in
      let sorted = List.sort compare samples in
      let st = Rtrt_obs.Hist.stats h in
      if st.Rtrt_obs.Hist.st_count <> n then
        QCheck.Test.fail_reportf "count %d, wanted %d"
          st.Rtrt_obs.Hist.st_count n;
      if st.Rtrt_obs.Hist.st_min <> List.hd sorted then
        QCheck.Test.fail_reportf "min %d, wanted %d" st.Rtrt_obs.Hist.st_min
          (List.hd sorted);
      if st.Rtrt_obs.Hist.st_max <> List.nth sorted (n - 1) then
        QCheck.Test.fail_reportf "max %d, wanted %d" st.Rtrt_obs.Hist.st_max
          (List.nth sorted (n - 1));
      let exact_mean =
        float_of_int (List.fold_left ( + ) 0 samples) /. float_of_int n
      in
      if Float.abs (st.Rtrt_obs.Hist.st_mean -. exact_mean) > 1e-6 then
        QCheck.Test.fail_reportf "mean %f, wanted %f"
          st.Rtrt_obs.Hist.st_mean exact_mean;
      List.for_all
        (fun q ->
          let rank =
            let r = int_of_float (ceil (q *. float_of_int n)) in
            max 1 (min n r)
          in
          let exact = List.nth sorted (rank - 1) in
          let est = Rtrt_obs.Hist.quantile h q in
          let idx = Rtrt_obs.Hist.index_of exact in
          let width =
            Rtrt_obs.Hist.lower_bound (idx + 1)
            - Rtrt_obs.Hist.lower_bound idx
          in
          if abs (est - exact) > width then
            QCheck.Test.fail_reportf
              "q=%.2f: estimate %d vs exact %d exceeds bucket width %d" q est
              exact width
          else true)
        [ 0.5; 0.9; 0.99 ])

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

let test_clock_monotonic () =
  let prev = ref (Rtrt_obs.Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Rtrt_obs.Clock.now_ns () in
    if t < !prev then Alcotest.fail "clock went backwards";
    prev := t
  done;
  let (), dt = Rtrt_obs.Clock.time busy in
  Alcotest.(check bool) "time elapsed non-negative" true (dt >= 0.0);
  let (), ns = Rtrt_obs.Clock.time_ns busy in
  Alcotest.(check bool) "time_ns elapsed non-negative" true (ns >= 0);
  Alcotest.(check (float 1e-12)) "to_s scales" 1.5 (Rtrt_obs.Clock.to_s 1_500_000_000);
  (* wall_s is Unix-epoch seconds: the one wall-clock reading kept for
     trace headers. Sanity-check the epoch range (2017..2112). *)
  let w = Rtrt_obs.Clock.wall_s () in
  Alcotest.(check bool) "wall clock in a sane epoch range" true
    (w > 1.5e9 && w < 4.5e9)

(* ------------------------------------------------------------------ *)
(* Sink lifecycle: switching flushes the old trace and resets state    *)

let test_switch_sink_flushes_and_resets () =
  let sink_a, events_a = Rtrt_obs.Sink.memory () in
  let sink_b, events_b = Rtrt_obs.Sink.memory () in
  Rtrt_obs.set_sink sink_a;
  let c = Rtrt_obs.Metrics.counter "switch.counter" in
  let h = Rtrt_obs.Hist.hist "switch.hist" in
  Rtrt_obs.Metrics.add c 11;
  Rtrt_obs.Hist.record h 1_000;
  Alcotest.(check int) "recorded while sink A active" 1 (Rtrt_obs.Hist.count h);
  (* Switching flushes pending values to the old sink... *)
  Rtrt_obs.set_sink sink_b;
  let find name ms =
    List.find_opt (fun (m : Rtrt_obs.Sink.metric) -> m.m_name = name) ms
  in
  let ms_a = Rtrt_obs.Report.metrics (events_a ()) in
  (match find "switch.counter" ms_a with
  | Some m ->
    Alcotest.(check (float 0.0)) "counter flushed to old sink" 11.0
      m.Rtrt_obs.Sink.m_value
  | None -> Alcotest.fail "counter not flushed to old sink");
  (match find "switch.hist.count" ms_a with
  | Some m ->
    Alcotest.(check (float 0.0)) "hist derived metric flushed" 1.0
      m.Rtrt_obs.Sink.m_value
  | None -> Alcotest.fail "histogram not flushed to old sink");
  (* ...and resets state so the new trace starts clean. *)
  Alcotest.(check int) "counter reset on switch" 0 (Rtrt_obs.Metrics.value c);
  Alcotest.(check int) "histogram reset on switch" 0 (Rtrt_obs.Hist.count h);
  Rtrt_obs.disable ();
  let ms_b = Rtrt_obs.Report.metrics (events_b ()) in
  Alcotest.(check bool) "new trace has its own header" true
    (find "trace.wall_start_unix_s" ms_b <> None);
  Alcotest.(check bool) "no stale counter in new trace" true
    (find "switch.counter" ms_b = None)

(* ------------------------------------------------------------------ *)
(* JSON / JSONL                                                        *)

let test_json_roundtrip () =
  let v =
    Rtrt_obs.Json.(
      Obj
        [
          ("s", String "a \"quoted\"\nline");
          ("i", Int (-42));
          ("f", Float 0.1);
          ("b", Bool true);
          ("n", Null);
          ("l", List [ Int 1; Float 2.5; String "x" ]);
          ("o", Obj [ ("nested", Bool false) ]);
        ])
  in
  let s = Rtrt_obs.Json.to_string v in
  (match Rtrt_obs.Json.of_string s with
  | Ok v' -> Alcotest.(check bool) "value round-trips" true (v = v')
  | Error msg -> Alcotest.fail msg);
  (* Malformed inputs are rejected. *)
  List.iter
    (fun bad ->
      match Rtrt_obs.Json.of_string bad with
      | Ok _ -> Alcotest.fail (Fmt.str "accepted malformed %S" bad)
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* Every scalar value in [0x20, 0x10FFFF] written as a \uXXXX escape
   (a surrogate pair above the BMP) must decode to the code point's
   UTF-8 bytes — checked against the stdlib encoder, not our own —
   and the decoded string must survive another print/parse cycle. *)
let prop_json_unicode_escapes =
  let arb =
    QCheck.make
      ~print:(Printf.sprintf "U+%04X")
      QCheck.Gen.(
        frequency
          [
            (1, int_range 0x20 0xD7FF);
            (1, int_range 0xE000 0x10FFFF);
          ])
  in
  QCheck.Test.make ~name:"\\u escapes decode to UTF-8 and round-trip"
    ~count:500 arb (fun cp ->
      let escaped =
        if cp < 0x10000 then Printf.sprintf "\"\\u%04x\"" cp
        else
          let u = cp - 0x10000 in
          (* Mixed hex case on purpose: both must parse. *)
          Printf.sprintf "\"\\u%04X\\u%04x\""
            (0xD800 lor (u lsr 10))
            (0xDC00 lor (u land 0x3FF))
      in
      let expected =
        let b = Buffer.create 4 in
        Buffer.add_utf_8_uchar b (Uchar.of_int cp);
        Buffer.contents b
      in
      match Rtrt_obs.Json.of_string escaped with
      | Error msg -> QCheck.Test.fail_reportf "rejected %s: %s" escaped msg
      | Ok (Rtrt_obs.Json.String s) ->
        if s <> expected then
          QCheck.Test.fail_reportf "decoded %S, wanted %S" s expected;
        (match
           Rtrt_obs.Json.of_string
             (Rtrt_obs.Json.to_string (Rtrt_obs.Json.String s))
         with
        | Ok v -> v = Rtrt_obs.Json.String s
        | Error msg -> QCheck.Test.fail_reportf "re-parse failed: %s" msg)
      | Ok _ -> QCheck.Test.fail_report "parsed to a non-string")

let test_json_bad_escapes () =
  (* Unpaired or malformed surrogates and loose hex are parse errors,
     never silently mangled output. *)
  List.iter
    (fun bad ->
      match Rtrt_obs.Json.of_string bad with
      | Ok _ -> Alcotest.fail (Fmt.str "accepted %S" bad)
      | Error _ -> ())
    [
      {|"\ud800"|} (* unpaired high surrogate *);
      {|"\udc00"|} (* unpaired low surrogate *);
      {|"\ud800\u0041"|} (* high surrogate followed by a non-low one *);
      {|"\ud800\ud800"|};
      {|"\ud83d x"|};
      {|"\u12g4"|} (* non-hex digit *);
      {|"\u+123"|} (* int_of_string would have taken the sign *);
      {|"\u12"|} (* truncated *);
    ];
  (match Rtrt_obs.Json.of_string {|"\ud83d\ude00"|} with
  | Ok (Rtrt_obs.Json.String s) ->
    Alcotest.(check string) "surrogate pair" "\xF0\x9F\x98\x80" s
  | _ -> Alcotest.fail "valid surrogate pair rejected");
  match Rtrt_obs.Json.of_string {|"\u00e9"|} with
  | Ok (Rtrt_obs.Json.String s) ->
    Alcotest.(check string) "two-byte code point" "\xC3\xA9" s
  | _ -> Alcotest.fail "\\u00e9 rejected"

let test_jsonl_sink_roundtrip () =
  let path = Filename.temp_file "rtrt_obs" ".jsonl" in
  Rtrt_obs.set_sink (Rtrt_obs.Sink.jsonl_file path);
  let c = Rtrt_obs.Metrics.counter "jsonl.test" in
  Rtrt_obs.Metrics.reset ();
  Rtrt_obs.Span.with_ ~name:"a"
    ~attrs:[ ("k", Rtrt_obs.Json.String "v") ]
    (fun () ->
      Rtrt_obs.Metrics.add c 7;
      Rtrt_obs.Span.with_ ~name:"b" busy);
  Rtrt_obs.Metrics.flush ();
  Rtrt_obs.disable () (* closes the file *);
  let events = Rtrt_obs.Report.events_of_jsonl path in
  Sys.remove path;
  (* 2 span starts + 2 span ends; every other event is a metric. *)
  let ms = Rtrt_obs.Report.metrics events in
  Alcotest.(check int) "four span events" 4
    (List.length events - List.length ms);
  (match Rtrt_obs.Report.tree_of_events events with
  | [ a ] ->
    Alcotest.(check string) "root is a" "a" (span_name a);
    Alcotest.(check int) "one child" 1 (List.length a.children);
    Alcotest.(check string) "child is b" "b" (span_name (List.hd a.children));
    Alcotest.(check bool) "attr survives the round-trip" true
      (List.assoc_opt "k" a.span.Rtrt_obs.Sink.attrs
      = Some (Rtrt_obs.Json.String "v"));
    Alcotest.(check bool) "durations nest" true
      ((List.hd a.children).dur <= a.dur)
  | roots -> Alcotest.fail (Fmt.str "expected 1 root, got %d" (List.length roots)));
  (* The trace header and our counter; every other registered counter
     is flushed as 0. *)
  Alcotest.(check (list string)) "non-zero metrics"
    [ "jsonl.test"; "trace.wall_start_unix_s" ]
    (List.sort compare
       (List.filter_map
          (fun (m : Rtrt_obs.Sink.metric) ->
            if m.Rtrt_obs.Sink.m_value <> 0.0 then Some m.Rtrt_obs.Sink.m_name
            else None)
          ms));
  Alcotest.(check bool) "header metric present" true
    (List.exists
       (fun (m : Rtrt_obs.Sink.metric) ->
         m.Rtrt_obs.Sink.m_name = "trace.wall_start_unix_s")
       ms);
  match
    List.find_opt
      (fun (m : Rtrt_obs.Sink.metric) -> m.Rtrt_obs.Sink.m_name = "jsonl.test")
      ms
  with
  | Some m ->
    Alcotest.(check (float 0.0)) "counter value" 7.0 m.Rtrt_obs.Sink.m_value
  | None -> Alcotest.fail "counter metric missing"

(* ------------------------------------------------------------------ *)
(* Inspector span coverage and self-time consistency                   *)

let test_inspector_span_coverage () =
  let d = Datagen.Generators.mol1 ~scale:512 () in
  let kernel = Kernels.Moldyn.of_dataset d in
  let plan =
    Compose.Plan.with_fst ~seed_part_size:16 Compose.Plan.cpack_lexgroup_twice
  in
  let n_transforms = List.length (Compose.Plan.transforms plan) in
  let result = ref None in
  let events =
    with_memory_sink (fun () ->
        result := Some (Harness.Experiment.inspect plan kernel))
  in
  let result = Option.get !result in
  let ends =
    List.filter_map
      (function Rtrt_obs.Sink.Span_end (s, d) -> Some (s, d) | _ -> None)
      events
  in
  (* One span per transformation in the composed plan... *)
  let transforms =
    List.filter (fun (s, _) -> s.Rtrt_obs.Sink.name = "inspector.transform") ends
  in
  Alcotest.(check int) "a span per transformation" n_transforms
    (List.length transforms);
  (* ...tagged with the reordering-function name the step produced. *)
  let tagged =
    List.filter
      (fun (s, _) -> List.mem_assoc "fn" s.Rtrt_obs.Sink.attrs)
      transforms
  in
  Alcotest.(check int) "fn attribute on every reordering step"
    (List.length result.Compose.Inspector.reordering_fns)
    (List.length tagged);
  (* Phase times sum back to the reported inspector_seconds. *)
  let root =
    match
      List.find_opt (fun (s, _) -> s.Rtrt_obs.Sink.name = "inspector.run") ends
    with
    | Some r -> r
    | None -> Alcotest.fail "no inspector.run span"
  in
  let roots = Rtrt_obs.Report.tree_of_events events in
  let rec find_node name = function
    | [] -> None
    | (n : Rtrt_obs.Report.node) :: rest ->
      if span_name n = name then Some n
      else (
        match find_node name n.children with
        | Some hit -> Some hit
        | None -> find_node name rest)
  in
  let run_node = Option.get (find_node "inspector.run" roots) in
  let phase_sum =
    Rtrt_obs.Report.child_seconds run_node
    +. Rtrt_obs.Report.self_seconds run_node
  in
  Alcotest.(check (float 1e-12)) "phases sum to the span" (snd root) phase_sum;
  let reported = result.Compose.Inspector.inspector_seconds in
  Alcotest.(check bool)
    (Fmt.str "span duration %.6f matches inspector_seconds %.6f" (snd root)
       reported)
    true
    (Float.abs (snd root -. reported) <= 0.05 *. reported +. 0.005)

(* ------------------------------------------------------------------ *)
(* No-op guarantee: instrumentation doesn't change results             *)

let test_noop_measure_unchanged () =
  let d = Datagen.Generators.foil ~scale:512 () in
  let kernel = Kernels.Irreg.of_dataset d in
  let measure () =
    Harness.Experiment.measure ~trace_steps_n:1 ~wall_steps:1
      ~machine:Cachesim.Machine.pentium4 ~plan:Compose.Plan.cpack_lexgroup
      kernel
  in
  Alcotest.(check bool) "tracing starts disabled" false (Rtrt_obs.enabled ());
  let plain = measure () in
  let traced = ref None in
  ignore (with_memory_sink (fun () -> traced := Some (measure ())));
  let traced = Option.get !traced in
  (* Every deterministic field must be identical (wall-clock fields
     vary run to run, instrumented or not). *)
  let open Harness.Experiment in
  Alcotest.(check string) "plan" plain.plan_name traced.plan_name;
  Alcotest.(check (float 0.0)) "modeled cycles" plain.modeled_cycles_per_step
    traced.modeled_cycles_per_step;
  Alcotest.(check (float 0.0)) "misses" plain.misses_per_step
    traced.misses_per_step;
  Alcotest.(check (float 0.0)) "accesses" plain.accesses_per_step
    traced.accesses_per_step;
  Alcotest.(check (float 0.0)) "miss ratio" plain.miss_ratio traced.miss_ratio;
  Alcotest.(check int) "remaps" plain.n_data_remaps traced.n_data_remaps;
  Alcotest.(check int) "tiles" plain.n_tiles traced.n_tiles

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "span",
        [
          Alcotest.test_case "nesting and self-time" `Quick test_span_nesting;
          Alcotest.test_case "disabled is transparent" `Quick
            test_span_disabled_is_transparent;
          Alcotest.test_case "exception pops the stack" `Quick
            test_span_exception_pops_stack;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter accumulation" `Quick
            test_counter_accumulation;
          Alcotest.test_case "switch_sink flushes and resets" `Quick
            test_switch_sink_flushes_and_resets;
          Alcotest.test_case "untouched counter flushed as 0" `Quick
            test_untouched_counter_flushed;
        ] );
      ( "hist",
        [
          Alcotest.test_case "basic stats" `Quick test_hist_basic;
          Alcotest.test_case "disabled record is a no-op" `Quick
            test_hist_disabled_noop;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_hist_buckets; prop_hist_quantiles ] );
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "json",
        [
          Alcotest.test_case "value round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "bad escapes rejected" `Quick
            test_json_bad_escapes;
          Alcotest.test_case "jsonl sink round-trip" `Quick
            test_jsonl_sink_roundtrip;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_json_unicode_escapes ] );
      ( "integration",
        [
          Alcotest.test_case "inspector span coverage" `Quick
            test_inspector_span_coverage;
          Alcotest.test_case "measure unchanged by tracing" `Quick
            test_noop_measure_unchanged;
        ] );
    ]
