(* Tests for the I/O trace subsystem: event emission from the device,
   sequential/random classification, ring-buffer bounds, sinks, the
   built-in seek count, staging, and the trace-report aggregations. *)

(* A tracer with a ring sink: [Trace.create] attaches none. *)
let ringed ?(capacity = 64) () =
  let t = Em.Trace.create () in
  Em.Trace.add_sink t (Em.Trace.ring_sink ~capacity);
  t

let read_all v =
  Em.Reader.with_reader v (fun r ->
      while Em.Reader.has_next r do
        ignore (Em.Reader.next r)
      done)

let test_device_emits_events () =
  let ctx = Em.Ctx.create ~trace:(ringed ()) (Tu.params ~mem:64 ~block:8 ()) in
  let v = Tu.int_vec ctx (Array.init 24 (fun i -> i)) in
  read_all v;
  let events = Em.Trace.events ctx.Em.Ctx.trace in
  Tu.check_int "one event per I/O" 3 (List.length events);
  Tu.check_int "total matches stats" (Em.Stats.ios ctx.Em.Ctx.stats)
    (Em.Trace.total ctx.Em.Ctx.trace);
  List.iteri
    (fun i (e : Em.Trace.event) ->
      Tu.check_int "sequence numbering" i e.Em.Trace.seq;
      Tu.check_bool "all reads" true (e.Em.Trace.op = Em.Trace.Read))
    events

let test_locality_classification () =
  let t = ringed () in
  Em.Trace.emit t Em.Trace.Read ~block:10 ~phase:[];
  Em.Trace.emit t Em.Trace.Read ~block:11 ~phase:[];
  Em.Trace.emit t Em.Trace.Read ~block:11 ~phase:[];
  Em.Trace.emit t Em.Trace.Write ~block:3 ~phase:[];
  Em.Trace.emit t Em.Trace.Read ~block:4 ~phase:[];
  let expect =
    [ Em.Trace.Random; Em.Trace.Sequential; Em.Trace.Sequential; Em.Trace.Random;
      Em.Trace.Sequential ]
  in
  List.iter2
    (fun (e : Em.Trace.event) want ->
      Tu.check_bool
        (Printf.sprintf "event %d locality" e.Em.Trace.seq)
        true
        (e.Em.Trace.locality = want))
    (Em.Trace.events t) expect;
  Tu.check_int "seeks count the random events" 2 (Em.Trace.seeks t)

let test_ring_is_bounded () =
  let t = ringed ~capacity:4 () in
  for i = 0 to 9 do
    Em.Trace.emit t Em.Trace.Write ~block:(2 * i) ~phase:[]
  done;
  let events = Em.Trace.events t in
  Tu.check_int "ring keeps capacity" 4 (List.length events);
  Tu.check_int "total unaffected" 10 (Em.Trace.total t);
  Tu.check_int "dropped count" 6 (Em.Trace.dropped t);
  Tu.check_int "oldest retained is #6" 6 (List.hd events).Em.Trace.seq

let test_reset () =
  let t = ringed ~capacity:4 () in
  for i = 0 to 9 do
    Em.Trace.emit t Em.Trace.Read ~block:i ~phase:[]
  done;
  Tu.check_int "one seek, then a sequential run" 1 (Em.Trace.seeks t);
  Em.Trace.reset t;
  Tu.check_int "ring cleared" 0 (List.length (Em.Trace.events t));
  Tu.check_int "total cleared" 0 (Em.Trace.total t);
  Tu.check_int "seeks cleared" 0 (Em.Trace.seeks t);
  Em.Trace.emit t Em.Trace.Read ~block:9 ~phase:[];
  Tu.check_bool "first event after reset is a seek" true
    ((List.hd (Em.Trace.events t)).Em.Trace.locality = Em.Trace.Random)

(* The collector outlives a small ring, and the tracer's own seek count —
   kept with or without sinks — agrees with the events' classification. *)
let test_collector_and_seeks () =
  let t = ringed ~capacity:2 () in
  let collect, collected = Em.Trace.collector () in
  Em.Trace.add_sink t collect;
  let bare = Em.Trace.create () in
  for i = 0 to 7 do
    let block = if i mod 3 = 0 then 10 * i else i in
    Em.Trace.emit t (if i mod 2 = 0 then Em.Trace.Read else Em.Trace.Write) ~block ~phase:[];
    Em.Trace.emit bare Em.Trace.Read ~block ~phase:[]
  done;
  Tu.check_int "collector is unbounded" 8 (List.length (collected ()));
  let random =
    List.length
      (List.filter (fun e -> e.Em.Trace.locality = Em.Trace.Random) (collected ()))
  in
  Tu.check_int "seeks = random events" random (Em.Trace.seeks t);
  Tu.check_int "a sinkless tracer counts the same" random (Em.Trace.seeks bare);
  Tu.check_int "a sinkless tracer counts every event" 8 (Em.Trace.total bare);
  Tu.check_int "a sinkless tracer retains nothing" 0 (List.length (Em.Trace.events bare))

(* [Trace.reset] must clear stateful sinks and the seek count too, not
   just the ring and the numbering. *)
let test_reset_clears_sinks () =
  let t = Em.Trace.create () in
  let collect, collected = Em.Trace.collector () in
  let custom_seen = ref 0 and custom_resets = ref 0 in
  Em.Trace.add_sink t collect;
  Em.Trace.add_sink t
    (Em.Trace.custom_sink
       ~reset:(fun () -> incr custom_resets)
       (fun _ -> incr custom_seen));
  for i = 0 to 4 do
    Em.Trace.emit t Em.Trace.Read ~block:i ~phase:[]
  done;
  Em.Trace.reset t;
  Tu.check_int "collector emptied" 0 (List.length (collected ()));
  Tu.check_int "seeks zeroed" 0 (Em.Trace.seeks t);
  Tu.check_int "custom on_reset hook fired" 1 !custom_resets;
  Em.Trace.emit t Em.Trace.Read ~block:7 ~phase:[];
  Tu.check_int "collector counts fresh events only" 1 (List.length (collected ()));
  Tu.check_int "seeks count fresh events only" 1 (Em.Trace.seeks t);
  Tu.check_int "custom sink kept receiving" 6 !custom_seen

let test_phase_paths_recorded () =
  let ctx = Em.Ctx.create ~trace:(ringed ()) (Tu.params ~mem:64 ~block:8 ()) in
  let v = Tu.int_vec ctx (Array.init 8 (fun i -> i)) in
  Em.Phase.with_label ctx "outer" (fun () ->
      Em.Phase.with_label ctx "inner" (fun () -> read_all v));
  match Em.Trace.events ctx.Em.Ctx.trace with
  | [ e ] ->
      Tu.check_bool "innermost-first phase path" true
        (e.Em.Trace.phase = [ "inner"; "outer" ])
  | events -> Alcotest.failf "expected 1 event, got %d" (List.length events)

let test_jsonl_sink () =
  let path = Filename.temp_file "trace" ".jsonl" in
  let oc = open_out path in
  let t = Em.Trace.create () in
  Em.Trace.add_sink t (Em.Trace.jsonl_sink oc);
  Em.Trace.emit t Em.Trace.Read ~block:5 ~phase:[ "merge"; "sort" ];
  Em.Trace.emit t Em.Trace.Write ~block:6 ~phase:[];
  close_out oc;
  let ic = open_in path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string)
    "first event json"
    "{\"seq\":0,\"op\":\"read\",\"kind\":\"io\",\"block\":5,\"phase\":[\"merge\",\"sort\"],\"locality\":\"random\"}"
    l1;
  Alcotest.(check string)
    "second event json"
    "{\"seq\":1,\"op\":\"write\",\"kind\":\"io\",\"block\":6,\"phase\":[],\"locality\":\"sequential\"}"
    l2

let test_report_tree () =
  let t = ringed () in
  Em.Trace.emit t Em.Trace.Read ~block:0 ~phase:[ "sample"; "build" ];
  Em.Trace.emit t Em.Trace.Read ~block:1 ~phase:[ "sample"; "build" ];
  Em.Trace.emit t Em.Trace.Write ~block:7 ~phase:[ "build" ];
  Em.Trace.emit t Em.Trace.Read ~block:3 ~phase:[];
  let root = Em.Trace_report.tree (Em.Trace.events t) in
  let totals = Em.Trace_report.subtotal root in
  Tu.check_int "total ios" 4 (Em.Trace_report.ios totals);
  Tu.check_int "total reads" 3 totals.Em.Trace_report.reads;
  Tu.check_int "unattributed at root" 1 (Em.Trace_report.ios root.Em.Trace_report.self);
  (match root.Em.Trace_report.children with
  | [ build ] ->
      Tu.check_bool "outermost label" true (build.Em.Trace_report.label = "build");
      Tu.check_int "build subtotal" 3
        (Em.Trace_report.ios (Em.Trace_report.subtotal build));
      Tu.check_int "build self" 1 (Em.Trace_report.ios build.Em.Trace_report.self);
      (match build.Em.Trace_report.children with
      | [ sample ] ->
          Tu.check_bool "nested label" true (sample.Em.Trace_report.label = "sample");
          Tu.check_int "sample self" 2 (Em.Trace_report.ios sample.Em.Trace_report.self)
      | cs -> Alcotest.failf "expected 1 child of build, got %d" (List.length cs))
  | cs -> Alcotest.failf "expected 1 child of root, got %d" (List.length cs));
  Tu.check_int "random seeks" 3 (Em.Trace_report.random_seeks (Em.Trace.events t))

let test_report_histograms () =
  let t = ringed () in
  (* Block 0 read 3x, block 1 read 1x, block 2 written 2x. *)
  List.iter
    (fun (op, b) -> Em.Trace.emit t op ~block:b ~phase:[])
    [
      (Em.Trace.Read, 0);
      (Em.Trace.Read, 0);
      (Em.Trace.Read, 0);
      (Em.Trace.Read, 1);
      (Em.Trace.Write, 2);
      (Em.Trace.Write, 2);
    ];
  let s = Em.Trace_report.summarize (Em.Trace.events t) in
  Tu.check_int "distinct blocks" 3 s.Em.Trace_report.distinct_blocks;
  Alcotest.(check (list (pair int int)))
    "reread histogram" [ (1, 1); (3, 1) ] s.Em.Trace_report.reread_histogram;
  Alcotest.(check (list (pair int int)))
    "rewrite histogram" [ (2, 1) ] s.Em.Trace_report.rewrite_histogram

let test_linked_ctx_shares_tracer () =
  let ctx = Tu.ctx ~mem:64 ~block:8 () in
  let pair_ctx : (int * int) Em.Ctx.t = Em.Ctx.linked ctx in
  let v = Em.Writer.with_writer pair_ctx (fun w -> Em.Writer.push w (1, 2)) in
  ignore v;
  Tu.check_int "event visible on parent tracer" 1 (Em.Trace.total ctx.Em.Ctx.trace)

(* Staging then replaying a stream must reproduce direct emission exactly:
   event for event on tracers with sinks, across every field (kinds, cache
   outcomes, optional disk/round/shard, negative and large block ids,
   several tracers and backends); count, seeks and locality state on a
   sinkless tracer, whose first staged event is classified against what it
   saw before the stage. *)
let test_staged_replay_matches_direct () =
  let kinds =
    Em.Trace.[| Io; Retry; Faulted Em.Fault.Torn_write; Faulted Em.Fault.Crash |]
  in
  let emit_all a b c =
    for i = 0 to 2999 do
      if i mod 3 = 1 then
        Em.Trace.emit c Em.Trace.Read ~block:(if i mod 9 = 1 then 1000 * i else i / 3) ~phase:[];
      let t = if i mod 7 = 3 then b else a in
      let cache = match i mod 3 with 0 -> None | 1 -> Some Em.Trace.Hit | _ -> Some Em.Trace.Miss in
      Em.Trace.emit ~kind:kinds.(i mod 4)
        ~backend:(if i mod 5 = 0 then "file" else "sim")
        ?cache
        ?disk:(if i mod 2 = 0 then Some (i mod 8) else None)
        ?round:(if i mod 4 < 2 then Some (i * 3) else None)
        ?shard:(if i mod 11 = 0 then None else Some (i mod 6))
        t
        (if i mod 2 = 0 then Em.Trace.Read else Em.Trace.Write)
        ~block:(if i mod 13 = 0 then -1 - i else (i * 7919) + (1 lsl 35))
        ~phase:(if i mod 3 = 0 then [] else [ "inner"; "outer" ])
    done
  in
  let traced () =
    let t = Em.Trace.create () in
    let sink, events = Em.Trace.collector () in
    Em.Trace.add_sink t sink;
    (t, events)
  in
  (* The sinkless tracers see block 999 first: the stage's first event on
     them (block 1000) is sequential only against that. *)
  let sinkless () =
    let c = Em.Trace.create () in
    Em.Trace.emit c Em.Trace.Read ~block:999 ~phase:[];
    c
  in
  let a, direct_a = traced () and b, direct_b = traced () and c = sinkless () in
  emit_all a b c;
  let a', staged_a = traced () and b', staged_b = traced () and c' = sinkless () in
  let st = Em.Trace.create_stage () in
  Em.Trace.staged st (fun () -> emit_all a' b' c');
  Tu.check_int "staging emits nothing" 1
    (Em.Trace.total a' + Em.Trace.total b' + Em.Trace.total c');
  Em.Trace.replay st;
  Tu.check_int "tracer a: event count" (List.length (direct_a ())) (List.length (staged_a ()));
  Tu.check_bool "tracer a: replay = direct" true (direct_a () = staged_a ());
  Tu.check_bool "tracer b: replay = direct" true (direct_b () = staged_b ());
  Tu.check_int "sinkless tracer: total" (Em.Trace.total c) (Em.Trace.total c');
  Tu.check_int "sinkless tracer: seeks" (Em.Trace.seeks c) (Em.Trace.seeks c');
  Tu.check_bool "sinkless tracer: some seeks, not all" true
    (Em.Trace.seeks c > 1 && Em.Trace.seeks c < Em.Trace.total c - 1);
  (* The next event is classified against the stage's last block. *)
  List.iter (fun t -> Em.Trace.emit t Em.Trace.Read ~block:(2999 / 3) ~phase:[]) [ c; c' ];
  Tu.check_int "sinkless tracer: locality state restored" (Em.Trace.seeks c) (Em.Trace.seeks c');
  Em.Trace.replay st;
  Tu.check_int "a replayed stage is empty" 3000 (Em.Trace.total a' + Em.Trace.total b')

(* Tracing is paid for only when observed: a default machine's tracer has
   no sink, so a metered I/O builds no event record (12 words: 11 fields and
   a header), which a machine with a collector still builds.  Words are this
   domain's, read by [Gc.counters] after flushing the minor heap. *)
let test_sinkless_io_allocates_no_event () =
  let words_per_io trace =
    let ctx : int Em.Ctx.t =
      Em.Ctx.create ?trace ~backend:Em.Backend.Sim (Tu.params ~mem:4096 ~block:64 ())
    in
    let v = Tu.int_vec ctx (Array.init (1 lsl 14) Fun.id) in
    let allocated () =
      Gc.minor ();
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let ios0 = Em.Stats.ios ctx.Em.Ctx.stats and before = allocated () in
    read_all v;
    let words = allocated () -. before in
    let ios = Em.Stats.ios ctx.Em.Ctx.stats - ios0 in
    Em.Ctx.close ctx;
    words /. float_of_int ios
  in
  let observed =
    let t = Em.Trace.create () in
    Em.Trace.add_sink t (fst (Em.Trace.collector ()));
    t
  in
  let bare = words_per_io None and collected = words_per_io (Some observed) in
  if collected -. bare < 12. then
    Alcotest.failf "%.1f words per I/O with no sink vs %.1f with a collector" bare collected

let suite =
  [
    Alcotest.test_case "device emits one event per I/O" `Quick test_device_emits_events;
    Alcotest.test_case "sequential vs random classification" `Quick
      test_locality_classification;
    Alcotest.test_case "ring buffer is bounded" `Quick test_ring_is_bounded;
    Alcotest.test_case "reset clears ring and numbering" `Quick test_reset;
    Alcotest.test_case "collector sink and built-in seeks" `Quick test_collector_and_seeks;
    Alcotest.test_case "reset clears stateful sinks" `Quick test_reset_clears_sinks;
    Alcotest.test_case "phase paths recorded on events" `Quick test_phase_paths_recorded;
    Alcotest.test_case "jsonl sink format" `Quick test_jsonl_sink;
    Alcotest.test_case "report: per-phase tree" `Quick test_report_tree;
    Alcotest.test_case "report: reuse histograms" `Quick test_report_histograms;
    Alcotest.test_case "linked ctx shares the tracer" `Quick test_linked_ctx_shares_tracer;
    Alcotest.test_case "staged replay matches direct emission" `Quick
      test_staged_replay_matches_direct;
    Alcotest.test_case "sinkless I/O allocates no event" `Quick
      test_sinkless_io_allocates_no_event;
  ]
