(* Tests for per-phase I/O attribution. *)

let test_labels_attribute_ios () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let v = Tu.int_vec ctx (Array.init 160 (fun i -> i)) in
  Em.Phase.with_label ctx "copying" (fun () -> ignore (Emalg.Scan.copy v));
  Emalg.Scan.iter (fun _ -> ()) v;
  let report = Em.Phase.report ctx in
  Tu.check_int "copy phase = 20 I/Os" 20 (List.assoc "copying" report);
  Tu.check_int "unlabeled scan = 10 I/Os" 10 (List.assoc "(other)" report)

let test_phases_sum_to_total () =
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let n = 4_000 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:1 n) in
  ignore (Core.Multi_select.select Tu.icmp v ~ranks:[| 1; n / 2; n |]);
  let total = Em.Stats.ios ctx.Em.Ctx.stats in
  let sum = List.fold_left (fun acc (_, ios) -> acc + ios) 0 (Em.Phase.report ctx) in
  Tu.check_int "phases partition the total" total sum

let test_nesting_full_path () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let v = Tu.int_vec ctx (Array.init 64 (fun i -> i)) in
  Em.Phase.with_label ctx "outer" (fun () ->
      Emalg.Scan.iter (fun _ -> ()) v;
      Em.Phase.with_label ctx "inner" (fun () -> Emalg.Scan.iter (fun _ -> ()) v));
  let report = Em.Phase.report ctx in
  Tu.check_int "outer keeps only its own I/Os" 4 (List.assoc "outer" report);
  Tu.check_int "nested I/Os key on the joined path" 4 (List.assoc "outer/inner" report);
  Tu.check_bool "no bare 'inner' key" true (not (List.mem_assoc "inner" report))

(* Regression: the same leaf label under two different parents must stay
   two separate report entries (innermost-label keying conflated them). *)
let test_shared_leaf_not_conflated () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let v = Tu.int_vec ctx (Array.init 64 (fun i -> i)) in
  Em.Phase.with_label ctx "sort" (fun () ->
      Em.Phase.with_label ctx "merge" (fun () -> Emalg.Scan.iter (fun _ -> ()) v));
  Em.Phase.with_label ctx "multiselect" (fun () ->
      Em.Phase.with_label ctx "merge" (fun () ->
          Emalg.Scan.iter (fun _ -> ()) v;
          Emalg.Scan.iter (fun _ -> ()) v));
  let report = Em.Phase.report ctx in
  Tu.check_int "merge under sort" 4 (List.assoc "sort/merge" report);
  Tu.check_int "merge under multiselect" 8 (List.assoc "multiselect/merge" report);
  Tu.check_bool "no conflated 'merge' key" true (not (List.mem_assoc "merge" report))

let test_label_restored_on_raise () =
  let ctx = Tu.ctx () in
  (match Em.Phase.with_label ctx "doomed" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected exception"
  | exception Failure _ -> ());
  Tu.check_bool "stack restored" true (ctx.Em.Ctx.stats.Em.Stats.phase_stack = [])

(* Phase.report against an independent count: every metered I/O emits one
   trace event carrying the phase stack, so keying the events on their
   joined path must reproduce the report exactly. *)
let traced_ctx ?(mem = 256) ?(block = 16) () =
  let trace = Em.Trace.create () in
  let sink, events = Em.Trace.collector () in
  Em.Trace.add_sink trace sink;
  let ctx : int Em.Ctx.t = Em.Ctx.create ~trace (Tu.params ~mem ~block ()) in
  (ctx, events)

let trace_counts events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Em.Trace.event) ->
      let path =
        match e.Em.Trace.phase with [] -> "(other)" | p -> String.concat "/" (List.rev p)
      in
      Hashtbl.replace tbl path (1 + Option.value ~default:0 (Hashtbl.find_opt tbl path)))
    (events ());
  List.sort compare (Hashtbl.fold (fun path n acc -> (path, n) :: acc) tbl [])

let check_against_trace what ctx events =
  Alcotest.(check (list (pair string int)))
    what (trace_counts events)
    (List.sort compare (Em.Phase.report ctx))

let test_report_matches_trace_grid () =
  let n = 4096 in
  List.iter
    (fun (mem, block) ->
      List.iter
        (fun kind ->
          let run name f =
            let ctx, events = traced_ctx ~mem ~block () in
            let v = Core.Workload.vec ctx kind ~seed:2014 ~n in
            f (Em.Ctx.counted ctx Tu.icmp) v;
            check_against_trace
              (Printf.sprintf "%s %s M=%d B=%d" name (Core.Workload.kind_name kind) mem block)
              ctx events;
            Em.Ctx.close ctx
          in
          List.iter
            (fun spec ->
              run "splitters" (fun cmp v -> ignore (Core.Splitters.solve cmp v spec));
              run "partitioning" (fun cmp v -> ignore (Core.Partitioning.solve cmp v spec)))
            [
              { Core.Problem.n; k = 16; a = 32; b = n };
              { Core.Problem.n; k = 16; a = 0; b = 512 };
              { Core.Problem.n; k = 8; a = 64; b = 1024 };
            ];
          run "multiselect" (fun cmp v ->
              ignore (Core.Multi_select.select cmp v ~ranks:[| 1; 100; 2048; 4095 |])))
        [ Core.Workload.Pi_hard; Core.Workload.Random_perm ])
    [ (256, 16); (1024, 32) ]

(* A report taken while spans are open counts their frames so far: sampled
   at every phase entry of a real run, and by hand two labels deep. *)
let test_report_inside_open_spans () =
  let ctx, events = traced_ctx ~mem:1024 () in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:3 4000) in
  let samples = ref 0 in
  Em.Stats.set_hooks ctx.Em.Ctx.stats
    (Some
       {
         Em.Stats.on_push =
           (fun stack ->
             incr samples;
             check_against_trace (String.concat "<" stack) ctx events);
         on_pop = ignore;
         on_mem = ignore;
       });
  ignore (Core.Multi_select.select Tu.icmp v ~ranks:[| 1; 2000; 4000 |]);
  Em.Stats.set_hooks ctx.Em.Ctx.stats None;
  Tu.check_bool "sampled inside spans" true (!samples > 1);
  Em.Phase.with_label ctx "outer" (fun () ->
      Emalg.Scan.iter ignore v;
      Em.Phase.with_label ctx "inner" (fun () ->
          Emalg.Scan.iter ignore v;
          check_against_trace "two labels deep" ctx events));
  check_against_trace "after" ctx events;
  Em.Ctx.close ctx

(* A seeded crash unwinds open phases mid-frame; the restart driver then
   resumes under its checkpoint labels. *)
let test_report_matches_trace_crash () =
  let ctx, events = traced_ctx () in
  Em.Ctx.arm ctx;
  Em.Ctx.inject ctx (Em.Fault.crash_at [ 150; 600 ]);
  let v = Tu.int_vec ctx (Tu.random_ints ~seed:24 ~bound:1_000 600) in
  let out = Emalg.Restart.sort Tu.icmp v in
  Tu.check_bool "restarted" true (out.Emalg.Restart.restarts > 0);
  Tu.check_bool "stack unwound" true (ctx.Em.Ctx.stats.Em.Stats.phase_stack = []);
  check_against_trace "crash-restart sort" ctx events;
  Em.Ctx.close ctx

(* A checkpointed online session, killed and restored from its store. *)
let test_report_matches_trace_session () =
  let module Os = Emalg.Online_select in
  let ctx, events = traced_ctx ~mem:1024 () in
  let n = 6_000 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:5 n) in
  let s = Os.open_session (Em.Ctx.counted ctx Tu.icmp) ctx v in
  Os.enable_checkpoints ~every_splits:2 s;
  List.iter (fun q -> ignore (Os.query s q)) [ Os.Select (n / 2); Os.Quantile 0.1; Os.Select 17 ];
  check_against_trace "before the kill" ctx events;
  let store = Option.get (Os.checkpoint_store s) in
  Em.Stats.wipe_memory ctx.Em.Ctx.stats;
  let s = Os.restore ~every_splits:2 (Em.Ctx.counted ctx Tu.icmp) ctx v store in
  List.iter (fun q -> ignore (Os.query s q)) [ Os.Select ((n / 2) + 3); Os.Range (40, 50) ];
  Tu.check_bool "checkpoint I/Os seen" true
    (List.exists (fun (p, _) -> p = "checkpoint" || p = "resume") (Em.Phase.report ctx));
  check_against_trace "after the restore" ctx events;
  Em.Ctx.close ctx

(* Metered I/O does no phase-path string work: a scan allocates no more
   words per I/O under 16 nested labels than under one. *)
let words_per_io depth =
  let ctx : int Em.Ctx.t =
    Em.Ctx.create ~backend:Em.Backend.Sim ~async:false (Tu.params ~mem:4096 ~block:64 ())
  in
  let v = Tu.int_vec ctx (Array.init (1 lsl 16) Fun.id) in
  let labels = List.init depth (Printf.sprintf "label-%d") in
  (* This domain's own minor allocation, exact at any point: the
     [Gc.quick_stat] totals lag a collection behind and include other
     domains, such as an async I/O pool's workers. *)
  let allocated () = Gc.minor_words () in
  let rec nested = function
    | [] ->
        let ios = Em.Stats.ios ctx.Em.Ctx.stats and before = allocated () in
        Emalg.Scan.iter ignore v;
        let words = allocated () -. before in
        words /. float_of_int (Em.Stats.ios ctx.Em.Ctx.stats - ios)
    | l :: rest -> Em.Phase.with_label ctx l (fun () -> nested rest)
  in
  let w = nested labels in
  Em.Ctx.close ctx;
  w

let test_io_alloc_flat_in_depth () =
  let shallow = words_per_io 1 and deep = words_per_io 16 in
  if deep > shallow then
    Alcotest.failf "%.2f words per I/O under 16 labels, %.2f under 1" deep shallow

let suite =
  [
    Alcotest.test_case "labels attribute I/Os" `Quick test_labels_attribute_ios;
    Alcotest.test_case "phases sum to total" `Quick test_phases_sum_to_total;
    Alcotest.test_case "nesting: full-path keys" `Quick test_nesting_full_path;
    Alcotest.test_case "shared leaf label not conflated" `Quick test_shared_leaf_not_conflated;
    Alcotest.test_case "label restored on raise" `Quick test_label_restored_on_raise;
    Alcotest.test_case "report = trace counts: golden grid" `Quick
      test_report_matches_trace_grid;
    Alcotest.test_case "report = trace counts: inside open spans" `Quick
      test_report_inside_open_spans;
    Alcotest.test_case "report = trace counts: crash restart" `Quick
      test_report_matches_trace_crash;
    Alcotest.test_case "report = trace counts: checkpointed session" `Quick
      test_report_matches_trace_session;
    Alcotest.test_case "I/O allocation flat in phase depth" `Quick test_io_alloc_flat_in_depth;
  ]
