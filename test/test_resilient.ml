(* Recovery semantics: retry, checksum verification, quarantine + remap, and
   the metering of it all (faulted attempts and retries are real I/Os). *)

let armed_ctx ?policy () =
  let ctx = Tu.ctx () in
  Em.Ctx.arm ?policy ctx;
  ctx

(* Write a block through the device, then read it back through Resilient. *)
let write_block ctx payload =
  let dev = ctx.Em.Ctx.dev in
  let id = Em.Device.alloc dev in
  Em.Resilient.write dev id payload;
  id

let test_unarmed_fault_escapes () =
  let ctx = Tu.ctx () in
  let dev = ctx.Em.Ctx.dev in
  let id = Em.Device.alloc dev in
  Em.Device.write dev id [| 1; 2; 3 |];
  Em.Ctx.inject ctx (Em.Fault.every_nth ~n:1 Em.Fault.Transient_read);
  (match Em.Resilient.read dev id with
  | _ -> Alcotest.fail "expected raw Io_fault"
  | exception Em.Em_error.Error (Em.Em_error.Io_fault { op = `Read; kind; block }) ->
      Tu.check_bool "kind" true (kind = Em.Fault.Transient_read);
      Tu.check_int "block" id block
  | exception e -> raise e);
  Tu.check_int "faulted attempt still metered" 1 ctx.Em.Ctx.stats.Em.Stats.reads

let test_transient_read_recovers () =
  let ctx = armed_ctx () in
  let dev = ctx.Em.Ctx.dev in
  let id = write_block ctx [| 10; 20; 30 |] in
  (* Fault the first read attempt only. *)
  Em.Ctx.inject ctx (Em.Fault.limit 1 (Em.Fault.every_nth ~n:1 Em.Fault.Transient_read));
  Tu.check_int_array "recovered payload" [| 10; 20; 30 |] (Em.Resilient.read dev id);
  Tu.check_int "two read attempts metered" 2 ctx.Em.Ctx.stats.Em.Stats.reads;
  Tu.check_int "one fault" 1 ctx.Em.Ctx.stats.Em.Stats.faults;
  Tu.check_int "one retry" 1 ctx.Em.Ctx.stats.Em.Stats.retries;
  match Em.Ctx.fault_report ctx with
  | None -> Alcotest.fail "armed device must report"
  | Some r -> Tu.check_int "recovered op counted" 1 r.Em.Device.counters.Em.Device.recovered

let test_retry_exhaustion () =
  let ctx = armed_ctx ~policy:{ Em.Device.default_policy with max_retries = 2 } () in
  let dev = ctx.Em.Ctx.dev in
  let id = write_block ctx [| 1 |] in
  Em.Ctx.inject ctx (Em.Fault.every_nth ~n:1 Em.Fault.Transient_read);
  (match Em.Resilient.read dev id with
  | _ -> Alcotest.fail "expected Read_failed"
  | exception Em.Em_error.Error (Em.Em_error.Read_failed { block; attempts }) ->
      Tu.check_int "failed block" id block;
      Tu.check_int "budget exhausted" 3 attempts);
  Tu.check_int "all attempts metered" 3 ctx.Em.Ctx.stats.Em.Stats.reads

let test_permanent_read_fails_fast () =
  let ctx = armed_ctx () in
  let dev = ctx.Em.Ctx.dev in
  let id = write_block ctx [| 5; 6 |] in
  Em.Ctx.inject ctx (Em.Fault.limit 1 (Em.Fault.every_nth ~n:1 Em.Fault.Permanent_read));
  (match Em.Resilient.read dev id with
  | _ -> Alcotest.fail "expected Read_failed"
  | exception Em.Em_error.Error (Em.Em_error.Read_failed { attempts; _ }) ->
      Tu.check_int "no pointless retries of a dead block" 1 attempts);
  (* The fault is sticky: later reads fail too, even with the plan spent. *)
  match Em.Resilient.read dev id with
  | _ -> Alcotest.fail "expected sticky failure"
  | exception Em.Em_error.Error (Em.Em_error.Read_failed _) -> ()

let test_bit_corruption_on_read_recovers () =
  let ctx = armed_ctx () in
  let dev = ctx.Em.Ctx.dev in
  let id = write_block ctx [| 1; 2; 3; 4 |] in
  Em.Ctx.inject ctx (Em.Fault.limit 1 (Em.Fault.every_nth ~n:1 Em.Fault.Bit_corruption));
  (* The store stays intact, so verify-on-read catches the garbled copy and
     the metered re-read returns clean data. *)
  Tu.check_int_array "verified payload" [| 1; 2; 3; 4 |] (Em.Resilient.read dev id);
  Tu.check_int "retry happened" 1 ctx.Em.Ctx.stats.Em.Stats.retries;
  match Em.Ctx.fault_report ctx with
  | None -> assert false
  | Some r ->
      Tu.check_int "checksum failure recorded" 1
        r.Em.Device.counters.Em.Device.checksum_failures

let test_torn_write_detected_on_read () =
  let ctx = armed_ctx () in
  let dev = ctx.Em.Ctx.dev in
  Em.Ctx.inject ctx (Em.Fault.limit 1 (Em.Fault.every_nth ~n:1 Em.Fault.Torn_write));
  let id = write_block ctx [| 1; 2; 3; 4; 5; 6 |] in
  (* The tear was silent (no verify_writes in the default policy), but the
     stored data is durably short, so every verified read attempt fails. *)
  match Em.Resilient.read dev id with
  | _ -> Alcotest.fail "expected Corrupt_block"
  | exception Em.Em_error.Error (Em.Em_error.Corrupt_block { block; attempts }) ->
      Tu.check_int "corrupt block" id block;
      Tu.check_bool "used the whole budget" true (attempts >= 1)

let test_verify_writes_catches_tear () =
  let policy = { Em.Device.default_policy with verify_writes = true } in
  let ctx = armed_ctx ~policy () in
  let dev = ctx.Em.Ctx.dev in
  Em.Ctx.inject ctx (Em.Fault.limit 1 (Em.Fault.every_nth ~n:1 Em.Fault.Torn_write));
  let id = write_block ctx [| 1; 2; 3; 4; 5; 6 |] in
  (* Read-back verification caught the tear at write time and rewrote. *)
  Tu.check_int_array "output correct on disk" [| 1; 2; 3; 4; 5; 6 |]
    (Em.Device.Oracle.read dev id);
  Tu.check_bool "tear cost retries" true (ctx.Em.Ctx.stats.Em.Stats.retries >= 1)

let test_permanent_write_remaps () =
  let ctx = armed_ctx () in
  let dev = ctx.Em.Ctx.dev in
  Em.Ctx.inject ctx (Em.Fault.limit 1 (Em.Fault.every_nth ~n:1 Em.Fault.Permanent_write));
  let id = write_block ctx [| 7; 8; 9 |] in
  (* The write succeeded on a remapped healthy slot. *)
  Tu.check_int_array "payload readable through remap" [| 7; 8; 9 |] (Em.Resilient.read dev id);
  Tu.check_int_array "oracle follows the remap too" [| 7; 8; 9 |]
    (Em.Device.Oracle.read dev id);
  (match Em.Ctx.fault_report ctx with
  | None -> assert false
  | Some r ->
      Tu.check_int "one quarantined slot" 1 r.Em.Device.counters.Em.Device.quarantined;
      Tu.check_int "one remap" 1 r.Em.Device.counters.Em.Device.remapped);
  Tu.check_int "quarantine listed" 1 (List.length (Em.Device.quarantined_blocks dev));
  (* Freeing the remapped block retires the logical id and recycles only the
     healthy slot; the quarantined one never re-enters circulation. *)
  Em.Device.free dev id;
  Tu.check_int "no live blocks" 0 (Em.Device.live_blocks dev);
  let fresh = Em.Device.alloc dev in
  let quarantined = List.map fst (Em.Device.quarantined_blocks dev) in
  Tu.check_bool "quarantined slot not recycled" false (List.mem fresh quarantined)

let test_trace_records_faults_and_retries () =
  let ctx = armed_ctx () in
  let dev = ctx.Em.Ctx.dev in
  let id = write_block ctx [| 1; 2 |] in
  Em.Ctx.inject ctx (Em.Fault.limit 1 (Em.Fault.every_nth ~n:1 Em.Fault.Transient_read));
  Em.Trace.add_sink ctx.Em.Ctx.trace (Em.Trace.ring_sink ~capacity:64);
  Em.Phase.with_label ctx "probe" (fun () -> ignore (Em.Resilient.read dev id));
  let events = Em.Trace.events ctx.Em.Ctx.trace in
  let faulted =
    List.filter (fun e -> match e.Em.Trace.kind with Em.Trace.Faulted _ -> true | _ -> false)
      events
  in
  let retried = List.filter (fun e -> e.Em.Trace.kind = Em.Trace.Retry) events in
  Tu.check_int "one faulted event in ring" 1 (List.length faulted);
  Tu.check_int "one retry event in ring" 1 (List.length retried);
  (match faulted with
  | [ e ] ->
      Tu.check_bool "fault kind on event" true (e.Em.Trace.kind = Em.Trace.Faulted Em.Fault.Transient_read);
      Tu.check_bool "phase path on faulted event" true (e.Em.Trace.phase = [ "probe" ])
  | _ -> assert false);
  match retried with
  | [ e ] -> Tu.check_bool "phase path on retry event" true (e.Em.Trace.phase = [ "probe" ])
  | _ -> assert false

let test_measured_delta_includes_retries () =
  let ctx = armed_ctx () in
  let dev = ctx.Em.Ctx.dev in
  let id = write_block ctx [| 3; 1; 4 |] in
  Em.Ctx.inject ctx (Em.Fault.limit 2 (Em.Fault.every_nth ~n:1 Em.Fault.Transient_read));
  let payload, d = Em.Ctx.measured ctx (fun () -> Em.Resilient.read dev id) in
  Tu.check_int_array "payload" [| 3; 1; 4 |] payload;
  Tu.check_int "delta counts every attempt" 3 d.Em.Stats.d_reads;
  Tu.check_int "delta faults" 2 d.Em.Stats.d_faults;
  Tu.check_int "delta retries" 2 d.Em.Stats.d_retries

let test_trace_report_overhead () =
  let ctx = armed_ctx () in
  let dev = ctx.Em.Ctx.dev in
  let id = write_block ctx [| 1 |] in
  Em.Ctx.inject ctx (Em.Fault.limit 1 (Em.Fault.every_nth ~n:1 Em.Fault.Transient_read));
  Em.Trace.add_sink ctx.Em.Ctx.trace (Em.Trace.ring_sink ~capacity:64);
  Em.Phase.with_label ctx "probe" (fun () -> ignore (Em.Resilient.read dev id));
  let totals = Em.Trace_report.subtotal (Em.Trace_report.tree (Em.Trace.events ctx.Em.Ctx.trace)) in
  Tu.check_int "report sees fault" 1 totals.Em.Trace_report.faults;
  Tu.check_int "report sees retry" 1 totals.Em.Trace_report.retries;
  Tu.check_int "overhead = faults + retries" 2 (Em.Trace_report.overhead totals)

let test_linked_ctx_shares_plan_and_counters () =
  let ctx = armed_ctx () in
  Em.Ctx.inject ctx (Em.Fault.limit 1 (Em.Fault.every_nth ~n:1 Em.Fault.Transient_write));
  let pair_ctx : (int * int) Em.Ctx.t = Em.Ctx.linked ctx in
  let dev = pair_ctx.Em.Ctx.dev in
  let id = Em.Device.alloc dev in
  (* The linked device consults the same plan, and its recovery feeds the
     same counters. *)
  Em.Resilient.write dev id [| (1, 2) |];
  Tu.check_int "fault seen through linked device" 1 ctx.Em.Ctx.stats.Em.Stats.faults;
  match Em.Ctx.fault_report ctx with
  | None -> assert false
  | Some r -> Tu.check_int "shared recovered counter" 1 r.Em.Device.counters.Em.Device.recovered

let suite =
  [
    Alcotest.test_case "unarmed: fault escapes raw, still metered" `Quick
      test_unarmed_fault_escapes;
    Alcotest.test_case "transient read recovers" `Quick test_transient_read_recovers;
    Alcotest.test_case "retry exhaustion is typed" `Quick test_retry_exhaustion;
    Alcotest.test_case "permanent read fails fast and sticks" `Quick
      test_permanent_read_fails_fast;
    Alcotest.test_case "bit corruption on read recovers" `Quick
      test_bit_corruption_on_read_recovers;
    Alcotest.test_case "torn write detected on read" `Quick test_torn_write_detected_on_read;
    Alcotest.test_case "verify_writes catches tears at write time" `Quick
      test_verify_writes_catches_tear;
    Alcotest.test_case "permanent write quarantines and remaps" `Quick
      test_permanent_write_remaps;
    Alcotest.test_case "trace records faults and retries with phases" `Quick
      test_trace_records_faults_and_retries;
    Alcotest.test_case "measured delta includes retry I/Os" `Quick
      test_measured_delta_includes_retries;
    Alcotest.test_case "trace report shows fault overhead" `Quick test_trace_report_overhead;
    Alcotest.test_case "linked ctx shares plan and counters" `Quick
      test_linked_ctx_shares_plan_and_counters;
  ]
