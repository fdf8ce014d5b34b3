(* The chaos soak harness (Core.Soak): property-tested over random
   geometry/seed/kill schedules — the restored session's answers always
   equal the crash-free oracle's, total I/Os stay within the k-crash
   overhead bound, and the memory ledger holds through every recovery. *)

let soak_prop (n, seed, queries, kills) =
  let cfg =
    {
      (Core.Soak.default ~n ~queries) with
      Core.Soak.seed;
      crash_after = Core.Soak.spread_crashes ~queries ~k:kills;
    }
  in
  let o = Core.Soak.run cfg in
  if not o.Core.Soak.answers_match then
    QCheck2.Test.fail_reportf "answers diverged from the oracle (n=%d seed=%d kills=%d)" n
      seed kills;
  if not o.Core.Soak.within_bound then
    QCheck2.Test.fail_reportf "chaos %d I/Os > allowed %d (n=%d seed=%d crashes=%d)"
      o.Core.Soak.chaos_ios o.Core.Soak.allowed_ios n seed o.Core.Soak.crashes;
  if not o.Core.Soak.mem_ok then
    QCheck2.Test.fail_reportf "memory ledger breached M (n=%d seed=%d)" n seed;
  o.Core.Soak.crashes = List.length cfg.Core.Soak.crash_after

let gen =
  QCheck2.Gen.(
    quad (int_range 4_096 12_000) (int_range 0 1_000) (int_range 16 48) (int_range 1 3))

(* Fixed deep cases pinning the corners the generator visits rarely. *)

let test_faulted_soak () =
  let queries = 32 in
  let cfg =
    {
      (Core.Soak.default ~n:8_192 ~queries) with
      Core.Soak.crash_after = Core.Soak.spread_crashes ~queries ~k:2;
      fault_p = 1.0 /. 256.0;
      fault_seed = 11;
    }
  in
  let o = Core.Soak.run cfg in
  Tu.check_bool "answers match under transient faults + kills" true o.Core.Soak.answers_match;
  Tu.check_bool "bound holds under transient faults" true o.Core.Soak.within_bound;
  Tu.check_bool "memory ledger holds" true o.Core.Soak.mem_ok;
  Tu.check_int "both kills happened" 2 o.Core.Soak.crashes

let test_cached_backend_soak () =
  let queries = 32 in
  let cfg =
    {
      (Core.Soak.default ~n:8_192 ~queries) with
      Core.Soak.backend = Some (Em.Backend.Cached Em.Backend.Sim);
      crash_after = Core.Soak.spread_crashes ~queries ~k:3;
    }
  in
  let o = Core.Soak.run cfg in
  Tu.check_bool "answers match through pool wipes" true o.Core.Soak.answers_match;
  Tu.check_bool "bound holds on the cached backend" true o.Core.Soak.within_bound;
  Tu.check_int "all kills happened" 3 o.Core.Soak.crashes

let test_crash_log_accounting () =
  let queries = 24 in
  let crash_after = [ 5; 6; 20 ] in
  let cfg = { (Core.Soak.default ~n:6_000 ~queries) with Core.Soak.crash_after } in
  let seen = ref [] in
  let o = Core.Soak.run ~on_crash:(fun r -> seen := r.Core.Soak.after_query :: !seen) cfg in
  Tu.check_bool "on_crash observed the schedule in order" true (List.rev !seen = crash_after);
  Tu.check_bool "crash log mirrors the schedule" true
    (List.map (fun r -> r.Core.Soak.after_query) o.Core.Soak.crash_log = crash_after);
  Tu.check_bool "every restore paid a metered resume read" true
    (List.for_all (fun r -> r.Core.Soak.resume_load_ios >= 1) o.Core.Soak.crash_log);
  Tu.check_int "loads counted per crash" 3 o.Core.Soak.loads;
  (* The end-of-query checkpoint policy means kills between queries redo no
     refinement: the chaos run pays exactly its resume loads on top of the
     oracle. *)
  Tu.check_int "chaos = oracle + resume loads, nothing redone"
    (o.Core.Soak.oracle_ios + o.Core.Soak.load_ios)
    o.Core.Soak.chaos_ios

let test_spread_crashes () =
  Tu.check_bool "spread never schedules after the last query" true
    (List.for_all
       (fun k ->
         List.for_all
           (fun q -> q >= 1 && q < 40)
           (Core.Soak.spread_crashes ~queries:40 ~k))
       [ 1; 2; 3; 7 ]);
  Tu.check_int "k crashes scheduled" 3
    (List.length (Core.Soak.spread_crashes ~queries:40 ~k:3));
  Tu.check_int "degenerate stream gets none" 0
    (List.length (Core.Soak.spread_crashes ~queries:1 ~k:2))

(* A kill's post-mortem carries the trace events of the query the kill
   followed: soak attaches the ring its flight recorder slices only when it
   has a flight dir, so this covers that ring end to end. *)
let test_kill_postmortem_trace () =
  let module J = Em.Telemetry.Json in
  let dir = Filename.temp_file "em-soak-flight-" "" in
  Sys.remove dir;
  let queries = 8 and kill = 3 in
  let cfg =
    {
      (Core.Soak.default ~n:6_000 ~queries) with
      Core.Soak.crash_after = [ kill ];
      flight_dir = Some dir;
    }
  in
  let o = Core.Soak.run cfg in
  let path =
    match o.Core.Soak.flight_dumps with
    | [ p ] -> p
    | ps -> Alcotest.failf "expected one post-mortem, got %d" (List.length ps)
  in
  let v =
    match J.parse (String.trim (In_channel.with_open_text path In_channel.input_all)) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "post-mortem is not JSON: %s" msg
  in
  Sys.remove path;
  Sys.rmdir dir;
  let get keys = J.path ("postmortem" :: keys) v in
  let record =
    match get [ "queries" ] with
    | Some (J.List qs) -> (
        match
          List.find_opt (fun q -> Option.bind (J.member "id" q) J.num = Some (float kill)) qs
        with
        | Some q -> q
        | None -> Alcotest.fail "the killed-after query has no record")
    | _ -> Alcotest.fail "queries must be a list"
  in
  let lo, hi =
    match
      ( Option.bind (J.path [ "trace"; "lo" ] record) J.num,
        Option.bind (J.path [ "trace"; "hi" ] record) J.num )
    with
    | Some lo, Some hi -> (lo, hi)
    | _ -> Alcotest.fail "record must carry its trace window"
  in
  Tu.check_bool "the query did I/O" true (hi > lo);
  match get [ "trace_events" ] with
  | Some (J.List evs) ->
      let seqs = List.filter_map (fun e -> Option.bind (J.member "seq" e) J.num) evs in
      Tu.check_bool "post-mortem holds the query's trace events" true
        (List.exists (fun s -> s >= lo && s < hi) seqs)
  | _ -> Alcotest.fail "trace_events must be a list"

let suite =
  [
    Tu.qcheck_case ~count:12 "soak survives random kill schedules" gen soak_prop;
    Alcotest.test_case "soak under transient faults" `Quick test_faulted_soak;
    Alcotest.test_case "soak on the cached backend" `Quick test_cached_backend_soak;
    Alcotest.test_case "crash log accounting" `Quick test_crash_log_accounting;
    Alcotest.test_case "spread_crashes shape" `Quick test_spread_crashes;
    Alcotest.test_case "kill post-mortem carries trace events" `Quick
      test_kill_postmortem_trace;
  ]
