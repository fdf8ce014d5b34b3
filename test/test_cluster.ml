(* Core.Cluster: P machines, one metered interconnect.

   The load-bearing invariant, checked from several directions: sharding
   changes *communication* (comm rounds and words), never *work* — driver
   outputs are identical at P = 1 and P = k for every P, total counted
   work stays within a constant factor, and the communication ledger obeys
   the same telescoping window discipline as I/O rounds. *)

open QCheck2

let mk ?backend ?(shards = 1) () : int Core.Cluster.t =
  Core.Cluster.create ?backend ~shards (Tu.params ())

let concat_parts parts =
  Array.concat (Array.to_list (Array.map Em.Vec.Oracle.to_array parts))

let input_gen =
  let open Gen in
  let* n = int_range 10 2_000 in
  let* seed = int_range 0 1_000_000 in
  let* kind_idx = int_range 0 (List.length Core.Workload.all_kinds - 1) in
  let kind = List.nth Core.Workload.all_kinds kind_idx in
  return (n, seed, kind)

let gen_array (n, seed, kind) = Core.Workload.generate kind ~seed ~n ~block:16

(* ---- the communication ledger itself ---- *)

let test_comm_ledger () =
  let s = Em.Stats.create () in
  (* Outside any superstep each transfer is its own round. *)
  Em.Stats.record_comm s ~src:0 ~dst:1 ~words:10;
  Em.Stats.record_comm s ~src:1 ~dst:0 ~words:5;
  Tu.check_int "bare transfers each cost a round" 2 s.Em.Stats.comm_rounds;
  Tu.check_int "words accumulate" 15 s.Em.Stats.comm_words;
  (* Diagonal and empty transfers are free. *)
  Em.Stats.record_comm s ~src:2 ~dst:2 ~words:100;
  Em.Stats.record_comm s ~src:0 ~dst:1 ~words:0;
  Tu.check_int "diagonal/empty billed nothing" 2 s.Em.Stats.comm_rounds;
  Tu.check_int "diagonal/empty moved nothing" 15 s.Em.Stats.comm_words;
  (* A superstep merges its transfers into one round... *)
  Em.Stats.with_comm_round s (fun () ->
      Em.Stats.record_comm s ~src:0 ~dst:1 ~words:1;
      Em.Stats.record_comm s ~src:1 ~dst:2 ~words:1;
      Em.Stats.record_comm s ~src:2 ~dst:0 ~words:1);
  Tu.check_int "superstep = one round" 3 s.Em.Stats.comm_rounds;
  (* ...nested supersteps telescope into the outermost... *)
  Em.Stats.with_comm_round s (fun () ->
      Em.Stats.with_comm_round s (fun () ->
          Em.Stats.record_comm s ~src:0 ~dst:1 ~words:1);
      Em.Stats.with_comm_round s (fun () ->
          Em.Stats.record_comm s ~src:1 ~dst:0 ~words:1));
  Tu.check_int "nested supersteps telescope" 4 s.Em.Stats.comm_rounds;
  (* ...and an empty superstep charges nothing at all. *)
  Em.Stats.with_comm_round s (fun () -> ());
  Tu.check_int "empty superstep is free" 4 s.Em.Stats.comm_rounds;
  Tu.check_int "words never depend on supersteps" 20 s.Em.Stats.comm_words;
  (* Per-shard send/recv tallies. *)
  Tu.check_bool "sent report covers shard 0" true
    (List.mem_assoc 0 (Em.Stats.sent_report s));
  Tu.check_bool "recv report covers shard 2" true
    (List.mem_assoc 2 (Em.Stats.recv_report s))

let test_comm_snapshot_mid_window () =
  let s = Em.Stats.create () in
  Em.Stats.with_comm_round s (fun () ->
      Em.Stats.record_comm s ~src:0 ~dst:1 ~words:4;
      (* A snapshot taken mid-superstep must already see the pending
         round, exactly like {!Stats.rounds} sees an open I/O window. *)
      let snap = Em.Stats.snapshot s in
      Tu.check_int "pending round visible in snapshot" 1
        snap.Em.Stats.at_comm_rounds;
      Tu.check_int "pending words visible in snapshot" 4
        snap.Em.Stats.at_comm_words);
  let snap = Em.Stats.snapshot s in
  Tu.check_int "closed superstep settles to one round" 1
    snap.Em.Stats.at_comm_rounds

(* ---- placement and collectives ---- *)

let test_place_striping () =
  let t = mk ~shards:4 () in
  let a = Tu.random_perm ~seed:7 103 in
  let parts = Core.Cluster.place t a in
  let lens = Array.map Em.Vec.length parts in
  let mn = Array.fold_left min max_int lens
  and mx = Array.fold_left max 0 lens in
  Tu.check_bool "striping balanced to one element" true (mx - mn <= 1);
  Tu.check_int_array "striping reassembles the input" a (concat_parts parts);
  Tu.check_int "placement is not communication" 0
    (Core.Cluster.comm t).Em.Stats.comm_words;
  Core.Cluster.close t

let test_all_to_all () =
  let p = 3 in
  let t = mk ~shards:p () in
  let chunk i j = Array.init (i + (2 * j) + 1) (fun x -> (100 * i) + (10 * j) + x) in
  let chunks =
    Array.init p (fun i ->
        Array.init p (fun j -> Em.Vec.of_array (Core.Cluster.ctx t i) (chunk i j)))
  in
  let received = Core.Cluster.all_to_all t chunks in
  for i = 0 to p - 1 do
    for j = 0 to p - 1 do
      Tu.check_int_array
        (Printf.sprintf "chunk %d->%d delivered" i j)
        (chunk i j)
        (Em.Vec.Oracle.to_array received.(j).(i))
    done
  done;
  let off_diag = ref 0 in
  for i = 0 to p - 1 do
    for j = 0 to p - 1 do
      if i <> j then off_diag := !off_diag + Array.length (chunk i j)
    done
  done;
  let c = Core.Cluster.comm t in
  Tu.check_int "all_to_all bills off-diagonal words exactly" !off_diag
    c.Em.Stats.comm_words;
  Tu.check_int "all_to_all is one superstep" 1 c.Em.Stats.comm_rounds;
  Core.Cluster.close t

let test_broadcast_scatter_gather () =
  let p = 4 in
  let t = mk ~shards:p () in
  let a = Tu.random_perm ~seed:3 57 in
  let v = Em.Vec.of_array (Core.Cluster.ctx t 1) a in
  let copies = Core.Cluster.broadcast t ~root:1 v in
  Array.iter
    (fun c -> Tu.check_int_array "broadcast copy" a (Em.Vec.Oracle.to_array c))
    copies;
  Tu.check_bool "broadcast slot root is the original" true (copies.(1) == v);
  let c = Core.Cluster.comm t in
  Tu.check_int "broadcast words = (P-1) * n" ((p - 1) * Array.length a)
    c.Em.Stats.comm_words;
  Tu.check_int "broadcast is one superstep" 1 c.Em.Stats.comm_rounds;
  (* Scatter then gather puts the whole vector back on every shard. *)
  let pieces = Core.Cluster.scatter t ~root:1 v in
  let gathered = Core.Cluster.all_gather t pieces in
  Array.iter
    (fun g -> Tu.check_int_array "scatter|gather round-trip" a (Em.Vec.Oracle.to_array g))
    gathered;
  Tu.check_int "three supersteps total" 3 c.Em.Stats.comm_rounds;
  (* Nesting collectives under one superstep telescopes the rounds. *)
  Core.Cluster.superstep t (fun () ->
      ignore (Core.Cluster.broadcast t ~root:0 pieces.(0));
      ignore (Core.Cluster.all_gather t pieces));
  Tu.check_int "collectives telescope under an outer superstep" 4
    c.Em.Stats.comm_rounds;
  Core.Cluster.close t

(* ---- the invariant: shards change communication, never work ---- *)

let run_driver ~shards ~backend algo a =
  let t = mk ~backend ~shards () in
  let parts = Core.Cluster.place t a in
  let out, ag =
    match algo with
    | `Sort ->
        let sorted, ag = Core.Cluster.sort Tu.icmp t parts in
        (concat_parts sorted, ag)
    | `Partition k ->
        let outs, ag = Core.Cluster.partition Tu.icmp t parts ~k in
        (concat_parts outs, ag)
    | `Multiselect ranks ->
        let values, ag = Core.Cluster.multiselect Tu.icmp t parts ~ranks in
        (values, Some ag)
    | `Splitters k ->
        let ag = Core.Cluster.splitters Tu.icmp t parts ~k in
        (ag.Core.Cluster.values, Some ag)
  in
  let reads, writes, cmps = Core.Cluster.totals t in
  let comm = Core.Cluster.comm t in
  let rounds = Em.Stats.effective_comm_rounds comm
  and words = comm.Em.Stats.comm_words in
  Core.Cluster.close t;
  (out, reads + writes + cmps, rounds, words, ag)

let algo_of ~n ~seed =
  let r = Tu.rng seed in
  match Tu.next_int r 4 with
  | 0 -> `Sort
  | 1 -> `Partition (1 + Tu.next_int r (min n 12))
  | 2 ->
      let nr = 1 + Tu.next_int r (min n 8) in
      let set = Hashtbl.create nr in
      while Hashtbl.length set < nr do
        Hashtbl.replace set (1 + Tu.next_int r n) ()
      done;
      let ranks = Array.of_list (Hashtbl.fold (fun k () acc -> k :: acc) set []) in
      Array.sort Tu.icmp ranks;
      `Multiselect ranks
  | _ -> `Splitters (2 + Tu.next_int r (min n 10))

let prop_shards_never_change_work =
  let gen =
    let open Gen in
    let* inp = input_gen in
    let* algo_seed = int_range 0 1_000_000 in
    return (inp, algo_seed)
  in
  Tu.qcheck_case ~count:40 "outputs P-invariant, work bounded" gen
    (fun (inp, algo_seed) ->
      let n, _, _ = inp in
      let a = gen_array inp in
      let algo = algo_of ~n ~seed:algo_seed in
      let reference, work1, rounds1, words1, _ =
        run_driver ~shards:1 ~backend:Em.Backend.Sim algo a
      in
      if rounds1 <> 0 || words1 <> 0 then
        Test.fail_report "a single machine must not communicate";
      List.for_all
        (fun shards ->
          let out, work, rounds, _, ag =
            run_driver ~shards ~backend:Em.Backend.Sim algo a
          in
          if out <> reference then
            Test.fail_report (Printf.sprintf "output differs at P=%d" shards);
          (match ag with
          | None -> ()
          | Some ag ->
              (* Every agreement must stay inside its deterministic HSS
                 budgets: iterations, drawn samples, and comm rounds. *)
              let boundaries = max 1 (Array.length ag.Core.Cluster.targets) in
              let sample_budget =
                Core.Bounds.hss_sample_upper ~shards ~boundaries
                  ~rounds:ag.Core.Cluster.rounds_budget
                  ~per_round:ag.Core.Cluster.per_round
              in
              if ag.Core.Cluster.iterations > ag.Core.Cluster.rounds_budget then
                Test.fail_report "iteration budget exceeded";
              if float_of_int ag.Core.Cluster.samples > sample_budget then
                Test.fail_report
                  (Printf.sprintf "sample budget exceeded at P=%d: %d > %.0f"
                     shards ag.Core.Cluster.samples sample_budget);
              if
                float_of_int rounds
                > Core.Bounds.hss_comm_rounds_upper
                    ~rounds:ag.Core.Cluster.rounds_budget
                  +. 1.
              then
                Test.fail_report
                  (Printf.sprintf "comm rounds beyond 2r+2 at P=%d: %d" shards
                     rounds));
          (* Work may grow by the agreement overhead — histogram queries
             cost every shard up to two block reads and two binary searches
             per drawn sample, and the exact finish sorts what it gathers —
             but must stay within a constant factor of the single-machine
             run plus that budgeted overhead. *)
          let log2n =
            int_of_float (ceil (log (float_of_int (n + 2)) /. log 2.))
          in
          let overhead =
            match ag with
            | None -> 0
            | Some ag ->
                (ag.Core.Cluster.samples + ag.Core.Cluster.gathered + 64)
                * shards
                * ((4 * 16) + (4 * log2n))
          in
          if work > (8 * work1) + overhead + 4096 then
            Test.fail_report
              (Printf.sprintf "work blow-up at P=%d: %d vs %d (overhead %d)"
                 shards work work1 overhead);
          true)
        [ 2; 4; 8 ])

let test_backend_matrix () =
  let a = gen_array (500, 42, Core.Workload.Few_distinct 5) in
  let reference, _, _, _, _ = run_driver ~shards:1 ~backend:Em.Backend.Sim `Sort a in
  List.iter
    (fun backend ->
      let out, _, _, _, _ = run_driver ~shards:4 ~backend `Sort a in
      Tu.check_int_array "sharded sort P-invariant on every backend" reference out)
    [ Em.Backend.Sim; Em.Backend.File; Em.Backend.Cached Em.Backend.Sim ]

(* ---- agreement: budgets and balance ---- *)

let test_agreement_budgets () =
  let p = 4 in
  let t = mk ~shards:p () in
  let n = 4096 in
  let a = Tu.random_perm ~seed:11 n in
  let parts = Core.Cluster.place t a in
  let ag = Core.Cluster.splitters Tu.icmp t parts ~k:8 in
  Tu.check_bool "iterations within budget" true
    (ag.Core.Cluster.iterations <= ag.Core.Cluster.rounds_budget);
  let sample_budget =
    Core.Bounds.hss_sample_upper ~shards:p ~boundaries:7
      ~rounds:ag.Core.Cluster.rounds_budget ~per_round:ag.Core.Cluster.per_round
  in
  Tu.check_bool "samples within the HSS budget" true
    (float_of_int ag.Core.Cluster.samples <= sample_budget);
  let rounds_budget =
    Core.Bounds.hss_comm_rounds_upper ~rounds:ag.Core.Cluster.rounds_budget
  in
  let measured = Em.Stats.effective_comm_rounds (Core.Cluster.comm t) in
  Tu.check_bool "comm rounds within 2r+2" true
    (float_of_int measured <= rounds_budget);
  (* Exact agreement on a permutation pins every boundary rank. *)
  Array.iteri
    (fun j tgt -> Tu.check_int "exact quantile rank" tgt ag.Core.Cluster.ranks.(j))
    ag.Core.Cluster.targets;
  Core.Cluster.close t

let prop_eps_balance =
  let gen =
    let open Gen in
    let* n = int_range 64 4_000 in
    let* seed = int_range 0 1_000_000 in
    let* k = int_range 2 16 in
    let* p_idx = int_range 0 2 in
    return (n, seed, k, [| 2; 4; 8 |].(p_idx))
  in
  Tu.qcheck_case ~count:40 "eps-splitters are (1+eps)-balanced" gen
    (fun (n, seed, k, shards) ->
      let eps = 0.25 in
      let a = Tu.random_perm ~seed n in
      let t = mk ~shards () in
      let parts = Core.Cluster.place t a in
      let ag = Core.Cluster.splitters ~eps Tu.icmp t parts ~k in
      Core.Cluster.close t;
      let tol = int_of_float (eps *. float_of_int n /. float_of_int k /. 2.) in
      Array.iteri
        (fun j tgt ->
          let d = abs (ag.Core.Cluster.ranks.(j) - tgt) in
          if d > tol then
            Test.fail_report
              (Printf.sprintf "boundary %d drifted %d > tol %d" j d tol))
        ag.Core.Cluster.targets;
      true)

let test_multiselect_matches_oracle () =
  let a = gen_array (777, 5, Core.Workload.Few_distinct 3) in
  let sorted = Tu.sorted_copy a in
  let ranks = [| 1; 7; 389; 390; 776; 777 |] in
  let t = mk ~shards:4 () in
  let parts = Core.Cluster.place t a in
  let values, ag = Core.Cluster.multiselect Tu.icmp t parts ~ranks in
  Array.iteri
    (fun j r ->
      Tu.check_int "cluster multiselect matches sorted oracle" sorted.(r - 1) values.(j);
      (* Exactness certificate: the value's rank interval contains the
         target even under heavy duplication. *)
      Tu.check_bool "rank interval certifies the target" true
        (ag.Core.Cluster.ranks_lt.(j) < r && r <= ag.Core.Cluster.ranks.(j)))
    ranks;
  Core.Cluster.close t

(* ---- EM_SHARDS steers the default shard count ---- *)

(* Created without ~shards, the cluster sizes itself from EM_SHARDS (the
   shards-matrix CI legs rely on this): whatever P the environment dictates,
   outputs must match the sorted oracle — the invariance gate in its
   environment-driven form. *)
let test_default_shards_env () =
  let t : int Core.Cluster.t = Core.Cluster.create (Tu.params ()) in
  Tu.check_int "default shard count honours EM_SHARDS"
    (Core.Cluster.default_shards ()) (Core.Cluster.size t);
  let a = Tu.random_perm ~seed:11 777 in
  let parts = Core.Cluster.place t a in
  let out, _ = Core.Cluster.sort Tu.icmp t parts in
  let merged = Array.concat (Array.to_list (Array.map Em.Vec.Oracle.to_array out)) in
  Array.iter Em.Vec.free out;
  Array.iter Em.Vec.free parts;
  Core.Cluster.close t;
  Tu.check_int_array "default-shards sort matches the oracle" (Tu.sorted_copy a) merged

(* ---- trace rollups carry the shard id ---- *)

let test_shard_trace () =
  let run shards =
    let trace = Em.Trace.create () in
    let sink, events = Em.Trace.collector () in
    Em.Trace.add_sink trace sink;
    let t : int Core.Cluster.t =
      Core.Cluster.create ~trace ~shards (Tu.params ())
    in
    let parts = Core.Cluster.place t (Tu.random_perm ~seed:1 300) in
    let sorted, _ = Core.Cluster.sort Tu.icmp t parts in
    Array.iter Em.Vec.free sorted;
    Core.Cluster.close t;
    Em.Trace_report.shard_balance (events ())
  in
  Tu.check_bool "P=1 traces carry no shard ids" true (run 1 = []);
  let balance = run 3 in
  Tu.check_int "P=3 rollup sees every shard" 3 (List.length balance);
  List.iter
    (fun (_, ios) -> Tu.check_bool "every shard did I/O" true (ios > 0))
    balance

(* ---- the shard scheduler: domains change wall time, never the trace ---- *)

let vec_arrays vs =
  let r = Array.map Em.Vec.Oracle.to_array vs in
  Array.iter Em.Vec.free vs;
  r

(* One run of [driver] at P = [shards] with the scheduler forced to
   [workers] (so one-CPU hosts cover the parallel path too): its outcome,
   the full JSONL trace, and per-shard (reads, writes, comparisons). *)
let scheduled_run ~shards ~workers driver a =
  let path = Filename.temp_file "em-cluster-" ".jsonl" in
  let oc = open_out path in
  let trace = Em.Trace.create () in
  Em.Trace.add_sink trace (Em.Trace.jsonl_sink oc);
  let t : int Core.Cluster.t = Core.Cluster.create ~trace ~shards (Tu.params ()) in
  Core.Cluster.Private.set_workers t (Some workers);
  Tu.check_int "scheduler worker count" (min shards workers) (Core.Cluster.Private.workers t);
  let parts = Core.Cluster.place t a in
  let out = match driver t parts with out -> Ok out | exception e -> Error e in
  close_out oc;
  let jsonl = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let costs =
    Array.init shards (fun i ->
        let s = (Core.Cluster.ctx t i).Em.Ctx.stats in
        Em.Stats.[ s.reads; s.writes; s.comparisons ])
  in
  Core.Cluster.close t;
  (out, jsonl, costs)

let scheduled_drivers =
  [
    ("partition", fun t parts -> vec_arrays (fst (Core.Cluster.partition Tu.icmp t parts ~k:5)));
    ("sort", fun t parts -> vec_arrays (fst (Core.Cluster.sort Tu.icmp t parts)));
    ( "splitters",
      fun t parts -> [| (Core.Cluster.splitters Tu.icmp t parts ~k:6).Core.Cluster.values |] );
    ( "multiselect",
      fun t parts ->
        [| fst (Core.Cluster.multiselect Tu.icmp t parts ~ranks:[| 1; 99; 1234; 2500 |]) |] );
  ]

let test_scheduler_determinism () =
  let a = Tu.random_perm ~seed:21 2500 in
  List.iter
    (fun shards ->
      List.iter
        (fun (name, driver) ->
          let ref_out, ref_trace, ref_costs = scheduled_run ~shards ~workers:1 driver a in
          let ref_out = match ref_out with Ok o -> o | Error e -> raise e in
          List.iter
            (fun workers ->
              let what = Printf.sprintf "%s P=%d workers=%d" name shards workers in
              let out, trace, costs = scheduled_run ~shards ~workers driver a in
              (match out with
              | Ok out ->
                  Tu.check_bool (what ^ ": outputs") true (out = ref_out)
              | Error e -> raise e);
              Tu.check_int (what ^ ": trace length") (String.length ref_trace)
                (String.length trace);
              Tu.check_bool (what ^ ": trace byte for byte") true (trace = ref_trace);
              Array.iteri
                (fun i c ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "%s: shard %d reads/writes/comparisons" what i)
                    ref_costs.(i) c)
                costs)
            [ 2; shards ])
        scheduled_drivers)
    [ 2; 4; 8 ]

(* A sinkless tracer keeps only its event and seek counts; on domains the
   workers' stages fold into those counts at replay.  They must equal the
   event count and the random events of the same run forced inline with a
   collector attached. *)
let test_sinkless_counts_on_domains () =
  let a = Tu.random_perm ~seed:23 2500 in
  let run ~shards ~workers ~collect driver =
    let trace = Em.Trace.create () in
    let events =
      if collect then begin
        let sink, events = Em.Trace.collector () in
        Em.Trace.add_sink trace sink;
        events
      end
      else fun () -> []
    in
    let t : int Core.Cluster.t = Core.Cluster.create ~trace ~shards (Tu.params ()) in
    Core.Cluster.Private.set_workers t (Some workers);
    Tu.check_int "scheduler worker count" workers (Core.Cluster.Private.workers t);
    ignore (driver t (Core.Cluster.place t a));
    Core.Cluster.close t;
    (trace, events ())
  in
  List.iter
    (fun shards ->
      List.iter
        (fun name ->
          let driver = List.assoc name scheduled_drivers in
          let what = Printf.sprintf "%s P=%d" name shards in
          let _, events = run ~shards ~workers:1 ~collect:true driver in
          let sinkless, _ = run ~shards ~workers:shards ~collect:false driver in
          Tu.check_int (what ^ ": total = events") (List.length events)
            (Em.Trace.total sinkless);
          Tu.check_int (what ^ ": seeks = random events")
            (List.length (List.filter (fun e -> e.Em.Trace.locality = Em.Trace.Random) events))
            (Em.Trace.seeks sinkless))
        [ "partition"; "sort" ])
    [ 2; 4; 8 ]

exception Boom of int

(* A comparator that raises on one key held by shard 5 of 8.  Shards past
   the failing one may have run (their stats are unspecified), but the
   exception, and the trace up to it, must be the sequential ones; and every
   worker domain must be joined — 200 failing calls would exhaust the
   runtime's ~128 domains otherwise. *)
let test_scheduler_failure () =
  let shards = 8 and n = 800 in
  let a = Tu.random_perm ~seed:5 n in
  let key = a.((5 * n / 8) + 3) in
  let cmp x y = if x = key || y = key then raise (Boom key) else Int.compare x y in
  let driver t parts = vec_arrays (fst (Core.Cluster.partition cmp t parts ~k:8)) in
  let expect_boom what = function
    | Error (Boom k) when k = key -> ()
    | Error e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
    | Ok _ -> Alcotest.failf "%s: did not raise" what
  in
  let out, sequential, _ = scheduled_run ~shards ~workers:1 driver a in
  expect_boom "one worker" out;
  Tu.check_bool "the sequential prefix reaches shard 5" true
    (Tu.contains ~sub:"\"shard\":5" sequential);
  Tu.check_bool "the sequential prefix stops before shard 6" false
    (Tu.contains ~sub:"\"shard\":6" sequential);
  for _ = 1 to 200 do
    let out, trace, _ = scheduled_run ~shards ~workers:2 driver a in
    expect_boom "two workers" out;
    if trace <> sequential then Alcotest.fail "replayed trace is not the sequential prefix"
  done;
  Domain.join (Domain.spawn ignore)

(* The one-worker fallbacks keep shared observers exact.  The pinned values
   were measured with the scheduler-free sequential drivers (P = 8,
   partition of a 3000-element permutation into 6 parts, M = 256, B = 16). *)

(* One profiler attached to all 8 shards, as a traced benchmark pass does:
   every span's (path, calls, reads, writes, comparisons), digested.  The
   figures sum all shards' frames; "one profiler on P shards sums their
   trees" checks them against each shard's own phase tree. *)
let profile_spans_digest () =
  let shards = 8 in
  let t : int Core.Cluster.t = Core.Cluster.create ~shards (Tu.params ()) in
  Core.Cluster.Private.set_workers t (Some 2);
  let prof = Em.Profile.create () in
  for i = 0 to shards - 1 do
    Em.Profile.attach prof (Core.Cluster.ctx t i).Em.Ctx.stats
  done;
  Tu.check_int "span hooks force one worker" 1 (Core.Cluster.Private.workers t);
  let parts = Core.Cluster.place t (Tu.random_perm ~seed:8 3000) in
  ignore (vec_arrays (fst (Core.Cluster.partition Tu.icmp t parts ~k:6)));
  Core.Cluster.close t;
  let lines =
    List.map
      (fun (s : Em.Profile.span) ->
        let d = s.cost in
        Printf.sprintf "%s %d %d %d %d" (Em.Profile.path_name s.path) s.calls d.Em.Stats.d_reads
          d.Em.Stats.d_writes d.Em.Stats.d_comparisons)
      (Em.Profile.spans prof)
  in
  (List.length lines, Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* One seeded fault plan shared by shards 3 and 6, so where its faults land
   depends on the order of the two shards' I/Os: per-shard reads, writes,
   comparisons, faults and retries.  One disk: where faults land follows the I/O order,
   which write-behind batching changes at D > 1. *)
let fault_plan_costs () =
  let shards = 8 in
  let t : int Core.Cluster.t = Core.Cluster.create ~disks:1 ~shards (Tu.params ()) in
  Core.Cluster.Private.set_workers t (Some 2);
  let plan = Em.Fault.seeded ~seed:13 ~p:0.1 [ Transient_read; Transient_write ] in
  List.iter
    (fun i ->
      let cx = Core.Cluster.ctx t i in
      Em.Ctx.arm cx;
      Em.Ctx.inject cx plan)
    [ 3; 6 ];
  Tu.check_int "a fault plan forces one worker" 1 (Core.Cluster.Private.workers t);
  let parts = Core.Cluster.place t (Tu.random_perm ~seed:9 3000) in
  ignore (vec_arrays (fst (Core.Cluster.partition Tu.icmp t parts ~k:6)));
  let costs =
    List.init shards (fun i ->
        let s = (Core.Cluster.ctx t i).Em.Ctx.stats in
        Em.Stats.[ s.reads; s.writes; s.comparisons; s.faults; s.retries ])
  in
  Core.Cluster.close t;
  costs

(* One profiler attached to all P shards sums, per path, what each shard's
   own phase tree measured: reads, writes, comparisons and closed frames,
   with the highest memory peak.  [all_phases] opens its labels on every
   shard at once, so each shard's frames of them must count. *)
let test_profile_sums_shard_trees () =
  (* reads, writes, comparisons, calls, memory peak *)
  let figures calls (d : Em.Stats.delta) peak =
    [ d.d_reads; d.d_writes; d.d_comparisons; calls; peak ]
  in
  let merge a b = List.mapi (fun i (x, y) -> if i = 4 then max x y else x + y) (List.combine a b) in
  List.iter
    (fun shards ->
      List.iter
        (fun (name, run) ->
          let t : int Core.Cluster.t = Core.Cluster.create ~shards (Tu.params ()) in
          let prof = Em.Profile.create () in
          for i = 0 to shards - 1 do
            Em.Profile.attach prof (Core.Cluster.ctx t i).Em.Ctx.stats
          done;
          run t (Core.Cluster.place t (Tu.random_perm ~seed:8 3000));
          let summed = Hashtbl.create 16 in
          for i = 0 to shards - 1 do
            List.iter
              (fun (n : Em.Stats.phase_node) ->
                let path = List.rev n.stack in
                let mine = figures n.calls n.cost n.high in
                Hashtbl.replace summed path
                  (Option.fold ~none:mine ~some:(merge mine) (Hashtbl.find_opt summed path)))
              (Em.Stats.phase_tree (Core.Cluster.ctx t i).Em.Ctx.stats)
          done;
          Core.Cluster.close t;
          let spans = Em.Profile.spans prof in
          let what = Printf.sprintf "%s, P = %d" name shards in
          Tu.check_int (what ^ ": one span per path") (Hashtbl.length summed)
            (List.length spans);
          List.iter
            (fun (s : Em.Profile.span) ->
              Alcotest.(check (list int))
                (Printf.sprintf "%s: %s reads, writes, comparisons, calls, peak" what
                   (Em.Profile.path_name s.path))
                (Hashtbl.find summed s.path)
                (figures s.calls s.cost s.mem_peak))
            spans)
        [
          ("partition", fun t parts -> ignore (Core.Cluster.partition Tu.icmp t parts ~k:6));
          ("sort", fun t parts -> ignore (Core.Cluster.sort Tu.icmp t parts));
        ])
    [ 2; 4; 8 ]

let test_profile_fallback () =
  let n, digest = profile_spans_digest () in
  Tu.check_int "span count" 8 n;
  Alcotest.(check string) "spans (labels, calls, I/Os, comparisons)" "9770fa98588f4e678c0f13e3c4a87615" digest

let test_fault_fallback () =
  Alcotest.(check (list (list int)))
    "per-shard reads, writes, comparisons, faults, retries" 
    [
      [ 176; 115; 11435; 0; 0 ]; [ 179; 115; 9870; 0; 0 ]; [ 176; 113; 9464; 0; 0 ];
      [ 151; 55; 6614; 19; 19 ]; [ 175; 115; 9570; 0; 0 ]; [ 176; 115; 9452; 0; 0 ];
      [ 194; 123; 9451; 30; 30 ]; [ 140; 48; 6496; 0; 0 ];
    ]
    (fault_plan_costs ())

let suite =
  [
    Alcotest.test_case "comm ledger rounds and words" `Quick test_comm_ledger;
    Alcotest.test_case "comm snapshot mid-superstep" `Quick test_comm_snapshot_mid_window;
    Alcotest.test_case "place stripes evenly" `Quick test_place_striping;
    Alcotest.test_case "all_to_all transposes and bills" `Quick test_all_to_all;
    Alcotest.test_case "broadcast/scatter/gather" `Quick test_broadcast_scatter_gather;
    prop_shards_never_change_work;
    Alcotest.test_case "P-invariance across backends" `Quick test_backend_matrix;
    Alcotest.test_case "agreement meets HSS budgets" `Quick test_agreement_budgets;
    prop_eps_balance;
    Alcotest.test_case "multiselect matches oracle" `Quick test_multiselect_matches_oracle;
    Alcotest.test_case "EM_SHARDS default shard count" `Quick test_default_shards_env;
    Alcotest.test_case "trace rollups carry shard ids" `Quick test_shard_trace;
    Alcotest.test_case "scheduler: parallel runs equal the sequential one" `Quick
      test_scheduler_determinism;
    Alcotest.test_case "scheduler: a raising shard leaves the sequential prefix" `Quick
      test_scheduler_failure;
    Alcotest.test_case "scheduler: sinkless counts on domains equal inline events" `Quick
      test_sinkless_counts_on_domains;
    Alcotest.test_case "scheduler: profiles fall back to one worker" `Quick test_profile_fallback;
    Alcotest.test_case "scheduler: fault plans fall back to one worker" `Quick test_fault_fallback;
    Alcotest.test_case "one profiler on P shards sums their trees" `Quick
      test_profile_sums_shard_trees;
  ]
