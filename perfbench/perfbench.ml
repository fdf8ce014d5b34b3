(* The repository benchmark: one workload of the EM stack per process.

     dune exec --root . --cache=disabled ./perfbench/perfbench.exe -- \
       --workload batch-paper --seed 1 --seconds 25 --trace 0

   A run repeats the workload's pass (fresh set-up, the measured requests,
   then an oracle check outside the timed region) until [--seconds] have
   elapsed, and prints one JSON object as the last line of stdout.  With
   [--trace 0] it holds the end-to-end metrics of BENCHMARK.json; with
   [--trace 1] untraced and traced passes alternate and it holds the
   per-layer metrics, measured from outside the library: Em.Profile spans,
   a timing wrapper around the primary device's backend closures, GC
   deltas, and timed calls into public functions.  perfbench/README.md
   defines every metric. *)

let mem = 4096
let block = 64
let params = Em.Params.with_disks (Em.Params.create ~mem ~block) 1
let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

(* Scratch space for file-backed devices, inside the working directory;
   removed before exit. *)
let work_dir = ".perfbench-work"

(* ---- statistics ---- *)

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted_floats l in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The p99, or with fewer than 1000 samples the highest percentile that
   still has ten samples beyond it, and at least the median (nearest rank). *)
let tail l =
  let n = List.length l in
  if n < 20 then median l
  else
    let p = Float.min 0.99 (1. -. (10. /. float_of_int n)) in
    (sorted_floats l).(int_of_float (Float.ceil (p *. float_of_int n)) - 1)

let iqr l =
  let a = sorted_floats l in
  let n = Array.length a in
  if n < 2 then 0. else a.(3 * (n - 1) / 4) -. a.((n - 1) / 4)

(* ---- per-pass results ---- *)

type pass = {
  setup_s : float;
  requests : float list;  (** latency of each request, in order *)
  wall_s : float;  (** first request sent to last reply received *)
  ref_s : float;  (** host reference time beside the timed region *)
  ios : int;
  comparisons : int;
  attempted : int;
  failed : int;
  heap_words : int;  (** GC top_heap_words before the oracle ran *)
  layers : (string * float) list;  (** traced passes only *)
}

(* A pass either only sets up (extra set-up samples), or sets up and runs
   its requests untraced or traced. *)
type mode = Setup | Plain | Traced

exception Set_up of float

(* Set-up-only passes stop here, after tearing down. *)
let stop_after_setup mode setup_s teardown =
  if mode = Setup then begin
    teardown ();
    raise (Set_up setup_s)
  end

let check failures = function
  | Ok () -> ()
  | Error msg ->
      incr failures;
      Printf.eprintf "perfbench: oracle mismatch: %s\n%!" msg

(* The oracle's sorted copy doubles as the host floor: an in-memory sort of
   the same input on the same host in the same run.  Forced after the first
   pass has read its heap peak. *)
let floor_sort input =
  lazy
    (let sorted = Array.copy input in
     let (), s = timed (fun () -> Array.sort Int.compare sorted) in
     (sorted, s))

(* The host reference: an in-memory [Array.sort] of 2^18 fixed random ints,
   timed just before and just after each pass's timed region.  End-to-end
   times are reported in multiples of it.  A shared host's speed drifts in
   episodes of seconds (a pass slows by up to 1.6x), and the reference
   drifts with it, so the ratio holds still where seconds do not.  The
   scratch copy is allocated once, so the reference allocates nothing. *)
let ref_input = Core.Workload.generate Core.Workload.Random_perm ~seed:1 ~n:(1 lsl 18) ~block
let ref_scratch = Array.make (Array.length ref_input) 0

let ref_sort () =
  Array.blit ref_input 0 ref_scratch 0 (Array.length ref_input);
  snd (timed (fun () -> Array.sort Int.compare ref_scratch))

let same_sorted ~what sorted got =
  if got = sorted then Ok () else Error (what ^ ": output differs from the sorted input")

(* ---- tracing: GC clock, backend wrapper, spans ---- *)

(* GC time of the main domain, read from the runtime's own event ring:
   minor collections plus major slices.  Only traced runs start the ring;
   they drain it at span boundaries and backend calls so it cannot wrap
   within a pass. *)
let gc_ns = ref 0.
let gc_lost = ref 0
let gc_open = Hashtbl.create 4

let gc_callbacks =
  let stamp = Runtime_events.Timestamp.to_int64 in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun ring ts phase ->
      match phase with
      | (Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE) when ring = 0 ->
          Hashtbl.replace gc_open phase ts
      | _ -> ())
    ~runtime_end:(fun ring ts phase ->
      match Hashtbl.find_opt gc_open phase with
      | Some t0 when ring = 0 ->
          Hashtbl.remove gc_open phase;
          gc_ns := !gc_ns +. Int64.to_float (Int64.sub (stamp ts) (stamp t0))
      | _ -> ())
    ~lost_events:(fun _ n -> gc_lost := !gc_lost + n)
    ()

let gc_cursor =
  lazy
    (Runtime_events.start ();
     Runtime_events.create_cursor None)

let gc_poll () = ignore (Runtime_events.read_poll (Lazy.force gc_cursor) gc_callbacks None)

(* The GC counters at the start of a timed region; traced regions also
   restart the GC clock. *)
let gc_mark traced =
  if traced then begin
    gc_poll ();
    gc_ns := 0.
  end;
  Gc.quick_stat ()

(* Labels owned by layers above the algorithms; every other label is
   algorithm code. *)
let non_alg_labels =
  [ "online_select"; "refine"; "answer"; "local-sort"; "finish"; "agree"; "cut"; "exchange";
    "checkpoint"; "resume" ]

type meter = {
  mutable loads : int;
  mutable stores : int;
  mutable load_s : float;
  mutable store_s : float;
  mutable under_alg_s : float;  (** call time while an algorithm span was innermost *)
  mutable stats : Em.Stats.t option;
}

let meter () =
  { loads = 0; stores = 0; load_s = 0.; store_s = 0.; under_alg_s = 0.; stats = None }

(* Placement stores precede the timed region and are not counted. *)
let reset m =
  m.loads <- 0;
  m.stores <- 0;
  m.load_s <- 0.;
  m.store_s <- 0.;
  m.under_alg_s <- 0.

let charge m s =
  match m.stats with
  | Some st
    when st.Em.Stats.phase_stack <> []
         && not (List.mem (Em.Stats.current_phase st) non_alg_labels) ->
      m.under_alg_s <- m.under_alg_s +. s
  | _ -> ()

let sample m = if (m.loads + m.stores) land 63 = 0 then gc_poll ()

let wrap m (b : 'a Em.Backend.t) =
  {
    b with
    Em.Backend.load =
      (fun slot ->
        sample m;
        let r, s = timed (fun () -> b.Em.Backend.load slot) in
        m.loads <- m.loads + 1;
        m.load_s <- m.load_s +. s;
        charge m s;
        r);
    store =
      (fun slot data ->
        sample m;
        let (), s = timed (fun () -> b.Em.Backend.store slot data) in
        m.stores <- m.stores + 1;
        m.store_s <- m.store_s +. s;
        charge m s);
  }

(* A machine whose primary device stores through the metering wrapper.  Ctx
   is a transparent record, so the device is swapped without touching the
   library; linked devices still mint plain backends from the instance. *)
let machine ?meter spec : int Em.Ctx.t =
  let ctx = Em.Ctx.create ~backend:spec ~backend_dir:work_dir ~async:false params in
  match meter with
  | None -> ctx
  | Some m ->
      m.stats <- Some ctx.Em.Ctx.stats;
      Em.Device.close ctx.Em.Ctx.dev;
      let backend = wrap m (Em.Backend.make ctx.Em.Ctx.backend) in
      { ctx with Em.Ctx.dev = Em.Device.create ~trace:ctx.Em.Ctx.trace ~backend params ctx.Em.Ctx.stats }

(* Attach a profiler next to whatever hooks are already installed (the
   serve engine keeps its own). *)
let attach_profile prof stats =
  let prev = Em.Stats.hooks stats in
  Em.Profile.attach prof stats;
  let mine = Option.get (Em.Stats.hooks stats) in
  let also f = match prev with Some p -> f p | None -> () in
  Em.Stats.set_hooks stats
    (Some
       {
         Em.Stats.on_push =
           (fun s ->
             gc_poll ();
             also (fun p -> p.Em.Stats.on_push s);
             mine.Em.Stats.on_push s);
         on_pop =
           (fun s ->
             mine.Em.Stats.on_pop s;
             also (fun p -> p.Em.Stats.on_pop s);
             gc_poll ());
         on_mem = (fun w -> also (fun p -> p.Em.Stats.on_mem w); mine.Em.Stats.on_mem w);
       })

let last path = List.nth path (List.length path - 1)

(* Inclusive seconds of the outermost spans labelled [label]. *)
let inclusive spans label =
  List.fold_left
    (fun acc (s : Em.Profile.span) ->
      let p = s.Em.Profile.path in
      let outer = List.filter (String.equal label) p in
      if last p = label && List.length outer = 1 then acc +. (s.Em.Profile.wall_ns *. 1e-9)
      else acc)
    0. spans

(* Self seconds per leaf label: a span's time minus its direct children's. *)
let self_by_label spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Em.Profile.span) ->
      let p = s.Em.Profile.path in
      let depth = List.length p in
      let children =
        List.fold_left
          (fun acc (c : Em.Profile.span) ->
            let cp = c.Em.Profile.path in
            if List.length cp = depth + 1 && List.filteri (fun i _ -> i < depth) cp = p then
              acc +. c.Em.Profile.wall_ns
            else acc)
          0. spans
      in
      let self = Float.max 0. (s.Em.Profile.wall_ns -. children) *. 1e-9 in
      let l = last p in
      Hashtbl.replace tbl l (self +. Option.value ~default:0. (Hashtbl.find_opt tbl l)))
    spans;
  tbl

let alg_phases =
  [ "run-formation"; "merge"; "distribute"; "pivot-sampling"; "intermixed"; "leaf-emit";
    "splitter-leaf"; "rank-select" ]

type observe = {
  prof : Em.Profile.t;
  gc0 : Gc.stat;
  meter : meter;
  trace0 : int;
}

let observe () =
  { prof = Em.Profile.create (); gc0 = Gc.quick_stat (); meter = meter (); trace0 = 0 }

(* The per-layer figures every workload shares. *)
let common_layers o ~wall ~ios ~rounds ~comparisons ~trace_events =
  let gc1 = Gc.quick_stat () in
  gc_poll ();
  let spans = Em.Profile.spans o.prof in
  let self = self_by_label spans in
  let alg_self =
    Hashtbl.fold (fun l s acc -> if List.mem l non_alg_labels then acc else acc +. s) self 0.
    -. o.meter.under_alg_s
  in
  let share l = Option.value ~default:0. (Hashtbl.find_opt self l) /. wall in
  let m = o.meter in
  let calls = m.loads + m.stores in
  [
    ("alg.self_s", alg_self);
    ("alg.ns_per_cmp", if comparisons = 0 then 0. else alg_self *. 1e9 /. float comparisons);
    ("gc.minor_mwords", (gc1.Gc.minor_words -. o.gc0.Gc.minor_words) /. 1e6);
    ("gc.major_mwords", (gc1.Gc.major_words -. o.gc0.Gc.major_words) /. 1e6);
    ("gc.major_collections", float (gc1.Gc.major_collections - o.gc0.Gc.major_collections));
    ("gc.time_s", !gc_ns *. 1e-9);
    ("shell.ios", float ios);
    ("shell.rounds", float rounds);
    ("shell.trace_events", float trace_events);
    ("backend.loads", float m.loads);
    ("backend.stores", float m.stores);
    ("backend.coverage", if ios = 0 then 0. else float calls /. float ios);
    ("cluster.phase.local-sort.share", share "local-sort");
    ("cluster.phase.finish.share", share "finish");
  ]
  @ List.map (fun l -> ("alg.phase." ^ l ^ ".share", share l)) alg_phases
  @ (if m.loads > 0 then [ ("backend.load_ns", m.load_s *. 1e9 /. float m.loads) ] else [])
  @ if m.stores > 0 then [ ("backend.store_ns", m.store_s *. 1e9 /. float m.stores) ] else []

(* ---- workloads ---- *)

type workload = {
  name : string;
  n : int;
  input : int array;
  oracle : (int array * float) Lazy.t;  (** sorted input, host floor seconds *)
  pass : mode -> pass;
  extra_layers : unit -> (string * float) list;  (** after the passes *)
}

let gen kind ~seed ~n = Core.Workload.generate kind ~seed ~n ~block

(* One sim/file machine running single-vector algorithms: set-up, then the
   requests in order.  A request returns its oracle check, which reads the
   output back and frees it once the timed region is over. *)
let machine_pass ~spec ~generate ~oracle ~requests mode =
  let traced = mode = Traced in
  let t0 = clock () in
  let o = observe () in
  let ctx = machine ?meter:(if traced then Some o.meter else None) spec in
  let v = Em.Vec.of_array ctx (generate ()) in
  let setup_s = clock () -. t0 in
  stop_after_setup mode setup_s (fun () -> Em.Ctx.close ctx);
  let cmp = Em.Ctx.counted ctx Int.compare in
  if traced then attach_profile o.prof ctx.Em.Ctx.stats;
  (* Collect the previous pass's and the oracle's garbage before timing. *)
  Gc.full_major ();
  let ref0 = ref_sort () in
  let o = { o with gc0 = gc_mark traced; trace0 = Em.Trace.total ctx.Em.Ctx.trace } in
  reset o.meter;
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  let failures = ref 0 in
  let started = clock () in
  let results =
    List.map
      (fun (label, run) ->
        let t0 = clock () in
        match run cmp v with
        | check -> (clock () -. t0, Some check)
        | exception e ->
            incr failures;
            Printf.eprintf "perfbench: %s raised %s\n%!" label (Printexc.to_string e);
            (clock () -. t0, None))
      requests
  in
  let wall_s = clock () -. started in
  let d = Em.Stats.delta ctx.Em.Ctx.stats snap in
  let ios = Em.Stats.delta_ios d in
  let layers =
    if traced then
      common_layers o ~wall:wall_s ~ios ~rounds:d.Em.Stats.d_rounds
        ~comparisons:d.Em.Stats.d_comparisons
        ~trace_events:(Em.Trace.total ctx.Em.Ctx.trace - o.trace0)
    else []
  in
  let ref_s = (ref0 +. ref_sort ()) /. 2. in
  Em.Profile.detach ctx.Em.Ctx.stats;
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let sorted = fst (Lazy.force oracle) in
  List.iter (function _, Some oracle -> check failures (oracle sorted) | _, None -> ()) results;
  Em.Ctx.close ctx;
  {
    setup_s;
    requests = List.map fst results;
    wall_s;
    ref_s;
    ios;
    comparisons = d.Em.Stats.d_comparisons;
    attempted = List.length requests;
    failed = !failures;
    heap_words;
    layers;
  }

let no_extras () = []

let batch_paper ~seed =
  let n = 1 lsl 18 in
  let generate () = gen Core.Workload.Pi_hard ~seed ~n in
  let input = generate () in
  let oracle = floor_sort input in
  let spec = { Core.Problem.n; k = 64; a = n / 256; b = n / 16 } in
  let requests =
    [
      ( "Splitters.solve",
        fun cmp v ->
          let s = Core.Splitters.solve cmp v spec in
          fun _ ->
            let got = Em.Vec.Oracle.to_array s in
            Em.Vec.free s;
            Core.Verify.splitters Int.compare ~input spec got );
      ( "Partitioning.solve",
        fun cmp v ->
          let parts = Core.Partitioning.solve cmp v spec in
          fun _ ->
            let got = Array.map Em.Vec.Oracle.to_array parts in
            Array.iter Em.Vec.free parts;
            Core.Verify.partitioning Int.compare ~input spec got );
    ]
  in
  {
    name = "batch-paper";
    n;
    input;
    oracle;
    pass = machine_pass ~spec:Em.Backend.Sim ~generate ~oracle ~requests;
    extra_layers = no_extras;
  }

let sort_file ~seed =
  let n = 1 lsl 20 in
  let generate () = gen Core.Workload.Random_perm ~seed ~n in
  let input = generate () in
  let oracle = floor_sort input in
  let requests =
    [
      ( "External_sort.sort",
        fun cmp v ->
          let s = Emalg.External_sort.sort cmp v in
          fun sorted ->
            let got = Em.Vec.Oracle.to_array s in
            Em.Vec.free s;
            same_sorted ~what:"sort" sorted got );
    ]
  in
  {
    name = "sort-file";
    n;
    input;
    oracle;
    pass = machine_pass ~spec:Em.Backend.File ~generate ~oracle ~requests;
    extra_layers = no_extras;
  }

(* ---- serve-durable ---- *)

let serve_n = 1 lsl 18
let session_queries = 2500
let checkpoint_every = 64

(* The query stream of a run's [pass]-th session: [(line, lo, hi)] with
   1-based answer ranks.  Each session of a run gets its own stream, so a
   run's latency tail is taken over many streams rather than one. *)
let query_stream ~seed ~pass ~n =
  let rng = Core.Workload.Rng.create ((seed * 7919) + 17 + (pass * 104_729)) in
  Array.init session_queries (fun _ ->
      match Core.Workload.Rng.int rng 3 with
      | 0 ->
          let k = 1 + Core.Workload.Rng.int rng n in
          (Printf.sprintf "select %d" k, k, k)
      | 1 ->
          let line =
            Printf.sprintf "quantile %.6f"
              (float (1 + Core.Workload.Rng.int rng 1_000_000) /. 1e6)
          in
          let phi = float_of_string (List.nth (String.split_on_char ' ' line) 1) in
          let k = max 1 (int_of_float (Float.ceil (phi *. float n))) in
          (line, k, k)
      | _ ->
          let a = 1 + Core.Workload.Rng.int rng (n - 32) in
          let b = a + Core.Workload.Rng.int rng 32 in
          (Printf.sprintf "range %d %d" a b, a, b))

let reply_values reply =
  let key = "\"values\":[" in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length reply then None
    else if String.sub reply i kl = key then Some (i + kl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
      match String.index_from_opt reply start ']' with
      | None -> None
      | Some stop ->
          let body = String.sub reply start (stop - start) in
          if body = "" then Some [||]
          else
            Some (Array.of_list (List.map int_of_string (String.split_on_char ',' body))))

let check_reply sorted (line, lo, hi) reply =
  match reply_values reply with
  | Some got when got = Array.sub sorted (lo - 1) (hi - lo + 1) -> Ok ()
  | Some _ -> Error (Printf.sprintf "serve: wrong answer to %S" line)
  | None -> Error (Printf.sprintf "serve: %S answered %s" line reply)

let serve_durable ~seed =
  let n = serve_n in
  let generate () = gen Core.Workload.Random_perm ~seed ~n in
  let input = generate () in
  let oracle = floor_sort input in
  let sessions = ref 0 in
  let pass mode =
    let traced = mode = Traced in
    let t0 = clock () in
    let o = observe () in
    let ctx =
      machine ?meter:(if traced then Some o.meter else None) (Em.Backend.Cached Em.Backend.Sim)
    in
    let v = Em.Vec.of_array ctx (generate ()) in
    let meta =
      {
        Core.Serve.m_n = n;
        m_mem = mem;
        m_block = block;
        m_disks = 1;
        m_workload = Core.Workload.kind_name Core.Workload.Random_perm;
        m_seed = seed;
      }
    in
    let srv = Core.Serve.create ~checkpoint_every ~meta ctx v in
    let setup_s = clock () -. t0 in
    stop_after_setup mode setup_s (fun () ->
        Core.Serve.close srv;
        Em.Ctx.close ctx);
    let stream = query_stream ~seed ~pass:!sessions ~n in
    incr sessions;
    let stats = ctx.Em.Ctx.stats in
    if traced then attach_profile o.prof stats;
    Gc.full_major ();
    let ref0 = ref_sort () in
    let o = { o with gc0 = gc_mark traced; trace0 = Em.Trace.total ctx.Em.Ctx.trace } in
    reset o.meter;
    let snap = Em.Stats.snapshot stats in
    let evictions0 = stats.Em.Stats.cache_evictions in
    let replies = Array.make session_queries [] in
    let lat = Array.make session_queries 0. in
    let started = clock () in
    Array.iteri
      (fun i (line, _, _) ->
        let out = ref [] in
        let q0 = clock () in
        ignore (Core.Serve.run_batch srv (fun r -> out := r :: !out) line);
        lat.(i) <- clock () -. q0;
        replies.(i) <- !out)
      stream;
    let wall_s = clock () -. started in
    let d = Em.Stats.delta stats snap in
    let ios = Em.Stats.delta_ios d in
    let layers =
      if not traced then []
      else begin
        let spans = Em.Profile.spans o.prof in
        let session = Core.Serve.session srv in
        let summary = Emalg.Online_select.summary session in
        let saves, save_ios =
          match Emalg.Online_select.checkpoint_store session with
          | Some st -> (Em.Checkpoint.saves st, Em.Checkpoint.save_ios st)
          | None -> (0, 0)
        in
        let hits = d.Em.Stats.d_cache_hits and misses = d.Em.Stats.d_cache_misses in
        let total_lat = Array.fold_left ( +. ) 0. lat in
        let reply_bytes =
          Array.fold_left
            (fun acc rs -> List.fold_left (fun a r -> a + String.length r) acc rs)
            0 replies
        in
        common_layers o ~wall:wall_s ~ios ~rounds:d.Em.Stats.d_rounds
          ~comparisons:d.Em.Stats.d_comparisons
          ~trace_events:(Em.Trace.total ctx.Em.Ctx.trace - o.trace0)
        @ [
            ( "pool.hit_ratio",
              if hits + misses = 0 then 0. else float hits /. float (hits + misses) );
            ("pool.evictions", float (stats.Em.Stats.cache_evictions - evictions0));
            ("online.refine_ios", float summary.Emalg.Online_select.refine_ios);
            ("online.answer_ios", float summary.Emalg.Online_select.answer_ios);
            ("online.splits", float summary.Emalg.Online_select.splits);
            ("online.refine_share", inclusive spans "refine" /. wall_s);
            ("online.answer_share", inclusive spans "answer" /. wall_s);
            ("serve.self_share", (total_lat -. inclusive spans "online_select") /. wall_s);
            ("serve.reply_bytes_per_query", float reply_bytes /. float session_queries);
            ("state.saves", float saves);
            ("state.save_ios", float save_ios);
          ]
      end
    in
    let ref_s = (ref0 +. ref_sort ()) /. 2. in
    Em.Profile.detach stats;
    let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    let sorted = fst (Lazy.force oracle) in
    let failures = ref 0 in
    Array.iteri
      (fun i q ->
        match replies.(i) with
        | [ r ] -> check failures (check_reply sorted q r)
        | rs ->
            check failures
              (Error (Printf.sprintf "serve: %d replies to one line" (List.length rs))))
      stream;
    Core.Serve.close srv;
    Em.Ctx.close ctx;
    {
      setup_s;
      requests = Array.to_list lat;
      wall_s;
      ref_s;
      ios;
      comparisons = d.Em.Stats.d_comparisons;
      attempted = session_queries;
      failed = !failures;
      heap_words;
      layers;
    }
  in
  { name = "serve-durable"; n; input; oracle; pass; extra_layers = no_extras }

(* ---- cluster-partition ---- *)

let cluster_k = 16

type cluster_run = {
  cl : int Core.Cluster.t;
  ctxs : int Em.Ctx.t list;
  obs : observe;
  setup : float;
  ref_s : float;
  outcome : (int Em.Vec.t array * int Core.Cluster.agreement option, exn) result;
  wall : float;
}

let cluster_run ~shards mode generate =
  let traced = mode = Traced in
  let t0 = clock () in
  let prof = Em.Profile.create () in
  let cl : int Core.Cluster.t = Core.Cluster.create ~backend:Em.Backend.Sim ~shards params in
  let vs = Core.Cluster.place cl (generate ()) in
  let setup_s = clock () -. t0 in
  stop_after_setup mode setup_s (fun () -> Core.Cluster.close cl);
  let ctxs = List.init shards (Core.Cluster.ctx cl) in
  if traced then List.iter (fun c -> attach_profile prof c.Em.Ctx.stats) ctxs;
  Gc.full_major ();
  let ref0 = ref_sort () in
  let obs =
    { prof; gc0 = gc_mark traced; meter = meter (); trace0 = Em.Trace.total (Core.Cluster.trace cl) }
  in
  let outcome, wall =
    timed (fun () ->
        match Core.Cluster.partition Int.compare cl vs ~k:cluster_k with
        | r -> Ok r
        | exception e -> Error e)
  in
  let ref_s = (ref0 +. ref_sort ()) /. 2. in
  { cl; ctxs; obs; setup = setup_s; ref_s; outcome; wall }

let check_parts sorted parts =
  if Array.length parts <> cluster_k then Error "cluster: wrong part count"
  else same_sorted ~what:"cluster partition" sorted (Array.concat (Array.to_list parts))

let cluster_partition ~seed =
  let n = 1 lsl 20 in
  let generate () = gen Core.Workload.Random_perm ~seed ~n in
  let input = generate () in
  let oracle = floor_sort input in
  let pass mode =
    let { cl; ctxs; obs; setup; ref_s; outcome; wall } = cluster_run ~shards:8 mode generate in
    let r, w, comparisons = Core.Cluster.totals cl in
    let ios = r + w in
    let comm = Core.Cluster.comm cl in
    let layers =
      if mode <> Traced then []
      else begin
        let shard_ios = List.map (fun c -> float (Em.Stats.ios c.Em.Ctx.stats)) ctxs in
        let mean = List.fold_left ( +. ) 0. shard_ios /. float (List.length shard_ios) in
        let rounds =
          List.fold_left (fun a c -> a + Em.Stats.effective_rounds c.Em.Ctx.stats) 0 ctxs
        in
        common_layers obs ~wall ~ios ~rounds ~comparisons
          ~trace_events:(Em.Trace.total (Core.Cluster.trace cl) - obs.trace0)
        @ [
            ("cluster.comm_words", float comm.Em.Stats.comm_words);
            ("cluster.comm_rounds", float (Em.Stats.effective_comm_rounds comm));
            ( "cluster.agree_samples",
              match outcome with
              | Ok (_, Some a) -> float a.Core.Cluster.samples
              | _ -> 0. );
            ("cluster.shard_skew", List.fold_left Float.max 0. shard_ios /. mean);
          ]
      end
    in
    let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    let sorted = fst (Lazy.force oracle) in
    let failures = ref 0 in
    (match outcome with
    | Ok (parts, _) ->
        check failures (check_parts sorted (Array.map Em.Vec.Oracle.to_array parts));
        Array.iter Em.Vec.free parts
    | Error e ->
        incr failures;
        Printf.eprintf "perfbench: Cluster.partition raised %s\n%!" (Printexc.to_string e));
    Core.Cluster.close cl;
    {
      setup_s = setup;
      requests = [ wall ];
      wall_s = wall;
      ref_s;
      ios;
      comparisons;
      attempted = 1;
      failed = !failures;
      heap_words;
      layers;
    }
  in
  (* Known defect, kept visible: at P=4 a shard holds M*B elements and the
     resident fence index overflows memory.  The attempt is reported as
     cluster.p4_failed, outside the measured operations. *)
  let extra_layers () =
    let { cl; outcome; _ } = cluster_run ~shards:4 Plain generate in
    let failed =
      match outcome with
      | Error e ->
          Printf.printf "known defect: Cluster.partition at P=4 raised %s\n" (Printexc.to_string e);
          1.
      | Ok (parts, _) ->
          let sorted = fst (Lazy.force oracle) in
          let ok = check_parts sorted (Array.map Em.Vec.Oracle.to_array parts) = Ok () in
          Array.iter Em.Vec.free parts;
          if ok then 0. else 1.
    in
    Core.Cluster.close cl;
    [ ("cluster.p4_failed", failed) ]
  in
  { name = "cluster-partition"; n; input; oracle; pass; extra_layers }

(* ---- rates from timed public calls ---- *)

(* Median over [reps] batches of [count] calls, in ns per call. *)
let ns_per_call ?(reps = 5) ~count f =
  median
    (List.init reps (fun _ ->
         let (), s = timed (fun () -> for _ = 1 to count do f () done) in
         s *. 1e9 /. float count))

let shell_ns_per_io () =
  let dev : int Em.Device.t =
    Em.Device.create ~backend:(Em.Backend.sim ()) params (Em.Stats.create ())
  in
  let id = Em.Device.alloc dev in
  let data = Array.make block 0 in
  ns_per_call ~count:50_000 (fun () ->
      Em.Device.write dev id data;
      ignore (Em.Device.read dev id))
  /. 2.

let handoff_ns () =
  let pool = Em.Io_pool.create ~workers:1 () in
  let ns = ns_per_call ~count:5_000 (fun () -> Em.Io_pool.await (Em.Io_pool.submit pool ~key:0 ignore)) in
  Em.Io_pool.shutdown pool;
  ns

let parse_ns ~seed ~n =
  let lines = Array.map (fun (l, _, _) -> l) (query_stream ~seed ~pass:0 ~n) in
  ns_per_call ~count:1 (fun () -> Array.iter (fun l -> ignore (Core.Serve.parse_command l)) lines)
  /. float (Array.length lines)

(* Backend cost for workloads whose devices the wrapper cannot reach. *)
let sim_backend_ns () =
  let b : int Em.Backend.t = Em.Backend.sim () in
  let slot = b.Em.Backend.alloc () in
  let data = Array.make block 0 in
  let store = ns_per_call ~count:50_000 (fun () -> b.Em.Backend.store slot data) in
  let load = ns_per_call ~count:50_000 (fun () -> ignore (b.Em.Backend.load slot)) in
  [ ("backend.load_ns", load); ("backend.store_ns", store) ]

let rate_layers ~seed w =
  [
    ("shell.ns_per_io", shell_ns_per_io ());
    ("io_pool.handoff_ns", handoff_ns ());
    ("serve.parse_ns", parse_ns ~seed ~n:w.n);
    ( "backend.slot_bytes",
      float (Bytes.length (Marshal.to_bytes (Array.sub w.input 0 block) [])) );
  ]

(* ---- metric tables (the names and units of BENCHMARK.json) ---- *)

let end_to_end =
  [
    ("setup_s", "s"); ("run_ref", "ref"); ("first_query_ref", "ref"); ("query_p50_mref", "mref");
    ("query_p99_mref", "mref"); ("queries_per_ref", "1/ref"); ("ios", "count");
    ("comparisons", "count"); ("heap_peak_mb", "MB");
  ]

let per_layer =
  [ ("alg.self_s", "s"); ("alg.ns_per_cmp", "ns") ]
  @ List.map (fun l -> ("alg.phase." ^ l ^ ".share", "ratio")) alg_phases
  @ [
      ("alg.floor_ratio", "ratio"); ("host.floor_sort_s", "s"); ("host.ref_s", "s");
      ("host.run_s", "s");
      ("gc.minor_mwords", "Mwords"); ("gc.major_mwords", "Mwords");
      ("gc.major_collections", "count"); ("gc.time_s", "s");
      ("shell.ios", "count"); ("shell.rounds", "count"); ("shell.trace_events", "count");
      ("shell.ns_per_io", "ns");
      ("backend.loads", "count"); ("backend.stores", "count"); ("backend.load_ns", "ns");
      ("backend.store_ns", "ns"); ("backend.coverage", "ratio"); ("backend.slot_bytes", "bytes");
      ("pool.hit_ratio", "ratio"); ("pool.evictions", "count");
      ("io_pool.handoff_ns", "ns");
      ("online.refine_ios", "count"); ("online.answer_ios", "count"); ("online.splits", "count");
      ("online.refine_share", "ratio"); ("online.answer_share", "ratio");
      ("serve.self_share", "ratio"); ("serve.parse_ns", "ns");
      ("serve.reply_bytes_per_query", "bytes");
      ("state.saves", "count"); ("state.save_ios", "count");
      ("cluster.comm_words", "count"); ("cluster.comm_rounds", "count");
      ("cluster.agree_samples", "count"); ("cluster.shard_skew", "ratio");
      ("cluster.phase.local-sort.share", "ratio"); ("cluster.phase.finish.share", "ratio");
      ("cluster.p4_failed", "count");
      ("trace.overhead_ratio", "ratio");
    ]

(* ---- the run ---- *)

(* Set-up-only repetitions follow every pass, so that set-up time is
   sampled across the whole run, as the passes are.  They come after the
   first pass, whose heap peak is thereby its own.  Every set-up starts
   after a full major GC, so that none pays for an earlier pass's garbage. *)
let setups_per_pass = 2

let setup_once w =
  Gc.full_major ();
  match w.pass Setup with _ -> invalid_arg "set-up-only pass ran" | exception Set_up s -> s

(* The passes, in order, and the set-up-only samples. *)
let run_passes ~seconds ~trace w =
  let deadline = clock () +. seconds in
  let rec go i passes setups =
    let enough = i >= if trace then 2 else 1 in
    if enough && clock () >= deadline then (List.rev passes, setups)
    else begin
      Gc.full_major ();
      let p = w.pass (if trace && i mod 2 = 1 then Traced else Plain) in
      let s = List.init setups_per_pass (fun _ -> setup_once w) in
      go (i + 1) ((i, p) :: passes) (s @ setups)
    end
  in
  go 0 [] []

let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics))

(* Times in multiples of the pass's host reference.  Each figure is taken
   per pass and the run reports its median over the passes, so that a slow
   stretch of the host moves a few passes, not the run's figure. *)
let per_pass f ps = median (List.map f ps)
let run_ref = per_pass (fun (p : pass) -> p.wall_s /. p.ref_s)
let in_ref (p : pass) = List.map (fun s -> s /. p.ref_s) p.requests

(* A pass's first request is its cold one, when it has others. *)
let warm p = match in_ref p with _ :: (_ :: _ as rest) -> rest | l -> l

let end_to_end_values ~setups passes =
  let all = List.map snd passes in
  (* Counts and the heap peak come from the first pass, which every run has,
     so they repeat exactly for a seed. *)
  let first = List.hd all in
  [
    ("setup_s", median setups);
    ("run_ref", run_ref all);
    ("first_query_ref", per_pass (fun p -> List.hd (in_ref p)) all);
    ("query_p50_mref", 1e3 *. per_pass (fun p -> median (warm p)) all);
    ("query_p99_mref", 1e3 *. per_pass (fun p -> tail (warm p)) all);
    ( "queries_per_ref",
      per_pass
        (fun p -> float (List.length p.requests) /. List.fold_left ( +. ) 0. (in_ref p))
        all );
    ("ios", float first.ios);
    ("comparisons", float first.comparisons);
    ("heap_peak_mb", float first.heap_words *. 8. /. 1048576.);
  ]

let per_layer_values ~seed ~extra w passes =
  let traced = List.filter_map (fun (i, p) -> if i mod 2 = 1 then Some p else None) passes in
  let plain = List.filter_map (fun (i, p) -> if i mod 2 = 0 then Some p else None) passes in
  let run_s ps = median (List.map (fun p -> p.wall_s) ps) in
  let floor = snd (Lazy.force w.oracle) in
  let layer name =
    median (List.map (fun p -> Option.value ~default:0. (List.assoc_opt name p.layers)) traced)
  in
  let wrapped = List.exists (fun p -> List.mem_assoc "backend.load_ns" p.layers) traced in
  let extra = extra @ rate_layers ~seed w @ if wrapped then [] else sim_backend_ns () in
  List.map
    (fun (name, unit) ->
      let v =
        match name with
        | "alg.floor_ratio" -> run_s plain /. floor
        | "host.floor_sort_s" -> floor
        | "host.ref_s" -> median (List.map (fun (p : pass) -> p.ref_s) plain)
        | "host.run_s" -> run_s plain
        | "trace.overhead_ratio" -> (run_ref traced /. run_ref plain) -. 1.
        | _ -> ( match List.assoc_opt name extra with Some v -> v | None -> layer name)
      in
      (name, unit, v))
    per_layer

let usage () =
  prerr_endline
    "usage: perfbench --workload (batch-paper|sort-file|serve-durable|cluster-partition) \
     --seed N --seconds S --trace (0|1)";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let make =
    match !workload with
    | "batch-paper" -> batch_paper
    | "sort-file" -> sort_file
    | "serve-durable" -> serve_durable
    | "cluster-partition" -> cluster_partition
    | _ -> usage ()
  in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let w = make ~seed:!seed in
  let trace = !trace = 1 in
  let passes, setups = run_passes ~seconds:!seconds ~trace w in
  let extra = w.extra_layers () in
  let all = List.map snd passes in
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 all in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 all in
  let metrics =
    if trace then per_layer_values ~seed:!seed ~extra w passes
    else
      let values = end_to_end_values ~setups:(setups @ List.map (fun p -> p.setup_s) all) passes in
      List.map (fun (name, unit) -> (name, unit, List.assoc name values)) end_to_end
  in
  (try Sys.rmdir work_dir with Sys_error _ -> ());
  let walls = List.map (fun p -> p.wall_s) all in
  Printf.printf "workload %s  seed %d  N=%d  M=%d  B=%d  passes %d  pass wall median %.4f s iqr %.4f s\n"
    w.name !seed w.n mem block (List.length all) (median walls) (iqr walls);
  Printf.printf "  pass walls: %s\n" (String.concat " " (List.map (Printf.sprintf "%.4f") walls));
  Printf.printf "  host refs:  %s\n"
    (String.concat " " (List.map (fun (p : pass) -> Printf.sprintf "%.4f" p.ref_s) all));
  Printf.printf "  %-34s %.6f s\n" "host.floor_sort_s" (snd (Lazy.force w.oracle));
  List.iter (fun (name, unit, v) -> Printf.printf "  %-34s %s %s\n" name (num v) unit) metrics;
  if !gc_lost > 0 then Printf.printf "  gc.time_s misses %d runtime events\n" !gc_lost;
  print_endline (json ~correct:(failed = 0) ~attempted ~failed metrics)
