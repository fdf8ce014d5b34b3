type span_hooks = {
  on_push : string list -> unit;
  on_pop : string list -> unit;
  on_mem : int -> unit;
}

type snapshot = {
  at_reads : int;
  at_writes : int;
  at_comparisons : int;
  at_faults : int;
  at_retries : int;
  at_cache_hits : int;
  at_cache_misses : int;
  at_rounds : int;
  at_comm_rounds : int;
  at_comm_words : int;
}

type delta = {
  d_reads : int;
  d_writes : int;
  d_comparisons : int;
  d_faults : int;
  d_retries : int;
  d_cache_hits : int;
  d_cache_misses : int;
  d_rounds : int;
  d_comm_rounds : int;
  d_comm_words : int;
}

(* One distinct phase path.  [push_phase] interns each path once, so the
   tree holds every path the machine has entered, children in first-entry
   order.  A path is open at most once at a time (re-entering a label
   nests a new path), so the open frame's snapshot and memory peak live in
   the node itself. *)
type phase_node = {
  label : string;
  stack : string list;  (* this path, innermost label first *)
  parent : phase_node option;  (* [None] for the root, the empty path *)
  mutable children : phase_node list;
  mutable calls : int;
  mutable cost : delta;  (* inclusive, closed frames only *)
  mutable high : int;  (* highest [mem_in_use] seen by a closed frame *)
  mutable snap : snapshot;  (* the open frame's entry point *)
  mutable peak : int;  (* the open frame's highest [mem_in_use] so far *)
}

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable comparisons : int;
  mutable faults : int;
  mutable retries : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable allocated_blocks : int;
  mutable freed_blocks : int;
  mutable rounds : int;
  disk_ios : (int, int) Hashtbl.t;
  mutable window_depth : int;
  window_counts : (int, int) Hashtbl.t;
  mutable comm_rounds : int;
  mutable comm_words : int;
  shard_sent : (int, int) Hashtbl.t;
  shard_recv : (int, int) Hashtbl.t;
  mutable comm_depth : int;
  mutable comm_pending : int;
  mutable mem_in_use : int;
  mutable pool_words : int;
  mutable mem_peak : int;
  mutable phase_stack : string list;
  phase_root : phase_node;
  mutable phase : phase_node;
  mutable popped : delta;
  mutable hooks : span_hooks option;
  mutable reclaim : (int -> unit) option;
  mutable reclaimers : (int -> int) option ref list;
}

let zero_snapshot =
  {
    at_reads = 0;
    at_writes = 0;
    at_comparisons = 0;
    at_faults = 0;
    at_retries = 0;
    at_cache_hits = 0;
    at_cache_misses = 0;
    at_rounds = 0;
    at_comm_rounds = 0;
    at_comm_words = 0;
  }

let delta_between later snap =
  {
    d_reads = later.at_reads - snap.at_reads;
    d_writes = later.at_writes - snap.at_writes;
    d_comparisons = later.at_comparisons - snap.at_comparisons;
    d_faults = later.at_faults - snap.at_faults;
    d_retries = later.at_retries - snap.at_retries;
    d_cache_hits = later.at_cache_hits - snap.at_cache_hits;
    d_cache_misses = later.at_cache_misses - snap.at_cache_misses;
    d_rounds = later.at_rounds - snap.at_rounds;
    d_comm_rounds = later.at_comm_rounds - snap.at_comm_rounds;
    d_comm_words = later.at_comm_words - snap.at_comm_words;
  }

let zero_delta = delta_between zero_snapshot zero_snapshot

let new_node label stack parent =
  {
    label;
    stack;
    parent;
    children = [];
    calls = 0;
    cost = zero_delta;
    high = 0;
    snap = zero_snapshot;
    peak = 0;
  }

let create () =
  let root = new_node "" [] None in
  {
    reads = 0;
    writes = 0;
    comparisons = 0;
    faults = 0;
    retries = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    allocated_blocks = 0;
    freed_blocks = 0;
    rounds = 0;
    disk_ios = Hashtbl.create 8;
    window_depth = 0;
    window_counts = Hashtbl.create 8;
    comm_rounds = 0;
    comm_words = 0;
    shard_sent = Hashtbl.create 8;
    shard_recv = Hashtbl.create 8;
    comm_depth = 0;
    comm_pending = 0;
    mem_in_use = 0;
    pool_words = 0;
    mem_peak = 0;
    phase_stack = [];
    phase_root = root;
    phase = root;
    popped = zero_delta;
    hooks = None;
    reclaim = None;
    reclaimers = [];
  }

let set_hooks s hooks = s.hooks <- hooks
let hooks s = s.hooks
let set_reclaim s f = s.reclaim <- f

(* Voluntary-release registry, consulted by [Mem] before declaring overflow:
   holders of opportunistic charges (write-behind queues) register a callback
   that gives words back under pressure.  Handles deregister by nulling the
   ref — cheap, order-independent — and dead handles are pruned on add. *)
let live_reclaimer h = match !h with Some _ -> true | None -> false

let add_reclaimer s f =
  let h = ref (Some f) in
  s.reclaimers <- h :: List.filter live_reclaimer s.reclaimers;
  h

let remove_reclaimer _s h = h := None

let run_reclaimers s deficit =
  let rec go freed = function
    | [] -> freed
    | h :: rest -> (
        match !h with
        | None -> go freed rest
        | Some f ->
            let freed = freed + f (deficit - freed) in
            if freed >= deficit then freed else go freed rest)
  in
  go 0 s.reclaimers

let ios s = s.reads + s.writes

(* Round accounting.  Outside a scheduling window every metered I/O is its
   own round.  Inside a window, I/Os pile up per disk and the window costs
   the maximum over the per-disk counts — the disks operate in parallel but
   each moves one block per round.  With a single disk the maximum equals
   the sum, so [rounds = ios] exactly at D = 1 regardless of windowing. *)
let tbl_incr tbl key =
  Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let charge s ~write ~disk =
  if write then s.writes <- s.writes + 1 else s.reads <- s.reads + 1;
  tbl_incr s.disk_ios disk;
  if s.window_depth > 0 then tbl_incr s.window_counts disk
  else s.rounds <- s.rounds + 1

let begin_window s = s.window_depth <- s.window_depth + 1

let end_window s =
  if s.window_depth > 0 then begin
    s.window_depth <- s.window_depth - 1;
    if s.window_depth = 0 then begin
      let cost = Hashtbl.fold (fun _ c acc -> max c acc) s.window_counts 0 in
      s.rounds <- s.rounds + cost;
      Hashtbl.reset s.window_counts
    end
  end

let with_window s f =
  begin_window s;
  Fun.protect ~finally:(fun () -> end_window s) f

let disk_report s =
  Hashtbl.fold (fun disk n acc -> (disk, n) :: acc) s.disk_ios []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Rounds the currently-open outermost window would charge if it closed now.
   Snapshots taken inside a window must see them: otherwise a measurement that
   opens before the window and closes inside it (or vice versa) attributes the
   whole window's cost to whichever bracket happens to straddle the close,
   and a query that triggers refinement inside an already-open scheduling
   window at D > 1 reports d_rounds = 0. *)
let pending_window_rounds s =
  if s.window_depth = 0 then 0
  else Hashtbl.fold (fun _ c acc -> max c acc) s.window_counts 0

let effective_rounds s = s.rounds + pending_window_rounds s

(* Communication ledger.  The discipline mirrors the I/O scheduling windows:
   outside a superstep every transfer is its own communication round; inside
   one, transfers pile up and the outermost close charges exactly one round
   (BSP semantics: all messages posted in a superstep are delivered together).
   Volume ([comm_words], per-shard send/recv) is window-independent, like
   [reads]/[writes] — supersteps change rounds, never words. *)
let tbl_add tbl key n =
  Hashtbl.replace tbl key (n + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let record_comm s ~src ~dst ~words =
  if src <> dst && words > 0 then begin
    s.comm_words <- s.comm_words + words;
    tbl_add s.shard_sent src words;
    tbl_add s.shard_recv dst words;
    if s.comm_depth > 0 then s.comm_pending <- s.comm_pending + 1
    else s.comm_rounds <- s.comm_rounds + 1
  end

let begin_comm_round s = s.comm_depth <- s.comm_depth + 1

let end_comm_round s =
  if s.comm_depth > 0 then begin
    s.comm_depth <- s.comm_depth - 1;
    if s.comm_depth = 0 then begin
      if s.comm_pending > 0 then s.comm_rounds <- s.comm_rounds + 1;
      s.comm_pending <- 0
    end
  end

let with_comm_round s f =
  begin_comm_round s;
  Fun.protect ~finally:(fun () -> end_comm_round s) f

(* Rounds the currently-open outermost superstep would charge if it closed
   now, so mid-superstep snapshots telescope just like mid-window ones. *)
let pending_comm_rounds s = if s.comm_depth > 0 && s.comm_pending > 0 then 1 else 0
let effective_comm_rounds s = s.comm_rounds + pending_comm_rounds s

let shard_report tbl =
  Hashtbl.fold (fun shard n acc -> (shard, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let sent_report s = shard_report s.shard_sent
let recv_report s = shard_report s.shard_recv

let snapshot s =
  {
    at_reads = s.reads;
    at_writes = s.writes;
    at_comparisons = s.comparisons;
    at_faults = s.faults;
    at_retries = s.retries;
    at_cache_hits = s.cache_hits;
    at_cache_misses = s.cache_misses;
    at_rounds = effective_rounds s;
    at_comm_rounds = effective_comm_rounds s;
    at_comm_words = s.comm_words;
  }

let ios_since s snap = s.reads + s.writes - snap.at_reads - snap.at_writes
let delta s snap = delta_between (snapshot s) snap
let delta_ios d = d.d_reads + d.d_writes

let add_delta a b =
  {
    d_reads = a.d_reads + b.d_reads;
    d_writes = a.d_writes + b.d_writes;
    d_comparisons = a.d_comparisons + b.d_comparisons;
    d_faults = a.d_faults + b.d_faults;
    d_retries = a.d_retries + b.d_retries;
    d_cache_hits = a.d_cache_hits + b.d_cache_hits;
    d_cache_misses = a.d_cache_misses + b.d_cache_misses;
    d_rounds = a.d_rounds + b.d_rounds;
    d_comm_rounds = a.d_comm_rounds + b.d_comm_rounds;
    d_comm_words = a.d_comm_words + b.d_comm_words;
  }

(* Phase attribution.  A push interns the path (its node keeps the shared
   innermost-first stack, so a repeated push conses nothing) and opens a
   frame: a snapshot plus a memory peak.  A pop adds the frame's delta into
   the node's inclusive totals and hands it to [on_pop] through [popped].
   No metered I/O touches any of this. *)
let push_phase s label =
  let parent = s.phase in
  let node =
    match List.find_opt (fun c -> String.equal c.label label) parent.children with
    | Some c -> c
    | None ->
        let c = new_node label (label :: parent.stack) (Some parent) in
        parent.children <- parent.children @ [ c ];
        c
  in
  node.snap <- snapshot s;
  node.peak <- s.mem_in_use;
  s.phase <- node;
  s.phase_stack <- node.stack;
  match s.hooks with None -> () | Some h -> h.on_push node.stack

let pop_phase s =
  let node = s.phase in
  match node.parent with
  | None -> ()
  | Some parent ->
      let d = delta s node.snap in
      node.calls <- node.calls + 1;
      node.cost <- add_delta node.cost d;
      node.high <- max node.high node.peak;
      parent.peak <- max parent.peak node.peak;
      s.popped <- d;
      (match s.hooks with None -> () | Some h -> h.on_pop node.stack);
      s.phase <- parent;
      s.phase_stack <- parent.stack

let notify_mem s =
  if s.mem_in_use > s.phase.peak then s.phase.peak <- s.mem_in_use;
  match s.hooks with None -> () | Some h -> h.on_mem s.mem_in_use

(* A crash wipes RAM: whatever the interrupted computation had charged to the
   ledger is gone.  The high-water mark survives — it already happened.  Open
   phases are unwound one by one so an attached profiler sees balanced
   enter/exit pairs. *)
let wipe_memory s =
  s.mem_in_use <- 0;
  while s.phase != s.phase_root do
    pop_phase s
  done

let current_phase s =
  match s.phase_stack with [] -> "(other)" | label :: _ -> label

let rec fold_phases f acc node =
  List.fold_left (fun acc c -> fold_phases f (f acc c) c) acc node.children

let phase_tree s = List.rev (fold_phases (fun acc n -> n :: acc) [] s.phase_root)

(* The exclusive view: a path's own I/Os are its inclusive I/Os minus its
   children's, where an open frame also counts what it has done so far.  The
   root's inclusive I/Os are all of them; its own share is "(other)". *)
let phase_report s =
  let rec open_nodes n = match n.parent with None -> [] | Some p -> n :: open_nodes p in
  let opened = open_nodes s.phase in
  let inclusive n =
    if n == s.phase_root then ios s
    else delta_ios n.cost + if List.memq n opened then ios_since s n.snap else 0
  in
  let own n = inclusive n - List.fold_left (fun a c -> a + inclusive c) 0 n.children in
  let entry n = (String.concat "/" (List.rev n.stack), own n) in
  fold_phases (fun acc n -> entry n :: acc) [ ("(other)", own s.phase_root) ] s.phase_root
  |> List.filter (fun (_, ios) -> ios > 0)
  |> List.sort (fun (pa, a) (pb, b) ->
         match Int.compare b a with 0 -> String.compare pa pb | c -> c)

let pp ppf s =
  Format.fprintf ppf
    "{ reads = %d; writes = %d; ios = %d; comparisons = %d; mem_peak = %d }"
    s.reads s.writes (ios s) s.comparisons s.mem_peak;
  if s.faults > 0 || s.retries > 0 then
    Format.fprintf ppf " [faults = %d; retries = %d]" s.faults s.retries;
  if s.cache_hits > 0 || s.cache_misses > 0 then
    Format.fprintf ppf " [cache hits = %d; misses = %d]" s.cache_hits s.cache_misses;
  if s.rounds <> ios s then Format.fprintf ppf " [rounds = %d]" s.rounds;
  if s.comm_rounds > 0 || s.comm_words > 0 then
    Format.fprintf ppf " [comm rounds = %d; words = %d]" s.comm_rounds s.comm_words
