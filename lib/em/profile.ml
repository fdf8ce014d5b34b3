(* Span-scoped profiler over the phase trees of one or more machines.  Each
   machine's [Stats] measures its own frames; the profiler sums, per path,
   the cost of every frame closed on a machine it is attached to, and adds
   the one thing [Stats] does not keep: host wall-clock time.  Pure
   observation: no simulated I/O, no behavior change. *)

type span = {
  path : string list;  (* outermost label first *)
  mutable calls : int;
  mutable cost : Stats.delta;
  mutable wall_ns : float;
  mutable mem_peak : int;
}

(* Wall time runs from the first push of a path to the pop that leaves no
   frame of it open on any attached machine: collective phases open on
   every shard at once, and their wall clock must not be counted P times. *)
type entry = { span : span; mutable live : int; mutable start : float }

type t = { entries : (string list, entry) Hashtbl.t }  (* keyed on the stack *)

let create () = { entries = Hashtbl.create 32 }

let now () = Unix.gettimeofday ()

let span_ios s = Stats.delta_ios s.cost

let on_push t stack =
  let e =
    match Hashtbl.find_opt t.entries stack with
    | Some e -> e
    | None ->
        let path = List.rev stack in
        let span =
          { path; calls = 0; cost = Stats.zero_delta; wall_ns = 0.; mem_peak = 0 }
        in
        let e = { span; live = 0; start = 0. } in
        Hashtbl.add t.entries stack e;
        e
  in
  if e.live = 0 then e.start <- now ();
  e.live <- e.live + 1

let on_pop t stats stack =
  match Hashtbl.find_opt t.entries stack with
  | Some e when e.live > 0 ->
      let s = e.span in
      e.live <- e.live - 1;
      if e.live = 0 then s.wall_ns <- s.wall_ns +. ((now () -. e.start) *. 1e9);
      s.calls <- s.calls + 1;
      s.cost <- Stats.add_delta s.cost stats.Stats.popped;
      s.mem_peak <- max s.mem_peak stats.Stats.phase.Stats.peak
  | _ -> ()  (* opened before the profiler was attached or reset *)

let attach t stats =
  Stats.set_hooks stats
    (Some { Stats.on_push = on_push t; on_pop = on_pop t stats; on_mem = ignore })

let detach stats = Stats.set_hooks stats None

let reset t = Hashtbl.reset t.entries

let spans t =
  Hashtbl.fold (fun _ e acc -> e.span :: acc) t.entries []
  |> List.sort (fun a b ->
         match Int.compare (span_ios b) (span_ios a) with
         | 0 -> compare a.path b.path
         | c -> c)

let path_name path = String.concat "/" path

(* ---- tree report ---- *)

(* Depth first, siblings by inclusive I/O (ties by label): a span sorts on
   its ancestors' and its own (-I/O, label) pairs, outermost first, so a
   parent's key prefixes its children's. *)
let pp ppf t =
  let ios stack =
    match Hashtbl.find_opt t.entries stack with Some e -> span_ios e.span | None -> 0
  in
  let rec suffixes = function [] -> [] | _ :: rest as st -> st :: suffixes rest in
  let key s = List.rev_map (fun st -> (-ios st, List.hd st)) (suffixes (List.rev s.path)) in
  List.iter
    (fun s ->
      let depth = List.length s.path - 1 and d = s.cost in
      Format.fprintf ppf "%s%-*s %8d I/O (r %d / w %d)  %9d cmp  %8.2f ms  x%d"
        (String.make (2 * depth) ' ')
        (max 1 (28 - (2 * depth)))
        (List.nth s.path depth) (span_ios s) d.Stats.d_reads d.Stats.d_writes
        d.Stats.d_comparisons (s.wall_ns /. 1e6) s.calls;
      (* Round compression only when parallel disks actually shortened the
         schedule, so single-disk profiles keep their exact shape. *)
      if d.Stats.d_rounds < span_ios s then
        Format.fprintf ppf "  [rounds %d]" d.Stats.d_rounds;
      if d.Stats.d_faults > 0 || d.Stats.d_retries > 0 then
        Format.fprintf ppf "  [faulted %d / retried %d]" d.Stats.d_faults
          d.Stats.d_retries;
      if d.Stats.d_cache_hits > 0 || d.Stats.d_cache_misses > 0 then
        Format.fprintf ppf "  [hit %d / miss %d]" d.Stats.d_cache_hits
          d.Stats.d_cache_misses;
      Format.fprintf ppf "@.")
    (List.sort (fun a b -> compare (key a) (key b)) (spans t))

(* ---- metrics bridge ---- *)

let publish reg t =
  List.iter
    (fun s ->
      let labels = [ ("span", path_name s.path) ] and d = s.cost in
      let g name help v =
        Metrics.set (Metrics.gauge reg ~help ~labels name) (float_of_int v)
      in
      g "span_ios" "I/Os inside the span (inclusive)" (span_ios s);
      g "span_reads" "Reads inside the span" d.Stats.d_reads;
      g "span_writes" "Writes inside the span" d.Stats.d_writes;
      if d.Stats.d_rounds < span_ios s then
        g "span_rounds" "Parallel I/O rounds inside the span" d.Stats.d_rounds;
      g "span_comparisons" "Comparisons inside the span" d.Stats.d_comparisons;
      g "span_faults" "Faulted attempts inside the span" d.Stats.d_faults;
      g "span_retries" "Recovery re-attempts inside the span" d.Stats.d_retries;
      if d.Stats.d_cache_hits > 0 || d.Stats.d_cache_misses > 0 then begin
        g "span_cache_hits" "Buffer-pool hits inside the span" d.Stats.d_cache_hits;
        g "span_cache_misses" "Buffer-pool misses inside the span" d.Stats.d_cache_misses
      end;
      g "span_mem_peak_words" "Peak memory words while the span was open" s.mem_peak;
      Metrics.set
        (Metrics.gauge reg ~help:"Host wall-clock nanoseconds inside the span" ~labels
           "span_wall_ns")
        s.wall_ns;
      g "span_calls" "Times the span was entered" s.calls)
    (spans t)
