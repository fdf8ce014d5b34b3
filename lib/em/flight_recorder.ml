(* Bounded journal of recent query records, joined on demand with a
   tracer's ring sink into a self-contained post-mortem JSON.

   Each record remembers the [Trace.total] window ([seq_lo], [seq_hi])
   that was live while its query executed, so a dump can slice the trace
   ring down to exactly the events belonging to the retained queries.
   Everything wall-clock-derived stays under "wall" keys, matching the
   serve/telemetry determinism convention. *)

type record = {
  id : int;
  kind : string;
  query : string;
  ios : int;
  rounds : int;
  splits : int;
  wall_ns : int;
  outcome : string;
  seq_lo : int;  (* Trace.total before the query ran *)
  seq_hi : int;  (* Trace.total after it finished *)
}

type t = {
  capacity : int;
  mutable buf : record array;
  mutable len : int;
  mutable head : int;
  mutable total : int;  (* records ever pushed, independent of capacity *)
  mutable dumps : int;
}

let default_capacity = 64
let default_trace_ring = 8192

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Flight_recorder.create: capacity must be >= 1";
  { capacity; buf = [||]; len = 0; head = 0; total = 0; dumps = 0 }

let record t r =
  if Array.length t.buf = 0 then t.buf <- Array.make t.capacity r;
  if t.len < t.capacity then begin
    t.buf.((t.head + t.len) mod t.capacity) <- r;
    t.len <- t.len + 1
  end
  else begin
    t.buf.(t.head) <- r;
    t.head <- (t.head + 1) mod t.capacity
  end;
  t.total <- t.total + 1

let records t = List.init t.len (fun i -> t.buf.((t.head + i) mod t.capacity))
let recorded t = t.total
let retained t = t.len
let dumps t = t.dumps

let record_to_json r =
  Printf.sprintf
    "{\"id\":%d,\"kind\":%S,\"query\":%S,\"outcome\":%S,\"cost\":{\"ios\":%d,\"rounds\":%d,\"splits\":%d},\"trace\":{\"lo\":%d,\"hi\":%d},\"wall\":{\"ns\":%d}}"
    r.id r.kind r.query r.outcome r.ios r.rounds r.splits r.seq_lo r.seq_hi
    r.wall_ns

let dump ?trace ?metrics ?(now = Unix.gettimeofday) ~reason t =
  t.dumps <- t.dumps + 1;
  let rs = records t in
  let queries = String.concat "," (List.map record_to_json rs) in
  (* Slice the trace ring to the events that belong to retained queries:
     everything at or after the oldest retained record's start. *)
  let trace_json =
    match trace with
    | None -> "\"trace_events\":[],\"trace_dropped\":0"
    | Some tr ->
        let lo =
          List.fold_left (fun acc r -> min acc r.seq_lo) max_int rs
        in
        let evs =
          Trace.events tr
          |> List.filter (fun (e : Trace.event) -> rs = [] || e.seq >= lo)
          |> List.map Trace.event_to_json
        in
        Printf.sprintf "\"trace_events\":[%s],\"trace_dropped\":%d"
          (String.concat "," evs) (Trace.dropped tr)
  in
  let metrics_json =
    match metrics with
    | None -> "null"
    | Some reg ->
        (* Metrics.to_json ends with a newline; a post-mortem is one line. *)
        String.trim (Metrics.to_json reg)
  in
  Printf.sprintf
    "{\"postmortem\":{\"reason\":%S,\"recorded\":%d,\"retained\":%d,\"queries\":[%s],%s,\"metrics\":%s,\"wall\":{\"ts_ms\":%.0f}}}"
    reason t.total t.len queries trace_json metrics_json
    (now () *. 1000.)

let dump_to_file ?trace ?metrics ?now ~reason t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (dump ?trace ?metrics ?now ~reason t);
      output_char oc '\n')
