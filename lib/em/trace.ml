type op = Read | Write
type locality = Sequential | Random
type kind = Io | Retry | Faulted of Fault.kind
type cache = Hit | Miss

type event = {
  seq : int;
  op : op;
  kind : kind;
  block : int;
  phase : string list;
  locality : locality;
  backend : string;
  cache : cache option;
  disk : int option;
  round : int option;
  shard : int option;
}

type ring = {
  capacity : int;
  mutable buf : event array;  (* physically empty until the first event *)
  mutable len : int;
  mutable head : int;  (* index of the oldest retained event *)
  mutable dropped : int;
}

type sink =
  | Ring of ring
  | Jsonl of out_channel
  | Custom of { push : event -> unit; on_reset : unit -> unit }

type t = {
  mutable sinks : sink list;
  mutable last_block : int;
  mutable next_seq : int;
  mutable seeks : int;
}

let ring_sink ~capacity =
  if capacity < 1 then invalid_arg "Trace.ring_sink: capacity must be >= 1";
  Ring { capacity; buf = [||]; len = 0; head = 0; dropped = 0 }

let jsonl_sink oc = Jsonl oc
let custom_sink ?(reset = fun () -> ()) f = Custom { push = f; on_reset = reset }
let create () = { sinks = []; last_block = min_int; next_seq = 0; seeks = 0 }
let add_sink t sink = t.sinks <- t.sinks @ [ sink ]

let collector () =
  let acc = ref [] in
  ( Custom { push = (fun e -> acc := e :: !acc); on_reset = (fun () -> acc := []) },
    fun () -> List.rev !acc )

let op_name = function Read -> "read" | Write -> "write"
let locality_name = function Sequential -> "sequential" | Random -> "random"
let cache_name = function Hit -> "hit" | Miss -> "miss"

let kind_name = function
  | Io -> "io"
  | Retry -> "retry"
  | Faulted k -> "fault:" ^ Fault.kind_name k

(* Phase labels are plain ASCII identifiers, for which OCaml's %S escaping
   coincides with JSON string escaping.  Backend annotations are only
   emitted when they carry information ([sim] with no cache outcome is the
   counted-model default), so sim-backed traces keep the historical shape. *)
let event_to_json e =
  Printf.sprintf "{\"seq\":%d,\"op\":%S,\"kind\":%S,\"block\":%d,\"phase\":[%s],\"locality\":%S%s%s}"
    e.seq (op_name e.op) (kind_name e.kind) e.block
    (String.concat "," (List.map (Printf.sprintf "%S") e.phase))
    (locality_name e.locality)
    (if e.backend = "sim" then "" else Printf.sprintf ",\"backend\":%S" e.backend)
    ((match e.cache with
     | None -> ""
     | Some c -> Printf.sprintf ",\"cache\":%S" (cache_name c))
    ^ (match e.disk with
      | None -> ""
      | Some d ->
          Printf.sprintf ",\"disk\":%d%s" d
            (match e.round with
            | None -> ""
            | Some r -> Printf.sprintf ",\"round\":%d" r))
    ^ (match e.shard with
      | None -> ""
      | Some s -> Printf.sprintf ",\"shard\":%d" s))

let ring_push r e =
  if Array.length r.buf = 0 then r.buf <- Array.make r.capacity e;
  if r.len < r.capacity then begin
    r.buf.((r.head + r.len) mod r.capacity) <- e;
    r.len <- r.len + 1
  end
  else begin
    r.buf.(r.head) <- e;
    r.head <- (r.head + 1) mod r.capacity;
    r.dropped <- r.dropped + 1
  end

let ring_events r = List.init r.len (fun i -> r.buf.((r.head + i) mod r.capacity))

let sequential ~last block = block = last || block = last + 1

let classify t block =
  if t.next_seq > 0 && sequential ~last:t.last_block block then Sequential else Random

(* The counters every emit advances; the event record is built only for
   sinks. *)
let emit_now ~kind ~backend ?cache ?disk ?round ?shard t op ~block ~phase =
  let locality = classify t block in
  (match locality with Random -> t.seeks <- t.seeks + 1 | Sequential -> ());
  (match t.sinks with
  | [] -> ()
  | sinks ->
      let e =
        { seq = t.next_seq; op; kind; block; phase; locality; backend; cache; disk; round;
          shard }
      in
      List.iter
        (function
          | Ring r -> ring_push r e
          | Jsonl oc ->
              output_string oc (event_to_json e);
              output_char oc '\n'
          | Custom c -> c.push e)
        sinks);
  t.next_seq <- t.next_seq + 1;
  t.last_block <- block

(* Deferred emission for work running off the main domain.

   A tracer with no sink is observed only through [total], [seeks] and the
   block its next event is classified against, so its staged events fold
   into a summary: the count, the seeks after its first event (which can
   only be classified against the tracer's state at replay), and the first
   and last block.  A tracer with sinks has its emit arguments recorded in
   order, as an event whose sequence number and locality {!replay} decides
   when it runs them through the ordinary emit path. *)

type summary = {
  tracer : t;
  first : int;
  mutable last : int;
  mutable count : int;
  mutable inner_seeks : int;  (* seeks among events 2..count *)
}

type stage = {
  mutable summaries : summary list;
  mutable pending : (t * event) list;  (* newest first; seq and locality unset *)
}

let create_stage () = { summaries = []; pending = [] }
let staging : stage option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let rec summarize st t block = function
  | s :: _ when s.tracer == t ->
      if not (sequential ~last:s.last block) then s.inner_seeks <- s.inner_seeks + 1;
      s.last <- block;
      s.count <- s.count + 1
  | _ :: rest -> summarize st t block rest
  | [] ->
      st.summaries <-
        { tracer = t; first = block; last = block; count = 1; inner_seeks = 0 } :: st.summaries

let stage_event st ~kind ~backend ~cache ~disk ~round ~shard t op ~block ~phase =
  match t.sinks with
  | [] -> summarize st t block st.summaries
  | _ ->
      st.pending <-
        ( t,
          { seq = -1; op; kind; block; phase; locality = Random; backend; cache; disk; round;
            shard } )
        :: st.pending

let emit ?(kind = Io) ?(backend = "sim") ?cache ?disk ?round ?shard t op ~block ~phase =
  match Domain.DLS.get staging with
  | None -> emit_now ~kind ~backend ?cache ?disk ?round ?shard t op ~block ~phase
  | Some st -> stage_event st ~kind ~backend ~cache ~disk ~round ~shard t op ~block ~phase

let staged st f =
  let outer = Domain.DLS.get staging in
  Domain.DLS.set staging (Some st);
  Fun.protect ~finally:(fun () -> Domain.DLS.set staging outer) f

let replay st =
  let summaries = st.summaries and pending = List.rev st.pending in
  st.summaries <- [];
  st.pending <- [];
  List.iter
    (fun s ->
      let t = s.tracer in
      if classify t s.first = Random then t.seeks <- t.seeks + 1;
      t.seeks <- t.seeks + s.inner_seeks;
      t.next_seq <- t.next_seq + s.count;
      t.last_block <- s.last)
    summaries;
  List.iter
    (fun (t, e) ->
      emit_now ~kind:e.kind ~backend:e.backend ?cache:e.cache ?disk:e.disk ?round:e.round
        ?shard:e.shard t e.op ~block:e.block ~phase:e.phase)
    pending

let first_ring t =
  List.find_map (function Ring r -> Some r | _ -> None) t.sinks

let events t = match first_ring t with None -> [] | Some r -> ring_events r
let dropped t = match first_ring t with None -> 0 | Some r -> r.dropped
let total t = t.next_seq
let seeks t = t.seeks

let reset t =
  t.last_block <- min_int;
  t.next_seq <- 0;
  t.seeks <- 0;
  List.iter
    (function
      | Ring r ->
          r.len <- 0;
          r.head <- 0;
          r.dropped <- 0
      | Custom c -> c.on_reset ()
      | Jsonl _ -> ())
    t.sinks
