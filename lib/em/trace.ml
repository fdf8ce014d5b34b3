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
}

let default_ring_capacity = 8192
let ring_env_var = "EM_TRACE_RING"

(* Same contract as [Params.default_disks]/EM_DISKS: unset or empty means
   the baked-in default, anything else must be a positive integer. *)
let env_ring_capacity () =
  match Sys.getenv_opt ring_env_var with
  | None | Some "" -> default_ring_capacity
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some c when c >= 1 -> c
      | _ ->
          invalid_arg
            (Printf.sprintf "Trace: %s must be a positive integer (got %S)" ring_env_var s))

let make_ring capacity =
  if capacity < 1 then invalid_arg "Trace.ring_sink: capacity must be >= 1";
  { capacity; buf = [||]; len = 0; head = 0; dropped = 0 }

let ring_sink ~capacity = Ring (make_ring capacity)
let jsonl_sink oc = Jsonl oc
let custom_sink ?(reset = fun () -> ()) f = Custom { push = f; on_reset = reset }

let create ?ring_capacity () =
  let capacity =
    match ring_capacity with Some c -> c | None -> env_ring_capacity ()
  in
  { sinks = [ ring_sink ~capacity ]; last_block = min_int; next_seq = 0 }

let add_sink t sink = t.sinks <- t.sinks @ [ sink ]

let collector () =
  let acc = ref [] in
  ( Custom { push = (fun e -> acc := e :: !acc); on_reset = (fun () -> acc := []) },
    fun () -> List.rev !acc )

let counter pred =
  let n = ref 0 in
  ( Custom { push = (fun e -> if pred e then incr n); on_reset = (fun () -> n := 0) },
    fun () -> !n )

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

let classify t block =
  if t.next_seq = 0 then Random
  else if block = t.last_block || block = t.last_block + 1 then Sequential
  else Random

let emit_now ~kind ~backend ?cache ?disk ?round ?shard t op ~block ~phase =
  let e =
    { seq = t.next_seq; op; kind; block; phase; locality = classify t block;
      backend; cache; disk; round; shard }
  in
  t.next_seq <- t.next_seq + 1;
  t.last_block <- block;
  List.iter
    (function
      | Ring r -> ring_push r e
      | Jsonl oc ->
          output_string oc (event_to_json e);
          output_char oc '\n'
      | Custom c -> c.push e)
    t.sinks

(* Deferred emission for work running off the main domain.

   A staged event is one phase-list pointer (shared with the machine's
   stack, never copied) plus one packed int — op, cache outcome, kind, two
   presence flags, a context index and the block — followed by the disk and
   round when present.  The tracer, backend name and shard, which are fixed
   per device, live once in a small context table.  Both streams grow by
   appending fixed-size chunks, so a stage never copies itself.  Sequence
   numbers and locality are not decided here: {!replay} runs the events
   through the ordinary emit path, so they come out exactly as if emitted in
   replay order. *)

let chunk = 1024

type 'a chunks = {
  mutable full : 'a array list;  (* filled chunks, newest first *)
  mutable cur : 'a array;  (* made at the first push after a fill *)
  mutable fill : int;
}

let new_chunks () = { full = []; cur = [||]; fill = 0 }

let push_chunk c x =
  if c.fill = Array.length c.cur then begin
    if c.fill > 0 then c.full <- c.cur :: c.full;
    c.cur <- Array.make chunk x;
    c.fill <- 0
  end;
  c.cur.(c.fill) <- x;
  c.fill <- c.fill + 1

let chunk_list c = List.rev_append c.full [ Array.sub c.cur 0 c.fill ]

type context = { tracer : t; ctx_backend : string; ctx_shard : int option }

type stage = {
  mutable contexts : context array;
  mutable last : int;  (* index of the most recently used context *)
  mutable phases : string list chunks;
  mutable words : int chunks;
}

let create_stage () =
  { contexts = [||]; last = -1; phases = new_chunks (); words = new_chunks () }

let staging : stage option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let fault_kinds =
  Fault.[| Transient_read; Permanent_read; Transient_write; Permanent_write;
           Torn_write; Bit_corruption; Crash |]

let kind_code = function
  | Io -> 0
  | Retry -> 1
  | Faulted k ->
      let rec find i = if fault_kinds.(i) = k then i + 2 else find (i + 1) in
      find 0

let kind_of_code = function 0 -> Io | 1 -> Retry | c -> Faulted fault_kinds.(c - 2)

(* Packed word: bit 0 op, bits 1-2 cache, bits 3-6 kind, bit 7 disk
   present, bit 8 round present, bits 9-20 context, block above (signed:
   checkpoint records use negative ids). *)
let ctx_shift = 9
let max_contexts = 1 lsl 12
let block_shift = ctx_shift + 12

let same_context c t backend shard =
  c.tracer == t && String.equal c.ctx_backend backend && Option.equal Int.equal c.ctx_shard shard

let context_index st t backend shard =
  if st.last >= 0 && same_context st.contexts.(st.last) t backend shard then st.last
  else begin
    let n = Array.length st.contexts in
    let rec find i =
      if i = n then begin
        if n = max_contexts then invalid_arg "Trace.staged: too many distinct contexts";
        st.contexts <-
          Array.append st.contexts [| { tracer = t; ctx_backend = backend; ctx_shard = shard } |];
        n
      end
      else if same_context st.contexts.(i) t backend shard then i
      else find (i + 1)
    in
    st.last <- find 0;
    st.last
  end

let stage_event st ~kind ~backend ~cache ~disk ~round ~shard t op ~block ~phase =
  push_chunk st.phases phase;
  push_chunk st.words
    ((match op with Read -> 0 | Write -> 1)
    lor ((match cache with None -> 0 | Some Hit -> 1 | Some Miss -> 2) lsl 1)
    lor (kind_code kind lsl 3)
    lor ((if disk = None then 0 else 1) lsl 7)
    lor ((if round = None then 0 else 1) lsl 8)
    lor (context_index st t backend shard lsl ctx_shift)
    lor (block lsl block_shift));
  (match disk with None -> () | Some d -> push_chunk st.words d);
  match round with None -> () | Some r -> push_chunk st.words r

let emit ?(kind = Io) ?(backend = "sim") ?cache ?disk ?round ?shard t op ~block ~phase =
  match Domain.DLS.get staging with
  | None -> emit_now ~kind ~backend ?cache ?disk ?round ?shard t op ~block ~phase
  | Some st -> stage_event st ~kind ~backend ~cache ~disk ~round ~shard t op ~block ~phase

let staged st f =
  let outer = Domain.DLS.get staging in
  Domain.DLS.set staging (Some st);
  Fun.protect ~finally:(fun () -> Domain.DLS.set staging outer) f

let replay st =
  let contexts = st.contexts and phases = chunk_list st.phases in
  let words = Array.concat (chunk_list st.words) and pos = ref 0 in
  let next () =
    let w = words.(!pos) in
    incr pos;
    w
  in
  st.contexts <- [||];
  st.last <- -1;
  st.phases <- new_chunks ();
  st.words <- new_chunks ();
  List.iter
    (Array.iter (fun phase ->
         let w = next () in
         let disk = if (w lsr 7) land 1 = 1 then Some (next ()) else None in
         let round = if (w lsr 8) land 1 = 1 then Some (next ()) else None in
         let c = contexts.((w lsr ctx_shift) land (max_contexts - 1)) in
         emit_now
           ~kind:(kind_of_code ((w lsr 3) land 15))
           ~backend:c.ctx_backend
           ?cache:(match (w lsr 1) land 3 with 1 -> Some Hit | 2 -> Some Miss | _ -> None)
           ?disk ?round ?shard:c.ctx_shard c.tracer
           (if w land 1 = 0 then Read else Write)
           ~block:(w asr block_shift) ~phase))
    phases

let first_ring t =
  List.find_map (function Ring r -> Some r | _ -> None) t.sinks

let events t = match first_ring t with None -> [] | Some r -> ring_events r
let dropped t = match first_ring t with None -> 0 | Some r -> r.dropped
let total t = t.next_seq

let reset t =
  t.last_block <- min_int;
  t.next_seq <- 0;
  List.iter
    (function
      | Ring r ->
          r.len <- 0;
          r.head <- 0;
          r.dropped <- 0
      | Custom c -> c.on_reset ()
      | Jsonl _ -> ())
    t.sinks
