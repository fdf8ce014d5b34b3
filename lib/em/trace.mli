(** Structured I/O event tracing.

    Every metered {!Device} operation is counted here ({!total}), classified
    sequential or random against the previously accessed block id, and
    random ones are counted too ({!seeks}).  Those counters are all a tracer
    keeps by itself: {!create} attaches no sink, and an {!event} record —
    operation kind, block id, the active phase path (see {!Phase}),
    locality, backend annotations — is built only when a {!sink} is
    attached.  Sinks are a bounded in-memory ring (the flight recorder's
    source), a JSONL file, an unbounded collector, or ad-hoc callbacks.

    Tracing is observability machinery: it costs no simulated I/O and never
    changes what an algorithm does. *)

type op = Read | Write

type locality =
  | Sequential  (** same block as the previous I/O, or the next block id *)
  | Random  (** anything else: the disk head had to seek *)

type kind =
  | Io  (** an ordinary first-attempt I/O *)
  | Retry  (** a recovery re-attempt charged by {!Resilient} *)
  | Faulted of Fault.kind  (** an attempt on which a fault was injected *)

type cache =
  | Hit  (** served from a resident buffer-pool page *)
  | Miss  (** had to go to the underlying backend *)

type event = {
  seq : int;  (** 0-based sequence number of the I/O on this tracer *)
  op : op;
  kind : kind;
  block : int;
  phase : string list;  (** phase path, innermost label first *)
  locality : locality;
  backend : string;  (** storage backend that served the I/O; ["sim"] default *)
  cache : cache option;  (** buffer-pool outcome, for cached reads only *)
  disk : int option;
      (** disk the block is striped onto; [None] on a single-disk machine *)
  round : int option;
      (** parallel round id; I/Os batched in one scheduling window share it *)
  shard : int option;
      (** cluster shard that issued the I/O; [None] on a single machine *)
}

type sink
type t

val create : unit -> t
(** A tracer with no sink: it counts events and seeks and builds no event
    record until a sink is added. *)

val ring_sink : capacity:int -> sink
(** A bounded ring keeping the most recent [capacity] events and counting
    how many it evicted.
    @raise Invalid_argument if [capacity < 1]. *)

val jsonl_sink : out_channel -> sink
(** One JSON object per line; the caller owns (and closes) the channel. *)

val custom_sink : ?reset:(unit -> unit) -> (event -> unit) -> sink
(** Ad-hoc callback sink.  [reset] (default: do nothing) is invoked by
    {!reset} so stateful callbacks can drop accumulated state along with the
    rest of the tracer. *)

val collector : unit -> sink * (unit -> event list)
(** An unbounded sink that retains every event, plus a function returning
    them oldest-first.  Use for reports on runs whose length exceeds any
    reasonable ring.  {!reset} clears the retained events. *)

val add_sink : t -> sink -> unit

val emit :
  ?kind:kind -> ?backend:string -> ?cache:cache -> ?disk:int -> ?round:int ->
  ?shard:int -> t -> op -> block:int -> phase:string list -> unit
(** Record one I/O (called by {!Device}; [kind] defaults to {!Io}, [backend]
    to ["sim"], [cache]/[disk]/[round]/[shard] to [None]).  The first event
    on a tracer is classified {!Random} (the head must seek to the first
    block). *)

(** {2 Staged emission}

    Work that runs off the main domain (the shard-local supersteps of
    [Core.Cluster]) must not touch a tracer's sinks, counters or locality
    state.  Inside {!staged}, {!emit} on the calling domain records into a
    {!stage} instead: for a tracer with no sink, only its event count, the
    seeks after its first staged event, and its first and last block; for a
    tracer with sinks, the emit arguments in order.  {!replay} later applies
    them on the caller's domain, so {!total}, {!seeks}, sequence numbers,
    locality and every sink see exactly the stream an unstaged run of the
    same work would have produced.  Outside {!staged}, {!emit} pays one
    domain-local lookup. *)

type stage

val create_stage : unit -> stage

val staged : stage -> (unit -> 'a) -> 'a
(** [staged st f] runs [f] with this domain's {!emit} calls recorded into
    [st] (for every tracer), restoring the previous mode when [f] returns or
    raises. *)

val replay : stage -> unit
(** Apply [st] to its tracers, oldest event first, leaving [st] empty.
    Call it on a domain that is not itself staging. *)

val events : t -> event list
(** Retained events of the first ring sink, oldest first; [[]] when no
    ring is attached. *)

val dropped : t -> int
(** Events evicted from the first ring sink since creation/reset. *)

val total : t -> int
(** Total events emitted since creation/reset, with or without sinks. *)

val seeks : t -> int
(** Events classified {!Random} since creation/reset, with or without
    sinks. *)

val reset : t -> unit
(** Clear sequence numbering, the seek count, locality state, and the
    contents of {e every} sink that owns state: ring sinks are emptied
    (length, head and dropped count), and custom sinks — {!collector}
    included — have their [reset] hook invoked, so no sink silently carries
    events across runs.  JSONL sinks are the one exception: the tracer does not own the
    channel, so already-written lines stay in the file and subsequent events
    are appended (their [seq] restarts at 0). *)

val op_name : op -> string
val locality_name : locality -> string
val kind_name : kind -> string
val cache_name : cache -> string

val event_to_json : event -> string
(** One JSON object.  The [backend], [cache], [disk]/[round] and [shard]
    fields are omitted when they carry no information (backend ["sim"],
    cache [None], disk [None] — i.e. a single-disk machine — shard [None]
    — i.e. not part of a cluster), so traces from the default simulated
    backend keep their historical shape. *)
