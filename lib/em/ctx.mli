(** A simulated EM machine: parameters, cost counters, an I/O tracer and a
    block device.

    Every algorithm in this repository runs against a ['a Ctx.t].  Elements
    are of an arbitrary type ['a] (one element = one word); algorithms are
    comparison-based and receive an explicit comparator. *)

type 'a t = {
  params : Params.t;
  stats : Stats.t;
  trace : Trace.t;
  backend : Backend.instance;
  dev : 'a Device.t;
  shard : int option;  (** cluster shard identity; [None] on single machines *)
}

val create :
  ?trace:Trace.t -> ?backend:Backend.spec -> ?backend_dir:string -> ?pool_pages:int ->
  ?async:bool -> ?io_pool:Io_pool.t -> ?file_delay:(unit -> unit) ->
  ?disks:int -> ?shard:int -> Params.t -> 'a t
(** Fresh machine with zeroed counters.  Pass [~trace] to route I/O events
    into a tracer you configured (extra sinks, larger ring); otherwise a
    default ring-buffered tracer is attached.

    [backend] selects where blocks physically live (default: the
    [$EM_BACKEND] environment variable, falling back to {!Backend.Sim});
    [backend_dir] places file-backed storage, and [pool_pages] sizes the
    buffer pool of cached backends.  The choice is invisible to counted
    I/Os — see {!Backend}.

    [async] (default: [$EM_ASYNC], see {!Params.default_async}) runs the
    family's file I/O asynchronously on the {!Io_pool.global} worker
    domains; [io_pool] substitutes a private pool (tests), and [file_delay]
    injects a modeled per-access device latency into file backends (default:
    [$EM_FILE_LATENCY_US]).  All three move wall-clock time only: every
    counted read/write/round/comparison, trace event, fault decision and
    golden is identical with async on or off — see {!Backend} and
    {!Io_pool}.

    [disks] overrides the parameter record's disk count (itself defaulted
    from [$EM_DISKS]); it changes round accounting and slot striping, never
    per-block [reads]/[writes] or algorithm results.

    [shard] names the machine's position in a {!Core.Cluster}: each shard is
    a fully independent machine (own backend instance, own M-word ledger,
    own D disks) whose trace events carry the shard id.  Omit it on single
    machines — shard annotations are only emitted when present, so
    single-machine traces and goldens are unchanged. *)

val linked : 'a t -> 'b t
(** A context over a fresh device for elements of another type, sharing the
    parameters, I/O counters, tracer, memory ledger — and shard identity —
    of the original machine.  Used for auxiliary streams (rank lists, tagged pairs): all
    their I/Os and buffers are charged to the same meters.  The linked
    device inherits the parent's backend instance — file-backed families
    write under the same directory and cached families share one buffer
    pool — while keeping its own disjoint block-id space.  Fault injection
    carries over — the linked device consults the {e same} {!Fault.plan}
    (one schedule over the family's interleaved I/O stream) and, when the
    original is armed, shares its recovery policy and counters. *)

val backend_name : 'a t -> string
(** e.g. ["sim"], ["file"], ["cached"], ["cached:file"]. *)

val backend_pool : 'a t -> Backend.Pool.t option
(** The family's shared buffer pool, when the backend is cached. *)

val async : 'a t -> bool
(** Whether this machine's file I/O executes on {!Io_pool} worker domains. *)

val flush : 'a t -> unit
(** Push pending state to stable storage; see {!Device.flush}. *)

val close : 'a t -> unit
(** Release this context's backend resources; see {!Device.close}.  Each
    member of a linked family owns its device and is closed separately. *)

val inject : 'a t -> Fault.plan -> unit
(** Install a fault plan on the machine's device; see {!Device.inject}. *)

val clear_injector : 'a t -> unit

val arm : ?policy:Device.recovery_policy -> 'a t -> unit
(** Attach recovery state so {!Resilient} retries/verifies/remaps; see
    {!Device.arm}. *)

val fault_report : 'a t -> Device.recovery option
(** The device's recovery state (shared counters for linked families). *)

val counted : 'a t -> ('a -> 'a -> int) -> 'a -> 'a -> int
(** [counted ctx cmp] behaves as [cmp] but increments the comparison
    counter on every call. *)

val measured : 'a t -> (unit -> 'b) -> 'b * Stats.delta
(** [measured ctx f] runs [f] and reports exactly the I/Os and comparisons
    it performed, leaving the cumulative counters untouched.  This is the
    one blessed way to bracket a computation for cost reporting; drivers and
    benchmarks should use it instead of hand-rolled snapshot plumbing. *)

val mem_capacity : 'a t -> int
val block_size : 'a t -> int
val fanout : 'a t -> int

val disks : 'a t -> int
(** D: the machine's parallel disk count (see {!Params}). *)

val shard : 'a t -> int option
(** The machine's cluster shard identity, when it is part of one. *)

val with_words : 'a t -> int -> (unit -> 'b) -> 'b
(** Charge the memory ledger around a computation; see {!Mem.with_words}. *)

val free_words : 'a t -> int
(** Words a mandatory charge could take right now: [M] minus the words in
    use, after draining every opportunistic write-behind queue (as
    {!Mem.charge} does under pressure).  Use it to size fanouts: the queues
    exist only at D > 1, so counting them as used would make work depend on
    D. *)

val io_window : 'a t -> (unit -> 'b) -> 'b
(** Bracket [f] in one parallel scheduling window: the metered I/Os it
    issues are billed [max] per-disk I/Os rounds instead of one round each
    (see {!Stats.with_window}).  Nested windows merge into the outermost. *)
