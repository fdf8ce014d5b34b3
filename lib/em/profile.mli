(** Span-scoped profiling over the {!Phase} label tree.

    Each machine's {!Stats} measures its own phase frames (see
    {!Stats.push_phase}).  A profiler attaches to one or more machines
    through the {!Stats.span_hooks} observer interface; from then on every
    {!Phase.with_label} (and checkpoint/resume charge) closed on any of them
    adds its cost to the {e span} keyed on its full phase path: block
    reads/writes, comparisons, fault and retry overhead, and the peak memory
    level observed while it was open.  The profiler itself adds host
    wall-clock time.  Attaching a profiler is free in the simulated cost
    model — golden I/O costs are byte-identical with or without one
    (property-tested). *)

type span = {
  path : string list;  (** full phase path, outermost label first *)
  mutable calls : int;  (** frames closed *)
  mutable cost : Stats.delta;
      (** reads, writes, rounds, comparisons, faults, retries and cache
          hits/misses spent inside the span *)
  mutable wall_ns : float;  (** host wall-clock nanoseconds, inclusive *)
  mutable mem_peak : int;  (** max words in use while the span was open *)
}
(** Counters are {e inclusive}: a span's numbers cover its nested sub-spans.
    They sum the frames closed on every attached machine, and [mem_peak] is
    the highest of them.  A label re-entered while already open (direct
    recursion) nests a new path, e.g. [["rec"; "rec"]], so no frame is
    counted twice.  [wall_ns] runs from the first entry of a path to the
    exit that leaves it open on no attached machine, so a phase open on
    P machines at once counts its wall time once. *)

type t

val create : unit -> t

val attach : t -> Stats.t -> unit
(** Install the profiler's hooks on the machine (replacing any previously
    attached hooks).  One profiler may be attached to many machines.  Attach
    before entering phases: frames already open are not counted. *)

val detach : Stats.t -> unit
(** Remove whatever hooks are attached to the machine. *)

val reset : t -> unit
(** Drop all recorded spans (detaching is not required). *)

val spans : t -> span list
(** All spans, most I/O first (ties by path). *)

val span_ios : span -> int

val path_name : string list -> string
(** Join a span path with ["/"] (matches the keys of {!Phase.report}). *)

val pp : Format.formatter -> t -> unit
(** Span-tree report: one line per span, indented by nesting, children
    sorted by inclusive I/O cost. *)

val publish : Metrics.t -> t -> unit
(** Publish every span into a registry as [span_*{span=path}] gauges
    (ios, reads, writes, comparisons, faults, retries, mem_peak_words,
    wall_ns, calls). *)
