(** A sharded EM machine: P independent {!Em.Ctx} machines plus a metered
    BSP interconnect.

    Each shard is a full machine of its own — own backend instance, own
    M-word memory ledger, own D disks — created with a shard identity so
    its trace events carry the shard id (see {!Em.Ctx.create}).  On top sit
    the classic collectives ({!scatter}, {!broadcast}, {!all_gather},
    {!all_to_all}), each one BSP superstep billed on a dedicated
    communication ledger: {!Em.Stats.record_comm} counts every off-diagonal
    word, and {!Em.Stats.with_comm_round} merges the transfers of a
    superstep into one communication round.  The two ledgers obey the same
    window discipline — comm rounds telescope under nesting exactly like
    Vitter–Shriver I/O rounds do under {!Em.Ctx.io_window}.

    The design invariant extends PR 5's "disks change scheduling, never
    work": {e shards change communication, never work}.  Every driver below
    produces outputs identical to its P = 1 run at every P, and total
    counted work stays within a constant factor; only the communication
    ledger varies with P. *)

type 'a t

val shards_env_var : string
(** ["EM_SHARDS"]. *)

val default_shards : unit -> int
(** [$EM_SHARDS], defaulting to [1]; anything not a positive integer raises
    [Invalid_argument]. *)

val create :
  ?trace:Em.Trace.t ->
  ?backend:Em.Backend.spec ->
  ?backend_dir:string ->
  ?pool_pages:int ->
  ?disks:int ->
  ?shards:int ->
  Em.Params.t ->
  'a t
(** [P] fresh machines sharing one tracer ([trace], or a sinkless
    {!Em.Trace.create}; {!Em.Trace_report} rollups over its events see the
    whole cluster) and a zeroed communication ledger.  [shards]
    defaults to {!default_shards}; the remaining options are forwarded to
    every {!Em.Ctx.create}.  A [P = 1] cluster attaches no shard ids at
    all, so its traces and goldens are bit-for-bit those of a plain single
    machine. *)

val size : 'a t -> int
val ctx : 'a t -> int -> 'a Em.Ctx.t
val comm : 'a t -> Em.Stats.t
(** The communication ledger.  Only {!Cluster} operations write to it. *)

val trace : 'a t -> Em.Trace.t
val params : 'a t -> Em.Params.t
val close : 'a t -> unit

val totals : 'a t -> int * int * int
(** Summed [(reads, writes, comparisons)] across all shards — the cluster's
    total counted work, the quantity the sharding invariant keeps flat. *)

val superstep : 'a t -> (unit -> 'b) -> 'b
(** [Em.Stats.with_comm_round] on the cluster ledger: all transfers inside
    merge into (at most) one communication round.  Nests; inner supersteps
    telescope into the outermost. *)

val place : 'a t -> 'a array -> 'a Em.Vec.t array
(** Balanced contiguous striping: shard [i] receives positions
    [i*n/P, (i+1)*n/P), so shard lengths differ by at most one.  Placement
    models initially-distributed input and is not billed as
    communication. *)

(** {2 Collectives}

    One superstep each.  Reads are billed to the source shard, writes to
    the destination, and every off-diagonal word crosses the communication
    ledger exactly once; shard-to-itself movement is local work and is
    never billed.  Inputs are not freed. *)

val scatter : 'a t -> root:int -> 'a Em.Vec.t -> 'a Em.Vec.t array
(** Split a vector living on [root] into P balanced contiguous pieces, one
    per shard ({!place} geometry). *)

val broadcast : 'a t -> root:int -> 'a Em.Vec.t -> 'a Em.Vec.t array
(** Copy [root]'s vector to every shard (one metered pass over the source
    feeds all P - 1 copies).  Slot [root] of the result is the original. *)

val all_gather : 'a t -> 'a Em.Vec.t array -> 'a Em.Vec.t array
(** Every shard ends with the concatenation (in shard order) of all
    parts. *)

val all_to_all : 'a t -> 'a Em.Vec.t array array -> 'a Em.Vec.t array array
(** [chunks.(i).(j)] lives on shard [i] and is bound for shard [j]; the
    result transposes: slot [(j).(i)] is shard [i]'s chunk landed on
    [j]. *)

(** {2 Splitter agreement}

    Deterministic histogram sort with sampling (Yang–Harsh–Solomonik
    style; budgets in {!Bounds}).  Each refinement iteration has every
    shard contribute evenly-locally-ranked candidates per unresolved
    target rank, then answer exact [(rank_lt, rank_le)] histograms — two
    allgather supersteps shrinking each target's global-rank uncertainty
    by the {!Bounds.hss_per_round} factor.  Residual intervals are
    gathered and finished exactly.  Communication rounds stay within
    {!Bounds.hss_comm_rounds_upper} and drawn candidates within
    {!Bounds.hss_sample_upper}, deterministically. *)

type 'a agreement = {
  values : 'a array;  (** the agreed boundary values, one per target *)
  ranks : int array;
      (** exact global [rank_le] of each value — the cut position every
          shard's local [rank_le] cuts telescope to *)
  ranks_lt : int array;  (** exact global [rank_lt] of each value *)
  targets : int array;
  tol : int;
      (** every [ranks.(j)] is within [tol] of [targets.(j)] (0 = the
          value's rank interval contains the target exactly) *)
  iterations : int;  (** refinement iterations used, <= [rounds_budget] *)
  rounds_budget : int;  (** {!Bounds.hss_rounds} (or the [?rounds] override) *)
  per_round : int;  (** {!Bounds.hss_per_round}: candidates per shard/target *)
  samples : int;  (** candidates actually drawn *)
  gathered : int;  (** words pulled by the exact finish *)
}

val agree :
  ?tol:int ->
  ?rounds:int ->
  ('a -> 'a -> int) ->
  'a t ->
  sorted:'a Em.Vec.t array ->
  targets:int array ->
  'a agreement
(** Agree on the values at global ranks [targets] (1-based, in
    [1..N]) of the multiset union of per-shard sorted runs.  [tol = 0]
    (default) resolves every target exactly — the returned value [v]
    satisfies [ranks_lt v < target <= ranks v], which is duplicate-proof
    and P-invariant.  [tol > 0] may stop early at any value whose cut rank
    lands within [tol].  [rounds] overrides the iteration budget (the
    exact gather finish still runs, so results stay exact even at
    [rounds:1]).  Raises [Invalid_argument] on out-of-range targets. *)

val agree_splitters :
  ?eps:float ->
  ?rounds:int ->
  ('a -> 'a -> int) ->
  'a t ->
  sorted:'a Em.Vec.t array ->
  k:int ->
  'a agreement
(** {!agree} at the [k - 1] quantile ranks [j*N/k] with
    [tol = eps*N/(2k)], yielding a (1+eps)-balanced global [k]-partition
    ([eps] defaults to 0: exact quantiles). *)

(** {2 Sharded drivers}

    All four run local sort, splitter agreement, local cut at the agreed
    values, one metered all-to-all exchange, local finish — and all four
    produce outputs identical to their P = 1 run.  Inputs are preserved;
    intermediate per-shard runs are freed.  Input [i] must live on shard
    [i] (as {!place} and {!scatter} leave it); [Invalid_argument]
    otherwise.  Pass a {e plain} (uncounted) comparator: every comparison
    is counted on the ledger of the shard that performs it, so {!totals} is
    the cluster's true counted work.

    {b Concurrency.}  The shard-local supersteps run on OCaml domains:
    every driver's local external sort, and the final per-part merge of
    {!sort} and {!partition} (one task per destination shard, merging its
    parts in ascending order).  Agreement, cut and exchange stay
    sequential.  So:
    - the comparator may be called from several domains at once, and must
      be safe to call concurrently (a pure function is);
    - up to [min P (Domain.recommended_domain_count ())] domains run, the
      caller's included; workers are spawned and joined within each call;
    - the trace is exactly the sequential one: the caller's domain emits
      its own shards' events directly, and replays the other shards' staged
      events ({!Em.Trace.staged}) in shard order, so sequence numbers,
      locality, every sink and {!Em.Trace.total} are unchanged;
    - if shard [i]'s task raises, no task past [i] starts, the same
      exception re-raises, and the trace holds the sequential prefix up to
      the raise.  The stats of shards past [i] are unspecified;
    - with P = 1, or span hooks ({!Em.Profile}, a serve engine) or a fault
      plan attached to any shard, the tasks run inline on the caller's
      domain, one after the other: hooks and plans are shared mutable state
      whose call order defines their output. *)

val sort :
  ?eps:float ->
  ?rounds:int ->
  ('a -> 'a -> int) ->
  'a t ->
  'a Em.Vec.t array ->
  'a Em.Vec.t array * 'a agreement option
(** Globally sort: result slot [i] lives on shard [i], slots concatenate
    (in shard order) to the stable sort of the concatenated inputs.
    [eps] (default 0.5) only balances the intermediate exchange — the
    output is P-invariant regardless.  At P = 1 (or N = 0) no agreement
    runs and the agreement is [None]. *)

val owner : p:int -> k:int -> int -> int
(** [owner ~p ~k g = g*P/k]: the shard that hosts output part [g] of a
    [k]-way split — contiguous and balanced for any [k], identity when
    [k = P]. *)

val partition :
  ?eps:float ->
  ?rounds:int ->
  ('a -> 'a -> int) ->
  'a t ->
  'a Em.Vec.t array ->
  k:int ->
  'a Em.Vec.t array * 'a agreement option
(** Global [k]-way multi-partition: part [g] (sorted, on shard
    [owner ~p ~k g]) holds the elements between quantile boundaries [g]
    and [g + 1]; parts concatenate to the global sort.  [eps] defaults to
    0 — exact quantile cuts, hence P-invariant parts; [eps > 0] trades
    balance slack for fewer samples, still P-invariant for a fixed
    [eps]. *)

val multiselect :
  ?rounds:int ->
  ('a -> 'a -> int) ->
  'a t ->
  'a Em.Vec.t array ->
  ranks:int array ->
  'a array * 'a agreement
(** The values at the given global ranks, exactly ([tol = 0]). *)

val splitters :
  ?eps:float ->
  ?rounds:int ->
  ('a -> 'a -> int) ->
  'a t ->
  'a Em.Vec.t array ->
  k:int ->
  'a agreement
(** Approximate splitters: {!agree_splitters} over freshly local-sorted
    inputs. *)

(**/**)

module Private : sig
  val set_workers : 'a t -> int option -> unit
  (** Force the shard scheduler's worker count ([None] restores the
      runtime's [Domain.recommended_domain_count]).  The one-worker
      fallbacks still apply.  For tests: it lets a one-CPU host cover the
      parallel path. *)

  val workers : 'a t -> int
  (** The worker count the next shard-local superstep will use. *)
end
