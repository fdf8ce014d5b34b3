(** An external vector: a sequence of elements laid out across disk blocks.

    Every block is full except possibly the last.  A vector is immutable once
    built; sequential access goes through {!Reader} and construction through
    {!Writer} (both of which pay I/Os).  [of_array] places the input on disk
    for free (the EM model assumes the input already resides in [ceil (N/B)]
    blocks); every other zero-cost access lives in the {!Oracle} submodule so
    that measured algorithm code cannot reach unmetered I/O without naming
    [Oracle] at the call site. *)

type 'a t

val ctx : 'a t -> 'a Ctx.t
val length : 'a t -> int
val num_blocks : 'a t -> int

val block_id : 'a t -> int -> int
(** [block_id v i] is the device id of the [i]-th block of [v], in O(1).
    Per-block code walks a vector with this and {!num_blocks}.
    @raise Invalid_argument when [i] is out of bounds. *)

val block_ids : 'a t -> int array
(** A fresh copy of the whole block-id table: O(num_blocks) time, and above
    256 blocks the copy is allocated straight on the major heap.  Meant for
    one-off callers that hand the table on (e.g. to carve a sub-vector);
    never call it once per block. *)

val empty : 'a Ctx.t -> 'a t

val of_array : 'a Ctx.t -> 'a array -> 'a t
(** Place the array on disk {e without} charging I/Os: the EM model assumes
    the input already resides in [ceil (N/B)] input blocks. *)

val free : 'a t -> unit
(** Return all blocks of the vector to the device free list. *)

val block_io : 'a t -> int -> 'a array
(** [block_io v i] reads the [i]-th block of [v] at the metered price of one
    block I/O (through {!Resilient}, so cache and fault policies apply).  The
    returned array holds [block_size] elements except for the final partial
    block.  This is the blessed metered random access: online query engines
    pay one I/O to touch a sorted run, instead of scanning from the front. *)

val get_io : 'a t -> int -> 'a
(** [get_io v i] is element [i] of [v] for the price of one metered block
    read (the surrounding block is fetched and discarded).  The transient
    block-sized buffer is {e not} charged to the memory ledger — callers
    holding it beyond the lookup must charge it themselves via
    {!Ctx.with_words}. *)

val of_blocks : 'a Ctx.t -> int array -> int -> 'a t
(** [of_blocks ctx ids len] wraps already-written blocks; used by {!Writer}
    and by algorithms that hand off block ownership without copying. *)

val concat_free : 'a t list -> 'a t
(** Concatenate vectors by block-id juxtaposition {e without} I/O.  Only legal
    when every vector but the last has a full final block; raises
    [Invalid_argument] otherwise.  Models handing over a linked list of full
    blocks, as the partitioning output format permits. *)

(** Unmetered readback for verification and test assertions.  Never use
    inside an algorithm under measurement (except to obtain a sentinel value
    for buffer initialisation, which reads no information the algorithm acts
    on). *)
module Oracle : sig
  val to_array : 'a t -> 'a array
  (** Zero-cost readback of the whole vector. *)

  val get : 'a t -> int -> 'a
  (** Zero-cost random access to one element. *)
end
