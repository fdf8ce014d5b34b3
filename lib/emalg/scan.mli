(** Linear-I/O scanning utilities over external vectors.

    Full consumers read with a look-ahead of [D - 1] blocks and producers
    write behind by [D - 1], so they overlap into ~[N/(DB)] rounds on a
    D-disk machine.  The counted I/Os are those of an unbuffered scan; the
    look-ahead only changes round scheduling.  {!prefix} stops early and
    reads unbuffered. *)

val copy : 'a Em.Vec.t -> 'a Em.Vec.t
(** Read and rewrite the vector: [2 * ceil(N/B)] I/Os. *)

val iter : ('a -> unit) -> 'a Em.Vec.t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a Em.Vec.t -> 'acc

val map_into : 'b Em.Ctx.t -> ('a -> 'b) -> 'a Em.Vec.t -> 'b Em.Vec.t
(** Map every element into a vector on a (possibly linked) context. *)

val mapi_into : 'b Em.Ctx.t -> (int -> 'a -> 'b) -> 'a Em.Vec.t -> 'b Em.Vec.t

val filter : ('a -> bool) -> 'a Em.Vec.t -> 'a Em.Vec.t

val append : 'a Em.Writer.t -> 'a Em.Vec.t -> unit
(** Stream the whole vector into an open writer. *)

val prefix : 'a Em.Vec.t -> int -> 'a Em.Vec.t
(** [prefix v count] copies the first [min count (length v)] elements into a
    fresh vector ([2 * ceil(count/B)] I/Os). *)

val rank_of : ('a -> 'a -> int) -> 'a Em.Vec.t -> 'a -> int
(** [rank_of cmp v x] counts the elements [<= x]: one scan. *)

val count : ('a -> bool) -> 'a Em.Vec.t -> int

val chunks : size:int -> ('a array -> unit) -> 'a Em.Vec.t -> unit
(** [chunks ~size f v] feeds [f] successive memory loads of at most [size]
    elements.  The load array is charged against the memory ledger for the
    duration of each call to [f]; the reader buffer adds one block. *)

val vec_of_array_io : 'a Em.Ctx.t -> 'a array -> 'a Em.Vec.t
(** Spill an in-memory array to disk, paying write I/Os (unlike
    {!Em.Vec.of_array}, which is reserved for free test set-up). *)

val array_of_vec_io : 'a Em.Vec.t -> 'a array
(** Load a whole vector into memory, paying read I/Os.  This function charges
    nothing itself; the caller accounts for the array, e.g. with
    {!Em.Ctx.with_words} or via {!with_loaded}. *)

val with_loaded : 'a Em.Vec.t -> ('a array -> 'b) -> 'b
(** Load a vector with read I/Os, charging its length to the memory ledger
    around the callback. *)
