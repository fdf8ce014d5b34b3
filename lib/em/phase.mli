(** Per-phase I/O attribution.

    Algorithms label their passes ([with_label ctx "distribute" f]); every
    block read/write performed while a label is active is attributed to the
    full path of active labels, outermost first and joined with ["/"]
    (so ["sort/merge"] and ["multiselect/merge"] stay distinct).  The report
    makes the cost structure of a composed algorithm visible (the benchmarks
    print it), at zero simulated cost. *)

val with_label : 'a Ctx.t -> string -> (unit -> 'b) -> 'b
(** Push a label around a computation (restored on exceptions too).  Entering
    and leaving the label also fires any {!Stats.span_hooks} attached to the
    machine, which is how {!Profile} sees span boundaries. *)

val report : 'a Ctx.t -> (string * int) list
(** Per-phase-path I/O counts since the machine was created, largest first;
    unlabeled I/O appears as ["(other)"].  Each path counts only the I/Os
    done while it was the innermost open phase (see {!Stats.phase_report}),
    so the entries sum to the machine's total. *)
