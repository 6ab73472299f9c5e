(** Profile -> {!Plan} lowering.

    Runs once per (profile, reduction) pair; the output is purely a
    function of the reduced SFG plus the static per-class operation
    table, so plans are shareable across machine configs, replicas and
    processes (via the plan codec and the runner cache). *)

val derive_reduction : ?reduction:int -> ?target_length:int -> int -> int
(** [derive_reduction ?reduction ?target_length total] resolves the
    reduction factor R from the caller's choice of either an explicit
    [reduction] or a [target_length] (ceiling division, so the trace
    stays at or under target); defaults to 100 (the paper's R). Raises
    [Invalid_argument] when both are given. *)

val plan :
  ?reduction:int -> ?target_length:int -> Profile.Stat_profile.t -> Plan.t
(** Compile the profile at the resolved reduction. Surviving nodes
    (those with [occurrences / R > 0]) get dense indices in SFG key
    order; edges to non-surviving nodes are dropped. Raises [Invalid_argument] on [R < 1] or
    when reduction empties the graph (same messages as
    [Synth.Generate.generate], which delegates here). *)
