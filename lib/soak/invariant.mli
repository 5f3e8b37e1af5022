(** Global invariant checks over a quiesced world.

    Call {!check} only after every site is back up, the network is healed,
    the merge protocol has run and the engine has settled: the invariants
    are statements about a fully-recovered cluster.

    Checked, per §4's reconciliation guarantees and the quiesce contract:
    every committed write is readable (and identical) at every alive site,
    or its file is conflict-flagged and at least one copy survives; version
    vectors of surviving copies are pairwise equal-or-flagged (lattice); no
    orphan opens, dirty files, write-behind runs, leases, shadow sessions,
    SS serving registrations, shared descriptors or propagation backlog
    survive quiesce; CSS lock state is empty; every pack passes fsck;
    directory create/unlink churn converged identically at all sites. *)

type violation = { v_code : string; v_detail : string }

val pp_violation : Format.formatter -> violation -> unit

val check : Locus.World.t -> Locus.Opstream.record list -> violation list
(** Check the quiesced world against the op stream's records. The
    durability model folds the write records: per path, the body of the
    last write that definitely committed plus the bodies of later
    ambiguous attempts (an error at the US does not prove the commit did
    not execute at the SS). The namespace check covers every name the
    stream's dirops touched. *)
