(** Reconfiguration orchestration (§5.3).

    Wires the protocol handlers into each kernel and drives the
    merge → recovery sequence; each partition protocol runs from its own
    initiator ({!Partition.run_active}). Normal processing continues
    underneath; file reconciliation supports demand recovery. *)

val install : Locus_core.Ktypes.t -> unit
(** Install the reconfiguration-protocol handlers on a kernel (once, at
    boot). *)

val run_merge_and_recover :
  ?policy:Merge.timeout_policy ->
  ?gateways:Net.Site.t list ->
  Locus_core.Ktypes.t list ->
  initiator:Net.Site.t ->
  Merge.report * (int * Reconcile.report) list
(** Merge, then the recovery procedure: every new CSS reconciles its
    filegroups and the scheduled update propagations are drained. *)
