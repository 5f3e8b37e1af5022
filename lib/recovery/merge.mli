(** The merge protocol (§5.5) and post-merge rebuild (§5.6).

    The initiating site polls every site of the network (including those
    believed down — the goal is the largest possible partition), declares
    the new partition after a suitable wait, and broadcasts its
    composition. The waiting strategy is the paper's two-level timeout:
    long while a site believed up by some member has not answered, short
    once all such sites have replied — so a small partition of a large
    network merges quickly. The initiator announces the new partition with
    {!Membership.announce}, the new CSS sites first, and every member
    installs it with {!Membership.install}, as at a partition, with
    [~merge:true]: each places every filegroup's CSS itself, and each CSS
    rebuilds its version bookkeeping (from pack inventories) and its lock
    table (from the members' open-file lists). *)

type timeout_policy =
  | Fixed_timeout of float  (** ms: always wait this long for missing sites *)
  | Adaptive_timeout of { long : float; short : float }

val default_policy : timeout_policy

type report = {
  members : Net.Site.t list;
  polled : int;
  responded : int;
  busy : int;
  skipped : int;        (** sites not polled: no gateway vouched for them *)
  wait_charged : float; (** simulated ms spent in timeouts *)
}

exception Yield of Net.Site.t
(** Raised when a lower-numbered site is already coordinating a merge
    (the arbitration of the paper's pseudocode): a site whose
    [recon_stage] is 3 while it initiates one answers a higher site's
    poll busy. *)

val run_initiator :
  ?policy:timeout_policy ->
  ?gateways:Net.Site.t list ->
  Locus_core.Ktypes.t ->
  all_sites:Net.Site.t list ->
  report
(** [gateways] enables the large-network optimization of the §5.5
    footnote: gateways are polled first and only sites some gateway (or
    this partition) believes up are polled individually; unvouched sites
    are skipped without a timeout. *)

val handle_poll : Locus_core.Ktypes.t -> src:Net.Site.t -> Proto.resp
