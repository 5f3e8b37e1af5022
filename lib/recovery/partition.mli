(** The partition protocol (§5.4).

    When communication breaks, the site tables of a partition become
    unsynchronized. The protocol re-establishes logical partitioning by
    *iterative intersection*: the active site polls the sites in its
    partition set; each successful poll returns the polled site's own
    partition set (verified against its virtual-circuit state), which is
    intersected in; polling continues until the joined set equals the
    partition set. The result is a maximal fully-connected sub-network —
    a single communication failure never splits the net into three parts.

    After agreement, the active site announces the membership with
    {!Membership.announce}, and each member installs it with
    {!Membership.install}, the procedure the merge protocol ends with
    too: it places every filegroup's CSS and runs the cleanup procedure
    (§5.6) for the departed sites. *)

type report = {
  members : Net.Site.t list;
  polls : int;    (** poll exchanges performed *)
  rounds : int;   (** intersection iterations *)
  failures : int; (** polls that found a site unreachable *)
}

val run_active : Locus_core.Ktypes.t -> report
(** Run the protocol as the active site and announce the consensus. *)

val handle_poll : Locus_core.Ktypes.t -> src:Net.Site.t -> Net.Site.t list

val check_active_and_takeover :
  Locus_core.Ktypes.t -> active:Net.Site.t -> report option
(** §5.7: a passive site checks the active site; if it has failed, this
    site restarts the protocol itself (returns its report). *)
