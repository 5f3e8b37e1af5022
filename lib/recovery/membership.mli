(** Announcing and installing an agreed membership (§5.4–§5.6): the one
    procedure the partition protocol and the merge protocol both end with.
    The active site announces ({!announce}); every member installs
    ({!install}) on the announcement, which [Dispatch] serves, and the
    active site installs locally. *)

val install : Locus_core.Ktypes.t -> members:Net.Site.t list -> merge:bool -> unit
(** Install [members] as this site's partition. In order: set the site
    table and drop every retained lease; place every filegroup's CSS by
    {!Locus_core.Ktypes.place_css} over the members holding its pack — the
    CSS, whether it moved or stayed, rebuilds the filegroup's tables from
    the members and designates again each initial storage site it had
    designated that was reachable and unreported under the old
    membership, is a member and stores no copy; a site that lost the role drops them, and a filegroup no
    member holds a pack of gets no CSS (its opens answer [ENET]); then run
    the §5.6 cleanup ([Txn.handle_site_failure],
    [Kernel.handle_site_failure]) for every site that left; last,
    revalidate the SS registrations against the members' open files
    ({!Locus_core.Ss.revalidate_serving}). [merge] says partitions joined,
    so directories may have changed apart: the name cache starts cold. *)

val announce : Locus_core.Ktypes.t -> members:Net.Site.t list -> merge:bool -> unit
(** The active site's end of either protocol: send [members] to every
    other member ([Merge_announce] when [merge], else [Part_announce]),
    each of which runs {!install}, and run {!install} here. The sites that
    {!Locus_core.Ktypes.place_css} makes a CSS over [members] install
    first, this site last among its group, so each new CSS has rebuilt its
    tables before another member's §5.6 cleanup reopens its lost files
    there. A member the announcement does not reach is left to the next
    reconfiguration. *)

val rebuild_css :
  ?unreported:(int * Net.Site.t list) list ->
  Locus_core.Ktypes.t ->
  int ->
  members:Net.Site.t list ->
  unit
(** New CSS for a filegroup: reconstruct version bookkeeping (from the
    members' pack inventories) and the lock table (from their open files,
    §5.6), designate again each site of [unreported] (default none) that
    is a member and reported no copy ({!Locus_core.Dirops.redesignate}),
    then run the reclaim check over the filegroup's deleted files. *)
