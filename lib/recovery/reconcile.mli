(** Reconciliation after merge (§4).

    The version-vector comparison of [PARK 83] classifies each file's
    copies within the new partition: equal (nothing to do), dominated
    (schedule update propagation), or concurrent (conflicting updates
    during partition). Concurrent directories are merged by the rules of
    §4.4 (including renaming on name conflicts and undoing deletes of
    since-modified files), mailboxes by §4.5, files with a registered
    type manager by that manager (§4.3), and everything else is marked in
    conflict — normal access fails — with the owner notified by
    electronic mail (§4.6) and an interactive resolution tool. *)

type report = {
  mutable files_checked : int;
  mutable propagations : int;
  mutable dir_merges : int;
  mutable mail_merges : int;
  mutable manager_merges : int;
  mutable conflicts_marked : int;
  mutable name_conflicts : int;
  mutable deletes_undone : int;
  mutable saved_from_delete : int;
  mutable mails_sent : int;
}

val empty_report : unit -> report

val pp_report : Format.formatter -> report -> unit

val register_merge_manager : Storage.Inode.ftype -> (string list -> string) -> unit
(** Install a higher-level recovery/merge manager for a file type (§4.3):
    it receives the divergent contents and returns the merged contents. *)

val unregister_merge_manager : Storage.Inode.ftype -> unit

val reconcile_fg : Locus_core.Ktypes.t -> int -> report
(** Reconcile every file of a filegroup. The caller must be its CSS. *)

val reconcile_file : Locus_core.Ktypes.t -> Catalog.Gfile.t -> report -> unit
(** Reconcile one file — the entry point for *demand recovery*: a
    directory needed right now is merged out of order (§4.4). *)

val resolve_manual : Locus_core.Ktypes.t -> Catalog.Gfile.t -> winner:Net.Site.t -> bool
(** Interactive resolution of a marked conflict: keep the copy stored at
    [winner]; every other site pulls the resolved version. *)

val fetch_content : Locus_core.Ktypes.t -> Net.Site.t -> Catalog.Gfile.t -> string option
(** [fetch_content k site gf]: the body of [site]'s committed copy (never
    an open session's pages), read in runs of at most
    [config.bulk_window] pages, the first of which also returns the
    copy's inode; [None] as soon as a request fails or returns fewer
    pages than the inode's size implies (exposed for tests). *)

val merge_two_dirs :
  Locus_core.Ktypes.t -> int -> Catalog.Dir.t -> Catalog.Dir.t -> report -> Catalog.Dir.t
(** The directory-merge rules of §4.4 (exposed for tests). *)
