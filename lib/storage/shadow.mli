(** Shadow-page file modification (§2.3.6).

    All changes to a file between two commit points go to freshly allocated
    *shadow* pages; the old pages and the old disk inode stay intact. The
    atomic commit operation is exactly "moving the incore inode information
    to the disk inode": one inode-table replacement. Abort simply discards
    the incore inode and frees the shadow pages. A crash at any moment
    before the switch leaves the previous file version fully intact (the
    only damage is orphaned pages, reclaimed by {!Pack.scavenge}). *)

type t

val begin_modify : Pack.t -> int -> t
(** Start a modification session on an existing inode. Raises [Not_found]
    if the pack does not store it. *)

val incore : t -> Inode.t
(** The incore inode being built; metadata fields may be mutated freely. *)

val pack : t -> Pack.t

val read_page : t -> int -> Page.t
(** Read logical page as currently visible inside the session (shadow pages
    included). *)

val write_page : t -> lpage:int -> Page.t -> unit
(** Whole-page change: filled into a shadow page with no extra read. On the
    second and later writes to the same logical page the shadow page is
    reused in place, as in the paper. Grows [size] if the write extends the
    file. *)

val patch_page : t -> lpage:int -> off:int -> string -> unit
(** Partial-page change: the old page is read and a new page, the old one
    with the changed bytes entered ({!Page.patch}), is written to the
    shadow page. The committed page is left as it was, so a reader holding
    it keeps the old bytes. *)

val set_contents : t -> string -> unit
(** Replace the whole file body (the common Unix whole-file overwrite). *)

val truncate : t -> int -> unit
(** Shrink the file to [size] bytes, releasing pages past the end (old
    pages on commit, uncommitted shadow pages immediately). Growing is a
    no-op. *)

val set_size : t -> int -> unit
(** Set the size outright: shrinking truncates, growing extends (the new
    pages read as zeroes until written — sparse-file semantics). Used by
    propagation to make a pulled copy's size match the source exactly. *)

val mark_deleted : t -> time:float -> unit
(** Record a delete in the incore inode (delete is a commit of a deleted
    inode, §2.3.7). *)

val modified_lpages : t -> int list
(** Logical pages changed so far, ascending — sent with commit
    notifications so other storage sites can propagate just the changes.
    Includes pages released by truncation: they changed too (to zeroes),
    and omitting them would leave stale tails at incremental pullers. *)

val modified_pages : t -> (int * Page.t) list
(** The logical pages changed so far that lie below the session's size,
    ascending, each with the page it now holds (a page released by
    truncation and not written since holds {!Page.blank}): the pages a
    commit replaces, as values already in hand, so no disk read is taken
    to get them. *)

val commit : t -> vv:Vv.Version_vector.t -> mtime:float -> unit
(** Atomically publish: write the (new) indirect page, stamp the incore
    inode with [vv] and [mtime], switch the inode-table entry, then free
    the replaced pages. The session must not be used afterwards. *)

val crash_before_switch : t -> unit
(** Simulate a crash after shadow pages are on disk but before the inode
    switch: the session is lost, the old version remains, shadow pages
    leak until scavenged. *)

val abort : t -> unit
(** Undo all changes back to the previous commit point: free shadow pages,
    discard the incore inode. *)
