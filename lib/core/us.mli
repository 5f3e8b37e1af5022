(** Using Site file access (§2.3.3, §2.3.5).

    The US carries out the user-visible half of every file operation: it
    contacts the CSS to open (Figure 2), exchanges pages with the one SS
    the CSS selected, which serves every page of the open, and runs the
    close protocol. Remote pages are cached at the US,
    keyed by file and version (a writer's under a key private to its
    open), and one windowed fetcher reads them, a writer's included; at
    window 1 it is the paper's one-page readahead on sequential reads. *)

val open_gf :
  ?shared:bool -> Ktypes.t -> Catalog.Gfile.t -> Proto.open_mode -> Ktypes.ofile
(** Open <filegroup, inode> through the CSS, which selects the storage
    site. [shared] joins an existing open through a forked descriptor
    (exempt from the single-writer policy; the offset token serializes
    access). Raises {!Ktypes.Error}. *)

val share : Ktypes.t -> Ktypes.ofile -> unit
(** The open's descriptor is leaving for another site, whose holders can
    write, truncate and abort its SS session: a writer's open stops
    caching its pages. No-op for a read open. *)

val drop_private : Ktypes.t -> Ktypes.ofile -> unit
(** Drop the pages a writer's open filed in the US cache under its
    private key. [close] does this; cleanup calls it for a writer's open
    it ends without a close. *)

val read_page : ?want:int -> Ktypes.t -> Ktypes.ofile -> int -> string * bool
(** [read_page ~want k o lpage] returns the page data (possibly short at
    end of file) and an eof flag. [want] (default 1) is how many pages the
    read call covers from [lpage] on. An open served by this site reads
    its own pack. A cacheable open, a writer's own included, goes through
    the windowed fetcher: a miss fetches a run of pages from the open's
    SS in one request, as many as [want] or the open's window, whichever
    is more, up to [config.bulk_window] pages. On the call's last page
    ([want <= 1]) a sequential reader keeps a window of up to
    [config.bulk_window] pages scheduled ahead of it. A miss inside a
    scheduled batch that has not run yet takes the batch over, so a
    page-at-a-time sequential read moves one window per round trip even
    with nothing run between reads. Window 1 is the classic one-page
    readahead. An open that must bypass the cache (another open is
    writing the file) reads the page from its SS, uncached. *)

val read_all : Ktypes.t -> Ktypes.ofile -> string
(** Whole-body read following the SS's eof indications; each page read
    wants the pages left to eof, so a remote read moves a full window per
    round trip from the first. *)

val read_bytes : Ktypes.t -> Ktypes.ofile -> off:int -> len:int -> string
(** Byte-ranged read (fd-style); each page read wants the pages left in
    the range. *)

val write : Ktypes.t -> Ktypes.ofile -> off:int -> string -> unit
(** Send the affected pages to the SS via the write protocol: whole-page
    changes travel without a read; partial pages as patches. With
    [config.bulk_window > 1] and a remote SS, adjacent chunks coalesce
    into a write-behind run sent as one [Write_pages] batch at the next
    flush point (window full, non-adjacent write, read-back, truncate,
    token release, or a short timer), or carried by the commit (or a
    dirty close's commit) when that comes first. *)

val flush_wb : Ktypes.t -> Ktypes.ofile -> unit
(** Push any pending write-behind run to the SS now. Called wherever the
    modification must become visible outside this open — notably before a
    file-offset token leaves this site. No-op when nothing is buffered. *)

val truncate : Ktypes.t -> Ktypes.ofile -> int -> unit
(** Shrink the file to the given size: a [Write_pages] with the size and
    no data, to the open's one SS. Pending write-behind is flushed
    first. *)

val set_contents : Ktypes.t -> Ktypes.ofile -> string -> unit
(** Whole-file overwrite: drops any pending write-behind run and sends
    the body in one [Ss.write_run], the truncate to 0 riding in its first
    [Write_pages]. With [config.bulk_window > 1] and a remote SS the
    body's last window (all of it, with the truncate, when it fits in
    one) is held as the write-behind run instead, for the commit to
    carry. *)

val commit : Ktypes.t -> Ktypes.ofile -> unit
(** Atomically commit this open's modifications at the SS (§2.3.6). A
    held write-behind run rides in the [Commit_req], written into the
    session before the commit in one round trip. A
    read lease this site holds on the file's older version dies with the
    commit, so a re-open here cannot read the old bytes before the CSS's
    [Lease_break] arrives; the lease's deferred close goes out from a
    scheduled event. *)

val abort : Ktypes.t -> Ktypes.ofile -> unit
(** Undo any changes back to the previous commit point. *)

val close : Ktypes.t -> Ktypes.ofile -> unit
(** Flush (commit) if dirty, then run the US→SS→CSS close protocol. The
    close of a lease-backed read open is deferred: the retained grant
    keeps the SS serving state registered, and the protocol runs once
    when the lease dies. *)

val lease_send_close : Ktypes.t -> Openlease.entry -> unit
(** Send the deferred [Us_close] a dead lease owes. Installed as the
    {!Openlease} [on_dead] callback by [Kernel.create]. *)

val lease_drop_rider : Ktypes.t -> Openlease.entry -> unit
(** One local open stops riding the lease; the last rider of a broken
    lease sends the deferred close. *)


val release : Ktypes.t -> Ktypes.ofile -> unit
(** Best-effort cleanup of an open after a failed operation: discard any
    buffered writes, abort uncommitted modifications, and run the close
    protocol, swallowing protocol errors so the original failure
    propagates. Every error path that abandons an [ofile] must release it,
    or the SS serving registration (and any shadow session) leaks. *)

val stat_gf : Ktypes.t -> Catalog.Gfile.t -> Proto.inode_info
(** Descriptor information, from the local pack when possible, else from a
    reachable site holding the latest version. *)
