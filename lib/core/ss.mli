(** Storage Site logic (§2.3.3, §2.3.5, §2.3.6).

    The SS the CSS chose for an open serves every page of it to the using
    site (§2.3.3), receives modification pages and
    truncates into shadow pages, invalidates the other using sites'
    buffers of what each write changed (one ranged message per write),
    and performs the atomic commit — after which it notifies
    the CSS (synchronously) and every other site storing the file, which
    bring their copies up to date in background: from the commit the
    notification carried ({!notify_others}), or by pulling. *)

val handle_storage_req :
  Ktypes.t ->
  Catalog.Gfile.t ->
  vv:Vv.Version_vector.t ->
  us:Net.Site.t ->
  mode:Proto.open_mode ->
  others:Net.Site.t list ->
  (Proto.inode_info * int) option
(** "Will you act as storage site?" Declined ([None]) when this pack does not store
    the file at (at least) the requested version; an acceptance registers
    [us]'s open in [mode] ({!Ktypes.ss_register}). *)

val handle_read_pages :
  ?guess:int ->
  ?committed:bool ->
  ?stat:bool ->
  ?vv:Vv.Version_vector.t ->
  Ktypes.t ->
  Catalog.Gfile.t ->
  first:int ->
  count:int ->
  Proto.pages
(** Serve up to [count] pages from [first] in one response: the network read protocol (§2.3.3), a single page at
    [count] = 1. Pages come through the open shadow session when one
    exists, giving Unix shared-file read semantics, unless the read is
    [committed] (a background read: a pull, reconciliation), which sees
    only the committed copy. [stat] implies [committed] and puts the
    committed inode in the reply, at one disk read; only with it may
    [count] be 0, which makes the request a stat. [guess] is the US's hint for
    locating the incore inode; hits and misses are counted in the
    statistics. Each page costs what a single read does; the reply is
    trimmed at end of file, and a page at or past it is not read. [vv] is
    the version the reader files the pages under: when the committed copy
    is another version, the reply carries the copy's inode. *)

val read_pages :
  ?vv:Vv.Version_vector.t ->
  Ktypes.t ->
  Net.Site.t ->
  Catalog.Gfile.t ->
  first:int ->
  count:int ->
  guess:int ->
  Proto.pages
(** [read_pages k site gf ~first ~count ~guess]: the client half
    of [handle_read_pages] — the pages [site] returns, its eof flag and,
    when the request named a [vv] the copy does not hold, the copy's
    inode, by one [Read_pages] RPC. Raises {!Ktypes.Error} on a refusal or a network
    failure. *)

val read_committed :
  Ktypes.t ->
  Net.Site.t ->
  Catalog.Gfile.t ->
  first:int ->
  count:int ->
  stat:bool ->
  Proto.pages
(** [read_committed k site gf ~first ~count ~stat]: a background read of
    [site]'s committed copy, never an open session's pages — up to
    [count] consecutive pages from [first], and with [stat] the copy's
    committed inode ([count] may then be 0). Sent and failing as
    {!read_pages} does. *)

val handle_write_pages :
  ?trunc:int ->
  Ktypes.t ->
  src:Net.Site.t ->
  Catalog.Gfile.t ->
  first:int ->
  off:int ->
  string ->
  pos:int ->
  len:int ->
  unit
(** Shrink the shadow session to [trunc] bytes when set, then write the
    run of [len] bytes of the string from [pos], from offset [off] within
    page [first] — one page
    of modification, a coalesced write-behind batch, or a window of a
    whole-file overwrite — as per-page shadow writes. One
    [Page_invalidate] to each other using site then covers every page
    written or cut (the page-valid tokens of §3.2). Idempotent (absolute
    positioning), so safe to retry after a suspected message loss. *)

val write_run :
  ?sent:(int -> unit) ->
  ?trunc:int ->
  ?len:int ->
  Ktypes.t ->
  Net.Site.t ->
  Catalog.Gfile.t ->
  off:int ->
  string ->
  unit
(** [write_run ?trunc ?len k site gf ~off data]: the client half of
    [handle_write_pages] — truncate [gf] at [site] to [trunc] when set,
    then write the first [len] bytes of [data] (all of it by default) at
    byte [off], in requests of at most
    [config.bulk_window] pages each, the truncate riding in the first. A
    truncate with no data is one request. Each request is one
    [Write_pages] RPC naming its window of [data], not a copy of it.
    [sent] hears the page count of each answered request that carried
    data. Raises {!Ktypes.Error} on a refusal or a network failure. *)

val lookup_name :
  near:bool ->
  Ktypes.t ->
  Storage.Pack.t ->
  Catalog.Gfile.t ->
  Storage.Inode.t ->
  string ->
  (int * Storage.Inode.ftype * Proto.near_link list) option
(** [lookup_name ~near k pack gf inode name]: the inode a live entry binds
    [name] to in the committed copy of directory [gf], and the type the
    entry records, found through the directory's index
    ({!Ktypes.dir_index}) by reading the one page that holds the record.
    The first lookup of a version builds the index from every page. Each
    page is read through the SS buffer cache and charged a disk read only
    on a miss. With [near], the list holds the other live links on the
    page read (see {!Proto.lookup_step}), at no further read; without it,
    the list is empty and no link is decoded. Raises [Failure] on a body
    that does not decode. *)

val run_pages : poff:int -> int -> int
(** [run_pages ~poff len]: the pages a request carrying [len] bytes from
    offset [poff] of its first page covers. *)

val handle_commit :
  ?force_vv:Vv.Version_vector.t ->
  ?run:Proto.run ->
  Ktypes.t ->
  src:Net.Site.t ->
  Catalog.Gfile.t ->
  abort:bool ->
  Vv.Version_vector.t
(** The atomic commit (§2.3.6): switch the incore inode in, bump the
    version vector (or install [force_vv], recovery's merged vector), and
    send commit notifications. [abort] discards instead. With no session
    the answer is the committed version. A delete is no commit mode: it
    is the last link going ({!handle_intent_step}'s link-count step). The
    open's one SS holds the whole session. A [run] is written into the
    session first, as {!handle_write_pages} from [src] writes it, with the
    same ranged invalidation; a refused run is the answer, and nothing
    commits. Refused with [EIO] when this site has no pack of the
    filegroup and [ENOENT] when its pack has no such inode
    ({!Ktypes.local_inode_exn}), before any serving state is made. *)

val handle_us_close :
  Ktypes.t ->
  src:Net.Site.t ->
  Catalog.Gfile.t ->
  mode:Proto.open_mode ->
  grant:int ->
  released:bool ->
  unit
(** US→SS leg of the race-free three-message close (§2.3.3 footnote);
    forwards SS→CSS, naming the lease [grant] the close releases (0: no
    lease), unless the CSS [released] the grant at its break. Ends the
    registration through {!Ktypes.ss_end}, so a writer's close aborts a
    session it left uncommitted. *)

val revalidate_serving : Ktypes.t -> unit
(** SS-side analogue of the §5.6 lock-table scrub, run at every
    membership install, a partition's as a merge's: ask every
    using site in the partition for its live opens and end every serving
    registration, of an open or a modify open, beyond what the US reports,
    through {!Ktypes.ss_end} as a close would. Cleans up
    the registrations of leases that partition and merge dropped without
    a close, and those stranded by an open whose every attempt lost its
    reply — the CSS registered the US here, but the US never learned its
    open succeeded, so no close will ever arrive. A using site outside
    the partition counts as having no open, so all its registrations end
    (§5.6). Members the query cannot reach keep theirs for the next
    membership change to retry. *)

val alloc_inode :
  Ktypes.t ->
  Storage.Pack.t ->
  ftype:Storage.Inode.ftype ->
  owner:string ->
  perms:int ->
  Storage.Inode.t
(** Allocate an inode number from this pack's partition of the
    filegroup's inode space (§2.3.7) and install the descriptor, at a
    version of one commit here. Registering it with the CSS and
    designating the other storage sites happen once its name is entered. *)

val commit_message :
  ?carried:Proto.inode_info * string list ->
  ?origin:Net.Site.t ->
  ?designate:bool ->
  Ktypes.t ->
  Catalog.Gfile.t ->
  vv:Vv.Version_vector.t ->
  modified:int list ->
  deleted:bool ->
  meta_only:bool ->
  unit Proto.req
(** The fresh-commit notification of version [vv] of a file, committed at
    [origin] (default: this site). [~designate:true] makes a receiver
    whose pack does not store the file yet pull its first copy, as a new
    file's designated copies and reconciliation need. *)

val notify_others :
  Ktypes.t ->
  Catalog.Gfile.t ->
  vv:Vv.Version_vector.t ->
  modified:int list ->
  deleted:bool ->
  meta_only:bool ->
  Net.Site.t list ->
  unit
(** Send the fresh-commit notification of this site's version [vv] of a
    file to its other storing sites (§2.3.6). Above a window of 1, when
    the commit was no delete and modified 1 to [bulk_window] pages or only
    the inode, the notification carries the committed inode and those
    pages below eof. They are read in a zero-delay event after the caller
    returns, through the SS buffer cache; if the local copy is no longer
    at [vv] by then, the notification goes bare. *)

val apply_intent :
  Ktypes.t ->
  us:Net.Site.t ->
  Catalog.Gfile.t ->
  Proto.intent ->
  others:Net.Site.t list ->
  guard:(int -> (unit, Proto.errno) result) ->
  links_here:(int -> bool) ->
  Proto.intent_reply
(** The storage site's half of a directory intent from using site [us]:
    change the one record and commit the directory, in one handler,
    notifying [others], the other sites holding its latest copy (the CSS
    learns the version from the reply). The directory's index locates the
    name's record; the one page holding it is read through the same page
    source as a page read (the session if open, else the buffer cache or
    disk; no [cpu_page] charge), and the one changed record is written: a
    remove or a re-entry of a tombstoned name in place, a new name after
    the last record. The first change of a version reads every page to
    build the index. A create
    without an inode allocates one here after the name check; [guard]
    vets the inode of a counted unlink before anything changes; a counted
    unlink or link also changes the file's link count here when
    [links_here] holds for its inode. Answers the intent's reply, or raises
    {!Ktypes.Error} with nothing changed: [Eexist], [Enoent], [Einval] (a name or origin the
    record format refuses), [Enospc] (the directory is at its largest
    size) or [Eio] (the body does not decode). No serving registration or
    session outlives it. *)

val handle_intent_step : Ktypes.t -> us:Net.Site.t -> 'a Proto.intent_step -> 'a
(** A step the CSS forwarded: {!apply_intent} with the step's refuse and
    stale lists as guard and link test, or a link-count change of this
    site's copy (its new version, and whether it was deleted): a metadata-only commit, or a delete commit
    when the last link goes. Notifies nobody: the CSS that asked does. *)

val handle_set_attr :
  Ktypes.t -> Catalog.Gfile.t -> perms:int option -> owner:string option -> Vv.Version_vector.t
(** Metadata-only commits (the "just inode information changed" case). *)

val handle_inventory :
  Ktypes.t -> int -> (int * Vv.Version_vector.t * Storage.Inode.ftype * bool) list
(** Every inode this pack stores, with versions — recovery's rebuild
    input. *)

val handle_reclaim : Ktypes.t -> Catalog.Gfile.t -> unit
(** Release a fully-deleted inode for reallocation. *)

val handle_pipe_write : Ktypes.t -> Catalog.Gfile.t -> string -> unit

val handle_pipe_read : Ktypes.t -> Catalog.Gfile.t -> int -> string
