(** Background update propagation (§2.3.6).

    A kernel process at each storage site services a queue of propagation
    requests, one per commit notification. Above a window of 1, a
    notification may carry its commit, the committed inode and modified
    pages ([carried] of [Proto.Commit_notify]); a copy exactly one commit
    behind the notified version installs that with no message. Every
    other copy pulls: it reads the new version from the site that
    committed it, with the standard page-read message over that site's
    committed copy (never an open writer's uncommitted pages); the first
    read also returns the copy's inode, so a pull of one window is one
    round trip. A copy exactly one commit behind reads just the modified
    pages, none for a metadata-only commit, and a delete reads nothing. A
    committing site out of reach, or one a pull already failed against,
    is replaced by a site from the CSS's list. Either way the version is
    committed locally through the shadow-page mechanism — so a pull
    interrupted by partition leaves a coherent, complete (if stale) copy.
    Concurrent versions are never overwritten; they are left for
    reconciliation (§4). *)

val enqueue :
  ?carried:Proto.inode_info * string list ->
  Ktypes.t ->
  Catalog.Gfile.t ->
  vv:Vv.Version_vector.t ->
  origin:Net.Site.t ->
  modified:int list ->
  meta_only:bool ->
  deleted:bool ->
  designate:bool ->
  unit
(** React to a commit notification of version [vv] by [origin]: queue a
    pull if this site stores the file (or is a designated initial storage
    site) and its copy is not current. [modified] are the commit's
    modified pages ([[]] = all, unless [meta_only]); [carried] is the
    notification's committed inode and modified pages below eof, which a
    copy at the commit's base version installs instead of pulling. The
    kernel process runs after a small delay. *)

val attempt : Ktypes.t -> Ktypes.pull -> bool
(** One pull attempt (exposed for tests); true when no retry is needed. *)

val drain : Ktypes.t -> unit
(** Synchronously service the whole queue (recovery uses this to complete
    the update propagation it schedules at merge). *)

val one_commit_behind :
  local:Vv.Version_vector.t ->
  target:Vv.Version_vector.t ->
  origin:Net.Site.t ->
  bool

val read_run :
  Ktypes.t ->
  Net.Site.t ->
  Catalog.Gfile.t ->
  npages:int ->
  first:int ->
  count:int ->
  stat:bool ->
  string list * Proto.inode_info option
(** [read_run k site gf ~npages ~first ~count ~stat]: the committed pages
    [first] to [first + count - 1] of [site]'s copy ({!Ss.read_committed}),
    and its inode when [stat]. A reply with fewer pages than the copy has
    in the run — by the inode that came back, else by [npages] — raises
    {!Ktypes.Error} [EIO]. A pull and reconciliation's copy reads both read
    through it. *)

val runs_of : cap:int -> int list -> (int * int) list
(** [runs_of ~cap pages] groups an ascending page list into [(first,
    count)] runs of consecutive pages, each at most [cap] long: the
    requests of a pull, and of reconciliation's copy reads. *)
