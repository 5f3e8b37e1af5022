(** Directory updates, file creation and deletion (§2.3.4, §2.3.7).

    Every name-space change — a create, an unlink, a link, each half of a
    rename — is one intent: one request to the filegroup's CSS, which
    serializes it under the directory's modification lock and has one
    storage site change the record and commit, as one atomic directory
    modification. Creation picks initial storage sites with the paper's
    algorithm: storage sites of the parent directory, the creating site
    first, inaccessible sites last. *)

val run_intent :
  Ktypes.t -> us:Net.Site.t -> Catalog.Gfile.t -> Proto.intent -> Proto.resp
(** The CSS half of using site [us]'s intent on a directory: take
    the directory's modification lock ([EBUSY] while held; its leases are
    broken) and, for a counted unlink or link, the target file's; run the
    record change and the directory's commit at this site when it holds
    the latest copy, otherwise at the first reachable site that does (one
    [Intent_step]); record the new versions; for a create, register the
    file and designate its other initial storage sites. A counted unlink
    or link changes the file's link count where the directory changed
    when that site holds the file's latest copy, otherwise at a site that
    does (one more step). Locks are released before the reply. Answers
    [R_intent] or [R_err]. *)

val designate :
  ?carried:Proto.inode_info * string list ->
  Ktypes.t ->
  Catalog.Gfile.t ->
  origin:Net.Site.t ->
  vv:Vv.Version_vector.t ->
  replicas:Net.Site.t list ->
  unit
(** The one place a designation is built. At this CSS, count [replicas]
    as (stale) copies of [gf] and record that [origin] stores version
    [vv]; then designate each replica, in list order, a storage site of
    [vv]: it installs [carried] on arrival, or pulls from [origin]. *)

val redesignate : Ktypes.t -> int -> (int * Net.Site.t list) list -> unit
(** After this CSS rebuilt a filegroup's tables at a membership change,
    designate again every site of a [Css.unreported] list taken before
    the change that is still a member and reported no copy: its
    designation, or the pull it started, was lost. It pulls the latest
    version from a site holding it. *)

val create_in :
  Ktypes.t ->
  Catalog.Gfile.t ->
  name:string ->
  ftype:Storage.Inode.ftype ->
  owner:string ->
  perms:int ->
  ncopies:int ->
  Catalog.Gfile.t
(** Create a file under a directory with one intent. When this site stores
    the parent it is the first storage site: it allocates the inode
    itself, sends the number with the intent, and frees it if the intent
    is refused ([EEXIST]). Otherwise the storage site that enters the name
    allocates it, after the name check. Retries a few times on [EBUSY]. *)

val init_directory : Ktypes.t -> Catalog.Gfile.t -> parent_ino:int -> unit
(** Write a fresh directory's "." and ".." entries. *)

val unlink_gf : Ktypes.t -> Catalog.Gfile.t -> name:string -> Catalog.Gfile.t
(** Remove a name with one intent; the file body is deleted once the last
    link is gone. Fails with [EBUSY], changing nothing, while the
    directory or the file is open for modification. *)

val link_gf :
  Ktypes.t ->
  target:Catalog.Gfile.t ->
  ftype:Storage.Inode.ftype ->
  dir_gf:Catalog.Gfile.t ->
  name:string ->
  unit
(** Hard link with one intent; the new entry records [ftype], the
    target's type. Raises [EINVAL] across filegroup boundaries. *)

val rename_gf :
  Ktypes.t ->
  old_dir:Catalog.Gfile.t ->
  old_name:string ->
  new_dir:Catalog.Gfile.t ->
  new_name:string ->
  Catalog.Gfile.t
(** Rename within a filegroup: remove the old entry, enter the new one —
    two intents that leave the link count alone. A refused new entry puts
    the old one back; if that fails too, [EIO] names the lost entry. *)
