(** Current Synchronization Site logic (§2.3.1).

    All open requests for a filegroup's files flow through its CSS, which
    enforces the global synchronization policy (one open for modification,
    any number of readers), knows which sites store each file at which
    version vector, selects the storage site for each open (with the two
    collocation optimizations of §2.3.3), and decides when a deleted
    inode number can be reallocated. *)

val is_css : Ktypes.t -> int -> bool

val find_file : Ktypes.t -> int -> int -> Ktypes.css_file option

val get_file : Ktypes.t -> int -> int -> Ktypes.css_file
(** Find-or-create, seeding from the local pack when this CSS stores the
    file itself. *)

val seed_copy :
  Ktypes.t ->
  Catalog.Gfile.t ->
  site:Net.Site.t ->
  vv:Vv.Version_vector.t ->
  ftype:Storage.Inode.ftype ->
  deleted:bool ->
  unit
(** Record (at boot or lock-table rebuild) that [site] stores a copy of
    type [ftype]. *)

val sites_with_latest : Ktypes.t -> Ktypes.css_file -> Net.Site.t list
(** Reachable sites whose copy is at the latest version: the SS
    candidates. *)

val sites_to_notify : Ktypes.t -> Ktypes.css_file -> Net.Site.t list
(** The sites a commit notifies: [sites_with_latest], plus every reachable
    designated initial storage site of a new file that has not reported
    a copy yet. *)

val unreported : Ktypes.t -> int -> (int * Net.Site.t list) list
(** This CSS's live files of a filegroup, by inode, with their reachable
    designated initial storage sites that have not reported a copy yet. *)

val handle_open :
  Ktypes.t ->
  src:Net.Site.t ->
  Catalog.Gfile.t ->
  Proto.open_mode ->
  shared:bool ->
  Vv.Version_vector.t option ->
  Proto.resp
(** The CSS half of the open protocol (Figure 2). *)

(** {1 Directory intents} *)

val lock :
  Ktypes.t -> Catalog.Gfile.t -> us:Net.Site.t -> (Ktypes.css_file, Proto.errno) result
(** Take a file's modification lock for a directory intent of [us], as a
    modify open would: [EBUSY] while held, [ENOENT]/[ECONFLICT] as for an
    open; every read lease is broken. The caller clears [writer] before
    it replies. *)

val holds_latest : Ktypes.t -> Catalog.Gfile.t -> Ktypes.css_file -> bool
(** This site's own copy is at the file's latest version. *)

val intent_site : Ktypes.t -> Catalog.Gfile.t -> Ktypes.css_file -> Net.Site.t option
(** Where an intent's work on a file runs: this site when it holds the
    latest copy, otherwise the first reachable site that does. *)

val initial_storage_sites :
  Ktypes.t -> us:Net.Site.t -> parent_sites:Net.Site.t list -> ncopies:int -> Net.Site.t list
(** The site-selection algorithm of §2.3.7 for a file created by [us]:
    the parent directory's sites, [us] first when it is one of them,
    inaccessible sites last, [ncopies] of them. *)

val unlink_fences :
  Ktypes.t -> int -> ss:Net.Site.t -> (int * Proto.errno) list * int list
(** For a counted unlink forwarded to storage site [ss]: the inodes whose
    unlink must fail, with the errno, and those whose latest copy [ss]
    does not hold. *)

val handle_ss_close :
  Ktypes.t -> Catalog.Gfile.t -> us:Net.Site.t -> mode:Proto.open_mode -> grant:int -> Proto.resp
(** SS→CSS leg of the close protocol. A close naming a [grant] releases
    that read lease, and nothing once its break has. *)

val grant_broken : Ktypes.t -> Catalog.Gfile.t -> grant:int -> bool
(** A close naming [grant] reached this site, the file's CSS, after the
    grant's break released it, and released its SS registration too: the
    grant's SS is this site. The close then releases nothing. *)

val handle_commit_notify :
  ?replicas:Net.Site.t list ->
  Ktypes.t ->
  Catalog.Gfile.t ->
  origin:Net.Site.t ->
  vv:Vv.Version_vector.t ->
  deleted:bool ->
  unit
(** Version bookkeeping on a commit notification; triggers inode
    reclamation once every storing site has seen a delete and every pack
    of the filegroup is in the partition (§2.3.7). [replicas] registers
    create-time designated storage sites. *)

val reclaim_deleted : Ktypes.t -> int -> unit
(** The reclaim check over every deleted file of a filegroup, run by a
    CSS that has just rebuilt its tables. *)

val handle_where : Ktypes.t -> Catalog.Gfile.t -> stat:bool -> Proto.resp
(** Which reachable sites hold the latest version; with [stat], also this
    site's own inode when its copy is the latest, at a disk read. *)

val handle_open_files_query : Ktypes.t -> int -> Proto.resp
(** This site's open files of a filegroup, for a rebuilding CSS (§5.6). *)

val register_open : Ktypes.t -> int -> int * Proto.open_mode * Net.Site.t -> unit
(** Re-enter one reported open during lock-table rebuild. *)

val drop_fg : Ktypes.t -> int -> unit
(** This site lost the CSS role for a filegroup. *)

val mark_conflict : Ktypes.t -> Catalog.Gfile.t -> unit
(** Mark a file in version conflict: normal opens fail (§4.6). *)

val clear_conflict : Ktypes.t -> Catalog.Gfile.t -> unit
