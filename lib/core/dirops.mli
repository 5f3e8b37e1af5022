(** Directory updates, file creation and deletion (§2.3.4, §2.3.7).

    Every name-space change — enter an entry, remove an entry, rename — is
    one atomic directory modification through the standard open-for-
    modification/commit machinery, so directory interrogation never sees
    an inconsistent picture. Creation picks initial storage sites with the
    paper's algorithm: storage sites of the parent directory, the local
    site first, inaccessible sites last. *)

val update_dir :
  Ktypes.t -> Catalog.Gfile.t -> (stamp:float -> Proto.dir_op) -> int
(** Apply one entry change to a directory atomically under the CSS
    modification lock, retrying a few times on [EBUSY]: a [Dir_update] to
    the directory's storage site, which writes the changed pages into the
    shadow session, then commit and close. The change is built from its
    stamp, the time the open was granted. Returns the inode entered or
    removed. *)

val enter_entry : Ktypes.t -> Catalog.Gfile.t -> name:string -> ino:int -> unit
(** Raises [EEXIST]. *)

val remove_entry : Ktypes.t -> Catalog.Gfile.t -> name:string -> int
(** Tombstones the entry; returns the inode number. Raises [ENOENT]. *)

val initial_storage_sites :
  Ktypes.t -> parent_sites:Net.Site.t list -> ncopies:int -> Net.Site.t list
(** The site-selection algorithm of §2.3.7 (exposed for tests). *)

val parent_storage_sites : Ktypes.t -> Catalog.Gfile.t -> Net.Site.t list

val create_in :
  Ktypes.t ->
  Catalog.Gfile.t ->
  name:string ->
  ftype:Storage.Inode.ftype ->
  owner:string ->
  perms:int ->
  ncopies:int ->
  Catalog.Gfile.t
(** Create a file under a directory: allocate the inode at the chosen SS
    (a placeholder travels instead of an inode number), enter the name,
    and designate the replicas. *)

val init_directory : Ktypes.t -> Catalog.Gfile.t -> parent_ino:int -> unit
(** Write a fresh directory's "." and ".." entries. *)

val link_count : Ktypes.t -> Catalog.Gfile.t -> delta:int -> unit

val unlink_gf : Ktypes.t -> Catalog.Gfile.t -> name:string -> Catalog.Gfile.t
(** Remove a name; delete the file body once the last link is gone. *)

val link_gf :
  Ktypes.t -> target:Catalog.Gfile.t -> dir_gf:Catalog.Gfile.t -> name:string -> unit
(** Hard link; raises [EINVAL] across filegroup boundaries. *)

val rename_gf :
  Ktypes.t ->
  old_dir:Catalog.Gfile.t ->
  old_name:string ->
  new_dir:Catalog.Gfile.t ->
  new_name:string ->
  Catalog.Gfile.t
