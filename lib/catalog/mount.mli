(** The logical mount table (§2.1).

    Filegroups are glued into the single naming tree by mounting: a mount
    entry attaches a filegroup's root as a subtree at a directory of an
    already-mounted filegroup. The table is operating-system state
    replicated at every site, and the reconfiguration protocols require the
    mount hierarchy to be identical everywhere (§5.1). *)

type t

val root_ino : int
(** Inode number of every filegroup's root directory (1). *)

val create : root_fg:int -> t

val root : t -> Gfile.t
(** The global root directory <root_fg, 1>. *)

val add : t -> mount_point:Gfile.t -> child_fg:int -> unit
(** Mount [child_fg] at directory [mount_point]. Raises [Invalid_argument]
    if that filegroup is already mounted or the point is in use. *)

val mounted_at : t -> Gfile.t -> int option
(** If the directory is a mount point, the filegroup mounted on it. *)

val mount_point_of : t -> int -> Gfile.t option
(** Reverse lookup for ".." traversal out of a filegroup root. [None]
    for the root filegroup. *)
