(** File descriptors (inodes).

    A file's globally unique low-level name is the pair <logical filegroup
    number, inode number> (§2.2.2); this module holds the per-copy descriptor
    stored in a pack: metadata, the version vector, and the page table
    (direct slots plus one indirect page). The inode is treated as part of
    the file from the recovery point of view (§4.4). *)

type ftype =
  | Regular
  | Directory
  | Hidden_directory  (** context-sensitive name expansion, §2.4.1 *)
  | Mailbox           (** automatically reconciled, §4.5 *)
  | Database          (** reconciliation deferred to a transaction manager *)
  | Fifo              (** named pipe, §2.4.2 *)

val n_direct : int
(** Number of direct page-table slots (8). *)

val indirect_capacity : int
(** Entries in the single indirect page. *)

val max_pages : int
(** Largest supported file, in pages. *)

type t = {
  ino : int;
  mutable ftype : ftype;
  mutable size : int;          (** bytes *)
  mutable nlink : int;
  mutable owner : string;
  mutable perms : int;
  mutable mtime : float;       (** simulated time of last committed change *)
  mutable vv : Vv.Version_vector.t;
  mutable deleted : bool;      (** delete committed; awaiting propagation *)
  mutable delete_time : float;
  direct : int array;          (** disk addresses; 0 = no page *)
  mutable indirect : int;      (** disk address of indirect page; 0 = none *)
}

val create : ino:int -> ftype:ftype -> owner:string -> t

val clone : t -> t
(** Deep copy, used as the incore inode of a shadow-page session. *)

val npages : t -> int
(** Number of logical pages implied by [size]. *)

val is_directory : t -> bool

val pp_ftype : Format.formatter -> ftype -> unit

val pp : Format.formatter -> t -> unit
