(** Physical containers for logical filegroups (§2.2.2).

    A pack stores a *subset* of the files of one logical filegroup, plus its
    own disk. The inode number space of the filegroup is partitioned across
    packs so that each pack can allocate inode numbers while other packs are
    inaccessible (§2.3.7). *)

type t

val create :
  fg:int -> pack_id:int -> ino_lo:int -> ino_hi:int -> ?disk_pages:int -> unit -> t

val fg : t -> int

val pack_id : t -> int

val disk : t -> Disk.t

val alloc_ino : t -> int
(** Next inode number from this pack's partition of the space. *)

val stores : t -> int -> bool
(** Does this pack hold a copy (inode present and not discarded)? *)

val find_inode : t -> int -> Inode.t option

val get_inode : t -> int -> Inode.t
(** Raises [Not_found]. *)

val install_inode : t -> Inode.t -> unit
(** Add or replace the descriptor (used by create and by propagation). *)

val remove_inode : t -> int -> unit
(** Drop the descriptor and free all its pages (final stage of delete). *)

val inodes : t -> Inode.t list

val load_table : t -> Inode.t -> int array
(** Full logical-to-physical page table (direct slots then the decoded
    indirect page); entries are disk addresses, 0 meaning absent. *)

val page_addr : t -> Inode.t -> int -> int option
(** Physical address of logical page [i], if allocated. *)

val reader : t -> Inode.t -> int -> Page.t
(** [reader t inode] reads logical pages of [inode]; absent pages read as
    zeroes. The first page past the direct slots also reads the indirect
    page, once over all the reader's calls: one reader serves one request
    against one version of the inode. *)

val write_indirect : t -> int array -> int
(** Allocate and write a fresh indirect page holding the given addresses
    (length {!Inode.indirect_capacity}); returns its disk address. *)

val read_string : t -> Inode.t -> string
(** Whole-file contents ([size] bytes), assembled from pages through one
    {!reader}. *)

val scavenge : t -> int
(** Free any allocated page not reachable from the inode table (orphans left
    by a crash between shadow-page writes and commit). Returns the number
    of pages reclaimed. *)

type fsck_error =
  | Double_allocated of int * int * int
      (** page address claimed by two inodes (addr, ino1, ino2) *)
  | Bad_address of int * int (** inode references an unallocated page (ino, addr) *)
  | Size_beyond_table of int (** inode's size implies pages past the table (ino) *)
  | Orphan_pages of int      (** pages allocated but unreachable (count) *)

val pp_fsck_error : Format.formatter -> fsck_error -> unit

val fsck : t -> fsck_error list
(** Verify the container's structural invariants: every allocated page is
    referenced by exactly one inode (or reported as an orphan), every
    referenced address is allocated, and no inode's size exceeds its page
    table. An empty list means the container is consistent. *)
