(** Globally unique low-level file names.

    "A file's globally unique low-level name is: <logical filegroup number,
    file descriptor (inode) number> and it is this name which most of the
    operating system uses" (§2.2.2). *)

type t = { fg : int; ino : int }

val make : fg:int -> ino:int -> t

val compare : t -> t -> int

val equal : t -> t -> bool

val id : t -> int
(** One integer per file (inode numbers stay below 2{^32}): the file's
    number in the per-file cache indexes ({!Storage.Lru.KEY.file}). *)

module Key : Storage.Lru.KEY with type t = t
(** A file as a hashed key: of its own entry in an LRU table that never
    drops by file (every entry is in file 0), and of {!Tbl}. *)

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by a file, hashed by {!id}: no polymorphic hash or
    compare of the record. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

module Map : Map.S with type key = t

module Set : Set.S with type elt = t
