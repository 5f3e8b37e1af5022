(** Simulated disk: a flat array of pages with a free list.

    Page address 0 is reserved (never allocated) so that 0 can encode "no
    page" in on-disk page tables. *)

type t

type addr = int

exception Disk_full

val create : ?pages:int -> unit -> t
(** Default capacity 65536 pages (64 MiB). *)

val alloc : t -> addr
(** Allocate a zeroed page. Raises {!Disk_full}. *)

val free : t -> addr -> unit
(** Release a page. Double frees raise [Invalid_argument]. *)

val read : t -> addr -> Page.t
(** The stored page itself: pages are immutable, so no copy is taken. *)

val write : t -> addr -> Page.t -> unit
(** Stores the page it is given, not a copy. *)

val is_allocated : t -> addr -> bool

val used : t -> int

val capacity : t -> int

val reads : t -> int
(** Cumulative page reads, for I/O accounting. *)

val writes : t -> int
