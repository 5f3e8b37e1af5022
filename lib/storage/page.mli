(** Fixed-size data pages, the unit of file I/O and of network transfer.

    A page is an immutable string of {!size} bytes. A committed page never
    changes (a change goes to a fresh shadow page, §2.3.6), so one page
    value is shared from the disk through both cache tiers to the reader,
    and a page is copied only where bytes change. *)

val size : int
(** Page size in bytes (1024, as on the paper's VAX systems). *)

type t = string

val blank : t
(** The page of zeroes. *)

val of_string : ?pos:int -> string -> t
(** The bytes from [pos] (default 0), padded with NULs or cut to exactly
    {!size} bytes. A whole page is returned as it is, not copied. *)

val patch : t -> int -> string -> t
(** [patch page off data] is a new page: [page] with the bytes from [off]
    replaced by [data]. Raises [Invalid_argument] if [data] does not fit. *)

val sub : t -> int -> int -> string
(** [sub page 0 size] is [page] itself. *)

val get_u32 : t -> int -> int

val of_u32s : int array -> t
(** The page holding the array as big-endian 32-bit words, zero past
    them: the indirect page table's codec, read back with {!get_u32}. *)
