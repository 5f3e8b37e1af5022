(** Fixed-size data pages, the unit of file I/O and of network transfer. *)

val size : int
(** Page size in bytes (1024, as on the paper's VAX systems). *)

type t = Bytes.t

val blank : unit -> t

val copy : t -> t

val of_string : ?pos:int -> string -> t
(** The bytes from [pos] (default 0), padded with NULs or cut to exactly
    {!size} bytes. *)

val to_string : t -> string
(** Full page contents including padding. *)

val blit_string : string -> t -> int -> unit
(** [blit_string s page off] overwrites bytes [off .. off+len-1]. Raises
    [Invalid_argument] if it does not fit. *)

val sub : t -> int -> int -> string

val get_u32 : t -> int -> int

val set_u32 : t -> int -> int -> unit
(** Big-endian 32-bit codec used for indirect page tables. *)

val equal : t -> t -> bool
