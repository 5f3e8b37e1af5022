(** Site identifiers.

    A site is one machine of the LOCUS network (one VAX in the paper's
    testbed). Sites are small integers, densely numbered from 0. *)

type t = int

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string

module Set : Set.S with type elt = t

module Map : Map.S with type key = t
