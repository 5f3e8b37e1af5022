(** Generic O(1) LRU recency-list structure.

    A hashtable keyed on caller-chosen keys plus an intrusive doubly-linked
    recency list. {!Cache} (the buffer caches) and the kernel's pathname
    name cache are both instances of {!Make}; they differ only in the
    cached value type. All operations are O(1) except {!Make.filter_out} /
    {!Make.invalidate_if} and {!Make.clear}. *)

module type VALUE = sig
  type t

  val copy : t -> t
  (** Isolates the cache's copy of a value from the caller's (pages are
      mutable buffers); the identity for immutable values. *)
end

module Make (V : VALUE) : sig
  type 'k t

  val create : ?on_evict:('k -> unit) -> capacity:int -> unit -> 'k t
  (** [on_evict] is called with the key of every entry dropped by capacity
      pressure (not by explicit invalidation). Raises [Invalid_argument]
      on non-positive capacity. *)

  val find : 'k t -> 'k -> V.t option
  (** Hit moves the entry to most-recently-used and returns a copy. Counts
      toward {!hits}/{!misses}. *)

  val mem : 'k t -> 'k -> bool
  (** Presence probe: no recency update, no counter update. *)

  val insert : 'k t -> 'k -> V.t -> unit
  (** Insert (or refresh) a copy of the value, evicting the least recently
      used entry if over capacity. *)

  val invalidate : 'k t -> 'k -> unit

  val filter_out : 'k t -> ('k -> V.t -> bool) -> int
  (** Drop all entries satisfying the predicate; returns how many were
      dropped (for invalidation accounting). Silent: no [on_evict], no
      {!evictions} count. O(n). *)

  val invalidate_if : 'k t -> ('k -> bool) -> unit
  (** {!filter_out} on the key alone, discarding the count. O(n). *)

  val clear : 'k t -> unit
  (** Drop everything, silently. *)

  val length : 'k t -> int

  val capacity : 'k t -> int

  val keys_mru : 'k t -> 'k list
  (** Keys in recency order, most recently used first (test/debug aid). *)

  val hits : 'k t -> int

  val misses : 'k t -> int

  val evictions : 'k t -> int
  (** Entries dropped by capacity pressure since creation. *)
end
