(** LRU buffer cache.

    Used at a storage site to front disk-page reads and at a using site for
    pages fetched across the network (§2.3.3: "all such requests are
    serviced via kernel buffers"). Keys are caller-chosen; entries are
    whole pages. All operations are O(1) except {!invalidate_if} and
    {!clear} (a hashtable keyed on the entries plus an intrusive
    doubly-linked recency list). *)

type 'k t

val create : ?on_evict:('k -> unit) -> capacity:int -> unit -> 'k t
(** [on_evict] is called with the key of every entry dropped by capacity
    pressure (not by explicit invalidation) — the hook the kernel uses to
    export eviction counts. *)

val find : 'k t -> 'k -> Page.t option
(** Hit moves the entry to most-recently-used and returns a copy. Counts
    toward {!hits}/{!misses}. *)

val mem : 'k t -> 'k -> bool
(** Presence probe: no recency update, no counter update. Used where a
    lookup is bookkeeping (readahead dedup), not a demand access. *)

val insert : 'k t -> 'k -> Page.t -> unit
(** Insert (or refresh) a copy of the page, evicting the least recently
    used entry if over capacity. *)

val invalidate : 'k t -> 'k -> unit

val invalidate_if : 'k t -> ('k -> bool) -> unit
(** Drop all entries whose key satisfies the predicate (e.g. every page of
    a file that just changed version). Silent: no [on_evict], no
    {!evictions} count, so the eviction counters measure capacity
    pressure only. O(n). *)

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
