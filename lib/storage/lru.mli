(** Generic LRU recency-list structure with a per-file index.

    A slab: each entry is a slot of parallel arrays, its place in the
    recency order and in its file's ring are [int] links between slots,
    and open-addressing [int] tables find an entry by key and a file's
    entries by file. The kernel's two buffer caches (of {!Page.t}), its
    pathname name cache, its open-lease table, its storage site's
    directory indexes and its small per-file tables are all instances of
    {!Make}; they differ in the key and the cached value type. Every
    operation is O(1), except {!S.drop_file}, which is O(entries of that
    file), {!S.filter_out} and {!S.fold}, O(entries), and {!S.clear},
    O(slots). Once
    the slots have grown, a hit, an insert, an eviction, an invalidation
    or a drop allocates nothing beyond what the caller passes and
    {!S.find}'s [Some]. An instance keeps no counters: its user counts
    hits and misses from {!S.find}'s result and evictions through
    [on_evict].

    The slots start at 8 and double, up to one more than the capacity, so
    a cache that never fills never pays for its capacity. A capacity of 0
    is an empty table, not a separate mode: each insert files its entry
    and evicts it at once. The first entry
    inserted fills the slot arrays and clears every vacated slot (so an
    evicted value is not retained): that one key and value stay alive as
    long as the cache. *)

module type KEY = sig
  type t

  val equal : t -> t -> bool

  val hash : t -> int

  val file : t -> int
  (** The file the entry belongs to: {!S.drop_file} drops entries by it. *)
end

module type VALUE = sig
  type t
  (** Held and returned by reference, never copied: a page is immutable,
      and the other instances share their records on purpose. *)
end

module type S = sig
  type key

  type value

  type t

  val create : ?on_evict:(key -> value -> unit) -> capacity:int -> unit -> t
  (** [on_evict] is called with the key and value of every entry dropped
      by capacity pressure (not by explicit invalidation), after the entry
      has left. A capacity of 0 holds nothing: every insert is evicted at
      once, through [on_evict]. Raises [Invalid_argument] on a negative
      capacity. *)

  val find : t -> key -> value option
  (** Hit moves the entry to most-recently-used and returns the value
      inserted (the same value, not a copy). *)

  val peek : t -> key -> value option
  (** Lookup without a recency update. *)

  val mem : t -> key -> bool
  (** Presence probe: no recency update. *)

  val oldest : t -> (key * value) option
  (** The least recently used entry, the next eviction victim, without a
      recency update; [None] when empty. *)

  val insert : t -> key -> value -> unit
  (** Insert (or refresh) the value, evicting the least recently used
      entry if over capacity. *)

  val invalidate : t -> key -> unit

  val drop_file : ?only:(key -> value -> bool) -> t -> int -> int
  (** [drop_file t file] drops the entries of [file] (those satisfying
      [only], when given) and returns how many it dropped. Silent: no
      [on_evict]. O(entries of [file]). *)

  val filter_out : t -> (key -> value -> bool) -> int
  (** Drop all entries satisfying the predicate, silently, and return how
      many were dropped. O(n): for drops that no file bounds. *)

  val clear : t -> unit
  (** Drop everything, silently. *)

  val length : t -> int

  val capacity : t -> int
  (** The capacity the table was created with. *)

  val fold : (key -> value -> 'acc -> 'acc) -> t -> 'acc -> 'acc
  (** [fold f t init] folds [f] over the entries from the least recently
      used to the most, with no recency update and no list built. [f]
      must not change [t]. O(entries). *)

  val keys_mru : t -> key list
  (** Keys in recency order, most recently used first (test/debug aid). *)
end

module Make (K : KEY) (V : VALUE) : S with type key = K.t and type value = V.t
