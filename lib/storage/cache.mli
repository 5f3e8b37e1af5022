(** LRU buffer cache.

    Used at a storage site to front disk-page reads and at a using site for
    pages fetched across the network (§2.3.3: "all such requests are
    serviced via kernel buffers"). Keys are caller-chosen and name the file
    they belong to, so dropping one file's pages when it changes version
    costs O(that file's pages), not a scan of the cache. Entries are whole
    pages, held by reference: {!Page.t} is immutable, so a page read from
    disk, buffered here and served to a reader is one shared value, and a
    hit returns the page that was inserted. Every other operation is O(1)
    except {!Lru.S.clear}. Drops and clears are silent: the eviction
    counters and [on_evict], the hook the kernel uses to export eviction
    counts, measure capacity pressure only. *)

module Make (K : Lru.KEY) : Lru.S with type key = K.t and type value = Page.t
