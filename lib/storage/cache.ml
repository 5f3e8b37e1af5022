(* LRU buffer cache: the generic recency-list core of {!Lru} instantiated
   at whole pages. [Page.copy] on the way in and out keeps the cache's
   buffers isolated from the caller's. *)

module Make (K : Lru.KEY) = Lru.Make (K) (Page)
