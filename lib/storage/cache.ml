(* LRU buffer cache: the generic recency-list core of {!Lru} instantiated
   at whole pages. Pages are immutable, so the cache holds the page it was
   given and a hit returns that same value: no tier copies a page. *)

module Make (K : Lru.KEY) = Lru.Make (K) (Page)
