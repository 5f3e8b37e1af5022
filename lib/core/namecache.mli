(** Per-site pathname name cache (the caching half of the §2.3.4 lookup
    fast path).

    Maps (directory gfile, component) → (child gfile, directory version,
    child type). §2.3.4's pathname searching reads directories
    unsynchronized, so a cached link is no weaker than the slow path; the
    recorded version vector is the invalidation key. Filled by local
    directory walks and by server-side partial-pathname lookup trails;
    invalidated on commit notification, local directory operations,
    propagation pulls, reclaim, and partition merge. A merge's clear
    remembers the directories whose links it dropped, so the site can
    re-warm each one a page at a time ({!clear_merge}).

    Exports [name.cache.hit] / [miss] / [fill] / [invalidate] / [evict]
    and [name.rewarm.filed] counters through {!Sim.Stats}. *)

type entry = {
  nc_child : Catalog.Gfile.t;
  nc_vv : Vv.Version_vector.t;
      (** the directory's version vector when the link was read *)
  nc_ftype : Storage.Inode.ftype;
      (** the child's type, which the directory entry records: a warm walk
          knows whether its last component is a hidden directory without
          asking anyone *)
}

type t

val create : stats:Sim.Stats.t -> capacity:int -> unit -> t
(** [capacity] 0 is an empty table, the ablation: every {!find} misses,
    and a link inserted is evicted at once. *)

val find :
  t ->
  dir:Catalog.Gfile.t ->
  comp:string ->
  current_vv:Vv.Version_vector.t option ->
  entry option
(** Look up a link. [current_vv] is the directory's version as currently
    known locally (None when no trustworthy local copy exists); an entry
    recorded under a different version is dropped and counted as an
    invalidation plus a miss. *)

val insert : t -> dir:Catalog.Gfile.t -> comp:string -> entry -> unit

val insert_free : t -> dir:Catalog.Gfile.t -> comp:string -> entry -> unit
(** {!insert} only into a free slot, and only a link not cached yet: the
    cache is below capacity and holds no entry for the key. Otherwise
    nothing changes, recency order included. Counts
    [name.rewarm.filed]. *)

val note_dir_vv : t -> dir:Catalog.Gfile.t -> Vv.Version_vector.t -> unit
(** The directory committed at this version: drop every link recorded
    under a different one. *)

val invalidate_dir : t -> Catalog.Gfile.t -> unit

val invalidate_child : t -> Catalog.Gfile.t -> unit
(** Drop every link resolving to this gfile (deleted/reclaimed files). *)

val clear : t -> unit
(** Drop every link and forget the directories {!clear_merge} noted: a
    crash. *)

val clear_merge : t -> unit
(** Drop every link and note the directories they were in (at most one
    per link), in place of those noted before: a merge. *)

val wants_rewarm : t -> Catalog.Gfile.t -> bool
(** Did the last merge drop links from this directory, and has no
    re-warming walk passed through it since? *)

val rewarmed : t -> Catalog.Gfile.t -> unit
(** A re-warming walk's trail passed through the directory. *)

val length : t -> int

val keys_mru : t -> (Catalog.Gfile.t * string) list
(** The cached (directory, component) keys, most recently used first. *)
