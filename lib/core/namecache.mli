(** Per-site pathname name cache (the caching half of the §2.3.4 lookup
    fast path).

    Maps (directory gfile, component) → (child gfile, directory version,
    child type). §2.3.4's pathname searching reads directories
    unsynchronized, so a cached link is no weaker than the slow path; the
    recorded version vector is the invalidation key. Filled by local
    directory walks and by server-side partial-pathname lookup trails;
    invalidated on commit notification, local directory operations,
    propagation pulls, reclaim, and partition merge.

    Exports [name.cache.hit] / [miss] / [fill] / [invalidate] / [evict]
    counters through {!Sim.Stats}. *)

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
(** [capacity <= 0] disables the cache entirely (the ablation switch). *)

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

val note_dir_vv : t -> dir:Catalog.Gfile.t -> Vv.Version_vector.t -> unit
(** The directory committed at this version: drop every link recorded
    under a different one. *)

val invalidate_dir : t -> Catalog.Gfile.t -> unit

val invalidate_child : t -> Catalog.Gfile.t -> unit
(** Drop every link resolving to this gfile (deleted/reclaimed files). *)

val clear : t -> unit

val length : t -> int
