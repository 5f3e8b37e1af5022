(* Per-site pathname name cache: the caching half of the section 2.3.4
   fast path.

   Maps (directory gfile, component) to the child gfile the component
   named, remembering the directory's version vector at fill time. The
   paper's pathname searching already reads directories unsynchronized —
   a momentarily stale answer is sanctioned — so serving a cached link is
   no weaker than the slow path; the version vector is the invalidation
   key that bounds the staleness to what commit notification has not yet
   delivered. Entries are filled by local directory walks and by the
   trails of server-side partial-pathname lookups ([Proto.lookup_step]),
   and live in the same recency-list structure as the buffer caches, with
   the directory as each link's file: a directory's commit drops its own
   links in time proportional to their number, and the commit of a file
   that is not a cached directory finds nothing to drop at once. Only a
   deletion visits every link ([invalidate_child]: a hard-linked child
   can be named from any directory); deletions are rare beside commits,
   and their scans a small share of the links visited.

   A merge drops every link at once ([clear_merge]); the cache remembers
   the directories they were in, at most one per link, so a remote walk
   from one of them asks for its page's other links too and files them
   into free slots ([insert_free]) until the walk's trail has passed
   through it ([rewarmed]). A crash forgets those directories with the
   links.

   Counters exported through [Sim.Stats]: name.cache.hit, name.cache.miss,
   name.cache.fill, name.cache.invalidate, name.cache.evict, and
   name.rewarm.filed (the neighbour links [insert_free] filed). *)

module Gfile = Catalog.Gfile
module Vvec = Vv.Version_vector

type entry = {
  nc_child : Gfile.t;
  nc_vv : Vvec.t; (* the directory's version when the link was read *)
  nc_ftype : Storage.Inode.ftype; (* the child's type, as its entry records it *)
}

module Lru =
  Storage.Lru.Make
    (struct
      type t = Gfile.t * string (* directory, component *)

      let equal (d, c) (d', c') = Gfile.equal d d' && String.equal c c'

      let hash (d, c) = (Gfile.id d * 65599) + Hashtbl.hash c

      let file (d, _) = Gfile.id d
    end)
    (struct
      type t = entry
    end)

type t = {
  cache : Lru.t;
  mutable rewarm : Gfile.Set.t; (* directories the last merge dropped links of *)
  hit : Sim.Stats.counter;
  miss : Sim.Stats.counter;
  fill : Sim.Stats.counter;
  invalidate : Sim.Stats.counter;
  filed : Sim.Stats.counter;
}

let create ~stats ~capacity () =
  let counter what = Sim.Stats.counter stats ("name.cache." ^ what) in
  let evict = counter "evict" in
  { cache = Lru.create ~on_evict:(fun _ _ -> Sim.Stats.cincr evict) ~capacity ();
    rewarm = Gfile.Set.empty; hit = counter "hit"; miss = counter "miss"; fill = counter "fill";
    invalidate = counter "invalidate"; filed = Sim.Stats.counter stats "name.rewarm.filed" }

let find t ~dir ~comp ~current_vv =
  match Lru.find t.cache (dir, comp) with
  | None ->
    Sim.Stats.cincr t.miss;
    None
  | Some e -> (
    (* [current_vv] is the directory's version as locally known (None
       when this site stores no trustworthy copy). A mismatch proves
       the link was read from a superseded directory version. *)
    match current_vv with
    | Some vv when not (Vvec.equal vv e.nc_vv) ->
      Lru.invalidate t.cache (dir, comp);
      Sim.Stats.cincr t.invalidate;
      Sim.Stats.cincr t.miss;
      None
    | Some _ | None ->
      Sim.Stats.cincr t.hit;
      Some e)

let insert t ~dir ~comp entry =
  Sim.Stats.cincr t.fill;
  Lru.insert t.cache (dir, comp) entry

(* A neighbour link takes a free slot or nothing: it never evicts a link
   a walk used, nor refreshes one already cached. *)
let insert_free t ~dir ~comp entry =
  if Lru.length t.cache < Lru.capacity t.cache && not (Lru.mem t.cache (dir, comp)) then begin
    Sim.Stats.cincr t.filed;
    insert t ~dir ~comp entry
  end

(* The name cache's on_evict only counts capacity pressure; invalidations
   are accounted right here. *)
let count_dropped t dropped = if dropped > 0 then Sim.Stats.cadd t.invalidate dropped

(* The directory committed at [vv]: every link recorded under a different
   version is superseded. Links already recorded under [vv] stay. *)
let note_dir_vv t ~dir vv =
  count_dropped t
    (Lru.drop_file t.cache (Gfile.id dir) ~only:(fun _ e -> not (Vvec.equal e.nc_vv vv)))

let invalidate_dir t dir = count_dropped t (Lru.drop_file t.cache (Gfile.id dir))

(* The file is deleted (or its inode number reclaimed): no cached link may
   keep resolving to it, whichever directory named it (hard links). *)
let invalidate_child t child =
  count_dropped t (Lru.filter_out t.cache (fun _ e -> Gfile.equal e.nc_child child))

let drop_all t =
  count_dropped t (Lru.length t.cache);
  Lru.clear t.cache

let clear t =
  t.rewarm <- Gfile.Set.empty;
  drop_all t

let clear_merge t =
  t.rewarm <- Lru.fold (fun (dir, _) _ set -> Gfile.Set.add dir set) t.cache Gfile.Set.empty;
  drop_all t

let wants_rewarm t dir = Gfile.Set.mem dir t.rewarm

let rewarmed t dir = t.rewarm <- Gfile.Set.remove dir t.rewarm

let length t = Lru.length t.cache

let keys_mru t = Lru.keys_mru t.cache
