(* Cache coherence at one site (sections 2.3.6 and 3.2). US pages are
   keyed by version, so a page of a superseded version can never hit
   again: they are dropped early only where a commit is announced from
   elsewhere, and by a page invalidation, whose writer's bytes would
   otherwise be read under the committed version's key. *)

open Ktypes

let drop_buffers k gf = ignore (Ss_cache.drop_file k.ss_cache (Gfile.id gf))

(* Links read from another version of the directory are dead, and once
   the file is deleted no link may resolve to it. No link was ever read
   from a deleted version's empty body, so a delete drops all of the
   directory's. *)
let retire_links k gf ~vv ~deleted =
  Namecache.note_dir_vv k.name_cache ~dir:gf vv;
  if deleted then Namecache.invalidate_child k.name_cache gf

(* A grant on another version is dead now, before the CSS's break
   arrives. *)
let retire_lease k gf vv =
  match Openlease.find_entry k.open_leases gf with
  | Some e when not (Vvec.equal e.Openlease.le_vv vv) -> Openlease.kill k.open_leases gf
  | Some _ | None -> ()

(* The committed page [lpage] of this site's copy, through the buffer
   cache: what a re-index reads of a page it does not hold. *)
let committed_page k gf lpage =
  let inode = local_inode_exn k gf ~what:"re-index" in
  cached_pack_page k ~read:(Storage.Pack.reader (local_pack_exn k gf.Gfile.fg) inode) gf lpage

let has_session k gf =
  match ss_find_open k gf with Some { s_shadow = Some _; _ } -> true | Some _ | None -> false

type index_change = Followed | Reindex

(* The install wrote each replaced page below the new size, so its
   buffer holds the page the install holds (section 2.3.6: the network
   buffer, or the session's page, goes to secondary storage), and every
   page it did not replace stays on its disk page. Every buffer lies
   below the copy's size, so the pages cut off cover a delete's. An index
   of the old version that did not make the change follows it from the
   replaced pages, unless a session on the file holds record changes of
   its own. *)
let installed k gf ~old_vv ~vv ~deleted ~old_size ~size ~replaced ~index =
  retire_lease k gf vv;
  let npages size = (size + Storage.Page.size - 1) / Storage.Page.size in
  List.iter (fun (p, page) -> Ss_cache.insert k.ss_cache (gf, p) page) replaced;
  for p = npages size to npages old_size - 1 do
    Ss_cache.invalidate k.ss_cache (gf, p)
  done;
  (match (Ss_dirs.peek k.ss_dirs gf, index) with
  | Some d, _ when deleted || not (Vvec.equal d.di_vv old_vv) -> ss_dir_drop k gf
  | Some d, Followed -> d.di_vv <- vv
  | Some _, Reindex when has_session k gf -> ss_dir_drop k gf
  | Some d, Reindex -> (
    let pages = dir_index_pages d in
    match
      Catalog.Dir.Index.reindex d.di_index ~read:(committed_page k gf) ~pages:replaced ~size
    with
    | exception Failure _ -> ss_dir_drop k gf
    | () ->
      d.di_vv <- vv;
      if dir_index_pages d > pages then dir_index_fit k)
  | None, _ -> ());
  retire_links k gf ~vv ~deleted

(* A copy at or past [vv] was installed, which retired what [vv] made
   stale. Where the change originated, buffered pages age out as at an
   install; elsewhere the SS buffers hold the local copy, now behind. *)
let announced k gf ~vv ~deleted ~origin =
  match local_vv k gf with
  | Some local when Vvec.dominates_or_equal local vv -> ()
  | Some _ | None ->
    if not (Site.equal origin k.site) then begin
      let key = Committed vv in
      ignore
        (Us_cache.drop_file k.us_cache (Gfile.id gf) ~only:(fun (_, _, v) _ ->
             not (vkey_equal v key)));
      drop_buffers k gf
    end;
    retire_links k gf ~vv ~deleted;
    retire_lease k gf vv

type writer = Here of ofile | Elsewhere of { first : int; count : int }

(* An open that stops caching drops its readahead in flight, as if it had
   never cached. *)
let stop_caching k keep =
  Hashtbl.iter
    (fun _ o ->
      if keep o then begin
        o.o_nocache <- true;
        o.o_inflight <- []
      end)
    k.open_files

(* From elsewhere, a retained grant names a superseded version whether or
   not its break arrived: a ride on it would file the new bytes under the
   old key. Here, the lease protocol retires it. *)
let rewritten k gf writer =
  (match writer with
  | Here _ -> ()
  | Elsewhere { first; count } ->
    Openlease.kill k.open_leases gf;
    ignore
      (Us_cache.drop_file k.us_cache (Gfile.id gf) ~only:(fun (_, p, _) _ ->
           p >= first && p < first + count)));
  stop_caching k (fun o ->
      let other = match writer with Here w -> o != w | Elsewhere _ -> true in
      other && Gfile.equal o.o_gf gf)

(* The CSS broke grant [id] and released it: the grant dies here, if this
   site still holds it. When the CSS also ended its SS registration, no
   page invalidation reaches this site any more, so the break does its
   work: the file's committed pages go, under every version, and the
   opens riding the grant stop caching. *)
let lease_broken k gf ~id ~closed =
  match Openlease.revoke k.open_leases gf ~id ~closed with
  | Some e when closed ->
    ignore
      (Us_cache.drop_file k.us_cache (Gfile.id gf) ~only:(fun (_, _, v) _ ->
           match v with Committed _ -> true | Private _ -> false));
    stop_caching k (fun o -> match o.o_lease with Some r -> r == e | None -> false)
  | Some _ | None -> ()

let reclaimed k gf =
  drop_buffers k gf;
  ss_dir_drop k gf;
  Namecache.invalidate_dir k.name_cache gf;
  Namecache.invalidate_child k.name_cache gf;
  Openlease.kill k.open_leases gf

type loss = Crash | Membership of { merge : bool }

(* A crash loses every cache. A membership change drops every lease,
   whose break callbacks can no longer be trusted to arrive, dead ones
   still ridden included: the rebuild counts their riders as plain opens.
   A merge also starts the name cache cold, noting its directories for
   re-warming. *)
let forgotten k = function
  | Crash ->
    Us_cache.clear k.us_cache;
    Keys.clear k.us_open_keys;
    Ss_cache.clear k.ss_cache;
    Ss_dirs.clear k.ss_dirs;
    Namecache.clear k.name_cache;
    Openlease.clear k.open_leases
  | Membership { merge } ->
    Openlease.clear k.open_leases;
    Hashtbl.iter (fun _ o -> Option.iter Openlease.drop o.o_lease) k.open_files;
    if merge then Namecache.clear_merge k.name_cache
