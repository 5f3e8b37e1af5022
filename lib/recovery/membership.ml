(* Installing an agreed membership (sections 5.4 to 5.6).

   The partition protocol and the merge protocol end the same way: the
   active site announces the membership, and every member installs it
   (the active site locally). One procedure does each for both, so a
   site that left is cleaned up the same way whichever protocol noticed,
   and every member places every filegroup's synchronization site by the
   same rule. *)

open Locus_core.Ktypes
module Css = Locus_core.Css
module Ss = Locus_core.Ss
module Kernel = Locus_core.Kernel
module Site = Net.Site

(* New CSS for [fg]: rebuild version bookkeeping and the lock table from
   the members (section 5.6), and designate again the sites of
   [unreported] whose designation was lost. *)
let rebuild_css ?(unreported = []) k fg ~members =
  Css.drop_fg k fg;
  List.iter
    (fun m ->
      (match rpc_result k m (Proto.Pack_inventory { fg }) with
      | Ok (Proto.R_inventory { files }) ->
        List.iter
          (fun (ino, vv, ftype, deleted) ->
            Css.seed_copy k (Gfile.make ~fg ~ino) ~site:m ~vv ~ftype ~deleted)
          files
      | Ok _ | Stdlib.Error _ -> ());
      match rpc_result k m (Proto.Open_files_query { fg }) with
      | Ok (Proto.R_open_files { files }) ->
        List.iter (fun entry -> Css.register_open k fg entry) files
      | Ok _ | Stdlib.Error _ -> ())
    members;
  Locus_core.Dirops.redesignate k fg unreported;
  Css.reclaim_deleted k fg

(* Place [fi]'s CSS by the replicated placement function over the members
   holding its pack, which every member evaluates to the same site with no
   message, spreading the roles of many filegroups over the partition. The
   CSS rebuilds its tables at every install, whether it became CSS or
   stays one, so no reader count or lease holder of a dropped lease
   survives; a site that lost the role drops its state. With no pack
   holder among the members the filegroup is unavailable here: no CSS is
   elected, so its opens find the old one unreachable (ENET), where a
   packless CSS would know no copy and answer ENOENT. *)
let place k ~unreported fi =
  match place_css ~fg:fi.fg (List.filter (in_partition k) fi.pack_sites) with
  | None -> record k ~tag:"member.unavailable" "fg %d: no pack holder" fi.fg
  | Some css ->
    let old = fi.css_site in
    fi.css_site <- css;
    if Site.equal css k.site then
      rebuild_css ?unreported:(List.assoc_opt fi.fg unreported) k fi.fg ~members:k.site_table
    else if Site.equal old k.site then Css.drop_fg k fi.fg

let install k ~members ~merge =
  let departed = List.filter (fun s -> not (List.mem s members)) k.site_table in
  (* Taken under the old membership: a site designated while it was
     already away is not designated again. *)
  let unreported = List.map (fun fi -> (fi.fg, Css.unreported k fi.fg)) k.fg_table in
  set_sites k members;
  (* Leases die silently, as at a crash: the rebuild and revalidation
     below restore what their deferred closes would have updated. *)
  Locus_core.Coherence.forgotten k (Locus_core.Coherence.Membership { merge });
  (* Place the synchronization sites first: the cleanup procedure's
     attempt to reopen lost files at another copy needs a live CSS. *)
  List.iter (place k ~unreported) k.fg_table;
  List.iter
    (fun dead ->
      ignore (Txn.handle_site_failure k dead);
      Kernel.handle_site_failure k dead)
    departed;
  (* SS-side half of the rebuild, at a partition as at a merge: serving
     registrations are revalidated against the members' actual open files,
     so those of the leases dropped above draw no more invalidations. *)
  Ss.revalidate_serving k;
  record k ~tag:"member.install" "members=[%a] departed=[%a]%s" pp_sites members pp_sites
    departed
    (if merge then " merge" else "")

(* Announce the agreed membership to every other member and install it
   here, the new CSS sites first: a member's cleanup reopens its lost
   files at the new CSS (section 5.6), which must have rebuilt its tables
   by then. *)
let announce k ~members ~merge =
  let new_css =
    List.filter_map
      (fun fi -> place_css ~fg:fi.fg (List.filter (fun s -> List.mem s members) fi.pack_sites))
      k.fg_table
  in
  let others = List.filter (fun s -> not (Site.equal s k.site)) members in
  let first, rest = List.partition (fun s -> List.mem s new_css) (others @ [ k.site ]) in
  let message =
    if merge then Proto.Merge_announce { members } else Proto.Part_announce { members }
  in
  List.iter
    (fun s ->
      if Site.equal s k.site then install k ~members ~merge
      else match rpc_result k s message with Ok _ | Stdlib.Error _ -> ())
    (first @ rest)
