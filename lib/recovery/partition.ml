(* The partition protocol (section 5.4).

   When communication breaks, the site tables of a partition become
   unsynchronized. The protocol re-establishes logical partitioning by
   *iterative intersection*: the active site a polls the sites in its
   partition set Pa; each successful poll returns the polled site's own
   partition set, which is intersected into Pa; polling continues until
   the new partition set Pa' (sites known to have joined) equals Pa.
   The result is a maximal fully-connected sub-network: a single
   communication failure never splits the net into three parts needlessly.

   Consensus criterion: for every a, b in P, Pa = Pb. The active site
   announces the agreed membership; every member installs it and runs the
   cleanup procedure (section 5.6) for the sites that departed. *)

open Locus_core.Ktypes
module Kernel = Locus_core.Kernel
module Site = Net.Site
module Sset = Net.Site.Set
module Topology = Net.Topology

type report = {
  members : Site.t list;
  polls : int;       (* poll exchanges performed *)
  rounds : int;      (* intersection iterations *)
  failures : int;    (* polls that found a site unreachable *)
}

(* After the membership is agreed, each partition selects a new CSS for
   every filegroup it supports, by the replicated placement function over
   the members holding a physical container — so the synchronization load
   of many filegroups spreads over the partition instead of piling onto
   its lowest site. The chosen site reconstructs the lock table and
   version bookkeeping from the remaining members (section 5.6). *)
let reelect_css k members =
  List.iter
    (fun fi ->
      let candidates = List.filter (fun s -> List.mem s members) fi.pack_sites in
      let new_css =
        match place_css ~fg:fi.fg candidates with
        | Some s -> s
        | None -> ( match members with s :: _ -> s | [] -> k.site)
      in
      if not (Site.equal fi.css_site new_css) then begin
        let old = fi.css_site in
        fi.css_site <- new_css;
        if Site.equal new_css k.site then begin
          Merge.rebuild_css k fi.fg ~members;
          record k ~tag:"css.elect" "fg %d css %a -> %a" fi.fg Site.pp old Site.pp new_css
        end
        else if Site.equal old k.site then Locus_core.Css.drop_fg k fi.fg
      end)
    k.fg_table

(* Install an agreed partition at one kernel and run cleanup for every site
   that left. Returns the departed sites. *)
let apply_membership k members =
  let old = k.site_table in
  let departed = List.filter (fun s -> not (List.mem s members)) old in
  set_sites k members;
  (* No lease survives a partition event: the CSS that granted it may no
     longer be reachable (or no longer the CSS), so its break callbacks
     can no longer be trusted to arrive. Leases die silently, as at a
     crash: the deferred closes would only update lock tables the next
     merge's §5.6 rebuild restores from the members' open files. Until
     then a CSS that stays may count one stale reader per dropped lease. *)
  Locus_core.Openlease.clear k.open_leases;
  (* Select the new synchronization sites first: the cleanup procedure's
     attempt to reopen lost files at another copy needs a live CSS. *)
  reelect_css k k.site_table;
  List.iter
    (fun dead ->
      ignore (Txn.handle_site_failure k dead);
      Kernel.handle_site_failure k dead)
    departed;
  if departed <> [] then
    record k ~tag:"part.apply" "members=[%a] departed=[%a]" pp_sites k.site_table pp_sites
      departed;
  departed

(* Passive side: answer a poll with our own partition set, verified
   against the low-level virtual-circuit state — a site this responder
   cannot reach directly does not belong in a fully-connected partition
   with it. Polling implies the initiator and we communicate, so it
   belongs in the answer. *)
let handle_poll k ~src =
  let topo = Net.Netsim.topology k.net in
  let believed =
    List.filter
      (fun s -> Site.equal s k.site || Topology.reachable topo k.site s)
      k.site_table
  in
  let pset = List.sort_uniq Site.compare (src :: believed) in
  Proto.R_pset { pset }

let handle_announce k ~members =
  ignore (apply_membership k members);
  Proto.R_ok

(* Run the protocol as the active site. *)
let run_active k =
  k.recon_stage <- 1;
  let polls = ref 0 and rounds = ref 0 and failures = ref 0 in
  let pa = ref (Sset.of_list (k.site :: k.site_table)) in
  let joined = ref (Sset.singleton k.site) in
  let continue_ = ref true in
  while !continue_ do
    let remaining = Sset.diff !pa !joined in
    if Sset.is_empty remaining then continue_ := false
    else begin
      incr rounds;
      let target = Sset.min_elt remaining in
      incr polls;
      match
        rpc_result k target (Proto.Part_poll { initiator = k.site; pset = Sset.elements !pa })
      with
      | Ok (Proto.R_pset { pset }) ->
        pa := Sset.inter !pa (Sset.of_list (target :: pset));
        (* Keep ourselves: we are definitionally in our own partition. *)
        pa := Sset.add k.site !pa;
        joined := Sset.add target (Sset.inter !joined !pa)
      | Ok _ | Stdlib.Error _ ->
        incr failures;
        pa := Sset.remove target !pa
    end
  done;
  k.recon_stage <- 2;
  let members = Sset.elements !pa in
  (* Announce the consensus to every member. *)
  List.iter
    (fun s ->
      if not (Site.equal s k.site) then
        match rpc_result k s (Proto.Part_announce { active = k.site; members }) with
        | Ok _ | Stdlib.Error _ -> ())
    members;
  ignore (apply_membership k members);
  k.recon_stage <- 0;
  { members; polls = !polls; rounds = !rounds; failures = !failures }

(* Section 5.7: a passive site checks on the active site; if the active
   site has failed, the passive site restarts the protocol itself. Returns
   the report when this site had to take over. *)
let check_active_and_takeover k ~active =
  match rpc_result k active (Proto.Status_check { asker = k.site }) with
  | Ok (Proto.R_status _) -> None
  | Ok _ | Stdlib.Error _ -> Some (run_active k)
