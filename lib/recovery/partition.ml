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
   announces the agreed membership with [Membership.announce], and every
   member installs it with [Membership.install], as at the end of the
   merge protocol. *)

open Locus_core.Ktypes
module Site = Net.Site
module Sset = Net.Site.Set
module Topology = Net.Topology

type report = {
  members : Site.t list;
  polls : int;       (* poll exchanges performed *)
  rounds : int;      (* intersection iterations *)
  failures : int;    (* polls that found a site unreachable *)
}

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
        rpc_result k target Proto.Part_poll
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
  Membership.announce k ~members ~merge:false;
  k.recon_stage <- 0;
  { members; polls = !polls; rounds = !rounds; failures = !failures }

(* Section 5.7: a passive site checks on the active site; if the active
   site has failed, the passive site restarts the protocol itself. Returns
   the report when this site had to take over. *)
let check_active_and_takeover k ~active =
  match rpc_result k active Proto.Status_check with
  | Ok (Proto.R_status _) -> None
  | Ok _ | Stdlib.Error _ -> Some (run_active k)
