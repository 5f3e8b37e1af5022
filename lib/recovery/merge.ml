(* The merge protocol (section 5.5) and post-merge rebuild (section 5.6).

   The initiating site polls every site of the network for its partition
   information, declares the new partition after a suitable wait, and
   broadcasts its composition. The waiting strategy is the paper's
   two-level timeout: while some site *believed up* by a member of the new
   partition has not answered, the timeout is long; once all such sites
   have replied, it is short — so a small partition of a large network
   merges quickly. A fixed long timeout is kept as an ablation.

   The initiator announces the new partition with [Membership.announce],
   and each member installs it with [Membership.install], as at the end of
   the partition protocol: the install places the CSS of every filegroup,
   and each CSS reconstructs its version bookkeeping (from pack
   inventories) and its lock table (from the members' open-file lists). *)

open Locus_core.Ktypes
module Site = Net.Site
module Sset = Net.Site.Set

type timeout_policy =
  | Fixed_timeout of float  (* ms: always wait this long for missing sites *)
  | Adaptive_timeout of { long : float; short : float }

let default_policy = Adaptive_timeout { long = 150.0; short = 15.0 }

type report = {
  members : Site.t list;
  polled : int;
  responded : int;
  busy : int;
  skipped : int; (* sites not polled because no gateway vouched for them *)
  wait_charged : float; (* simulated ms spent in timeouts *)
}

(* The reconfiguration stage of a merge initiator: the "merging AND
   actsite = locsite" state of the paper's pseudocode. *)
let merging_stage = 3

(* Passive side of the poll, following the paper's arbitration: a site
   already running its own merge yields only to a lower-numbered site. *)
let handle_poll k ~src =
  if k.recon_stage = merging_stage && src > k.site then Proto.Busy k.site
  else Proto.Believed_up k.site_table

exception Yield of Site.t

(* Run the merge protocol as the initiating site. [all_sites] is the whole
   network (to form the largest possible partition, the protocol must check
   all possible sites, including those thought to be down). In a large
   network with gateways the poll set is optimized: the gateways are polled
   first, and only sites some gateway (or this partition) believes up are
   polled individually — the rest are skipped without a timeout. *)
let run_initiator ?(policy = default_policy) ?(gateways = []) k ~all_sites =
  k.recon_stage <- merging_stage;
  let polled = ref 0 and busy = ref 0 and skipped = ref 0 in
  let respondents = ref [] (* (site, believed_up) newest first *) in
  let missing = ref [] in
  let polled_set = Hashtbl.create 16 in
  let poll_one s =
    if (not (Site.equal s k.site)) && not (Hashtbl.mem polled_set s) then begin
      Hashtbl.add polled_set s ();
      incr polled;
      match rpc_result k s (Proto.Merge_poll { initiator = k.site }) with
      | Ok (Proto.Believed_up believed_up) -> respondents := (s, believed_up) :: !respondents
      | Ok (Proto.Busy active) ->
        incr busy;
        if active < k.site then raise (Yield active)
      | Stdlib.Error _ -> missing := s :: !missing
    end
  in
  (try
     match gateways with
     | [] -> List.iter poll_one (List.sort Site.compare all_sites)
     | gws ->
       (* Phase 1: the gateways. *)
       List.iter poll_one (List.sort Site.compare gws);
       (* Phase 2: sites vouched for by a gateway or by this partition. *)
       let vouched =
         List.fold_left
           (fun acc (_, bu) -> Sset.union acc (Sset.of_list bu))
           (Sset.of_list k.site_table) !respondents
       in
       List.iter
         (fun s ->
           if Sset.mem s vouched then poll_one s
           else if (not (Site.equal s k.site)) && not (Hashtbl.mem polled_set s)
           then incr skipped)
         (List.sort Site.compare all_sites)
   with Yield active ->
     k.recon_stage <- 0;
     record k ~tag:"merge.yield" "%a" Site.pp active;
     raise (Yield active));
  (* Timeout accounting: polls are asynchronous, so the waits overlap; the
     charge is the single timeout level still applicable at the end. *)
  let believed_up =
    List.fold_left
      (fun acc (_, bu) -> Sset.union acc (Sset.of_list bu))
      (Sset.of_list k.site_table) !respondents
  in
  let expected_missing = List.filter (fun s -> Sset.mem s believed_up) !missing in
  let wait =
    match policy with
    | Fixed_timeout t -> if !missing <> [] then t else 0.0
    | Adaptive_timeout { long; short } ->
      if expected_missing <> [] then long else if !missing <> [] then short else 0.0
  in
  Engine.charge k.engine wait;
  let members =
    k.site :: List.map fst !respondents |> List.sort_uniq Site.compare
  in
  (* Declare the new partition and broadcast its composition. *)
  Membership.announce k ~members ~merge:true;
  k.recon_stage <- 0;
  {
    members;
    polled = !polled;
    responded = List.length !respondents;
    busy = !busy;
    skipped = !skipped;
    wait_charged = wait;
  }
