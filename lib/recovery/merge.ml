(* The merge protocol (section 5.5) and post-merge rebuild (section 5.6).

   The initiating site polls every site of the network for its partition
   information, declares the new partition after a suitable wait, and
   broadcasts its composition. The waiting strategy is the paper's
   two-level timeout: while some site *believed up* by a member of the new
   partition has not answered, the timeout is long; once all such sites
   have replied, it is short — so a small partition of a large network
   merges quickly. A fixed long timeout is kept as an ablation.

   After the announcement each member installs the new site table, the new
   CSS for every filegroup is selected, and each new CSS reconstructs its
   version bookkeeping (from pack inventories) and its lock table (from the
   members' open-file lists). *)

open Locus_core.Ktypes
module Css = Locus_core.Css
module Ss = Locus_core.Ss
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
  css_map : (int * Site.t) list;
}

(* Sites currently acting as merge initiator (the "merging AND actsite =
   locsite" state of the paper's pseudocode). *)
let merging : (Site.t, unit) Hashtbl.t = Hashtbl.create 8

(* Passive side of the poll, following the paper's arbitration: a site
   already running its own merge yields only to a lower-numbered site. *)
let handle_poll k ~src =
  if Hashtbl.mem merging k.site && src > k.site then Proto.R_busy { active = k.site }
  else begin
    let fgs =
      Hashtbl.fold (fun fg _ acc -> fg :: acc) k.packs [] |> List.sort Int.compare
    in
    Proto.R_merge_info { believed_up = k.site_table; fgs }
  end

(* New CSS for [fg]: rebuild version bookkeeping and the lock table from
   the members (section 5.6). *)
let rebuild_css k fg ~members =
  Css.drop_fg k fg;
  List.iter
    (fun m ->
      (match
         if Site.equal m k.site then Ok (Ss.handle_inventory k fg)
         else rpc_result k m (Proto.Pack_inventory { fg })
       with
      | Ok (Proto.R_inventory { files }) ->
        List.iter
          (fun (ino, vv, ftype, deleted) ->
            Css.seed_copy k (Gfile.make ~fg ~ino) ~site:m ~vv ~ftype ~deleted)
          files
      | Ok _ | Stdlib.Error _ -> ());
      match
        if Site.equal m k.site then Ok (Css.handle_open_files_query k fg)
        else rpc_result k m (Proto.Open_files_query { fg })
      with
      | Ok (Proto.R_open_files { files }) ->
        List.iter (fun entry -> Css.register_open k fg entry) files
      | Ok _ | Stdlib.Error _ -> ())
    members

let handle_announce k ~members ~css_map =
  set_sites k members;
  (* Directories may have changed arbitrarily in the other partition, and
     deletions there produced no notification here: start the name cache
     cold rather than audit it. Open leases likewise: files may have
     advanced in the other partition and CSS roles are about to move, so
     every retained grant dies silently, as at a crash. The rebuild below
     counts only the members' open files, and [Ss.revalidate_serving]
     drops the SS registrations the dropped leases left behind. *)
  Locus_core.Namecache.clear k.name_cache;
  Locus_core.Openlease.clear k.open_leases;
  List.iter
    (fun (fg, css) ->
      match List.find_opt (fun fi -> fi.fg = fg) k.fg_table with
      | Some fi ->
        let old = fi.css_site in
        fi.css_site <- css;
        if Site.equal css k.site then rebuild_css k fg ~members
        else if Site.equal old k.site then Css.drop_fg k fg
      | None -> ())
    css_map;
  (* SS-side half of the section 5.6 rebuild: serving registrations are
     revalidated against the members' actual open files, cleaning up
     state stranded by a lost open reply (the CSS registered the US here,
     but the US never saw the grant, so no close will ever arrive). *)
  Ss.revalidate_serving k;
  record k ~tag:"merge.apply" "members=[%a]" pp_sites members;
  Proto.R_ok

exception Yield of Site.t

(* Run the merge protocol as the initiating site. [all_sites] is the whole
   network (to form the largest possible partition, the protocol must check
   all possible sites, including those thought to be down). In a large
   network with gateways the poll set is optimized: the gateways are polled
   first, and only sites some gateway (or this partition) believes up are
   polled individually — the rest are skipped without a timeout. *)
let run_initiator ?(policy = default_policy) ?(gateways = []) k ~all_sites =
  Hashtbl.replace merging k.site ();
  k.recon_stage <- 3;
  let polled = ref 0 and busy = ref 0 and skipped = ref 0 in
  let respondents = ref [] (* (site, believed_up, fgs) newest first *) in
  let missing = ref [] in
  let polled_set = Hashtbl.create 16 in
  let poll_one s =
    if (not (Site.equal s k.site)) && not (Hashtbl.mem polled_set s) then begin
      Hashtbl.add polled_set s ();
      incr polled;
      match rpc_result k s (Proto.Merge_poll { initiator = k.site }) with
      | Ok (Proto.R_merge_info { believed_up; fgs }) ->
        respondents := (s, believed_up, fgs) :: !respondents
      | Ok (Proto.R_busy { active }) ->
        incr busy;
        if active < k.site then raise (Yield active)
      | Ok _ | Stdlib.Error _ -> missing := s :: !missing
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
           (fun acc (_, bu, _) -> Sset.union acc (Sset.of_list bu))
           (Sset.of_list k.site_table) !respondents
       in
       List.iter
         (fun s ->
           if Sset.mem s vouched then poll_one s
           else if (not (Site.equal s k.site)) && not (Hashtbl.mem polled_set s)
           then incr skipped)
         (List.sort Site.compare all_sites)
   with Yield active ->
     Hashtbl.remove merging k.site;
     k.recon_stage <- 0;
     record k ~tag:"merge.yield" "%a" Site.pp active;
     raise (Yield active));
  (* Timeout accounting: polls are asynchronous, so the waits overlap; the
     charge is the single timeout level still applicable at the end. *)
  let believed_up =
    List.fold_left
      (fun acc (_, bu, _) -> Sset.union acc (Sset.of_list bu))
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
    k.site :: List.map (fun (s, _, _) -> s) !respondents
    |> List.sort_uniq Site.compare
  in
  (* Select the CSS for every filegroup by the replicated placement
     function over the pack-holding members, spreading the roles. *)
  let local_fgs =
    Hashtbl.fold (fun fg _ acc -> fg :: acc) k.packs [] |> List.sort Int.compare
  in
  let holders : (int, Site.t list) Hashtbl.t = Hashtbl.create 8 in
  let add_holder fg s =
    let cur = Option.value (Hashtbl.find_opt holders fg) ~default:[] in
    Hashtbl.replace holders fg (s :: cur)
  in
  List.iter (fun fg -> add_holder fg k.site) local_fgs;
  List.iter (fun (s, _, fgs) -> List.iter (fun fg -> add_holder fg s) fgs) !respondents;
  let all_fgs = List.map (fun fi -> fi.fg) k.fg_table in
  let css_map =
    List.filter_map
      (fun fg ->
        let candidates =
          Option.value (Hashtbl.find_opt holders fg) ~default:[]
          |> List.filter (fun s -> List.mem s members)
        in
        match place_css ~fg candidates with
        | Some s -> Some (fg, s)
        | None ->
          (* No member of the new partition holds a pack: the filegroup is
             unavailable here. Electing a packless synchronization site
             would only manufacture ghost state; leave the filegroup out
             and let a later merge that includes a pack holder assign one. *)
          record k ~tag:"merge.unavailable" "fg %d: no pack holder" fg;
          None)
      all_fgs
  in
  (* Declare the new partition and broadcast its composition. *)
  List.iter
    (fun m ->
      if not (Site.equal m k.site) then
        match rpc_result k m (Proto.Merge_announce { members; css_map }) with
        | Ok _ | Stdlib.Error _ -> ())
    members;
  ignore (handle_announce k ~members ~css_map);
  Hashtbl.remove merging k.site;
  k.recon_stage <- 0;
  {
    members;
    polled = !polled;
    responded = List.length !respondents;
    busy = !busy;
    skipped = !skipped;
    wait_charged = wait;
    css_map;
  }
