(* Reconfiguration orchestration (section 5.3): wire the protocol handlers
   into each kernel and drive the merge -> recovery sequence (each
   partition protocol is run from its own initiator, {!Partition.run_active}).

   The reconfiguration procedure has three components: the partition
   protocol finds fully-connected sub-networks, the merge protocol joins
   sub-partitions into one partition, and the recovery procedure corrects
   the inconsistencies accumulated while the network was not connected.
   Normal processing continues under all of them; the file reconciliation
   supports demand recovery so a directory needed right now is merged out
   of order. *)

open Locus_core.Ktypes
module Site = Net.Site

(* Install the reconfiguration protocol handlers on a kernel. Must be
   called once per kernel at boot. *)
let install k =
  k.extra_handler <-
    (fun src req ->
      match req with
      | Proto.Part_poll -> Some (Partition.handle_poll k ~src)
      | Proto.Part_announce { members } ->
        Membership.install k ~members ~merge:false;
        Some Proto.R_ok
      | Proto.Merge_poll { initiator } -> Some (Merge.handle_poll k ~src:initiator)
      | Proto.Merge_announce { members } ->
        Membership.install k ~members ~merge:true;
        Some Proto.R_ok
      | Proto.Status_check ->
        Some (Proto.R_status { stage = k.recon_stage; site = k.site })
      | Proto.Open_req _ | Proto.Storage_req _ | Proto.Read_pages _ | Proto.Write_pages _
      | Proto.Dir_intent _ | Proto.Intent_step _ | Proto.Commit_req _
      | Proto.Us_close _ | Proto.Ss_close _ | Proto.Commit_notify _
      | Proto.Reclaim_req _ | Proto.Page_invalidate _ | Proto.Lease_break _
      | Proto.Set_attr _
      | Proto.Where_stored _ | Proto.Lookup_req _
      | Proto.Token_req _ | Proto.Token_state_req _ | Proto.Fork_req _
      | Proto.Exec_req _ | Proto.Run_req _ | Proto.Signal_req _
      | Proto.Exit_notify _ | Proto.Open_files_query _ | Proto.Pack_inventory _
      | Proto.Pipe_write _ | Proto.Pipe_read _ ->
        None)

(* Run the merge protocol from [initiator], then the recovery procedure:
   every new CSS reconciles its filegroups, and the resulting update
   propagations are drained. *)
let run_merge_and_recover ?policy ?gateways kernels ~initiator =
  let all_sites = List.map (fun k -> k.site) kernels in
  match List.find_opt (fun k -> Site.equal k.site initiator) kernels with
  | None -> invalid_arg "Reconfig.run_merge_and_recover: unknown initiator"
  | Some ki ->
    let merge_report = Merge.run_initiator ?policy ?gateways ki ~all_sites in
    (* Recovery: each filegroup's (new) CSS reconciles it. *)
    let reconcile_reports =
      List.concat_map
        (fun k ->
          if k.alive then
            List.filter_map
              (fun fi ->
                if Site.equal fi.css_site k.site && Hashtbl.mem k.css_state fi.fg
                then Some (fi.fg, Reconcile.reconcile_fg k fi.fg)
                else None)
              k.fg_table
          else [])
        kernels
    in
    (* Drain the scheduled update propagations. *)
    ignore (Sim.Engine.run_until_idle ki.engine);
    List.iter (fun k -> if k.alive then Locus_core.Propagation.drain k) kernels;
    ignore (Sim.Engine.run_until_idle ki.engine);
    (merge_report, reconcile_reports)
