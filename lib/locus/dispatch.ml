(* Message dispatch: the kernel half that runs on behalf of a foreign
   site's system call (Figure 1's "serving site" column), and the passive
   side of the reconfiguration protocols (section 5). *)

open Locus_core
open Ktypes
module Partition = Recovery.Partition
module Merge = Recovery.Merge
module Membership = Recovery.Membership

(* The SS leg of a close. A lease's close that reaches its CSS after
   the grant's break releases nothing: the break ended this registration
   too. *)
let us_close k ~src gf ~mode ~grant ~released =
  if not (Css.grant_broken k gf ~grant) then
    Ss.handle_us_close k ~src gf ~mode ~grant ~released

(* Every request's reply, or its refusal ([Error]), which the transport
   carries back as the error reply. *)
let handle : type a. Ktypes.t -> src:Site.t -> a Proto.req -> a =
 fun k ~src req ->
  if not k.alive then err Proto.Enet "site %a is down" Site.pp k.site
  else begin
    match req with
    (* open protocol *)
    | Proto.Open_req { gf; mode; us_vv; shared; want; release } -> (
      (* The close of a lease the open evicted at the US, served here,
         rides the request: it runs first, whatever the open answers. *)
      Option.iter
        (fun (victim, mode, grant) ->
          try us_close k ~src victim ~mode ~grant ~released:false with Error _ -> ())
        release;
      (* A read open the CSS serves itself carries the committed copy's
         first [want] pages, read from the inode its [info] names, so the
         US's first [Read_pages] never goes out. Not when a writer exists
         (its session's bytes are not the committed copy's), not to a
         collocated US and not for a polled SS (the pages would cross the
         wire twice). A refused read leaves the grant as it is. *)
      match Css.handle_open k ~src gf mode ~shared us_vv with
      | { ss; nocache = false; slot; _ } as grant
        when want > 0 && Site.equal ss k.site && not (Site.equal src k.site) -> (
        match Ss.handle_read_pages ~guess:slot ~committed:true k gf ~first:0 ~count:want with
        | { pages; _ } -> { grant with pages }
        | exception Error _ -> grant)
      | grant -> grant)
    | Proto.Storage_req { gf; vv; us; mode; others } ->
      Ss.handle_storage_req k gf ~vv ~us ~mode ~others
    (* data transfer *)
    | Proto.Read_pages { gf; first; count; guess; committed; stat; vv } ->
      Ss.handle_read_pages ~guess ~committed ~stat ?vv k gf ~first ~count
    | Proto.Write_pages { gf; trunc; first; off; data; pos; len } ->
      Ss.handle_write_pages ?trunc k ~src gf ~first ~off data ~pos ~len
    | Proto.Commit_req { gf; abort; force_vv; run } ->
      Ss.handle_commit ?force_vv ?run k ~src gf ~abort
    (* close protocol *)
    | Proto.Us_close { gf; mode; grant; released } -> us_close k ~src gf ~mode ~grant ~released
    | Proto.Ss_close { gf; us; mode; grant } -> Css.handle_ss_close k gf ~us ~mode ~grant
    (* commit notifications: CSS bookkeeping and/or propagation pull *)
    | Proto.Commit_notify
        { gf; vv; meta_only; modified; origin; fresh; deleted; designate; carried }
      ->
      Coherence.announced k gf ~vv ~deleted ~origin;
      if (fg_info k gf.Gfile.fg).css_site = k.site then
        Css.handle_commit_notify k gf ~origin ~vv ~deleted;
      if fresh && not (Net.Site.equal origin k.site) then
        Propagation.enqueue ?carried k gf ~vv ~origin ~modified ~meta_only ~deleted ~designate
    | Proto.Reclaim_req { gf } -> Ss.handle_reclaim k gf
    | Proto.Page_invalidate { gf; first; count } ->
      Coherence.rewritten k gf (Coherence.Elsewhere { first; count })
    | Proto.Lease_break { gf; id; closed } ->
      (* CSS callback: the grant dies, already released at the CSS; only
         an SS it does not serve is owed a close. *)
      record k ~tag:"us.lease.breakcb" "%a" Gfile.pp gf;
      Coherence.lease_broken k gf ~id ~closed
    (* name-space changes *)
    | Proto.Dir_intent { dir; op } -> Dirops.run_intent k ~us:src dir op
    | Proto.Intent_step { us; step } -> Ss.handle_intent_step k ~us step
    (* metadata *)
    | Proto.Set_attr { gf; perms; owner } -> Ss.handle_set_attr k gf ~perms ~owner
    | Proto.Where_stored { gf; stat } -> Css.handle_where k gf ~stat
    | Proto.Lookup_req { gf; comps; near } -> Pathname.handle_lookup k gf comps ~near
    (* tokens *)
    | Proto.Token_req { key; for_site } -> Tokens.handle_token_req k key ~for_site
    | Proto.Token_state_req { key } -> Tokens.handle_token_state_req k key
    (* processes *)
    | Proto.Fork_req { child_pid; env; image_pages; parent } ->
      Process.handle_fork k ~child_pid ~env ~image_pages ~parent
    | Proto.Exec_req { pid; path; env; parent } -> Process.handle_exec k ~pid ~path ~env ~parent
    | Proto.Run_req { child_pid; path; env; parent; context_override } ->
      Process.handle_exec ?context_override k ~pid:child_pid ~path ~env ~parent
    | Proto.Signal_req { pid; signo } -> Process.deliver_signal k pid signo
    | Proto.Exit_notify { pid; status } -> Process.handle_exit_notify k ~pid ~status
    (* pipes *)
    | Proto.Pipe_write { gf; data } -> Ss.handle_pipe_write k gf data
    | Proto.Pipe_read { gf; max } -> Ss.handle_pipe_read k gf max
    (* recovery bookkeeping served by the core *)
    | Proto.Open_files_query { fg } -> Css.handle_open_files_query k fg
    | Proto.Pack_inventory { fg } -> Ss.handle_inventory k fg
    (* reconfiguration protocols *)
    | Proto.Part_poll -> Partition.handle_poll k ~src
    | Proto.Part_announce { members } -> Membership.install k ~members ~merge:false
    | Proto.Merge_poll { initiator } -> Merge.handle_poll k ~src:initiator
    | Proto.Merge_announce { members } -> Membership.install k ~members ~merge:true
    | Proto.Status_check -> (k.recon_stage, k.site)
  end
