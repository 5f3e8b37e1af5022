(* Message dispatch: the kernel half that runs on behalf of a foreign
   site's system call (Figure 1's "serving site" column). *)

open Ktypes
module Cache = Storage.Cache

let handle k ~src (req : Proto.req) : Proto.resp =
  if not k.alive then Proto.R_err Proto.Enet
  else begin
    match req with
    (* open protocol *)
    | Proto.Open_req { gf; mode; us_vv; shared; want } -> (
      (* A read open the CSS serves itself carries the committed copy's
         first [want] pages, read from the inode its [info] names, so the
         US's first [Read_pages] never goes out. Not when a writer exists
         (its session's bytes are not the committed copy's), not to a
         collocated US and not for a polled SS (the pages would cross the
         wire twice). *)
      match Css.handle_open k ~src gf mode ~shared us_vv with
      | Proto.R_open ({ ss; nocache = false; slot; _ } as r)
        when want > 0 && Site.equal ss k.site && not (Site.equal src k.site) -> (
        match Ss.handle_read_pages ~guess:slot ~committed:true k gf ~first:0 ~count:want with
        | Proto.R_pages { pages; _ } -> Proto.R_open { r with pages }
        | _ -> Proto.R_open r)
      | resp -> resp)
    | Proto.Storage_req { gf; vv; us; mode; others } ->
      Ss.handle_storage_req k gf ~vv ~us ~mode ~others
    (* data transfer *)
    | Proto.Read_pages { gf; first; count; guess; committed; stat } ->
      Ss.handle_read_pages ~guess ~committed ~stat k gf ~first ~count
    | Proto.Write_pages { gf; trunc; first; off; data } ->
      Ss.handle_write_pages ?trunc k ~src gf ~first ~off ~data
    | Proto.Commit_req { gf; us = _; abort; delete; force_vv; run } ->
      Ss.handle_commit ?force_vv ?run k ~src gf ~abort ~delete
    (* close protocol *)
    | Proto.Us_close { gf; mode } -> Ss.handle_us_close k ~src gf ~mode
    | Proto.Ss_close { gf; ss = _; us; mode } -> Css.handle_ss_close k gf ~us ~mode
    (* commit notifications: CSS bookkeeping and/or propagation pull *)
    | Proto.Commit_notify
        { gf; vv; meta_only; modified; origin; fresh; deleted; designate; replicas; carried }
      ->
      (* A new committed version exists: buffered pages of any other
         version of this file can never hit again — drop them from both
         cache tiers. The SS buffers hold the local copy's version. *)
      let key = vv_key vv in
      Cache.invalidate_if k.us_cache (fun (g, _, v) ->
          Gfile.equal g gf && not (String.equal v key));
      let local_key =
        Option.bind (local_pack k gf.Gfile.fg) (fun pack ->
            Storage.Pack.find_inode pack gf.Gfile.ino)
        |> Option.map (fun (i : Storage.Inode.t) -> vv_key i.Storage.Inode.vv)
      in
      if local_key <> Some key then
        Cache.invalidate_if k.ss_cache (fun (g, _) -> Gfile.equal g gf);
      (* Name-cache coherence rides the same notification: links read from
         an older version of this directory are dead, and if the file was
         deleted no link may keep resolving to it. *)
      Namecache.note_dir_vv k.name_cache ~dir:gf vv;
      if deleted then Namecache.invalidate_child k.name_cache gf;
      (* A locally-observed commit kills any lease granted on an older
         version without waiting for the CSS break callback. *)
      Openlease.note_commit k.open_leases gf vv;
      if (fg_info k gf.Gfile.fg).css_site = k.site then
        Css.handle_commit_notify ~replicas k gf ~origin ~vv ~deleted;
      if fresh && not (Net.Site.equal origin k.site) then
        Propagation.enqueue ?carried k gf ~vv ~origin ~modified ~meta_only ~deleted ~designate;
      Proto.R_ok
    | Proto.Reclaim_req { gf } -> Ss.handle_reclaim k gf
    | Proto.Page_invalidate { gf; first; count } ->
      (* Pages of the file are being rewritten, so a retained grant on it
         names a superseded version, whether or not its break arrived: a
         ride on it would file the new bytes under the old version. *)
      Openlease.kill k.open_leases gf;
      Cache.invalidate_if k.us_cache (fun (g, p, _) ->
          Gfile.equal g gf && p >= first && p < first + count);
      Proto.R_ok
    | Proto.Lease_break { gf } ->
      (* CSS callback: drop the retained grant; the deferred close (if one
         is owed and no open still rides the lease) goes out now. *)
      record k ~tag:"us.lease.breakcb" "%a" Gfile.pp gf;
      Openlease.kill k.open_leases gf;
      Proto.R_ok
    (* name-space changes *)
    | Proto.Dir_intent { dir; op } -> Dirops.run_intent k ~us:src dir op
    | Proto.Intent_step { us; step } -> Ss.handle_intent_step k ~us step
    (* metadata *)
    | Proto.Set_attr { gf; perms; owner } -> Ss.handle_set_attr k gf ~perms ~owner
    | Proto.Where_stored { gf } -> Css.handle_where k gf
    | Proto.Lookup_req { gf; comps } -> Pathname.handle_lookup k gf comps
    (* tokens *)
    | Proto.Token_req { key = Proto.Tok_fd (a, b); for_site } ->
      Tokens.handle_token_req k (a, b) ~for_site
    | Proto.Token_state_req { key = Proto.Tok_fd (a, b) } ->
      Tokens.handle_token_state_req k (a, b)
    (* processes *)
    | Proto.Fork_req { child_pid; env; image_pages; parent } ->
      Process.handle_fork k ~child_pid ~env ~image_pages ~parent
    | Proto.Exec_req { pid; path; env; image_pages; parent } ->
      Process.handle_exec k ~pid ~path ~env ~image_pages ~parent
    | Proto.Run_req { child_pid; path; env; parent; context_override } ->
      Process.handle_run ?context_override k ~child_pid ~path ~env ~parent
    | Proto.Signal_req { pid; signo } -> Process.deliver_signal k pid signo
    | Proto.Exit_notify { pid; status; child_site } ->
      Process.handle_exit_notify k ~pid ~status ~child_site
    (* pipes *)
    | Proto.Pipe_write { gf; data } -> Ss.handle_pipe_write k gf data
    | Proto.Pipe_read { gf; max } -> Ss.handle_pipe_read k gf max
    (* recovery bookkeeping served by the core *)
    | Proto.Open_files_query { fg } -> Css.handle_open_files_query k fg
    | Proto.Pack_inventory { fg } -> Ss.handle_inventory k fg
    (* reconfiguration protocols: handled by the recovery layer's hook *)
    | Proto.Part_poll _ | Proto.Part_announce _ | Proto.Merge_poll _
    | Proto.Merge_announce _ | Proto.Status_check _ -> (
      match k.extra_handler src req with
      | Some resp -> resp
      | None -> Proto.R_err Proto.Einval)
  end
