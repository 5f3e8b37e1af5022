(* Storage Site logic (sections 2.3.3, 2.3.5, 2.3.6).

   The SS serves pages to using sites, receives their modification pages
   (and truncates, which ride in the same write message) into shadow
   pages, tells the other using sites it serves which of their buffered
   pages each write made stale, one ranged message per write, and
   performs the atomic commit — after which it sends commit notifications
   to the CSS and to every other site storing the file, which bring their
   copies up to date in background: from the commit the notification
   carried, or by pulling the new version. *)

open Ktypes
module Inode = Storage.Inode
module Pack = Storage.Pack
module Shadow = Storage.Shadow
module Page = Storage.Page
module Cache = Storage.Cache
module Dir = Catalog.Dir

let find_open = ss_find_open

let get_open = ss_get_open

(* CSS asks: will you act as storage site for this open? Refuse when we do
   not store the file at (at least) the requested version (section 2.3.3). *)
let handle_storage_req k gf ~vv ~us ~mode ~others =
  match local_pack k gf.Gfile.fg with
  | None -> Proto.R_storage { accept = false; info = None; slot = 0 }
  | Some pack -> (
    match Pack.find_inode pack gf.Gfile.ino with
    | None -> Proto.R_storage { accept = false; info = None; slot = 0 }
    | Some inode ->
      if inode.Inode.deleted then Proto.R_storage { accept = false; info = None; slot = 0 }
      else if not (Vvec.dominates_or_equal inode.Inode.vv vv) then
        (* We store only an out-of-date copy: refuse. *)
        Proto.R_storage { accept = false; info = None; slot = 0 }
      else begin
        let s = ss_register k gf ~us ~mode in
        s.s_others <- others;
        charge_disk_read k;
        Proto.R_storage
          { accept = true; info = Some (Proto.info_of_inode inode); slot = s.s_slot }
      end)

(* A committed page through the SS buffer cache, which holds pages of the
   local copy as it is now: a commit or pull drops the buffers of the
   pages it replaced, so the cache can never serve a stale version. A hit
   skips the disk; a miss reads the page with [read], the request's
   {!Pack.reader}. *)
let cached_pack_page k ~read gf lpage =
  if not (ss_cache_enabled k) then begin
    charge_disk_read k;
    read lpage
  end
  else begin
    let key = (gf, lpage) in
    match Cache.find k.ss_cache key with
    | Some page ->
      Sim.Stats.incr (stats k) "cache.ss.hit";
      page
    | None ->
      Sim.Stats.incr (stats k) "cache.ss.miss";
      charge_disk_read k;
      let page = read lpage in
      Cache.insert k.ss_cache key page;
      page
  end

(* Where the SS reads [gf]'s pages from: an open shadow session's pages
   when one exists, at a disk read each (readers of a file being written
   must see its uncommitted pages, Unix shared-file semantics), else the
   committed copy through the buffer cache. A [committed] read (a pull,
   reconciliation) never sees the session. Returns the page reader and
   the size it reads against. One source serves one request, so a file
   past the direct slots costs one indirect-page read per request. *)
let page_source ?(committed = false) k pack gf (inode : Inode.t) =
  match find_open k gf with
  | Some { s_shadow = Some session; _ } when not committed ->
    ( (fun lpage ->
        charge_disk_read k;
        Shadow.read_page session lpage),
      (Shadow.incore session).Inode.size )
  | Some _ | None ->
    let read = Pack.reader pack inode in
    (cached_pack_page k ~read gf, inode.Inode.size)

let note_guess k gf guess =
  match Hashtbl.find_opt k.ss_slots guess with
  | Some g when Gfile.equal g gf -> Sim.Stats.incr (stats k) "ss.guess.hit"
  | Some _ | None -> Sim.Stats.incr (stats k) "ss.guess.miss"

(* Serve up to [count] pages from [first] in one response: the network
   read protocol (section 2.3.3), one page at [count] = 1. The guess
   locates the incore inode without a lookup when it is still valid. Each
   page costs what a single read does; only the message count changes.
   The reply is trimmed at end of file, and a page at or past it is not
   read at all, with [eof] telling the US the file ends in this reply. A
   background read sets [committed]; with [stat] the reply also carries
   the committed inode, at the disk read a stat costs, and a count of 0
   reads only that. *)
let handle_read_pages ?(guess = 0) ?(committed = false) ?(stat = false) k gf ~first ~count =
  note_guess k gf guess;
  if first < 0 || count < 0 || (count = 0 && not stat) then
    Proto.R_err Proto.Einval
  else
    match local_pack k gf.Gfile.fg with
    | None -> Proto.R_err Proto.Eio
    | Some pack -> (
      match Pack.find_inode pack gf.Gfile.ino with
      | None -> Proto.R_err Proto.Enoent
      | Some inode ->
        let info =
          if stat then begin
            charge_disk_read k;
            Some (Proto.info_of_inode inode)
          end
          else None
        in
        let read_page, size = page_source ~committed:(committed || stat) k pack gf inode in
        let npages = (size + Page.size - 1) / Page.size in
        let pages = ref [] in
        for i = count - 1 downto 0 do
          let lpage = first + i in
          if lpage < npages then begin
            let page = read_page lpage in
            let remaining = size - (lpage * Page.size) in
            let len = max 0 (min Page.size remaining) in
            pages := Page.sub page 0 len :: !pages
          end
        done;
        Proto.R_pages { pages = !pages; eof = first + count >= npages; info })

(* The client half: read pages of [gf] from [site], by a procedure call
   when this site serves itself. Raises [Error] on a refusal or a network
   failure. *)
let read_request k site gf ~first ~count ~guess ~committed ~stat =
  let resp =
    if Site.equal site k.site then begin
      charge k (latency k).Net.Latency.local_call;
      handle_read_pages ~guess ~committed ~stat k gf ~first ~count
    end
    else rpc k site (Proto.Read_pages { gf; first; count; guess; committed; stat })
  in
  match resp with
  | Proto.R_pages { pages; eof; info } -> (pages, eof, info)
  | Proto.R_err e -> err e "read %a pages %d+%d failed" Gfile.pp gf first count
  | _ -> err Proto.Eio "unexpected read response"

let read_pages k site gf ~first ~count ~guess =
  let pages, eof, _ = read_request k site gf ~first ~count ~guess ~committed:false ~stat:false in
  (pages, eof)

let read_committed k site gf ~first ~count ~stat =
  let pages, _, info =
    read_request k site gf ~first ~count ~guess:0 ~committed:true ~stat
  in
  (pages, info)

let ensure_session k pack gf =
  let s = get_open k gf in
  match s.s_shadow with
  | Some session -> session
  | None ->
    let session = Shadow.begin_modify pack gf.Gfile.ino in
    s.s_shadow <- Some session;
    session

(* Invalidate buffered copies of pages [first] to [first + count - 1] at
   the other using sites we serve: the page-valid token mechanism (section
   3.2), one message per site for the whole range. *)
let invalidate_others k gf ~writer ~first ~count =
  match find_open k gf with
  | Some s when count > 0 ->
    Site.Map.iter
      (fun us _ ->
        if (not (Site.equal us writer)) && not (Site.equal us k.site) then
          notify k us (Proto.Page_invalidate { gf; first; count }))
      s.s_uss
  | Some _ | None -> ()

(* The effects every page written into [gf]'s shadow session has,
   whichever request carried it: a disk write, and the buffered committed
   copy of the page dropped (the session, not the cache, now owns it). *)
let page_written k gf lpage =
  charge_disk_write k;
  Cache.invalidate k.ss_cache (gf, lpage)

(* Receive a write request whose run is the [len] bytes of [data] from
   [pos], to land at offset [off] within page [first]: truncate the
   session to [trunc] first, when set, then split the run into per-page
   shadow writes. Page-aligned full pages enter whole (no read); a ragged
   head or tail patches. Then one [Page_invalidate] to each other using
   site covers every page written or cut. Absolute positioning makes the
   request idempotent and safe to retry. *)
let write_span ?trunc k ~src gf ~first ~off data ~pos ~len =
  let trunc_ok = match trunc with Some size -> size >= 0 | None -> true in
  if first < 0 || off < 0 || off >= Page.size || not trunc_ok then Proto.R_err Proto.Einval
  else if len = 0 && trunc = None then Proto.R_ok
  else
    match local_pack k gf.Gfile.fg with
    | None -> Proto.R_err Proto.Eio
    | Some pack -> (
      match Pack.find_inode pack gf.Gfile.ino with
      | None -> Proto.R_err Proto.Enoent
      | Some _ ->
        let session = ensure_session k pack gf in
        ss_dir_drop k gf;
        let npages size = (size + Page.size - 1) / Page.size in
        (* The pages a truncate cuts, [lo, hi): from the one holding the
           new end (its tail now reads as zeroes) to the old last page.
           (max_int, 0) is the empty range. *)
        let lo, hi =
          match trunc with
          | Some size ->
            let old = (Shadow.incore session).Inode.size in
            Shadow.truncate session size;
            if size < old then (size / Page.size, npages old) else (max_int, 0)
          | None -> (max_int, 0)
        in
        let base = (first * Page.size) + off in
        let rec loop at =
          if at < len then begin
            let abs = base + at in
            let lpage = abs / Page.size in
            let poff = abs mod Page.size in
            let n = min (Page.size - poff) (len - at) in
            if poff = 0 && n = Page.size then
              Shadow.write_page session ~lpage (Page.of_string ~pos:(pos + at) data)
            else Shadow.patch_page session ~lpage ~off:poff (String.sub data (pos + at) n);
            page_written k gf lpage;
            loop (at + n)
          end
        in
        loop 0;
        let lo, hi =
          if len = 0 then (lo, hi) else (min lo (base / Page.size), max hi (npages (base + len)))
        in
        invalidate_others k gf ~writer:src ~first:lo ~count:(hi - lo);
        Proto.R_ok)

let handle_write_pages ?trunc k ~src gf ~first ~off ~data =
  write_span ?trunc k ~src gf ~first ~off data ~pos:0 ~len:(String.length data)

(* The pages a request carrying [len] bytes at offset [poff] of its first
   page covers. *)
let run_pages ~poff len = (poff + len + Page.size - 1) / Page.size

(* The client half: truncate [gf] at [site] to [trunc] when set, then
   write the run of the first [len] bytes of [data] (all of it by
   default) at byte [off], in requests of at most a window of pages each;
   the truncate rides in the first. A procedure call when this site
   serves itself, charged as one call per request, hands the handler its
   span of [data] without a copy. [sent] hears the page count of each
   request that carried data once it is answered. Raises [Error] on a
   refusal or a network failure. *)
let write_run ?(sent = ignore) ?trunc ?len k site gf ~off data =
  let len = match len with Some len -> len | None -> String.length data in
  let window_bytes = max 1 k.config.bulk_window * Page.size in
  let rec loop trunc pos =
    let abs = off + pos in
    let first = abs / Page.size in
    let poff = abs mod Page.size in
    let n = min (window_bytes - poff) (len - pos) in
    expect_ok
      (if Site.equal site k.site then begin
         charge k (latency k).Net.Latency.local_call;
         write_span ?trunc k ~src:k.site gf ~first ~off:poff data ~pos ~len:n
       end
       else
         let data = if n = String.length data then data else String.sub data pos n in
         rpc k site (Proto.Write_pages { gf; trunc; first; off = poff; data }));
    if n > 0 then sent (run_pages ~poff n);
    if pos + n < len then loop None (pos + n)
  in
  if len > 0 || trunc <> None then loop trunc 0

(* ---- directory indexes: one record changed in place (section 4.4) ---- *)

let dir_index_pages d = (Dir.Index.log_end d.di_index + Page.size - 1) / Page.size

(* Keep the indexes within as many directory pages as the buffer cache
   holds pages, evicting the least recently used first. *)
let rec dir_index_fit k =
  let budget = if ss_cache_enabled k then k.config.ss_cache_pages else 0 in
  let total, lru =
    Hashtbl.fold
      (fun gf d (n, lru) ->
        let lru =
          match lru with
          | Some (_, used) when used <= d.di_used -> lru
          | Some _ | None -> Some (gf, d.di_used)
        in
        (n + dir_index_pages d, lru))
      k.ss_dirs (0, None)
  in
  match lru with
  | Some (gf, _) when total > budget ->
    ss_dir_drop k gf;
    Sim.Stats.incr (stats k) "ss.dir.index_evict";
    dir_index_fit k
  | Some _ | None -> ()

let touch k d =
  k.ss_dirs_tick <- k.ss_dirs_tick + 1;
  d.di_used <- k.ss_dirs_tick

(* Index [gf]'s log of [size] bytes, each page read with [read]. It is
   kept under the committed version's key unless a shadow session holds
   changes: those came as raw page writes, since record changes keep an
   index, so the committed version's offsets say nothing about the
   session's. Raises [Failure] on a body that does not decode. *)
let build_dir_index k gf (inode : Inode.t) ~read ~size =
  Sim.Stats.incr (stats k) "ss.dir.index_builds";
  let d =
    { di_key = vv_key inode.Inode.vv; di_index = Dir.Index.build ~read ~size; di_used = 0 }
  in
  let changed =
    match find_open k gf with
    | Some { s_shadow = Some session; _ } ->
      Shadow.modified_lpages session <> []
      || (Shadow.incore session).Inode.size <> inode.Inode.size
    | Some { s_shadow = None; _ } | None -> false
  in
  if not changed then begin
    touch k d;
    Hashtbl.replace k.ss_dirs gf d;
    dir_index_fit k
  end;
  d

let find_dir_index k gf (inode : Inode.t) =
  match Hashtbl.find_opt k.ss_dirs gf with
  | Some d when String.equal d.di_key (vv_key inode.Inode.vv) ->
    touch k d;
    Some d
  | Some _ | None -> None

(* Resolve [name] in the committed copy of directory [gf] through its
   index, reading the one page that holds the name's record. The reads are
   not charged: the caller charges one read for the directory, as for the
   whole-body read this replaces. Raises [Failure] on a corrupt body. *)
let lookup_name k pack gf (inode : Inode.t) name =
  let read = Pack.reader pack inode in
  let size = inode.Inode.size in
  let d =
    match find_dir_index k gf inode with
    | Some d -> d
    | None -> build_dir_index k gf inode ~read ~size
  in
  match Dir.Index.find d.di_index ~read ~limit:size name with
  | Some (at, page) -> (
    match Dir.entry_at page (at mod Page.size) with
    | { Dir.status = Dir.Live; ino; _ } -> Some ino
    | { Dir.status = Dir.Tombstone; _ } -> None)
  | None -> None

(* Change the record of [name] in directory [gf] where the directory is
   stored (section 2.3.4's "ask the storage site", applied to updates).
   The directory's index locates the record: the SS reads that one page
   through the same page source as a page read and writes the one changed
   record into the shadow session that a commit then installs — a remove
   or re-entry in place, a new name after the last record. Only the first
   change of a version reads every page, to build the index. The pages
   never reach a process, so none is charged [cpu_page], as in the
   server-side lookup. A body that does not decode is [Eio], never an
   empty directory. [change] sees the record that holds [name] now, if
   any, and returns the record to write in its place, or refuses. Returns
   the inode of the record written. *)
let dir_change k ~src gf name change =
  match local_pack k gf.Gfile.fg with
  | None -> Stdlib.Error Proto.Eio
  | Some pack -> (
    match Pack.find_inode pack gf.Gfile.ino with
    | None -> Stdlib.Error Proto.Enoent
    | Some inode -> (
      let read, size = page_source k pack gf inode in
      match
        match find_dir_index k gf inode with
        | Some d when Dir.Index.log_end d.di_index = size -> d
        | Some _ | None -> build_dir_index k gf inode ~read ~size
      with
      | exception Failure _ -> Stdlib.Error Proto.Eio
      | d -> (
        let write at (e : Dir.entry) =
          match Dir.record e with
          | exception Invalid_argument _ -> Stdlib.Error Proto.Einval
          | _ when at / Page.size >= Inode.max_pages -> Stdlib.Error Proto.Enospc
          | data ->
            let lpage = at / Page.size in
            Shadow.patch_page (ensure_session k pack gf) ~lpage ~off:(at mod Page.size) data;
            page_written k gf lpage;
            invalidate_others k gf ~writer:src ~first:lpage ~count:1;
            Ok e.Dir.ino
        in
        match Dir.Index.find d.di_index ~read ~limit:size name with
        | Some (at, page) ->
          Result.bind (change (Some (Dir.entry_at page (at mod Page.size)))) (write at)
        | None -> (
          match change None with
          | Stdlib.Error _ as refused -> refused
          | Ok e ->
            let at = Dir.Index.next d.di_index name in
            let r = write at e in
            if Result.is_ok r then begin
              Dir.Index.add d.di_index name at;
              if at mod Page.size = 0 then dir_index_fit k
            end;
            r))))

(* Install [session] as the committed version of [gf] (section 2.3.6):
   bump the version vector (or take recovery's [force_vv]), switch the
   incore inode in, and keep every cache coherent with the new version.
   [delete] marks the inode deleted first (section 2.3.7). Returns the new
   version and the pages the session modified. Notifying anyone is the
   caller's job. *)
let install ?force_vv k pack gf s session ~delete =
  let modified = Shadow.modified_lpages session in
  if delete then begin
    Shadow.set_contents session "";
    Shadow.mark_deleted session ~time:(now k)
  end;
  let old_vv = (Shadow.incore session).Inode.vv in
  let vv = match force_vv with Some v -> v | None -> Vvec.bump old_vv k.site in
  let old_size =
    match Pack.find_inode pack gf.Gfile.ino with Some i -> i.Inode.size | None -> 0
  in
  charge_disk_write k;
  Shadow.commit session ~vv ~mtime:(now k);
  s.s_shadow <- None;
  (* Local lease self-heal: this site just observed the version advance
     first-hand, so its own US-side retained grant (if any, on the old
     version) is stale *now* — killing it here closes the window before
     the CSS's asynchronous [Lease_break] callback arrives. *)
  Openlease.note_commit k.open_leases gf vv;
  (* Buffered pages this commit did not replace are still current, and
     so is the directory index, which made the session's changes. A
     delete leaves nothing. *)
  if delete then begin
    Cache.invalidate_if k.ss_cache (fun (g, _) -> Gfile.equal g gf);
    ss_dir_drop k gf
  end
  else begin
    ss_cache_carry k gf ~old_size ~size:(Shadow.incore session).Inode.size
      ~replaced:modified;
    ss_dir_carry k gf ~old_vv ~vv
  end;
  (* Likewise name-cache links: if this was a directory, links read
     from the old version are dead; if the file was deleted, no link
     may keep resolving to it. *)
  Namecache.note_dir_vv k.name_cache ~dir:gf vv;
  if delete then Namecache.invalidate_child k.name_cache gf;
  record k ~tag:"ss.commit" "%a vv=%a%s" Gfile.pp gf Vvec.pp vv
    (if delete then " delete" else "");
  (vv, modified)

let commit_message ?carried ?origin ?(designate = false) k gf ~vv ~modified ~deleted
    ~meta_only =
  let origin = Option.value origin ~default:k.site in
  Proto.Commit_notify
    { gf; vv; meta_only; modified; origin; fresh = true; deleted; designate; replicas = [];
      carried }

(* What a notification of version [vv] of [gf] carries: the committed
   inode and the [modified] pages below its eof, read through the buffer
   cache as the first pull would read them, so the cache warms as it did.
   [None] once the local copy is no longer at [vv]. *)
let carried_pages k gf ~vv ~modified =
  match local_pack k gf.Gfile.fg with
  | None -> None
  | Some pack -> (
    match Pack.find_inode pack gf.Gfile.ino with
    | Some inode when Vvec.equal inode.Inode.vv vv ->
      let read, size = page_source ~committed:true k pack gf inode in
      let pages =
        List.filter_map
          (fun lpage ->
            let len = min Page.size (size - (lpage * Page.size)) in
            if len <= 0 then None else Some (Page.sub (read lpage) 0 len))
          modified
      in
      Some (Proto.info_of_inode inode, pages)
    | Some _ | None -> None)

(* Notify the file's other storing [sites] of this site's fresh commit
   (section 2.3.6). Above a window of 1, a commit that modified 1 to
   [bulk_window] pages, or only the inode, carries them: a copy at the
   version it replaced then installs the change with no pull. The pages
   are read after the commit has returned, in a zero-delay event, so the
   caller never waits for the disk. A copy that moved on by then sends the
   bare notification, and its receivers pull the newest version. *)
let notify_others k gf ~vv ~modified ~deleted ~meta_only sites =
  let sites = List.filter (fun site -> not (Site.equal site k.site)) sites in
  let bare = commit_message k gf ~vv ~modified ~deleted ~meta_only in
  let window = k.config.bulk_window in
  let carries =
    window > 1 && (not deleted) && sites <> []
    && (meta_only || (modified <> [] && List.length modified <= window))
  in
  if not carries then List.iter (fun site -> notify k site bare) sites
  else
    Engine.schedule k.engine ~delay:0.0 (fun () ->
        let message =
          match carried_pages k gf ~vv ~modified with
          | Some _ as carried -> commit_message ?carried k gf ~vv ~modified ~deleted ~meta_only
          | None -> bare
        in
        List.iter (fun site -> notify k site message) sites)

(* The atomic commit (section 2.3.6): move the incore inode to the disk
   inode, then notify the CSS and all other storage sites so they bring
   their copies up to date. *)
let commit_session ?force_vv k gf ~abort ~delete =
  match local_pack k gf.Gfile.fg with
  | None -> Proto.R_err Proto.Eio
  | Some pack -> (
    let s = get_open k gf in
    match s.s_shadow with
    | None when abort -> Proto.R_committed { vv = Vvec.zero }
    | None when not delete ->
      (* Nothing was modified: no new version is created. *)
      let vv =
        match Pack.find_inode pack gf.Gfile.ino with
        | Some inode -> inode.Inode.vv
        | None -> Vvec.zero
      in
      Proto.R_committed { vv }
    | Some session when abort ->
      Shadow.abort session;
      s.s_shadow <- None;
      ss_dir_drop k gf;
      (* The committed version is untouched: its buffered pages stay. *)
      record k ~tag:"ss.abort" "%a" Gfile.pp gf;
      let vv =
        match Pack.find_inode pack gf.Gfile.ino with
        | Some inode -> inode.Inode.vv
        | None -> Vvec.zero
      in
      Proto.R_committed { vv }
    | _ ->
      let session =
        match s.s_shadow with
        | Some session -> session
        | None -> ensure_session k pack gf
      in
      let vv, modified = install k pack gf s session ?force_vv ~delete in
      (* Notify the CSS and the other storage sites (section 2.3.6). The
         CSS message is synchronous: the commit is not complete until the
         synchronization site knows the new version, which is what keeps
         the latest version the only one visible within a partition. *)
      let fi = fg_info k gf.Gfile.fg in
      let message = commit_message k gf ~vv ~modified ~deleted:delete ~meta_only:false in
      if Site.equal fi.css_site k.site then
        Css.handle_commit_notify k gf ~origin:k.site ~vv ~deleted:delete
      else (match rpc_result k fi.css_site message with Ok _ | Stdlib.Error _ -> ());
      notify_others k gf ~vv ~modified ~deleted:delete ~meta_only:false s.s_others;
      Proto.R_committed { vv })

(* A commit request: a [run] the commit carries is written into the
   session first, exactly as a [Write_pages] from [src] would write it; a
   refused run is the answer, and nothing commits. *)
let handle_commit ?force_vv ?run k ~src gf ~abort ~delete =
  let written =
    match run with
    | Some { Proto.run_trunc = trunc; run_first = first; run_off = off; run_data = data } ->
      handle_write_pages ?trunc k ~src gf ~first ~off ~data
    | None -> Proto.R_ok
  in
  match written with
  | Proto.R_ok -> commit_session ?force_vv k gf ~abort ~delete
  | refused -> refused

(* US close at the SS, then SS close at the CSS — the three-message close
   protocol adopted after the reopen race was found (section 2.3.3 note). *)
let handle_us_close k ~src gf ~mode =
  (match find_open k gf with
  | None -> ()
  | Some s ->
    (* A writer that closes without committing (its commit and abort
       replies lost) leaves a session no one will commit: [ss_end] aborts
       it, even while lease riders keep the file served. *)
    ss_end k s ~us:src ~opens:1 ~writes:(if mode = Proto.Mode_modify then 1 else 0));
  let fi = fg_info k gf.Gfile.fg in
  if Site.equal fi.css_site k.site then Css.handle_ss_close k gf ~us:src ~mode
  else
    (* A CSS that can never be reached has its lock table rebuilt by the
       next partition/merge pass: this SS's side of the close is complete
       either way. *)
    send_close k fi.css_site (Proto.Ss_close { gf; ss = k.site; us = src; mode })

(* Revalidate this site's serving registrations against the using sites'
   actual open files, part of every membership install (the SS-side
   analogue of the section 5.6 lock-table scrub). A registration outlives
   its open in two ways. A membership change drops every retained lease silently,
   so the deferred close of a lease no open rides never arrives. And when
   every attempt of an open lost its reply, the CSS registered the US
   here (poll or local add), but the US never learned the open
   succeeded, so no close will ever arrive. Each US in the partition is
   asked for its live opens, which count no lease (a member drops its
   lease table when it installs the membership, and the query reports
   only open files, riders of a lease included); each count above what
   the US reports, of opens or of modify opens, is ended down to it, as
   that many closes would. A US outside the partition has no open here
   (section 5.6: its pages are discarded, its updates aborted). A member
   the query cannot reach keeps its registrations; the next membership
   change retries. *)
let revalidate_serving k =
  (* (us, fg) -> ino -> live (opens, modify opens) at us, queried at most
     once. *)
  let cache : (Site.t * int, (int, int * int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let live_opens us fg =
    match Hashtbl.find_opt cache (us, fg) with
    | Some t -> Some t
    | None ->
      let resp =
        if Site.equal us k.site then Some (Css.handle_open_files_query k fg)
        else if in_partition k us then
          match rpc_result k us (Proto.Open_files_query { fg }) with
          | Ok r -> Some r
          | Stdlib.Error _ -> None
        else Some (Proto.R_open_files { files = [] })
      in
      (match resp with
      | Some (Proto.R_open_files { files }) ->
        let t = Hashtbl.create 8 in
        List.iter
          (fun (ino, mode, _site) ->
            let opens, writes = Option.value ~default:(0, 0) (Hashtbl.find_opt t ino) in
            let w = if mode = Proto.Mode_modify then 1 else 0 in
            Hashtbl.replace t ino (opens + 1, writes + w))
          files;
        Hashtbl.add cache (us, fg) t;
        Some t
      | Some _ | None -> None)
  in
  let stale = ref [] in
  Hashtbl.iter
    (fun gf (s : ss_open) ->
      Site.Map.iter
        (fun us n ->
          match live_opens us gf.Gfile.fg with
          | None -> ()
          | Some t ->
            let opens, writes = Option.value ~default:(0, 0) (Hashtbl.find_opt t gf.Gfile.ino) in
            let w = Option.value ~default:0 (Site.Map.find_opt us s.s_writers) in
            if opens < n || writes < w then
              stale := (s, us, max 0 (n - opens), max 0 (w - writes)) :: !stale)
        s.s_uss)
    k.ss_opens;
  List.iter
    (fun ((s : ss_open), us, opens, writes) ->
      Sim.Stats.incr (stats k) "ss.revalidate.dropped";
      record k ~tag:"ss.revalidate" "%a us=%a -%d" Gfile.pp s.s_gf Site.pp us opens;
      ss_end k s ~us ~opens ~writes)
    !stale

(* ---- directory intents: the storage site's half ---- *)

(* A new inode, numbered from this pack's partition of the filegroup's
   inode space (section 2.3.7). Registering it at the CSS and designating
   its other storage sites is the CSS's job, once its name is entered. *)
let alloc_inode k pack ~ftype ~owner ~perms =
  let ino = Pack.alloc_ino pack in
  let inode = Inode.create ~ino ~ftype ~owner in
  inode.Inode.perms <- perms;
  inode.Inode.vv <- Vvec.bump Vvec.zero k.site;
  inode.Inode.mtime <- now k;
  Pack.install_inode pack inode;
  charge_disk_write k;
  record k ~tag:"ss.create" "%a %a"
    Gfile.pp (Gfile.make ~fg:(Pack.fg pack) ~ino)
    Inode.pp_ftype ftype;
  inode

(* Serving state an intent opened, and no open uses, goes with it. *)
let drop_if_idle k (s : ss_open) = ss_end k s ~us:k.site ~opens:0 ~writes:0

(* Metadata-only change: mutate descriptor fields and bump the version (the
   "just inode information changed" case of section 2.3.6). No data page
   changed, so the buffers and the index carry over. *)
let metadata_install k gf (inode : Inode.t) mutate =
  mutate inode;
  let old_vv = inode.Inode.vv in
  inode.Inode.vv <- Vvec.bump old_vv k.site;
  inode.Inode.mtime <- now k;
  charge_disk_write k;
  ss_dir_carry k gf ~old_vv ~vv:inode.Inode.vv;
  Namecache.note_dir_vv k.name_cache ~dir:gf inode.Inode.vv;
  inode.Inode.vv

(* Add [delta] to the link count of this site's copy of [gf]; the last link
   going is a delete commit. Returns the new version and whether the file
   was deleted. *)
let change_links k gf ~delta =
  match local_pack k gf.Gfile.fg with
  | None -> Stdlib.Error Proto.Eio
  | Some pack -> (
    match Pack.find_inode pack gf.Gfile.ino with
    | None -> Stdlib.Error Proto.Enoent
    | Some { Inode.deleted = true; _ } -> Stdlib.Error Proto.Enoent
    | Some inode when inode.Inode.nlink + delta <= 0 ->
      let s = get_open k gf in
      let session = ensure_session k pack gf in
      let vv, _ = install k pack gf s session ~delete:true in
      drop_if_idle k s;
      Ok (vv, true)
    | Some inode ->
      let vv =
        metadata_install k gf inode (fun i -> i.Inode.nlink <- i.Inode.nlink + delta)
      in
      Ok (vv, false))

(* An intent's record change and the directory's commit, in one handler:
   the storage site's half of a create, unlink or link (sections 2.3.4,
   2.3.7). The commit notifies [others], the other sites holding the
   latest copy; version bookkeeping at the CSS rides the reply. [guard]
   vets the inode a counted unlink would drop a link of, before anything
   changes. A create without an inode allocates one here, after the name
   check. A counted unlink or link also changes the file's link count
   here when [links_here] says this site holds its latest copy. *)
let apply_intent k ~us dir (op : Proto.intent) ~others ~guard ~links_here =
  let stamp = now k and origin = us in
  let allocated = ref None in
  let live ino name = Ok { Dir.name; ino; status = Dir.Live; stamp; origin } in
  let tombstone (e : Dir.entry) = Ok { e with Dir.status = Dir.Tombstone; stamp; origin } in
  let result =
    match op with
    | Proto.Create { name; ftype; owner; perms; ino; ncopies = _ } ->
      dir_change k ~src:us dir name (function
        | Some { Dir.status = Dir.Live; _ } -> Stdlib.Error Proto.Eexist
        | Some { Dir.status = Dir.Tombstone; _ } | None -> (
          match ino with
          | Some ino -> live ino name
          | None ->
            let inode = alloc_inode k (local_pack_exn k dir.Gfile.fg) ~ftype ~owner ~perms in
            allocated := Some inode;
            live inode.Inode.ino name))
    | Proto.Unlink { name; links } ->
      dir_change k ~src:us dir name (function
        | Some ({ Dir.status = Dir.Live; ino; _ } as e) ->
          if links then Result.bind (guard ino) (fun () -> tombstone e) else tombstone e
        | Some { Dir.status = Dir.Tombstone; _ } | None -> Stdlib.Error Proto.Enoent)
    | Proto.Link { name; ino; links = _ } ->
      dir_change k ~src:us dir name (function
        | Some { Dir.status = Dir.Live; _ } -> Stdlib.Error Proto.Eexist
        | Some { Dir.status = Dir.Tombstone; _ } | None -> live ino name)
  in
  match result with
  | Stdlib.Error e ->
    (* Refused before anything was written; an inode allocated for a name
       the record format refused is freed. *)
    (match !allocated with
    | Some inode -> Pack.remove_inode (local_pack_exn k dir.Gfile.fg) inode.Inode.ino
    | None -> ());
    Proto.R_err e
  | Ok ino ->
    let pack = local_pack_exn k dir.Gfile.fg in
    let s = get_open k dir in
    let session = ensure_session k pack dir in
    let dir_vv, modified = install k pack dir s session ~delete:false in
    drop_if_idle k s;
    notify_others k dir ~vv:dir_vv ~modified ~deleted:false ~meta_only:false others;
    let links delta =
      if links_here ino then
        Result.to_option (change_links k (Gfile.make ~fg:dir.Gfile.fg ~ino) ~delta)
      else None
    in
    let file =
      match op with
      | Proto.Create _ ->
        Option.map (fun (i : Inode.t) -> (i.Inode.vv, false)) !allocated
      | Proto.Unlink { links = true; _ } -> links (-1)
      | Proto.Link { links = true; _ } -> links 1
      | Proto.Unlink { links = false; _ } | Proto.Link { links = false; _ } -> None
    in
    record k ~tag:"ss.intent" "%a ino %d vv=%a" Gfile.pp dir ino Vvec.pp dir_vv;
    Proto.R_intent { ino; dir_vv; file }

let handle_intent_step k ~us (step : Proto.intent_step) =
  match step with
  | Proto.Step_dir { dir; op; others; refuse; stale } ->
    apply_intent k ~us dir op ~others
      ~guard:(fun ino ->
        match List.assoc_opt ino refuse with Some e -> Stdlib.Error e | None -> Ok ())
      ~links_here:(fun ino -> not (List.mem ino stale))
  | Proto.Step_link { gf; delta } -> (
    match change_links k gf ~delta with
    | Ok (vv, deleted) -> Proto.R_linked { vv; deleted }
    | Stdlib.Error e -> Proto.R_err e)

(* Metadata-only commit: change descriptor fields and notify the CSS and
   the file's other storing sites. *)
let metadata_commit k gf mutate =
  match local_pack k gf.Gfile.fg with
  | None -> Proto.R_err Proto.Eio
  | Some pack -> (
    match Pack.find_inode pack gf.Gfile.ino with
    | None -> Proto.R_err Proto.Enoent
    | Some inode ->
      let vv = metadata_install k gf inode mutate in
      let fi = fg_info k gf.Gfile.fg in
      let message = commit_message k gf ~vv ~modified:[] ~deleted:false ~meta_only:true in
      if Site.equal fi.css_site k.site then
        Css.handle_commit_notify k gf ~origin:k.site ~vv ~deleted:false
      else (match rpc_result k fi.css_site message with Ok _ | Stdlib.Error _ -> ());
      (match find_open k gf with
      | Some s -> notify_others k gf ~vv ~modified:[] ~deleted:false ~meta_only:true s.s_others
      | None -> ());
      Proto.R_committed { vv })

let handle_set_attr k gf ~perms ~owner =
  metadata_commit k gf (fun inode ->
      (match perms with Some p -> inode.Inode.perms <- p land 0o7777 | None -> ());
      match owner with Some o -> inode.Inode.owner <- o | None -> ())

let handle_inventory k fg =
  match local_pack k fg with
  | None -> Proto.R_inventory { files = [] }
  | Some pack ->
    let files =
      Pack.inodes pack
      |> List.map (fun (i : Inode.t) ->
             (i.Inode.ino, i.Inode.vv, i.Inode.ftype, i.Inode.deleted))
    in
    Proto.R_inventory { files }

let handle_reclaim k gf =
  (match local_pack k gf.Gfile.fg with
  | Some pack -> Pack.remove_inode pack gf.Gfile.ino
  | None -> ());
  Cache.invalidate_if k.ss_cache (fun (g, _) -> Gfile.equal g gf);
  ss_dir_drop k gf;
  (* A reclaimed inode number can be reallocated: drop every name-cache
     link into or out of it, and any retained open grant on it. *)
  Namecache.invalidate_dir k.name_cache gf;
  Namecache.invalidate_child k.name_cache gf;
  Openlease.kill k.open_leases gf;
  Proto.R_ok

(* ---- named pipes (section 2.4.2): the fifo's single SS serializes ---- *)

let pipe_buf k gf =
  match Hashtbl.find_opt k.pipe_bufs gf with
  | Some b -> b
  | None ->
    let b = ref "" in
    Hashtbl.add k.pipe_bufs gf b;
    b

let handle_pipe_write k gf data =
  match local_pack k gf.Gfile.fg with
  | None -> Proto.R_err Proto.Eio
  | Some pack -> (
    match Pack.find_inode pack gf.Gfile.ino with
    | Some { Inode.ftype = Inode.Fifo; _ } ->
      let b = pipe_buf k gf in
      b := !b ^ data;
      Proto.R_ok
    | Some _ -> Proto.R_err Proto.Einval
    | None -> Proto.R_err Proto.Enoent)

let handle_pipe_read k gf max =
  match local_pack k gf.Gfile.fg with
  | None -> Proto.R_err Proto.Eio
  | Some pack -> (
    match Pack.find_inode pack gf.Gfile.ino with
    | Some { Inode.ftype = Inode.Fifo; _ } ->
      let b = pipe_buf k gf in
      let n = min max (String.length !b) in
      let data = String.sub !b 0 n in
      b := String.sub !b n (String.length !b - n);
      Proto.R_data { data }
    | Some _ -> Proto.R_err Proto.Einval
    | None -> Proto.R_err Proto.Enoent)
