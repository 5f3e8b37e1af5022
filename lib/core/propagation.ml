(* Background update propagation (section 2.3.6).

   A kernel process at each storage site services a queue of propagation
   requests, one per commit notification. Above a window of 1 the
   notification of a small commit carries it: the committed inode and the
   modified pages. A copy exactly one commit behind the notified version
   installs them with no message, and so does a designated initial
   storage site of a new file, from a designation that carries the new
   inode (section 2.3.7). Every other copy pulls: it reads the
   new version from the site that committed it, with the standard read
   message over that site's committed copy, and its first read also
   brings back the copy's inode, so a pull of one window is one round
   trip. A copy exactly one commit behind reads just the modified pages
   (none for a metadata-only commit), and a delete reads nothing. When the
   committing site is out of reach, or a pull from it failed, the pull
   asks the CSS which sites hold the latest version. Both install the
   version locally through the standard shadow-page mechanism — so a pull
   interrupted by partition leaves a coherent, complete (if stale) copy. *)

open Ktypes
module Inode = Storage.Inode
module Pack = Storage.Pack
module Shadow = Storage.Shadow
module Page = Storage.Page

(* Is [local] exactly the version [target] was derived from by one commit at
   [origin]? Then pulling just the modified pages is sufficient. *)
let one_commit_behind ~local ~target ~origin =
  Vvec.equal (Vvec.bump local origin) target

(* Tell the CSS that this site now stores [vv] (fresh=false: a completed
   propagation, not a new commit). *)
let report_to_css k gf vv ~deleted =
  let fi = fg_info k gf.Gfile.fg in
  (* In process: a remote CSS gets a one-way notify, a collocated one the
     report synchronously. *)
  if Site.equal fi.css_site k.site then
    Css.handle_commit_notify k gf ~origin:k.site ~vv ~deleted
  else
    notify k fi.css_site
      (Proto.Commit_notify
         { gf; vv; meta_only = false; modified = []; origin = k.site; fresh = false;
           deleted; designate = false; carried = None })

let apply_delete k pack gf ~vv =
  match Pack.find_inode pack gf.Gfile.ino with
  | None -> ()
  | Some inode ->
    if Vvec.conflict inode.Inode.vv vv then
      (* Deleted in one partition, modified in another: the file wants to
         be saved (section 4.4); leave it for reconciliation. *)
      record k ~tag:"prop.conflict" "%a" Gfile.pp gf
    else if not (Vvec.dominates_or_equal inode.Inode.vv vv) then begin
      let session = Shadow.begin_modify pack gf.Gfile.ino in
      Shadow.set_contents session "";
      Shadow.mark_deleted session ~time:(now k);
      charge_disk_write k;
      Shadow.commit session ~vv ~mtime:(now k);
      Coherence.installed k gf ~old_vv:inode.Inode.vv ~vv ~deleted:true ~old_size:inode.Inode.size
        ~size:0 ~replaced:[] ~index:Coherence.Reindex;
      record k ~tag:"prop.delete" "%a" Gfile.pp gf;
      report_to_css k gf vv ~deleted:true
    end

(* Group an ascending page list into (first, count) runs of consecutive
   pages, each at most [cap] long. *)
let runs_of ~cap pages =
  let rec go acc first len = function
    | p :: rest when p = first + len && len < cap -> go acc first (len + 1) rest
    | rest -> (
      let acc = (first, len) :: acc in
      match rest with [] -> List.rev acc | p :: rest -> go acc p 1 rest)
  in
  match pages with [] -> [] | p :: rest -> go [] p 1 rest

(* Retries of a queued pull after its first attempt. *)
let max_retries = 3

let npages_of (info : Proto.inode_info) = (info.Proto.i_size + Page.size - 1) / Page.size

(* Read the run [first, first + count) of [site]'s committed copy of [gf],
   and its inode when [stat]. A reply with fewer pages than the file has
   in the run, by the inode that came back or else by [npages], fails
   with [Eio]: no reader takes a short body. *)
let read_run k site gf ~npages ~first ~count ~stat =
  let pages, info = Ss.read_committed k site gf ~first ~count ~stat in
  let npages = match info with Some i -> npages_of i | None -> npages in
  if List.length pages <> min count (max 0 (npages - first)) then
    err Proto.Eio "short read of %a from %a" Gfile.pp gf Site.pp site;
  (pages, info)

(* Write the pulled pages of version [info] of [gf] over the local copy
   [local] in a shadow session and commit it. [read] yields the pages, in
   (first page, pages) runs; an [Error] from it aborts the session. *)
let install_version k pack gf ~source (local : Inode.t) (info : Proto.inode_info) ~npulled read =
  let session = Shadow.begin_modify pack gf.Gfile.ino in
  let incore = Shadow.incore session in
  incore.Inode.ftype <- info.Proto.i_ftype;
  incore.Inode.owner <- info.Proto.i_owner;
  incore.Inode.perms <- info.Proto.i_perms;
  incore.Inode.nlink <- info.Proto.i_nlink;
  incore.Inode.deleted <- false;
  match
    read (fun first pages ->
        List.iteri
          (fun i data ->
            charge_disk_write k;
            (* Rename the network buffer and send it to secondary storage:
               no copy through an application space. *)
            Shadow.write_page session ~lpage:(first + i) (Page.of_string data))
          pages)
  with
  | exception Error _ ->
    Shadow.abort session;
    false
  | () ->
    (* Exactly the source's size: write_page grew past a shrunk size, and
       a pure truncate at the source modified no page at all — either way
       the local copy must not keep a stale tail. *)
    Shadow.set_size session info.Proto.i_size;
    let replaced = Shadow.modified_pages session in
    Shadow.commit session ~vv:info.Proto.i_vv ~mtime:info.Proto.i_mtime;
    Coherence.installed k gf ~old_vv:local.Inode.vv ~vv:info.Proto.i_vv ~deleted:false
      ~old_size:local.Inode.size ~size:info.Proto.i_size ~replaced ~index:Coherence.Reindex;
    record k ~tag:"prop.pull" "%a <- %a vv=%a (%d pages)" Gfile.pp gf Site.pp source Vvec.pp
      info.Proto.i_vv npulled;
    report_to_css k gf info.Proto.i_vv ~deleted:false;
    true

(* Pull [p]'s version from [source]. The plan: a copy exactly one commit
   behind the notified version reads that commit's modified pages (none
   for a metadata-only commit), any other copy every page. The plan's
   first run also asks for the source's committed inode; a whole-file
   pull does not know the size yet, so its first run is one window from
   page 0. [None] when [strict] and the source's version does not
   dominate the notified one: another source must serve. *)
let pull_from k pack (p : pull) ~source ~strict =
  let gf = p.pull_gf in
  let cap = max 1 k.config.bulk_window in
  let behind =
    (p.pull_meta_only || p.pull_modified <> [])
    &&
    match Pack.find_inode pack gf.Gfile.ino with
    | Some local -> one_commit_behind ~local:local.Inode.vv ~target:p.pull_vv ~origin:p.pull_origin
    | None -> false
  in
  let modified = if p.pull_meta_only then [] else p.pull_modified in
  let first, count =
    if not behind then (0, cap)
    else match runs_of ~cap modified with run :: _ -> run | [] -> (0, 0)
  in
  (* Only a request that returned two or more pages counts as a bulk
     pull. A short reply fails the pull. *)
  let fetch ~npages ~first ~count ~stat =
    let pages, info = read_run k source gf ~npages ~first ~count ~stat in
    let n = List.length pages in
    if n > 1 then begin
      Sim.Stats.incr (stats k) "prop.bulk";
      Sim.Stats.add (stats k) "prop.bulk.pages" n
    end;
    (pages, info)
  in
  match fetch ~npages:0 ~first ~count ~stat:true with
  | _, None -> err Proto.Eio "read of %a carried no inode" Gfile.pp gf
  | head, Some info ->
    if strict && not (Vvec.dominates_or_equal info.Proto.i_vv p.pull_vv) then None
    else if info.Proto.i_deleted then begin
      apply_delete k pack gf ~vv:info.Proto.i_vv;
      Some true
    end
    else begin
      (* Make sure a local descriptor exists, then shadow in the data. *)
      (match Pack.find_inode pack gf.Gfile.ino with
      | Some _ -> ()
      | None ->
        Pack.install_inode pack
          (Inode.create ~ino:gf.Gfile.ino ~ftype:info.Proto.i_ftype ~owner:info.Proto.i_owner));
      let local = Pack.get_inode pack gf.Gfile.ino in
      if Vvec.dominates_or_equal local.Inode.vv info.Proto.i_vv then Some true
      else if Vvec.conflict local.Inode.vv info.Proto.i_vv then begin
        (* Concurrent versions: never overwrite — that would lose an
           update. Reconciliation (section 4) resolves it. *)
        record k ~tag:"prop.conflict" "%a" Gfile.pp gf;
        report_to_css k gf local.Inode.vv ~deleted:local.Inode.deleted;
        Some true
      end
      else begin
        let npages = npages_of info in
        (* The modified pages describe the notified commit only. *)
        let wanted =
          if behind && Vvec.equal info.Proto.i_vv p.pull_vv then
            List.filter (fun pg -> pg < npages) modified
          else List.init npages Fun.id
        in
        let rest = List.filter (fun pg -> pg < first || pg >= first + count) wanted in
        Some
          (install_version k pack gf ~source local info ~npulled:(List.length wanted) (fun write ->
               write first head;
               List.iter
                 (fun (first, count) ->
                   let pages, _ = fetch ~npages ~first ~count ~stat:false in
                   write first pages)
                 (runs_of ~cap rest)))
      end
    end

(* A reachable site other than this one holding the latest version, by
   the CSS's list. *)
let source_from_css k gf =
  let fi = fg_info k gf.Gfile.fg in
  match rpc_result k fi.css_site (Proto.Where_stored { gf; stat = false }) with
  | Ok (Proto.R_where { sites; _ }) ->
    List.find_opt (fun s -> (not (Site.equal s k.site)) && in_partition k s) sites
  | Ok _ | Stdlib.Error _ -> None

(* One queued propagation request. Returns true when no retry is needed.
   A delete needs no read. The first attempt reads from the committing
   site when it is in the partition; a retry, or a committing site that no
   longer holds the notified version, goes by the CSS's list. *)
let attempt k (p : pull) =
  let gf = p.pull_gf in
  match local_pack k gf.Gfile.fg with
  | None -> true (* we do not store this filegroup after all *)
  | Some pack -> (
    match local_vv k gf with
    | Some vv when Vvec.dominates_or_equal vv p.pull_vv -> true (* already current *)
    | Some _ | None -> (
      if p.pull_deleted then begin
        apply_delete k pack gf ~vv:p.pull_vv;
        true
      end
      else
        let from_origin =
          p.pull_retries = max_retries
          && (not (Site.equal p.pull_origin k.site))
          && in_partition k p.pull_origin
        in
        match if from_origin then pull_from k pack p ~source:p.pull_origin ~strict:true else None with
        | Some ok -> ok
        | None -> (
          match source_from_css k gf with
          | None -> false
          | Some source ->
            Option.value (pull_from k pack p ~source ~strict:false) ~default:false)))

(* Attempt one queued item; a failure with retries left re-queues it, not
   to be retried before [backoff] ms from now. *)
let service_item k (p : pull) ~backoff =
  let gf = p.pull_gf in
  k.prop_pending <- Gfile.Set.remove gf k.prop_pending;
  let done_ =
    if k.alive then begin
      try attempt k p
      with Error (e, m) ->
        record k ~tag:"prop.fail" "%a %a: %s" Gfile.pp gf Proto.pp_errno e m;
        false
    end
    else false
  in
  if (not done_) && p.pull_retries > 0 && k.alive then begin
    k.prop_pending <- Gfile.Set.add gf k.prop_pending;
    Queue.add
      { p with pull_retries = p.pull_retries - 1; pull_not_before = now k +. backoff }
      k.prop_queue
  end

let earliest_retry k = Queue.fold (fun acc p -> min acc p.pull_not_before) infinity k.prop_queue

(* Run one queued request; reschedules itself while work remains. *)
let rec service_queue k =
  (* Rotate past items still backing off after a failed pull — servicing
     them at the normal delay would defeat the 10x backoff. *)
  let due =
    let n = Queue.length k.prop_queue in
    let rec take i =
      if i >= n then None
      else
        match Queue.take_opt k.prop_queue with
        | None -> None
        | Some item ->
          if item.pull_not_before <= now k then Some item
          else begin
            Queue.add item k.prop_queue;
            take (i + 1)
          end
    in
    take 0
  in
  (match due with
  | None -> ()
  | Some item -> service_item k item ~backoff:(10.0 *. k.config.propagation_delay));
  if not (Queue.is_empty k.prop_queue) then begin
    let delay = max k.config.propagation_delay (earliest_retry k -. now k) in
    Engine.schedule k.engine ~delay (fun () -> service_queue k)
  end

(* A notification that carried its commit, the committed inode and the
   modified pages below eof, is installed on arrival, with no message,
   when the local copy is exactly at the version the commit replaced. A
   create's designation that carried the new inode, and every page below
   its eof, is installed likewise by a site with no copy yet. Any other
   copy pulls. Not from the queue: a queued pull reads the origin's
   newest version, but a carried commit is exactly the notified one. The
   copy reports as a pull does: the CSS's view of it never runs ahead of
   it. *)
let install_carried k gf ~vv ~origin ~modified ~meta_only ~designate (info, pages) =
  match local_pack k gf.Gfile.fg with
  | Some pack when Vvec.equal info.Proto.i_vv vv -> (
    let npages = npages_of info in
    let plan =
      match Pack.find_inode pack gf.Gfile.ino with
      | Some local when one_commit_behind ~local:local.Inode.vv ~target:vv ~origin ->
        Some (Some local, if meta_only then [] else List.filter (fun pg -> pg < npages) modified)
      | None when designate -> Some (None, List.init npages Fun.id)
      | Some _ | None -> None
    in
    match plan with
    | Some (local, wanted) when List.compare_lengths wanted pages = 0 ->
      let local =
        match local with
        | Some local -> local
        | None ->
          (* The descriptor a pull would make first; the shadow commit
             fills it in. *)
          let local =
            Inode.create ~ino:gf.Gfile.ino ~ftype:info.Proto.i_ftype ~owner:info.Proto.i_owner
          in
          Pack.install_inode pack local;
          local
      in
      Sim.Stats.incr (stats k) "prop.carried";
      Sim.Stats.add (stats k) "prop.carried.pages" (List.length pages);
      ignore
        (install_version k pack gf ~source:origin local info ~npulled:(List.length pages)
           (fun write -> List.iter2 (fun pg data -> write pg [ data ]) wanted pages))
    | Some _ | None -> ())
  | Some _ | None -> ()

(* Called when a commit notification arrives at a storage site. A copy
   that installed the commit the notification carried is current. Else a
   site pulls only files it already stores — packs hold a subset of the
   filegroup — unless the notification designates it as an initial
   storage site for a new file. *)
let enqueue ?carried k gf ~vv ~origin ~modified ~meta_only ~deleted ~designate =
  Option.iter (install_carried k gf ~vv ~origin ~modified ~meta_only ~designate) carried;
  let interested =
    match local_pack k gf.Gfile.fg with
    | None -> false
    | Some pack -> designate || Pack.stores pack gf.Gfile.ino
  in
  let current =
    match local_vv k gf with
    | Some local -> Vvec.dominates_or_equal local vv
    | None -> false
  in
  if interested && (not current) && not (Gfile.Set.mem gf k.prop_pending) then begin
    k.prop_pending <- Gfile.Set.add gf k.prop_pending;
    Queue.add
      {
        pull_gf = gf;
        pull_vv = vv;
        pull_origin = origin;
        pull_modified = modified;
        pull_meta_only = meta_only;
        pull_deleted = deleted;
        pull_retries = max_retries;
        pull_not_before = now k;
      }
      k.prop_queue;
    Engine.schedule k.engine ~delay:k.config.propagation_delay (fun () ->
        service_queue k)
  end

(* Synchronously drain this kernel's propagation queue (used by recovery,
   which schedules update propagation as part of merge, and by the
   simulation's settle points). Retry backoff is ignored: drain's callers
   want the queue emptied now, attempting each item until it succeeds or
   runs out of retries. *)
let drain k =
  let guard = ref 0 in
  while (not (Queue.is_empty k.prop_queue)) && !guard < 1000 do
    incr guard;
    match Queue.take_opt k.prop_queue with
    | None -> ()
    | Some item -> service_item k item ~backoff:0.0
  done
