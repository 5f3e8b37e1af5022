(* Background update propagation (section 2.3.6).

   Propagation is done by *pulling*: a kernel process at each storage site
   services a queue of propagation requests. A pull internally opens the
   file at a site holding the latest version, issues standard read messages
   for all (or just the modified) pages, and commits locally through the
   standard shadow-page mechanism — so a pull interrupted by partition
   leaves a coherent, complete (if stale) copy. *)

open Ktypes
module Inode = Storage.Inode
module Pack = Storage.Pack
module Shadow = Storage.Shadow
module Page = Storage.Page
module Cache = Storage.Cache

(* Is [local] exactly the version [target] was derived from by one commit at
   [origin]? Then pulling just the modified pages is sufficient. *)
let one_commit_behind ~local ~target ~origin =
  Vvec.equal (Vvec.bump local origin) target

let local_vv k gf =
  match local_pack k gf.Gfile.fg with
  | None -> None
  | Some pack ->
    Pack.find_inode pack gf.Gfile.ino
    |> Option.map (fun (i : Inode.t) -> i.Inode.vv)

(* Tell the CSS that this site now stores [vv] (fresh=false: a completed
   propagation, not a new commit). *)
let report_to_css k gf vv ~deleted =
  let fi = fg_info k gf.Gfile.fg in
  if Site.equal fi.css_site k.site then
    Css.handle_commit_notify k gf ~origin:k.site ~vv ~deleted
  else
    notify k fi.css_site
      (Proto.Commit_notify
         { gf; vv; meta_only = false; modified = []; origin = k.site; fresh = false;
           deleted; designate = false; replicas = [] })

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
      (* A pull commits below the SS handlers, so it keeps the SS cache
         itself: nothing of a deleted file stays buffered. *)
      Cache.invalidate_if ~notify:false k.ss_cache (fun (g, _) -> Gfile.equal g gf);
      ss_dir_drop k gf;
      (* The file is gone and the inode may be reclaimed: drop both the
         links to it and any links read out of it. *)
      Namecache.invalidate_dir k.name_cache gf;
      Namecache.invalidate_child k.name_cache gf;
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

(* Pull the current version of [gf] from [source]. Uses the standard stat +
   page-read messages; charges disk costs through the normal paths. *)
let pull_from k pack gf ~source ~modified =
  match rpc k source (Proto.Stat_req { gf }) with
  | Proto.R_stat { info = Some info; _ } ->
    if info.Proto.i_deleted then begin
      apply_delete k pack gf ~vv:info.Proto.i_vv;
      true
    end
    else begin
      (* Make sure a local descriptor exists, then shadow in the data. *)
      (match Pack.find_inode pack gf.Gfile.ino with
      | Some _ -> ()
      | None ->
        let inode =
          Inode.create ~ino:gf.Gfile.ino ~ftype:info.Proto.i_ftype
            ~owner:info.Proto.i_owner
        in
        Pack.install_inode pack inode);
      let local = Pack.get_inode pack gf.Gfile.ino in
      if Vvec.dominates_or_equal local.Inode.vv info.Proto.i_vv then true
      else if Vvec.conflict local.Inode.vv info.Proto.i_vv then begin
        (* Concurrent versions: never overwrite — that would lose an
           update. Reconciliation (section 4) resolves it. *)
        record k ~tag:"prop.conflict" "%a" Gfile.pp gf;
        report_to_css k gf local.Inode.vv ~deleted:local.Inode.deleted;
        true
      end
      else begin
        let session = Shadow.begin_modify pack gf.Gfile.ino in
        let incore = Shadow.incore session in
        incore.Inode.ftype <- info.Proto.i_ftype;
        incore.Inode.owner <- info.Proto.i_owner;
        incore.Inode.perms <- info.Proto.i_perms;
        incore.Inode.nlink <- info.Proto.i_nlink;
        incore.Inode.deleted <- false;
        let npages = (info.Proto.i_size + Page.size - 1) / Page.size in
        let pages_to_pull =
          if
            modified <> []
            && one_commit_behind ~local:local.Inode.vv ~target:info.Proto.i_vv
                 ~origin:source
          then List.filter (fun p -> p < npages) modified
          else List.init npages Fun.id
        in
        (* Consecutive pages travel as one read of at most a window; only
           a request of two or more pages counts as a bulk pull. *)
        let cap = max 1 k.config.bulk_window in
        let fetch_run ~first ~count =
          let pages, _ = Ss.read_pages k source gf ~first ~count ~stride:1 ~guess:0 in
          if count > 1 then begin
            Sim.Stats.incr (stats k) "prop.bulk";
            Sim.Stats.add (stats k) "prop.bulk.pages" (List.length pages)
          end;
          pages
        in
        let ok = ref true in
        (try
           List.iter
             (fun (first, count) ->
               let pages = fetch_run ~first ~count in
               List.iteri
                 (fun i data ->
                   charge_disk_write k;
                   (* Rename the network buffer and send it to secondary
                      storage: no copy through an application space. *)
                   Shadow.write_page session ~lpage:(first + i) (Page.of_string data))
                 pages)
             (runs_of ~cap pages_to_pull);
           (* Exactly the source's size: write_page grew past a shrunk
              size, and a pure truncate at the source modified no page at
              all — either way the local copy must not keep a stale tail. *)
           Shadow.set_size session info.Proto.i_size;
           let replaced = Shadow.modified_lpages session in
           Shadow.commit session ~vv:info.Proto.i_vv ~mtime:info.Proto.i_mtime;
           ss_cache_carry k gf ~old_size:local.Inode.size ~size:info.Proto.i_size
             ~replaced;
           (* The pulled pages were written whole: no index of the old
              version describes them. *)
           ss_dir_drop k gf;
           (* The local copy just jumped versions: links cached from any
              other version of this directory are dead. *)
           Namecache.note_dir_vv k.name_cache ~dir:gf info.Proto.i_vv;
           record k ~tag:"prop.pull" "%a <- %a vv=%a (%d pages)" Gfile.pp gf Site.pp source
             Vvec.pp info.Proto.i_vv (List.length pages_to_pull)
         with Error _ ->
           Shadow.abort session;
           ok := false);
        if !ok then report_to_css k gf info.Proto.i_vv ~deleted:false;
        !ok
      end
    end
  | Proto.R_stat { info = None; _ } -> false
  | Proto.R_err _ -> false
  | _ -> false

(* One queued propagation request. Returns true when no retry is needed. *)
let attempt k gf target_vv modified =
  match local_pack k gf.Gfile.fg with
  | None -> true (* we do not store this filegroup after all *)
  | Some pack -> (
    match local_vv k gf with
    | Some vv when Vvec.dominates_or_equal vv target_vv -> true (* already current *)
    | Some _ | None -> (
      (* Find a source holding the latest version: ask the CSS. *)
      let fi = fg_info k gf.Gfile.fg in
      match rpc_result k fi.css_site (Proto.Where_stored { gf }) with
      | Ok (Proto.R_where { sites; _ }) -> (
        let sources =
          List.filter (fun s -> (not (Site.equal s k.site)) && in_partition k s) sites
        in
        match sources with
        | [] -> false
        | source :: _ -> pull_from k pack gf ~source ~modified)
      | Ok (Proto.R_err _) -> false
      | Ok _ -> false
      | Stdlib.Error _ -> false))

(* Attempt one queued item; a failure with retries left re-queues it, not
   to be retried before [backoff] ms from now. *)
let service_item k (gf, vv, modified, retries, _) ~backoff =
  k.prop_pending <- Gfile.Set.remove gf k.prop_pending;
  let done_ =
    if k.alive then begin
      try attempt k gf vv modified
      with Error (e, m) ->
        record k ~tag:"prop.fail" "%a %a: %s" Gfile.pp gf Proto.pp_errno e m;
        false
    end
    else false
  in
  if (not done_) && retries > 0 && k.alive then begin
    k.prop_pending <- Gfile.Set.add gf k.prop_pending;
    Queue.add (gf, vv, modified, retries - 1, now k +. backoff) k.prop_queue
  end

let earliest_retry k =
  Queue.fold (fun acc (_, _, _, _, nb) -> min acc nb) infinity k.prop_queue

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
        | Some ((_, _, _, _, nb) as item) ->
          if nb <= now k then Some item
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

(* Called when a commit notification arrives at a storage site. A site
   pulls only files it already stores — packs hold a subset of the
   filegroup — unless the notification designates it as an initial storage
   site for a new file. *)
let enqueue k gf ~vv ~modified ~designate =
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
    Queue.add (gf, vv, modified, 3, now k) k.prop_queue;
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
