(* Current Synchronization Site logic (section 2.3.1).

   All open requests for a filegroup's files flow through its CSS, which
   enforces the global synchronization policy (single open-for-modification,
   any number of readers), knows which sites store each file and what the
   most current version vector is, and selects the storage site that will
   serve each open. *)

open Ktypes
module Inode = Storage.Inode
module Pack = Storage.Pack

let fg_state k fg =
  match Hashtbl.find_opt k.css_state fg with
  | Some s -> s
  | None ->
    let s = { css_files = Hashtbl.create (table_size k.net) } in
    Hashtbl.add k.css_state fg s;
    s

let is_css k fg = Hashtbl.mem k.css_state fg || (fg_info k fg).css_site = k.site

let new_file_state () =
  {
    latest_vv = Vvec.zero;
    site_vv = Site.Map.empty;
    readers = Site.Map.empty;
    writer = None;
    writer_ss = None;
    css_deleted = false;
    css_conflict = false;
    css_ftype = Inode.Regular;
    leases = [];
  }

let find_file k fg ino = Hashtbl.find_opt (fg_state k fg).css_files ino

let get_file k fg ino =
  let st = fg_state k fg in
  match Hashtbl.find_opt st.css_files ino with
  | Some f -> f
  | None ->
    let f = new_file_state () in
    (* Seed from the local pack if this CSS stores the file itself. *)
    (match local_pack k fg with
    | Some pack -> (
      match Pack.find_inode pack ino with
      | Some inode ->
        f.latest_vv <- inode.Inode.vv;
        f.site_vv <- Site.Map.add k.site inode.Inode.vv f.site_vv;
        f.css_deleted <- inode.Inode.deleted;
        f.css_ftype <- inode.Inode.ftype
      | None -> ())
    | None -> ());
    Hashtbl.add st.css_files ino f;
    f

(* Update the record of which version [site] stores. Notifications can be
   delivered out of order, so the per-site record only moves forward. *)
let update_site_vv f ~site ~vv =
  let keep_old =
    match Site.Map.find_opt site f.site_vv with
    | Some prev -> Vvec.dominates_or_equal prev vv && not (Vvec.equal prev vv)
    | None -> false
  in
  if not keep_old then f.site_vv <- Site.Map.add site vv f.site_vv

(* Record (at CSS creation or after a merge) that [site] stores version
   [vv] of the file, whose type is [ftype]. *)
let seed_copy k gf ~site ~vv ~ftype ~deleted =
  let f = get_file k gf.Gfile.fg gf.Gfile.ino in
  update_site_vv f ~site ~vv;
  f.css_ftype <- ftype;
  if Vvec.conflict vv f.latest_vv then f.css_conflict <- true
  else if not (Vvec.dominates_or_equal f.latest_vv vv) then f.latest_vv <- vv;
  if deleted then f.css_deleted <- true

(* Whether every pack of [fg] is in this partition. A CSS rebuilt in a
   partition knows only the members' copies: while a pack is away, a file
   may be stored there though the CSS knows no copy of it. *)
let all_packs_here k fg = List.for_all (in_partition k) (fg_info k fg).pack_sites

(* The reachable sites whose copy of [f] is at a version [keep] accepts. *)
let sites_at k f keep =
  Site.Map.fold
    (fun site vv acc -> if keep vv && in_partition k site then site :: acc else acc)
    f.site_vv []
  |> List.sort Site.compare

let sites_with_latest k f = sites_at k f (fun vv -> Vvec.dominates_or_equal vv f.latest_vv)

(* The sites a commit of [f] notifies: those holding the latest version,
   and every reachable designated initial storage site of a new file that
   has not reported a copy yet (it is at [Vvec.zero]). Such a site may
   already have installed the designated version and only its report be
   in flight: left out, it would miss the creator's first write. It is
   never a candidate storage site. *)
let sites_to_notify k f =
  sites_at k f (fun vv -> Vvec.dominates_or_equal vv f.latest_vv || Vvec.equal vv Vvec.zero)

(* The reachable designated sites of each live file of [fg] that have not
   reported a copy, by inode. *)
let unreported k fg =
  match Hashtbl.find_opt k.css_state fg with
  | None -> []
  | Some st ->
    Hashtbl.fold
      (fun ino f acc ->
        match sites_at k f (Vvec.equal Vvec.zero) with
        | _ :: _ as sites when not f.css_deleted -> (ino, sites) :: acc
        | _ -> acc)
      st.css_files []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Ask a candidate site whether it will act as SS. The version check — a
   site refuses if it does not store the latest version — happens at the
   candidate against the vv we send (section 2.3.3). *)
let poll_storage_site k ~gf ~vv ~us ~mode ~others candidate =
  match
    rpc_result k candidate (Proto.Storage_req { gf; vv; us; mode; others })
  with
  | Ok (Proto.R_storage { accept = true; info = Some info; slot }) -> Some (info, slot)
  | Ok (Proto.R_storage _ | Proto.R_err _) -> None
  | Ok _ -> None
  | Stdlib.Error _ -> None

let local_info k gf =
  match local_pack k gf.Gfile.fg with
  | None -> None
  | Some pack ->
    Pack.find_inode pack gf.Gfile.ino |> Option.map Proto.info_of_inode

let lease_config_on k = k.config.open_lease_entries > 0

let count_reader f us =
  let n = match Site.Map.find_opt us f.readers with Some n -> n | None -> 0 in
  f.readers <- Site.Map.add us (n + 1) f.readers

let uncount_reader f us =
  match Site.Map.find_opt us f.readers with
  | None -> ()
  | Some 1 -> f.readers <- Site.Map.remove us f.readers
  | Some n -> f.readers <- Site.Map.add us (n - 1) f.readers

(* The CSS half of a read close: the reader goes, and with no reader and
   no writer left, so does the single SS. *)
let close_reader f us =
  uncount_reader f us;
  if Site.Map.is_empty f.readers && f.writer = None then f.writer_ss <- None

(* Break every outstanding read lease on a file: a writer opened, the
   version advanced, a conflict or delete was recorded. The break is the
   grant's close. The CSS releases each grant here, at once: its reader
   count, and its SS registration when this site serves it, so that SS
   sends the holder no more page invalidations. Each holder then hears of
   it by an acknowledged [Lease_break] naming the grant, sent from a
   zero-delay event so the open that broke it does not wait; a loss is
   resent by the transport. A holder here kills its grant at once. *)
let break_leases k gf (f : css_file) =
  match f.leases with
  | [] -> ()
  | grants ->
    f.leases <- [];
    record k ~tag:"css.lease.break" "%a -> [%a]" Gfile.pp gf pp_sites
      (List.map (fun g -> g.g_holder) grants);
    let breaks =
      List.filter_map
        (fun g ->
          close_reader f g.g_holder;
          let closed = Site.equal g.g_ss k.site in
          (if closed then
             match ss_find_open k gf with
             | Some s -> ss_end k s ~us:g.g_holder ~opens:1 ~writes:0
             | None -> ());
          if Site.equal g.g_holder k.site then begin
            record k ~tag:"us.lease.breakcb" "%a" Gfile.pp gf;
            Coherence.lease_broken k gf ~id:g.g_id ~closed;
            None
          end
          else Some (g.g_holder, Proto.Lease_break { gf; id = g.g_id; closed }))
        grants
    in
    if breaks <> [] then
      Engine.schedule k.engine ~delay:0.0 (fun () ->
          List.iter
            (fun (h, req) -> if k.alive && in_partition k h then ignore (rpc_result k h req))
            breaks)

let holds_grant f id = List.exists (fun g -> g.g_id = id) f.leases

(* Whether a close naming [grant] on [gf] comes too late to this site, the
   CSS: the grant's break released it already, and its SS registration
   with it, since the grant's SS is the site its close goes to. *)
let grant_broken k gf ~grant =
  grant <> 0 && is_css k gf.Gfile.fg
  &&
  match find_file k gf.Gfile.fg gf.Gfile.ino with
  | Some f -> not (holds_grant f grant)
  | None -> true

(* The CSS half of the open protocol. Returns R_open { ss; info } or an
   error. Implements both optimizations of section 2.3.3: the US's own copy
   is used when it is current (with no [info]: the US has its own inode),
   and the CSS picks itself without message overhead when it stores the
   latest version. *)
let handle_open k ~src gf mode ~shared us_vv =
  let fg = gf.Gfile.fg and ino = gf.Gfile.ino in
  if not (is_css k fg) then Proto.R_err Proto.Estale
  else begin
    let f = get_file k fg ino in
    if f.css_deleted then Proto.R_err Proto.Enoent
    else if f.css_conflict && mode <> Proto.Mode_internal then
      Proto.R_err Proto.Econflict
    else if Site.Map.is_empty f.site_vv then
      Proto.R_err (if all_packs_here k fg then Proto.Enoent else Proto.Enet)
    else begin
      match mode with
      | Proto.Mode_modify when f.writer <> None && not shared -> Proto.R_err Proto.Ebusy
      | Proto.Mode_read | Proto.Mode_internal | Proto.Mode_modify ->
        let candidates = sites_with_latest k f in
        if candidates = [] then Proto.R_err Proto.Enet
        else begin
          let notified = sites_to_notify k f in
          let others ss = List.filter (fun s -> not (Site.equal s ss)) notified in
          let poll ss =
            poll_storage_site k ~gf ~vv:f.latest_vv ~us:src ~mode
              ~others:(others ss) ss
            |> Option.map (fun (info, slot) -> (ss, Some info, slot))
          in
          let us_is_current =
            match us_vv with
            | Some vv -> Vvec.dominates_or_equal vv f.latest_vv
            | None -> false
          in
          (* Optimization 2 of section 2.3.3: the CSS stores the latest
             version itself — select it with no message overhead,
             registering the serving state a Storage_req would have. In
             process, not a Storage_req to itself: it needs no storage
             poll and no disk read. *)
          let css_self () =
            match local_info k gf with
            | Some info
              when List.mem k.site candidates
                   && Vvec.dominates_or_equal info.Proto.i_vv f.latest_vv ->
              let s = ss_register k gf ~us:src ~mode in
              s.s_others <- others k.site;
              Some (k.site, Some info, s.s_slot)
            | Some _ | None -> None
          in
          let choice =
            (* While a writer is active only one storage site may be
               involved (section 2.3.6 footnote): every open is directed to
               writer_ss. *)
            match f.writer_ss with
            | Some ss when List.mem ss candidates -> poll ss
            | Some _ | None ->
              if us_is_current then
                (* Optimization 1: the US stores the latest version; pick it
                   with no storage poll. The US reads its own inode and
                   registers the open itself. *)
                Some (src, None, 0)
              else begin
                match css_self () with
                | Some x -> Some x
                | None ->
                  let rec try_sites = function
                    | [] -> None
                    | c :: rest -> (
                      match poll c with Some x -> Some x | None -> try_sites rest)
                  in
                  try_sites candidates
              end
          in
          match choice with
          | None -> Proto.R_err Proto.Enet
          | Some (ss, info, slot) ->
            let lease =
              (* Grant a revocable read lease when nothing threatens the
                 version the grant names: no writer, no conflict, not a
                 shared-descriptor open (the offset token serializes
                 those; their opens must revalidate). *)
              match mode with
              | Proto.Mode_read | Proto.Mode_internal ->
                lease_config_on k && (not shared) && f.writer = None
                && not f.css_conflict
              | Proto.Mode_modify -> false
            in
            let id =
              if lease then begin
                let id = k.next_grant in
                k.next_grant <- id + 1;
                id
              end
              else 0
            in
            (match mode with
            | Proto.Mode_modify ->
              if f.writer = None then f.writer <- Some src;
              f.writer_ss <- Some ss;
              (* A writer exists: no outstanding lease may keep serving
                 zero-message re-opens of the now-mutable file. *)
              break_leases k gf f
            | Proto.Mode_read | Proto.Mode_internal ->
              count_reader f src;
              if lease then f.leases <- { g_holder = src; g_id = id; g_ss = ss } :: f.leases);
            record k ~tag:"css.open" "%a %a by %a -> ss %a" Gfile.pp gf Proto.pp_mode mode
              Site.pp src Site.pp ss;
            Proto.R_open
              {
                ss;
                info;
                others = others ss;
                nocache = f.writer <> None;
                slot;
                lease = id;
                pages = [];
              }
        end
    end
  end

(* ---- directory intents: the CSS's locks and choices ---- *)

(* Take [gf]'s modification lock for a directory intent of [us], exactly as
   a modify open would: refused while another holds it, and every read
   lease on the file is broken. [Ok] carries the file's state, whose
   [writer] the caller clears before it replies. *)
let lock k gf ~us =
  let f = get_file k gf.Gfile.fg gf.Gfile.ino in
  if f.css_deleted || Site.Map.is_empty f.site_vv then Stdlib.Error Proto.Enoent
  else if f.css_conflict then Stdlib.Error Proto.Econflict
  else if f.writer <> None then Stdlib.Error Proto.Ebusy
  else begin
    f.writer <- Some us;
    break_leases k gf f;
    Ok f
  end

(* Whether this site's own copy is at [f]'s latest version. *)
let holds_latest k gf f =
  match local_info k gf with
  | Some info ->
    Vvec.dominates_or_equal info.Proto.i_vv f.latest_vv
    && List.mem k.site (sites_with_latest k f)
  | None -> false

(* The storage site that runs an intent's work on [gf]: this site when it
   holds the latest copy (no message), otherwise the first reachable site
   that does. *)
let intent_site k gf f =
  if holds_latest k gf f then Some k.site
  else match sites_with_latest k f with s :: _ -> Some s | [] -> None

(* Initial storage-site selection for a new file (section 2.3.7):
   a. all storage sites must store the parent directory;
   b. the creating (using) site is used first if possible;
   c. then the parent directory's site order, inaccessible sites last. *)
let initial_storage_sites k ~us ~parent_sites ~ncopies =
  let accessible, inaccessible =
    List.partition (fun s -> in_partition k s) parent_sites
  in
  let ordered =
    if List.mem us accessible then
      us :: List.filter (fun s -> not (Site.equal s us)) accessible
    else accessible
  in
  let ordered = ordered @ inaccessible in
  List.filteri (fun i _ -> i < ncopies) ordered

(* What a storage site [ss] that is not this CSS must be told before it
   runs a counted unlink, whose inode only it can find: the inodes whose
   unlink must fail (a held modification lock, a conflict), and those
   whose latest copy it does not hold, so it leaves their link count to
   the CSS. *)
let unlink_fences k fg ~ss =
  Hashtbl.fold
    (fun ino f (refuse, stale) ->
      let refuse =
        if f.writer <> None then (ino, Proto.Ebusy) :: refuse
        else if f.css_conflict then (ino, Proto.Econflict) :: refuse
        else refuse
      in
      let stale =
        match Site.Map.find_opt ss f.site_vv with
        | Some vv when not (Vvec.dominates_or_equal vv f.latest_vv) -> ino :: stale
        | Some _ when f.css_deleted -> ino :: stale
        | Some _ | None -> stale
      in
      (refuse, stale))
    (fg_state k fg).css_files ([], [])

(* SS -> CSS leg of the close protocol. A close naming a grant releases
   that grant, and nothing when the grant's break already did. *)
let handle_ss_close k gf ~us ~mode ~grant =
  let fg = gf.Gfile.fg in
  if not (is_css k fg) then Proto.R_err Proto.Estale
  else begin
    match find_file k fg gf.Gfile.ino with
    | None -> Proto.R_ok
    | Some f ->
      (match mode with
      | Proto.Mode_modify ->
        if f.writer = Some us then begin
          f.writer <- None;
          if Site.Map.is_empty f.readers then f.writer_ss <- None
        end
      | Proto.Mode_read | Proto.Mode_internal ->
        if grant = 0 then close_reader f us
        else if holds_grant f grant then begin
          f.leases <- List.filter (fun g -> g.g_id <> grant) f.leases;
          close_reader f us
        end);
      Proto.R_ok
  end

(* Reclaim check: once every storing site has seen a delete, and no pack
   that may store a copy the CSS does not know of is away, tell them all
   to release the inode number for reallocation (section 2.3.7). *)
let maybe_reclaim k gf f =
  if f.css_deleted then begin
    let all_seen =
      Site.Map.for_all (fun _ vv -> Vvec.dominates_or_equal vv f.latest_vv) f.site_vv
    in
    if all_seen && all_packs_here k gf.Gfile.fg then begin
      Site.Map.iter (fun site _ -> notify k site (Proto.Reclaim_req { gf })) f.site_vv;
      Hashtbl.remove (fg_state k gf.Gfile.fg).css_files gf.Gfile.ino;
      record k ~tag:"css.reclaim" "%a" Gfile.pp gf
    end
  end

(* The reclaim check over every deleted file of [fg], for a CSS that has
   just rebuilt its tables: a delete every copy saw before the rebuild
   draws no further notification. The files are collected first, since a
   reclaim removes its entry from the table. *)
let reclaim_deleted k fg =
  Hashtbl.fold
    (fun ino f acc -> if f.css_deleted then (ino, f) :: acc else acc)
    (fg_state k fg).css_files []
  |> List.iter (fun (ino, f) -> maybe_reclaim k (Gfile.make ~fg ~ino) f)

(* Commit notification bookkeeping at the CSS. *)
let handle_commit_notify ?(replicas = []) k gf ~origin ~vv ~deleted =
  if is_css k gf.Gfile.fg then begin
    let f = get_file k gf.Gfile.fg gf.Gfile.ino in
    update_site_vv f ~site:origin ~vv;
    (* Designated initial storage sites count as (stale) copy holders
       right away, so replication factors are honoured even before their
       background pulls complete. *)
    List.iter
      (fun r ->
        if not (Site.Map.mem r f.site_vv) then
          f.site_vv <- Site.Map.add r Vvec.zero f.site_vv)
      replicas;
    let advanced = not (Vvec.dominates_or_equal f.latest_vv vv) in
    if Vvec.conflict vv f.latest_vv then f.css_conflict <- true
    else if advanced then f.latest_vv <- vv;
    if deleted then f.css_deleted <- true;
    (* A new latest version, a conflict, or a delete: every lease granted
       on the superseded version is dead — break by callback before any
       holder can serve another zero-message re-open of stale state. *)
    if advanced || f.css_conflict || deleted then break_leases k gf f;
    maybe_reclaim k gf f
  end

(* Which sites hold the latest version. A [stat] query is also answered
   with this site's own inode when its copy is the latest, at the disk
   read a stat costs at a storage site. *)
let handle_where k gf ~stat =
  match find_file k gf.Gfile.fg gf.Gfile.ino with
  | None -> Proto.R_err Proto.Enoent
  | Some f ->
    let info =
      if stat && holds_latest k gf f then begin
        charge_disk_read k;
        local_info k gf
      end
      else None
    in
    Proto.R_where { sites = sites_with_latest k f; info }

(* Lock-table contents for a rebuilding CSS (section 5.6). *)
let handle_open_files_query k fg =
  let files = ref [] in
  Hashtbl.iter
    (fun _ (o : ofile) ->
      if Int.equal o.o_gf.Gfile.fg fg && not o.o_closed then
        files := (o.o_gf.Gfile.ino, o.o_mode, k.site) :: !files)
    k.open_files;
  Proto.R_open_files { files = !files }

(* Re-register an open reported by a member site during lock-table rebuild
   (section 5.6). *)
let register_open k fg (ino, mode, site) =
  let f = get_file k fg ino in
  match mode with
  | Proto.Mode_modify -> if f.writer = None then f.writer <- Some site
  | Proto.Mode_read | Proto.Mode_internal -> count_reader f site

(* Drop all CSS state for a filegroup (this site lost the CSS role). *)
let drop_fg k fg = Hashtbl.remove k.css_state fg

let mark_conflict k gf =
  let f = get_file k gf.Gfile.fg gf.Gfile.ino in
  f.css_conflict <- true;
  break_leases k gf f

let clear_conflict k gf =
  match find_file k gf.Gfile.fg gf.Gfile.ino with
  | Some f -> f.css_conflict <- false
  | None -> ()
