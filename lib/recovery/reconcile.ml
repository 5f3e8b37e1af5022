(* Reconciliation after merge (section 4).

   The version-vector comparison of [PARK 83] classifies each file's copies
   within the new partition: equal (nothing to do), dominated (schedule
   update propagation), or concurrent (conflicting updates during
   partition). For conflicts the system applies the type-specific merge —
   directories by the rules of section 4.4, mailboxes by section 4.5 —
   and reports untyped conflicts to the owner by electronic mail, leaving
   the file marked so that normal access fails until resolved (4.6). *)

open Locus_core.Ktypes
module Kernel = Locus_core.Kernel
module Css = Locus_core.Css
module Ss = Locus_core.Ss
module Propagation = Locus_core.Propagation
module Dirops = Locus_core.Dirops
module Inode = Storage.Inode
module Page = Storage.Page
module Dir = Catalog.Dir
module Mbox = Catalog.Mailbox
module Site = Net.Site

type report = {
  mutable files_checked : int;
  mutable propagations : int;   (* stale copies scheduled for update propagation *)
  mutable dir_merges : int;
  mutable mail_merges : int;
  mutable manager_merges : int; (* resolved by a registered type manager (4.3) *)
  mutable conflicts_marked : int;
  mutable name_conflicts : int;
  mutable deletes_undone : int;
  mutable saved_from_delete : int;
  mutable mails_sent : int;
}

let empty_report () =
  {
    files_checked = 0;
    propagations = 0;
    dir_merges = 0;
    mail_merges = 0;
    manager_merges = 0;
    conflicts_marked = 0;
    name_conflicts = 0;
    deletes_undone = 0;
    saved_from_delete = 0;
    mails_sent = 0;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "checked=%d propagated=%d dir-merges=%d mail-merges=%d manager-merges=%d \
     conflicts=%d name-conflicts=%d deletes-undone=%d saved=%d mails=%d"
    r.files_checked r.propagations r.dir_merges r.mail_merges r.manager_merges
    r.conflicts_marked r.name_conflicts r.deletes_undone r.saved_from_delete
    r.mails_sent

(* ---- pluggable type-specific reconciliation (section 4.3) ----

   "If the system is not responsible for a given file type, it reflects
   the problem up to a higher level; to a recovery/merge manager if one
   exists for the given file type." Managers take the divergent contents
   (one per distinct version) and return the merged contents. *)

let merge_managers : (Storage.Inode.ftype, string list -> string) Hashtbl.t =
  Hashtbl.create 4

let register_merge_manager ftype f = Hashtbl.replace merge_managers ftype f

let unregister_merge_manager ftype = Hashtbl.remove merge_managers ftype

let merge_manager_for ftype = Hashtbl.find_opt merge_managers ftype

(* ---- copy access ---- *)

let fetch_info k site gf =
  match Ss.read_committed k site gf ~first:0 ~count:0 ~stat:true with
  | _, info -> info
  | exception Error _ -> None

(* A copy as reconciliation reads it: its committed inode, which came
   with the first window of its body, and the body, whose other windows
   are read when [body] is forced. *)
type copy = { info : Proto.inode_info; body : string option Lazy.t }

(* Read [site]'s committed copy of [gf] — never an open session's pages —
   in runs of at most a window of pages, through a propagation pull's
   read. The first run brings the inode back in place of a stat; [None]
   when it fails or comes back short. The body stops at the first failed
   or short request: the rest of it is not read. *)
let fetch_copy k site gf =
  let cap = max 1 k.config.bulk_window in
  let read ~npages ~first ~count ~stat =
    Propagation.read_run k site gf ~npages ~first ~count ~stat
  in
  match read ~npages:0 ~first:0 ~count:cap ~stat:true with
  | exception Error _ -> None
  | _, None -> None
  | head, Some info ->
    let npages = (info.Proto.i_size + Page.size - 1) / Page.size in
    let body =
      lazy
        (let buf = Buffer.create info.Proto.i_size in
         List.iter (Buffer.add_string buf) head;
         match
           List.iter
             (fun (first, count) ->
               List.iter (Buffer.add_string buf) (fst (read ~npages ~first ~count ~stat:false)))
             (Propagation.runs_of ~cap (List.init (max 0 (npages - cap)) (fun i -> cap + i)))
         with
         | () -> Some (Buffer.contents buf)
         | exception Error _ -> None)
    in
    Some { info; body }

let fetch_content k site gf = Option.bind (fetch_copy k site gf) (fun c -> Lazy.force c.body)

(* Push merged contents to [target] and commit with the exact merged
   version vector; then designate the other storing sites, which pull. *)
let write_version k ~target gf ~content ~vv ~others =
  let push () =
    Ss.write_run ~trunc:0 k target gf ~off:0 content;
    match
      rpc k target
        (Proto.Commit_req
           { gf; abort = false; delete = false; force_vv = Some vv; run = None })
    with
    | Proto.R_committed _ ->
      Dirops.designate k gf ~origin:target ~vv
        ~replicas:(List.filter (fun s -> not (Site.equal s target)) others);
      true
    | Proto.R_err _ | _ -> false
  in
  try push () with Error (Proto.Enet, _) -> false

(* ---- version classification ---- *)

(* Copies within the current partition, one representative site per
   distinct version. *)
let partition_copies k f =
  Site.Map.fold
    (fun site vv acc ->
      if in_partition k site then
        if List.exists (fun (_, v) -> Vvec.equal v vv) acc then acc
        else (site, vv) :: acc
      else acc)
    f.site_vv []

let maximal_versions copies =
  List.filter
    (fun (_, vv) ->
      not
        (List.exists
           (fun (_, other) ->
             (not (Vvec.equal vv other)) && Vvec.dominates_or_equal other vv)
           copies))
    copies

(* Schedule update propagation at every in-partition site whose copy is
   dominated by [vv]: designate each a storage site of [vv], which
   [origin] stores. *)
let schedule_propagation k gf ~vv ~origin f report =
  let stale =
    Site.Map.filter
      (fun site copy_vv ->
        in_partition k site && (not (Vvec.equal copy_vv vv)) && not (Site.equal site origin))
      f.site_vv
    |> Site.Map.bindings |> List.map fst
  in
  report.propagations <- report.propagations + List.length stale;
  Dirops.designate k gf ~origin ~vv ~replicas:stale

(* ---- notification by electronic mail (section 4.6) ---- *)

let notify_owner k ~owner ~subject report =
  let path = "/mail/" ^ owner in
  match Kernel.mailbox_deliver k ~path ~from:"recovery" ~body:subject with
  | () -> report.mails_sent <- report.mails_sent + 1
  | exception Error _ -> ()

(* ---- directory merge (section 4.4) ---- *)

(* Has the file been modified since [since]? Interrogates the inode at any
   in-partition site storing it (rules 2b/2d). *)
let modified_since k fg ino ~since =
  match Css.find_file k fg ino with
  | None -> false
  | Some f ->
    Site.Map.exists
      (fun site _ ->
        in_partition k site
        &&
        match fetch_info k site (Gfile.make ~fg ~ino) with
        | Some info -> (not info.Proto.i_deleted) && info.Proto.i_mtime > since
        | None -> false)
      f.site_vv

let fetch_owner k fg ino =
  match Css.find_file k fg ino with
  | None -> None
  | Some f ->
    Site.Map.fold
      (fun site _ acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if in_partition k site then
            fetch_info k site (Gfile.make ~fg ~ino)
            |> Option.map (fun i -> i.Proto.i_owner)
          else None)
      f.site_vv None

let merge_two_dirs k fg a b report =
  let out = Dir.empty () in
  let names =
    List.map (fun (e : Dir.entry) -> e.Dir.name) (Dir.all_entries a)
    @ List.map (fun (e : Dir.entry) -> e.Dir.name) (Dir.all_entries b)
    |> List.sort_uniq String.compare
  in
  let put (e : Dir.entry) =
    match e.Dir.status with
    | Dir.Live ->
      Dir.insert out ~name:e.Dir.name ~ino:e.Dir.ino ~ftype:e.Dir.ftype ~stamp:e.Dir.stamp
        ~origin:e.Dir.origin
    | Dir.Tombstone ->
      Dir.insert out ~name:e.Dir.name ~ino:e.Dir.ino ~ftype:e.Dir.ftype ~stamp:e.Dir.stamp
        ~origin:e.Dir.origin;
      ignore (Dir.remove out ~name:e.Dir.name ~stamp:e.Dir.stamp ~origin:e.Dir.origin)
  in
  List.iter
    (fun name ->
      match (Dir.find_entry a name, Dir.find_entry b name) with
      | None, None -> ()
      | Some e, None | None, Some e ->
        (* Rule 2a/2b: present in one only — propagate the entry or the
           delete, unless the data changed after the delete. *)
        (match e.Dir.status with
        | Dir.Tombstone when modified_since k fg e.Dir.ino ~since:e.Dir.stamp ->
          report.deletes_undone <- report.deletes_undone + 1;
          Dir.insert out ~name ~ino:e.Dir.ino ~ftype:e.Dir.ftype ~stamp:e.Dir.stamp
            ~origin:e.Dir.origin
        | Dir.Tombstone | Dir.Live -> put e)
      | Some ea, Some eb -> (
        match (ea.Dir.status, eb.Dir.status) with
        | Dir.Live, Dir.Live when ea.Dir.ino <> eb.Dir.ino ->
          (* Rule 1: a name conflict. Both names are slightly altered to be
             distinguished and the owners are notified by mail. *)
          report.name_conflicts <- report.name_conflicts + 1;
          let alter (e : Dir.entry) =
            Dir.insert out ~name:(Dir.conflict_name name ~ino:e.Dir.ino) ~ino:e.Dir.ino
              ~ftype:e.Dir.ftype ~stamp:e.Dir.stamp ~origin:e.Dir.origin
          in
          alter ea;
          alter eb;
          (match fetch_owner k fg ea.Dir.ino with
          | Some owner ->
            notify_owner k ~owner
              ~subject:(Printf.sprintf "name conflict on '%s' in filegroup %d" name fg)
              report
          | None -> ())
        | Dir.Live, Dir.Live ->
          put (if ea.Dir.stamp >= eb.Dir.stamp then ea else eb)
        | Dir.Tombstone, Dir.Tombstone ->
          put (if ea.Dir.stamp >= eb.Dir.stamp then ea else eb)
        | Dir.Live, Dir.Tombstone | Dir.Tombstone, Dir.Live ->
          (* Rule 2d: one delete, one live entry: interrogate the inode; if
             the data was modified since the delete, undo the delete. *)
          let live, dead =
            if ea.Dir.status = Dir.Live then (ea, eb) else (eb, ea)
          in
          if live.Dir.stamp > dead.Dir.stamp then put live
          else if modified_since k fg live.Dir.ino ~since:dead.Dir.stamp then begin
            report.deletes_undone <- report.deletes_undone + 1;
            put live
          end
          else put dead))
    names;
  out

(* ---- per-file reconciliation ---- *)

let merged_vv k versions = Vvec.bump (List.fold_left Vvec.merge Vvec.zero versions) k.site

let in_partition_sites k f =
  Site.Map.fold
    (fun site _ acc -> if in_partition k site then site :: acc else acc)
    f.site_vv []
  |> List.sort Site.compare

(* Resolve concurrent versions of one file according to its type. *)
let resolve_conflict k gf f copies report =
  let fg = gf.Gfile.fg in
  let fetched =
    List.filter_map (fun (site, _) -> Option.map (fun c -> (site, c)) (fetch_copy k site gf)) copies
  in
  match fetched with
  | [] -> ()
  | (site0, { info = info0; _ }) :: _ ->
    let vv = merged_vv k (List.map snd copies) in
    let others = in_partition_sites k f in
    let commit_merged ~target content =
      if write_version k ~target gf ~content ~vv ~others then begin
        f.latest_vv <- vv;
        f.site_vv <- Site.Map.add target vv f.site_vv;
        f.css_conflict <- false;
        f.css_deleted <- false
      end
    in
    (* Untyped conflict: mark the file (normal access fails) and tell the
       owner by mail; a tool or the user reconciles interactively. *)
    let mark_conflict () =
      f.css_conflict <- true;
      report.conflicts_marked <- report.conflicts_marked + 1;
      (match fetch_owner k fg gf.Gfile.ino with
      | Some owner ->
        notify_owner k ~owner
          ~subject:
            (Printf.sprintf "update conflict on %s (%d versions)" (Gfile.to_string gf)
               (List.length copies))
          report
      | None -> ());
      record k ~tag:"recon.conflict" "%a" Gfile.pp gf
    in
    (* A file deleted in one partition but modified in another wants to be
       saved (section 4.4): prefer a live copy as merge basis. *)
    let live = List.filter (fun (_, c) -> not c.info.Proto.i_deleted) fetched in
    let deleted_involved = List.length live < List.length fetched in
    (* Directories and mailboxes merge decoded copies. A copy that does
       not decode is left out of the merge, not merged as if it were
       empty (which would drop its entries or its mail); when no copy
       decodes there is nothing to merge and the file is marked like an
       untyped conflict. *)
    let merge_decoded ~what decode merge =
      let tag = Printf.sprintf "recon.%s.undecodable" what in
      let decoded =
        List.filter_map
          (fun (site, c) ->
            Lazy.force c.body
            |> Option.map (fun body ->
                   match decode body with
                   | v -> Some v
                   | exception Failure _ ->
                     Sim.Stats.incr (stats k) tag;
                     record k ~tag "%a at %a" Gfile.pp gf Site.pp site;
                     None))
          (if live <> [] then live else fetched)
      in
      match (decoded, List.filter_map Fun.id decoded) with
      | [], _ -> ()
      | _ :: _, [] -> mark_conflict ()
      | _, first :: rest -> merge first rest
    in
    match info0.Proto.i_ftype with
    | Inode.Directory | Inode.Hidden_directory ->
      merge_decoded ~what:"dir" Dir.decode (fun first rest ->
          let merged =
            List.fold_left (fun acc d -> merge_two_dirs k fg acc d report) first rest
          in
          report.dir_merges <- report.dir_merges + 1;
          commit_merged ~target:site0 (Dir.encode merged);
          record k ~tag:"recon.dir" "%a" Gfile.pp gf)
    | Inode.Mailbox ->
      merge_decoded ~what:"mail" Mbox.decode (fun first rest ->
          let merged = List.fold_left Mbox.merge first rest in
          report.mail_merges <- report.mail_merges + 1;
          commit_merged ~target:site0 (Mbox.encode merged);
          record k ~tag:"recon.mail" "%a" Gfile.pp gf)
    | Inode.Regular | Inode.Database | Inode.Fifo ->
      if deleted_involved && live <> [] then begin
        (* Delete/modify conflict: save the modified copy. *)
        let site, c = List.hd live in
        match Lazy.force c.body with
        | Some content ->
          report.saved_from_delete <- report.saved_from_delete + 1;
          commit_merged ~target:site content;
          record k ~tag:"recon.saved" "%a" Gfile.pp gf
        | None -> ()
      end
      else begin
        match merge_manager_for info0.Proto.i_ftype with
        | Some manager -> (
          (* A higher-level manager (e.g. a database manager) reconciles
             the divergent versions itself. *)
          let contents = List.filter_map (fun (_, c) -> Lazy.force c.body) fetched in
          match contents with
          | [] -> ()
          | _ :: _ ->
            let merged = manager contents in
            report.manager_merges <- report.manager_merges + 1;
            commit_merged ~target:site0 merged;
            record k ~tag:"recon.manager" "%a" Gfile.pp gf)
        | None -> mark_conflict ()
      end

(* Reconcile one file (also the entry point for demand recovery: a
   particular directory can be reconciled out of order, section 4.4).

   Directories and mailboxes go through the type-specific merge whenever
   their copies differ at all — not only on version conflict — because
   rule 2b can resurrect a deleted entry when the *file* it names was
   modified in the other partition, which plain propagation of a dominating
   directory version would lose. The type is the CSS's own record, seeded
   from the pack inventories by the lock-table rebuild that runs before
   reconciliation, so no copy is asked for it. *)
let reconcile_file k gf report =
  match Css.find_file k gf.Gfile.fg gf.Gfile.ino with
  | None -> ()
  | Some f ->
    report.files_checked <- report.files_checked + 1;
    let copies = partition_copies k f in
    match copies with
    | [] | [ _ ] -> () (* absent or a single version: nothing to reconcile *)
    | _ :: _ :: _ -> (
      match f.css_ftype with
      | Inode.Directory | Inode.Hidden_directory | Inode.Mailbox ->
        resolve_conflict k gf f copies report
      | Inode.Regular | Inode.Database | Inode.Fifo -> (
        match maximal_versions copies with
        | [] -> ()
        | [ (origin, vv) ] ->
          if not (Vvec.dominates_or_equal f.latest_vv vv) then f.latest_vv <- vv;
          schedule_propagation k gf ~vv ~origin f report
        | concurrent -> resolve_conflict k gf f concurrent report))

(* Reconcile every file of a filegroup; the caller is the filegroup's CSS. *)
let reconcile_fg k fg =
  let report = empty_report () in
  let files =
    match Hashtbl.find_opt k.css_state fg with
    | None -> []
    | Some st -> Hashtbl.fold (fun ino _ acc -> ino :: acc) st.css_files []
  in
  List.iter
    (fun ino -> reconcile_file k (Gfile.make ~fg ~ino) report)
    (List.sort Int.compare files);
  report

(* Interactive resolution of a marked conflict: keep the copy stored at
   [winner]; everyone else pulls the merged version. *)
let resolve_manual k gf ~winner =
  match Css.find_file k gf.Gfile.fg gf.Gfile.ino with
  | None -> false
  | Some f -> (
    match fetch_content k winner gf with
    | None -> false
    | Some content ->
      let versions = List.map snd (partition_copies k f) in
      let vv = merged_vv k versions in
      let ok =
        write_version k ~target:winner gf ~content ~vv ~others:(in_partition_sites k f)
      in
      if ok then begin
        f.latest_vv <- vv;
        f.site_vv <- Site.Map.add winner vv f.site_vv;
        f.css_conflict <- false
      end;
      ok)
