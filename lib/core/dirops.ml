(* Directory updates, file creation and deletion (sections 2.3.4, 2.3.7).

   Every name-space change — a create, an unlink, a link, each half of a
   rename — is one intent: the using site sends one request to the
   filegroup's CSS, which serializes it under the directory's modification
   lock and has one storage site change the directory record and commit,
   as one atomic directory modification. Directory interrogation never
   sees an inconsistent picture. Creation chooses initial storage sites
   with the paper's algorithm: storage sites of the parent directory, the
   creating site first, inaccessible sites last. *)

open Ktypes
module Inode = Storage.Inode
module Pack = Storage.Pack
module Dir = Catalog.Dir

(* ---- the CSS's half ---- *)

(* Count [replicas] as copies of [gf] not yet reported, and designate
   each a storage site of version [vv], which [origin] stores: each
   installs [carried] on arrival or pulls a first copy from [origin]. *)
let designate ?carried k gf ~origin ~vv ~replicas =
  Css.handle_commit_notify ~replicas k gf ~origin ~vv ~deleted:false;
  let message =
    Ss.commit_message ?carried ~origin ~designate:true k gf ~vv ~modified:[] ~deleted:false
      ~meta_only:false
  in
  List.iter (fun site -> notify k site message) replicas

(* Register a new file, whose inode [origin] built with [Inode.fresh] at
   version [vv] and time [mtime], with this CSS, and designate its other
   initial storage sites (section 2.3.7). Above a window of 1 the
   designation carries that inode, and each site installs it on arrival;
   at window 1 each pulls a first copy from [origin]. Runs once the
   file's name has been entered. *)
let register_file k gf ~origin ~vv ~sites ~ftype ~owner ~perms ~mtime =
  let carried =
    if k.config.bulk_window > 1 then
      let inode = Inode.fresh ~ino:gf.Gfile.ino ~ftype ~owner ~perms ~vv ~mtime in
      Some (Proto.info_of_inode inode, [])
    else None
  in
  designate ?carried k gf ~origin ~vv
    ~replicas:(List.filter (fun s -> not (Site.equal s origin)) sites)

(* Designate again, once this CSS has rebuilt [fg]'s tables from the
   members' inventories, each site of [unreported] (a [Css.unreported]
   list taken before the membership changed) that is still a member and
   stores no copy: its designation or its pull was lost. It pulls the
   latest version from a site that holds it. *)
let redesignate k fg unreported =
  List.iter
    (fun (ino, sites) ->
      match Css.find_file k fg ino with
      | Some f when not f.css_deleted -> (
        let replicas =
          List.filter (fun s -> in_partition k s && not (Site.Map.mem s f.site_vv)) sites
        in
        match Css.sites_with_latest k f with
        | origin :: _ when replicas <> [] ->
          designate k (Gfile.make ~fg ~ino) ~origin ~vv:f.latest_vv ~replicas
        | _ -> ())
      | Some _ | None -> ())
    unreported

(* Record a link-count change of [gf] that [fss] committed, and tell the
   other sites the CSS lists for its commits, as a commit does: with the
   changed inode when [fss] is this site. *)
let links_changed k gf (f : css_file) ~fss ~vv ~deleted =
  let others = List.filter (fun s -> not (Site.equal s fss)) (Css.sites_to_notify k f) in
  Css.handle_commit_notify k gf ~origin:fss ~vv ~deleted;
  if Site.equal fss k.site then
    Ss.notify_others k gf ~vv ~modified:[] ~deleted ~meta_only:(not deleted) others
  else
    let message =
      Ss.commit_message ~origin:fss k gf ~vv ~modified:[] ~deleted ~meta_only:(not deleted)
    in
    List.iter (fun site -> notify k site message) others

(* Change the link count of [gf] at the site holding its latest copy, when
   the site that changed the directory could not. [None] when no copy is
   known to drop a link of. *)
let change_links_at k ~us gf ~delta =
  let f = Css.get_file k gf.Gfile.fg gf.Gfile.ino in
  if f.css_deleted || Site.Map.is_empty f.site_vv then None
  else
    match Css.intent_site k gf f with
    | None -> err Proto.Enet "no reachable copy of %a to change its links" Gfile.pp gf
    | Some fss ->
      let vv, deleted = rpc k fss (Proto.Intent_step { us; step = Proto.Step_link { gf; delta } }) in
      links_changed k gf f ~fss ~vv ~deleted;
      Some (vv, deleted)

(* The CSS half of an intent (sections 2.3.4, 2.3.7): take the directory's
   modification lock, and for a counted unlink or link the target's; pick
   the storage site — this site when it holds the latest copy, no message
   — and run the record change and commit there, in process or in one
   forward; then record the new versions, register a created file and
   designate its replicas. Every lock is released before the reply. *)
let run_intent k ~us dir (op : Proto.intent) =
  let fg = dir.Gfile.fg in
  if not (Css.is_css k fg) then err Proto.Estale "intent on %a: not its CSS" Gfile.pp dir
  else
    match Css.lock k dir ~us with
    | Stdlib.Error e -> err e "intent on %a: not locked" Gfile.pp dir
    | Ok f ->
      let locked = ref [ f ] in
      (* A target whose link count no reachable copy can change is
         refused before anything changes. *)
      let lock_target gf =
        match Css.lock k gf ~us with
        | Ok tf ->
          locked := tf :: !locked;
          if Css.intent_site k gf tf = None then Stdlib.Error Proto.Enet else Ok ()
        | Stdlib.Error _ as refused -> refused
      in
      let latest_here gf =
        let tf = Css.get_file k fg gf.Gfile.ino in
        (not tf.css_deleted) && Css.holds_latest k gf tf
      in
      (* Run the directory step at [ss], whose commit notifies the other
         sites the CSS lists for the directory's commits; [fences] are
         what a remote site must be told that only this CSS knows. *)
      let dir_step ss ~guard ~fences : Proto.intent_reply =
        let others = List.filter (fun s -> not (Site.equal s ss)) (Css.sites_to_notify k f) in
        if Site.equal ss k.site then
          (* In process: [guard] and [links_here] read this CSS's live lock
             table, where a remote SS is sent [fences]. *)
          Ss.apply_intent k ~us dir op ~others ~guard
            ~links_here:(fun ino -> latest_here (Gfile.make ~fg ~ino))
        else begin
          let refuse, stale = fences () in
          rpc k ss
            (Proto.Intent_step
               { us; step = Proto.Step_dir { dir; op; others; refuse; stale } })
        end
      in
      let no_guard _ = Ok () and no_fences () = ([], []) in
      let finish ss (reply : Proto.intent_reply) ~after =
        Css.handle_commit_notify k dir ~origin:ss ~vv:reply.dir_vv ~deleted:false;
        { reply with file = after reply.ino reply.file; mtime = None }
      in
      (* A counted unlink or link whose storing site left the link count
         to this CSS. *)
      let links ~delta ss ino file =
        let gf = Gfile.make ~fg ~ino in
        match file with
        | Some (vv, deleted) ->
          links_changed k gf (Css.get_file k fg ino) ~fss:ss ~vv ~deleted;
          file
        | None -> change_links_at k ~us gf ~delta
      in
      let run () =
        match (op, Css.intent_site k dir f) with
        | _, None -> err Proto.Enet "intent on %a: no latest copy reachable" Gfile.pp dir
        | Proto.Create { ncopies; ino = given; ftype; owner; perms; _ }, Some latest -> (
          let parent_sites = List.map fst (Site.Map.bindings f.site_vv) in
          let parent_sites =
            if given <> None && not (List.mem us parent_sites) then parent_sites @ [ us ]
            else parent_sites
          in
          let ncopies = max 1 (min ncopies (List.length parent_sites)) in
          match Css.initial_storage_sites k ~us ~parent_sites ~ncopies with
          | [] -> err Proto.Enet "create in %a: no storage site" Gfile.pp dir
          | first :: _ as chosen ->
            (* The first chosen site numbers the inode: the using site
               itself, or the storage site that enters the name — the
               first chosen site when it holds the latest directory, else
               [latest], moved to the front. *)
            let ss, sites =
              if given <> None then (latest, chosen)
              else if List.mem first (Css.sites_with_latest k f) then (first, chosen)
              else
                ( latest,
                  List.filteri
                    (fun i _ -> i < ncopies)
                    (latest :: List.filter (fun s -> not (Site.equal s latest)) chosen) )
            in
            let reply = dir_step ss ~guard:no_guard ~fences:no_fences in
            (* The mtime of an inode the storing site allocated. *)
            let allocated = reply.mtime in
            finish ss reply ~after:(fun ino file ->
                let origin, vv, mtime =
                  match (given, file, allocated) with
                  | Some (_, mtime), _, _ -> (us, Vvec.bump Vvec.zero us, mtime)
                  | None, Some (vv, _), Some mtime -> (ss, vv, mtime)
                  | None, _, _ -> err Proto.Eio "create reply without its inode"
                in
                register_file k (Gfile.make ~fg ~ino) ~origin ~vv ~sites ~ftype ~owner ~perms
                  ~mtime;
                None))
        | (Proto.Unlink { links = false; _ } | Proto.Link { links = false; _ }), Some ss ->
          finish ss (dir_step ss ~guard:no_guard ~fences:no_fences) ~after:(fun _ _ -> None)
        | Proto.Link { ino; links = true; _ }, Some ss -> (
          let target = Gfile.make ~fg ~ino in
          match lock_target target with
          | Stdlib.Error e -> err e "link to %a: not locked" Gfile.pp target
          | Ok () ->
            let fences () =
              let tf = Css.get_file k fg ino in
              ([], if List.mem ss (Css.sites_with_latest k tf) then [] else [ ino ])
            in
            finish ss (dir_step ss ~guard:no_guard ~fences) ~after:(links ~delta:1 ss))
        | Proto.Unlink { links = true; _ }, Some ss ->
          (* The target is known only once the storage site finds the
             name: here it is locked as it is found; a remote site gets
             the lock table's verdicts with the step. *)
          let guard ino =
            match lock_target (Gfile.make ~fg ~ino) with
            | Stdlib.Error Proto.Enoent -> Ok () (* no live copy: only the name goes *)
            | result -> result
          in
          finish ss
            (dir_step ss ~guard ~fences:(fun () -> Css.unlink_fences k fg ~ss))
            ~after:(links ~delta:(-1) ss)
      in
      let release () = List.iter (fun (f : css_file) -> f.writer <- None) !locked in
      match run () with
      | reply ->
        release ();
        record k ~tag:"css.intent" "%a from %a" Gfile.pp dir Site.pp us;
        reply
      | exception refused ->
        release ();
        raise refused

(* ---- the using site's half ---- *)

let name_of = function
  | Proto.Create { name; _ } | Proto.Unlink { name; _ } | Proto.Link { name; _ } -> name

(* Send one intent to the directory's CSS, retrying a few times while
   another site holds the directory's (or the target's) modification
   lock. The transport resends a lost request or reply, and answers a
   resend from the reply the CSS's run gave. Returns the inode, the type its
   entry records and the file's new version, if the link count changed. *)
let intent k dir op =
  let rec attempt tries =
    match rpc k (fg_info k dir.Gfile.fg).css_site (Proto.Dir_intent { dir; op }) with
    | { Proto.ino; ftype; dir_vv; file; _ } ->
      (* This site's change committed; the site need not store the
         directory or the file, so no notification need ever reach it. *)
      Coherence.announced k dir ~vv:dir_vv ~deleted:false ~origin:k.site;
      Option.iter
        (fun (vv, deleted) ->
          Coherence.announced k (Gfile.make ~fg:dir.Gfile.fg ~ino) ~vv ~deleted ~origin:k.site)
        file;
      (ino, ftype, file)
    | exception Error (Proto.Ebusy, _) when tries > 0 ->
      charge k 1.0;
      attempt (tries - 1)
    | exception Error (e, why) -> (
      let name = name_of op in
      match e with
      | Proto.Eexist -> err e "%s already exists" name
      | Proto.Enoent -> err e "%s: no such entry" name
      | _ -> err e "update of %s in %a failed: %s" name Gfile.pp dir why)
  in
  attempt 5

(* Create a file under [dir_gf]. When this site stores the parent it is
   the first storage site and numbers the inode itself; the name is
   entered, and the inode announced to the CSS and the other initial
   storage sites, by one intent. Returns the new file's gfile. *)
let create_in k dir_gf ~name ~ftype ~owner ~perms ~ncopies =
  let fg = dir_gf.Gfile.fg in
  let own =
    match local_pack k fg with
    | Some pack when Pack.stores pack dir_gf.Gfile.ino ->
      Some (pack, Ss.alloc_inode k pack ~ftype ~owner ~perms)
    | Some _ | None -> None
  in
  let ino = Option.map (fun (_, (i : Inode.t)) -> (i.Inode.ino, i.Inode.mtime)) own in
  match intent k dir_gf (Proto.Create { name; ftype; owner; perms; ncopies; ino }) with
  | ino, _, _ ->
    let gf = Gfile.make ~fg ~ino in
    record k ~tag:"us.create" "%s -> %a" name Gfile.pp gf;
    gf
  | exception (Error (e, _) as failure) ->
    (* Refused, so the name was never entered: free the inode. After a
       transport failure the entry may have committed, so it stays. *)
    (match own with
    | Some (pack, inode) when e <> Proto.Enet -> Pack.remove_inode pack inode.Inode.ino
    | Some _ | None -> ());
    raise failure

(* Initialize a fresh directory's "." and ".." entries. *)
let init_directory k gf ~parent_ino =
  Us.with_open k (Us.open_gf k gf Proto.Mode_modify)
    (fun k o parent_ino ->
      let dir = Dir.empty () in
      Dir.insert dir ~name:"." ~ino:o.o_gf.Gfile.ino ~ftype:Inode.Directory ~stamp:(now k)
        ~origin:k.site;
      Dir.insert dir ~name:".." ~ino:parent_ino ~ftype:Inode.Directory ~stamp:(now k)
        ~origin:k.site;
      Us.set_contents k o (Dir.encode dir);
      Us.commit k o)
    parent_ino

(* Remove a name; the file body is deleted once the last link is gone. *)
let unlink_gf k dir_gf ~name =
  let ino, _, _ = intent k dir_gf (Proto.Unlink { name; links = true }) in
  Gfile.make ~fg:dir_gf.Gfile.fg ~ino

(* Add a hard link: a second name for an existing inode of type [ftype]
   in the same filegroup. *)
let link_gf k ~target ~ftype ~dir_gf ~name =
  if target.Gfile.fg <> dir_gf.Gfile.fg then
    err Proto.Einval "hard links cannot cross filegroup boundaries";
  ignore (intent k dir_gf (Proto.Link { name; ino = target.Gfile.ino; ftype; links = true }))

(* Rename within a filegroup: remove the old entry, enter the new one —
   two intents, neither of which touches the link count. If the new entry
   is refused the old one is put back; if that fails too, the file has
   lost its name, which is [EIO], never a silent success. *)
let rename_gf k ~old_dir ~old_name ~new_dir ~new_name =
  if old_dir.Gfile.fg <> new_dir.Gfile.fg then
    err Proto.Einval "rename cannot cross filegroup boundaries";
  let ino, ftype, _ = intent k old_dir (Proto.Unlink { name = old_name; links = false }) in
  (match intent k new_dir (Proto.Link { name = new_name; ino; ftype; links = false }) with
  | _ -> ()
  | exception e -> (
    match intent k old_dir (Proto.Link { name = old_name; ino; ftype; links = false }) with
    | _ -> raise e
    | exception Error (_, why) ->
      err Proto.Eio "rename: %s is lost (inode %d): putting it back failed: %s" old_name ino
        why));
  Gfile.make ~fg:old_dir.Gfile.fg ~ino
