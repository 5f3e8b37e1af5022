(* Directory updates, file creation and deletion (sections 2.3.4, 2.3.7).

   Every name-space change — enter an entry, remove an entry, rename — is
   one atomic directory modification performed through the standard
   open-for-modification / commit machinery, so directory interrogation
   never sees an inconsistent picture. Creation chooses initial storage
   sites with the paper's algorithm: storage sites of the parent directory,
   local site first, inaccessible sites last. *)

open Ktypes
module Inode = Storage.Inode
module Dir = Catalog.Dir

(* Ship one entry change to the storage site of a directory open for
   modification; a procedure call when that is this site. A striped open's
   [o_ss] is the primary, which holds the complete committed copy. The
   open counts as dirty from the send on: if the reply is lost, the SS may
   hold a shadow session that [Us.release] must abort. *)
let send_dir_update k o op =
  let name = match op with Proto.Enter { name; _ } | Proto.Remove { name; _ } -> name in
  o.o_dirty <- true;
  let resp =
    if Site.equal o.o_ss k.site then begin
      charge k (latency k).Net.Latency.local_call;
      Ss.handle_dir_update k ~src:k.site o.o_gf op
    end
    else rpc k o.o_ss (Proto.Dir_update { gf = o.o_gf; op })
  in
  match resp with
  | Proto.R_entry { ino } -> ino
  | Proto.R_err e -> (
    (* Refused before anything was written. *)
    o.o_dirty <- false;
    match e with
    | Proto.Eexist -> err e "%s already exists" name
    | Proto.Enoent -> err e "%s: no such entry" name
    | _ -> err e "update of %s in %a failed" name Gfile.pp o.o_gf)
  | _ -> err Proto.Eio "unexpected directory update response"

(* Apply one entry change to a directory atomically: open for
   modification (the CSS serializes writers), have the storage site apply
   it to the pages it holds, commit, close. [op] builds the change from
   its stamp, taken once the open is granted. Retries a few times when
   another site holds the modification lock. Returns the inode entered or
   removed. *)
let update_dir k dir_gf op =
  let rec attempt tries =
    match Us.open_gf k dir_gf Proto.Mode_modify with
    | o ->
      (* Anything that raises from here on — the update or the commit —
         must still release the open, or the SS keeps the serving
         registration and shadow session forever. *)
      (match
         let ino = send_dir_update k o (op ~stamp:(now k)) in
         Us.commit k o;
         ino
       with
      | ino ->
        Us.close k o;
        (* This site just changed the directory, and its own commit
           notification never loops back here: retire name-cache links
           read under the old version now. *)
        Namecache.note_dir_vv k.name_cache ~dir:dir_gf o.o_info.Proto.i_vv;
        ino
      | exception e ->
        Us.release k o;
        raise e)
    | exception Error (Proto.Ebusy, _) when tries > 0 ->
      charge k 1.0;
      attempt (tries - 1)
  in
  attempt 5

let enter_entry k dir_gf ~name ~ino =
  ignore
    (update_dir k dir_gf (fun ~stamp -> Proto.Enter { name; ino; stamp; origin = k.site }))

let remove_entry k dir_gf ~name =
  update_dir k dir_gf (fun ~stamp -> Proto.Remove { name; stamp; origin = k.site })

(* Initial storage-site selection for a new file (section 2.3.7):
   a. all storage sites must store the parent directory;
   b. the local site is used first if possible;
   c. then the parent directory's site order, inaccessible sites last. *)
let initial_storage_sites k ~parent_sites ~ncopies =
  let accessible, inaccessible =
    List.partition (fun s -> in_partition k s) parent_sites
  in
  let ordered =
    if List.mem k.site accessible then
      k.site :: List.filter (fun s -> not (Site.equal s k.site)) accessible
    else accessible
  in
  let ordered = ordered @ inaccessible in
  List.filteri (fun i _ -> i < ncopies) ordered

let parent_storage_sites k dir_gf =
  let fi = fg_info k dir_gf.Gfile.fg in
  match rpc k fi.css_site (Proto.Where_stored { gf = dir_gf }) with
  | Proto.R_where { all_sites; _ } -> all_sites
  | Proto.R_err e -> err e "cannot locate parent directory copies"
  | _ -> err Proto.Eio "unexpected where response"

(* Create a file under [dir_gf]. The create is done at one storage site and
   propagated to the others. Returns the new file's gfile. *)
let create_in k dir_gf ~name ~ftype ~owner ~perms ~ncopies =
  let parent_sites = parent_storage_sites k dir_gf in
  (* Replication factor: min(per-process default, parent's factor). *)
  let ncopies = max 1 (min ncopies (List.length parent_sites)) in
  let chosen = initial_storage_sites k ~parent_sites ~ncopies in
  match chosen with
  | [] -> err Proto.Enet "no accessible storage site for create"
  | ss :: others ->
    let fg = dir_gf.Gfile.fg in
    let req = Proto.Create_req { fg; ftype; owner; perms; replicate_at = others } in
    let ino =
      if Site.equal ss k.site then begin
        match Ss.handle_create k fg ~ftype ~owner ~perms ~replicate_at:others with
        | Proto.R_created { ino } -> ino
        | Proto.R_err e -> err e "create failed"
        | _ -> err Proto.Eio "unexpected create response"
      end
      else
        match rpc k ss req with
        | Proto.R_created { ino } -> ino
        | Proto.R_err e -> err e "create failed"
        | _ -> err Proto.Eio "unexpected create response"
    in
    let gf = Gfile.make ~fg ~ino in
    enter_entry k dir_gf ~name ~ino;
    record k ~tag:"us.create" "%s -> %a at %a (+%d replicas)" name Gfile.pp gf Site.pp ss
      (List.length others);
    gf

(* Initialize a fresh directory's "." and ".." entries. *)
let init_directory k gf ~parent_ino =
  let o = Us.open_gf k gf Proto.Mode_modify in
  match
    let dir = Dir.empty () in
    Dir.insert dir ~name:"." ~ino:gf.Gfile.ino ~stamp:(now k) ~origin:k.site;
    Dir.insert dir ~name:".." ~ino:parent_ino ~stamp:(now k) ~origin:k.site;
    Us.set_contents k o (Dir.encode dir);
    Us.commit k o
  with
  | () -> Us.close k o
  | exception e ->
    Us.release k o;
    raise e

(* Adjust a file's link count at its current storage site. *)
let link_count k gf ~delta =
  let o = Us.open_gf k gf Proto.Mode_modify in
  let resp =
    match
      if Site.equal o.o_ss k.site then Ss.handle_link_count k gf ~delta
      else rpc k o.o_ss (Proto.Link_count { gf; delta })
    with
    | resp -> resp
    | exception e ->
      Us.release k o;
      raise e
  in
  (match resp with
  | Proto.R_committed _ -> ()
  | Proto.R_err e ->
    Us.release k o;
    err e "link count update failed"
  | _ -> ());
  Us.close k o

(* Remove a name; delete the file body once the last link is gone. *)
let unlink_gf k dir_gf ~name =
  let ino = remove_entry k dir_gf ~name in
  let gf = Gfile.make ~fg:dir_gf.Gfile.fg ~ino in
  let info = Us.stat_gf k gf in
  if info.Proto.i_nlink > 1 then link_count k gf ~delta:(-1)
  else begin
    let o = Us.open_gf k gf Proto.Mode_modify in
    (match Us.delete_file k o with
    | () -> Us.close k o
    | exception e ->
      Us.release k o;
      raise e);
    (* The unlinking site may never receive the deletion's commit
       notification (it need not store the file): drop links to the dead
       inode here as well. *)
    Namecache.invalidate_child k.name_cache gf
  end;
  gf

(* Add a hard link: a second name for an existing inode in the same
   filegroup. *)
let link_gf k ~target ~dir_gf ~name =
  if target.Gfile.fg <> dir_gf.Gfile.fg then
    err Proto.Einval "hard links cannot cross filegroup boundaries";
  enter_entry k dir_gf ~name ~ino:target.Gfile.ino;
  link_count k target ~delta:1

(* Rename within a filegroup: remove the old entry, enter the new one.
   Both are atomic directory operations. *)
let rename_gf k ~old_dir ~old_name ~new_dir ~new_name =
  if old_dir.Gfile.fg <> new_dir.Gfile.fg then
    err Proto.Einval "rename cannot cross filegroup boundaries";
  let ino = remove_entry k old_dir ~name:old_name in
  (try enter_entry k new_dir ~name:new_name ~ino
   with e ->
     (* Put the old entry back if the target directory refused. *)
     ignore (enter_entry k old_dir ~name:old_name ~ino);
     raise e);
  Gfile.make ~fg:old_dir.Gfile.fg ~ino
