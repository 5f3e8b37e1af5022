(* Pathname searching (section 2.3.4) and hidden directories (2.4.1).

   Resolution walks the tree one component at a time. Each directory is
   opened with an *internal unsynchronized read*: no global locking, and if
   the directory is stored locally with no propagations pending, it is
   searched without informing the CSS at all. Filegroup boundaries are
   crossed through the replicated mount table.

   Two fast paths short-circuit the per-component internal opens that
   dominate remote resolution cost (the remedy section 2.3.4 names but the
   paper left unimplemented):

   - the per-site *name cache* ([Namecache]): (directory, component) ->
     child links validated against the directory's version vector, so a
     warm walk touches no directory data at all;
   - *partial-pathname lookup*: the remaining components are shipped to a
     storage site ([Lookup_req]), which walks as many as it stores in one
     round trip and returns the trail, which also fills the name cache.

   Hidden directories implement context-sensitive names: when pathname
   search hits one, the process's per-process context list selects which
   entry to descend into, unless the caller escapes with an explicit
   '@entry' component. *)

open Ktypes
module Inode = Storage.Inode
module Pack = Storage.Pack
module Dir = Catalog.Dir
module Mount = Catalog.Mount

let split_path path = String.split_on_char '/' path |> List.filter (fun c -> c <> "")

(* Internal unsynchronized open through the CSS. Also returns the version
   vector, which keys the name-cache entries filled from this copy. *)
let load_dir_remote k gf =
  Us.with_open k (Us.open_gf k gf Proto.Mode_internal)
    (fun k o () ->
      let body = Us.read_all k o in
      (o.o_info.Proto.i_ftype, body, o.o_info.Proto.i_vv))
    ()

(* The local copy the fast path of section 2.3.4 searches: stored here,
   not deleted, and with no propagation pending. *)
let local_copy k gf =
  if Gfile.Set.mem gf k.prop_pending then None
  else
    match local_inode k gf with
    | Some inode when not inode.Inode.deleted -> Some inode
    | Some _ | None -> None

(* Load a directory's contents, type and version. Local fast path per
   section 2.3.4; otherwise internal open through the CSS. The [bool]
   tells the caller whether the fast path was used (its copy may be
   momentarily stale, so a lookup miss warrants a synchronized retry). *)
let load_dir_checked k gf =
  match local_copy k gf with
  | Some inode ->
    charge_disk_read k;
    (inode.Inode.ftype, Pack.read_string (local_pack_exn k gf.Gfile.fg) inode, true, inode.Inode.vv)
  | None ->
    let ftype, body, vv = load_dir_remote k gf in
    (ftype, body, false, vv)

(* A directory's type and raw contents, via the local fast path or an
   internal open. *)
let load_dir k gf =
  let ftype, body, _, _ = load_dir_checked k gf in
  (ftype, body)

(* A directory body that does not decode is a corrupt directory: the
   operation fails rather than read it as empty, which would answer ENOENT
   for every name in it (and let an update rewrite it as empty). *)
let dir_of_body body =
  try Dir.decode body with Failure _ -> err Proto.Eio "corrupt directory"

(* One name in a locally stored directory, through the directory's index
   at this site's SS: one page read, no decode, charged only when the
   page is not in the SS buffer cache. The inode number and the type the
   entry records, and with [near] the page's other live links. *)
let lookup_local ?(near = false) k pack gf inode name =
  try Ss.lookup_name ~near k pack gf inode name
  with Failure _ -> err Proto.Eio "corrupt directory"

(* Descend one link to an entry of type [ftype]: apply mount crossing
   after a successful lookup. A mounted filegroup's root is a directory. *)
let enter k ~fg ino ftype =
  let gf = Gfile.make ~fg ~ino in
  match Mount.mounted_at k.mount gf with
  | Some child_fg -> (Gfile.make ~fg:child_fg ~ino:Mount.root_ino, Inode.Directory)
  | None -> (gf, ftype)

let dotdot gf dir =
  match Dir.lookup dir ".." with Some ino -> Gfile.make ~fg:gf.Gfile.fg ~ino | None -> gf

(* Select the entry of a hidden directory using the per-process context
   list; the first context name bound in the directory wins. Returns the
   entry's gfile and type. *)
let select_context k ~context gf dir =
  let rec first = function
    | [] ->
      err Proto.Enoent "no context entry in hidden directory %a (context: %s)"
        Gfile.pp gf
        (String.concat "," context)
    | ctx :: rest -> (
      match Dir.lookup_typed dir ctx with
      | Some (ino, ftype) -> enter k ~fg:gf.Gfile.fg ino ftype
      | None -> first rest)
  in
  first context

(* ---- the name-cache half of the fast path ---- *)

(* The directory's local version, when it can serve as the validation key:
   a pending propagation means the local copy lags the version a cache
   entry may have been filled from, so it proves nothing. *)
let trusted_local_vv k gf =
  if Gfile.Set.mem gf k.prop_pending then None else local_vv k gf

(* Would the local fast path serve this directory? If not, a remote
   partial-pathname lookup is worth a round trip. *)
let locally_searchable k gf = local_copy k gf <> None

let cacheable_comp comp = comp <> "." && comp <> ".."

(* Record one successful directory search. Children under a mount point
   are skipped: the link's target depends on the mount table, not only on
   the directory's contents. Structural names ("." "..") never enter.
   [insert] is [Namecache.insert_free] for a re-warming step's neighbours. *)
let cache_fill ?(insert = Namecache.insert) k ~dir ~vv ~comp ~child ~ftype =
  if cacheable_comp comp && Mount.mounted_at k.mount child = None then
    insert k.name_cache ~dir ~comp { Namecache.nc_child = child; nc_vv = vv; nc_ftype = ftype }

(* ---- the server half: partial-pathname lookup ---- *)

(* Walk as many of [comps] from [gf] as this site's pack stores, in one
   request. The walk stops — leaving the remaining components to the
   using site, which resumes with full transparency semantics — at mount
   points (the component naming one is consumed; crossing is the US's
   job), hidden directories (likewise consumed; context expansion is
   per-process), "..", deleted inodes, directories awaiting propagation,
   and pack boundaries. One trail step is returned per consumed
   component, in order, so the US can zip them back together. A step's
   type is the one its directory entry records, so the child need not be
   stored here. With [near], each step searched by name also carries the
   other live links on the page the search read ([Ss.lookup_name]). *)
let handle_lookup k gf comps ~near =
  let stop cur consumed trail =
    { Proto.gf = cur; consumed; trail = List.rev trail }
  in
  match local_pack k gf.Gfile.fg with
  | None -> stop gf 0 []
  | Some pack ->
    let fg = gf.Gfile.fg in
    let searchable cur =
      if Mount.mounted_at k.mount cur <> None then None
      else if Gfile.Set.mem cur k.prop_pending then None
      else
        match Pack.find_inode pack cur.Gfile.ino with
        | Some inode
          when (not inode.Inode.deleted) && inode.Inode.ftype = Inode.Directory ->
          Some inode
        | Some _ | None -> None
    in
    let rec go cur consumed trail comps =
      match comps with
      | [] -> stop cur consumed trail
      | comp :: rest -> (
        match searchable cur with
        | None -> stop cur consumed trail
        | Some inode ->
          if comp = "." then begin
            let step =
              { Proto.l_dir = cur; l_vv = inode.Inode.vv; l_child = cur;
                l_ftype = Inode.Directory; l_near = [] }
            in
            go cur (consumed + 1) (step :: trail) rest
          end
          else if comp = ".." then stop cur consumed trail
          else begin
            match lookup_local ~near k pack cur inode comp with
            | None -> stop cur consumed trail
            | Some (ino, l_ftype, l_near) -> (
              let child = Gfile.make ~fg ~ino in
              match Pack.find_inode pack ino with
              | Some ci when ci.Inode.deleted ->
                (* A live link to a deleted inode: transiently possible
                   under unsynchronized reads. Never hand it out. *)
                stop cur consumed trail
              | Some _ | None ->
                let step =
                  { Proto.l_dir = cur; l_vv = inode.Inode.vv; l_child = child;
                    l_ftype; l_near }
                in
                go child (consumed + 1) (step :: trail) rest)
          end)
    in
    let reply = go gf 0 [] comps in
    record k ~tag:"ss.lookup" "%a %d/%d components" Gfile.pp gf reply.consumed
      (List.length comps);
    reply

(* ---- resolution ---- *)

(* Storage site to ship remaining components to: prefer the filegroup's
   CSS when it holds a pack (it typically stores the directories), else
   the first reachable pack site. *)
let lookup_site k fg =
  if not k.config.remote_lookup then None
  else
    match fg_info k fg with
    | fi ->
      let ok s = (not (Site.equal s k.site)) && in_partition k s in
      if ok fi.css_site && List.mem fi.css_site fi.pack_sites then Some fi.css_site
      else List.find_opt ok fi.pack_sites
    | exception Error _ -> None

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let rec drop n l = match l with _ :: rest when n > 0 -> drop (n - 1) rest | _ -> l

(* One resolution walk, shared by [resolve_typed], [resolve_from] and
   [resolve_parent]. Every step learns the type of the gfile it moves to
   from the directory entry that named it (a cached link, a lookup trail,
   a local search), so [finish] gets the terminal gfile with its type:
   [None] only when the walk consumed no component or ended on "..". *)
let walk_comps k ~context start comps ~finish =
  (* One zero-component server-side lookup is evidence enough that the
     chosen site does not store this part of the tree: stop trying until a
     mount crossing moves the walk into another filegroup. Bounds the
     wasted traffic to one round trip per filegroup per walk. *)
  let remote_ok = ref true in
  let rec walk gf ftype comps =
    match comps with
    | [] -> finish gf (Some ftype)
    | comp :: rest -> step gf comp rest
  and step gf comp rest =
    match
      if cacheable_comp comp then
        Namecache.find k.name_cache ~dir:gf ~comp
          ~current_vv:(trusted_local_vv k gf)
      else None
    with
    | Some e -> (
      (* A cached link: descend without touching the directory. Mount
         crossing still applies — links are filled unmounted, but the
         mount table can change under the cache. *)
      match Mount.mounted_at k.mount e.Namecache.nc_child with
      | Some child_fg ->
        remote_ok := true;
        walk (Gfile.make ~fg:child_fg ~ino:Mount.root_ino) Inode.Directory rest
      | None -> walk e.Namecache.nc_child e.Namecache.nc_ftype rest)
    | None ->
      if !remote_ok && not (locally_searchable k gf) then remote_step gf comp rest
      else local_step gf comp rest
  and remote_step gf comp rest =
    match lookup_site k gf.Gfile.fg with
    | None -> local_step gf comp rest
    | Some ss -> (
      let comps = comp :: rest in
      (* A directory the last merge dropped links of: ask for the other
         links on each page the walk reads, re-warming a page per round
         trip instead of a name. *)
      let near = Namecache.wants_rewarm k.name_cache gf in
      Sim.Stats.incr (stats k) "name.remote_walks";
      if near then Sim.Stats.incr (stats k) "name.rewarm";
      match rpc_result k ss (Proto.Lookup_req { gf; comps; near }) with
      | Ok { Proto.gf = final; consumed; trail }
        when consumed > 0
             && consumed <= List.length comps
             && List.length trail = consumed ->
        List.iter2
          (fun c (s : Proto.lookup_step) ->
            cache_fill k ~dir:s.Proto.l_dir ~vv:s.Proto.l_vv ~comp:c
              ~child:s.Proto.l_child ~ftype:s.Proto.l_ftype)
          (take consumed comps) trail;
        (* The trail's own links first: a neighbour only takes a slot left
           free, and carries exactly a trail link's version key. *)
        if near then
          List.iter
            (fun (s : Proto.lookup_step) ->
              let dir = s.Proto.l_dir in
              List.iter
                (fun (n : Proto.near_link) ->
                  cache_fill ~insert:Namecache.insert_free k ~dir ~vv:s.Proto.l_vv
                    ~comp:n.Proto.n_name
                    ~child:(Gfile.make ~fg:dir.Gfile.fg ~ino:n.Proto.n_ino)
                    ~ftype:n.Proto.n_ftype)
                s.Proto.l_near;
              Namecache.rewarmed k.name_cache dir)
            trail;
        let remaining = drop consumed comps in
        (* The server-side walk never descends through a mount point;
           crossing the one it may have stopped on is this site's job. *)
        (match Mount.mounted_at k.mount final with
        | Some child_fg ->
          walk (Gfile.make ~fg:child_fg ~ino:Mount.root_ino) Inode.Directory remaining
        | None -> walk final (List.nth trail (consumed - 1)).Proto.l_ftype remaining)
      | Ok _ | Error _ ->
        remote_ok := false;
        local_step gf comp rest)
  and local_step gf comp rest =
    (* A miss against a fast-path (possibly stale) local copy is retried
       once against a synchronized copy before reporting ENOENT. *)
    let refresh name =
      let _, body, vv = load_dir_remote k gf in
      Option.map (fun found -> (found, vv)) (Dir.lookup_typed (dir_of_body body) name)
    in
    (* Descend through a looked-up entry, filling the cache and applying
       the mount crossing. *)
    let descend ~comp (ino, ftype) vv rest =
      let raw = Gfile.make ~fg:gf.Gfile.fg ~ino in
      let next, ftype = enter k ~fg:gf.Gfile.fg ino ftype in
      (* a crossed mount point leads into another filegroup *)
      if Gfile.equal next raw then cache_fill k ~dir:gf ~vv ~comp ~child:raw ~ftype
      else remote_ok := true;
      walk next ftype rest
    in
    let missing () = err Proto.Enoent "%s: no such entry in %a" comp Gfile.pp gf in
    match local_copy k gf with
    | Some inode when inode.Inode.ftype = Inode.Directory && cacheable_comp comp -> (
      (* A name in a local directory: through its index, one page. *)
      match lookup_local k (local_pack_exn k gf.Gfile.fg) gf inode comp with
      | Some (ino, ftype, _) -> descend ~comp (ino, ftype) inode.Inode.vv rest
      | None -> (
        match refresh comp with
        | Some (found, vv) -> descend ~comp found vv rest
        | None -> missing ()))
    | Some _ | None -> (
      let ftype, body, fast, vv = load_dir_checked k gf in
      let lookup_refreshing dir name =
        match Dir.lookup_typed dir name with
        | Some found -> Some (found, vv)
        | None when fast -> refresh name
        | None -> None
      in
      (* Only a directory's body is decoded: a regular file's is not a
         directory encoding, and the walk must answer ENOTDIR for it. *)
      match ftype with
      | Inode.Directory -> (
        let dir = dir_of_body body in
        match comp with
        | "." -> walk gf Inode.Directory rest
        | ".." when gf.Gfile.ino = Mount.root_ino -> (
          (* ".." out of a filegroup root crosses the mount boundary: it
             names the *parent of the mount point* in the covering
             filegroup, so resolution restarts at the mount point with the
             ".." still pending. *)
          match Mount.mount_point_of k.mount gf.Gfile.fg with
          | Some point -> walk point Inode.Directory (comp :: rest)
          | None ->
            (* ".." of the global root is itself *)
            walk gf Inode.Directory rest)
        | ".." -> (
          (* A ".." entry does not vouch for the parent's type: mkdir
             records a directory, even under a hidden one. *)
          let up = dotdot gf dir in
          match rest with [] -> finish up None | comp :: rest -> step up comp rest)
        | _ -> (
          match lookup_refreshing dir comp with
          | Some (found, vv) -> descend ~comp found vv rest
          | None -> missing ()))
      | Inode.Hidden_directory ->
        (* The escape mechanism: an explicit '@name' component picks an
           entry and makes the hidden directory visible; otherwise the
           context chooses and the component is *not* consumed. *)
        let dir = dir_of_body body in
        if String.length comp > 0 && comp.[0] = '@' then begin
          let name = String.sub comp 1 (String.length comp - 1) in
          match Dir.lookup_typed dir name with
          | Some found -> descend ~comp found vv rest
          | None -> err Proto.Enoent "@%s: no such hidden entry" name
        end
        else begin
          (* context selection is per-process and never cached *)
          let chosen, ftype = select_context k ~context gf dir in
          walk chosen ftype (comp :: rest)
        end
      | Inode.Regular | Inode.Mailbox | Inode.Database | Inode.Fifo ->
        err Proto.Enotdir "%a is not a directory" Gfile.pp gf)
  in
  match comps with [] -> finish start None | comp :: rest -> step start comp rest

let start_of k ~cwd path =
  if String.length path > 0 && path.[0] = '/' then Mount.root k.mount else cwd

(* Resolve [path] to a gfile and its type. [context] is the
   hidden-directory context of the calling process, under which a final
   hidden directory expands (commands want the load module). The type
   comes from the directory entry the walk last read; only a walk that
   consumes no component, or ends on "..", asks the descriptor. *)
let resolve_typed k ~cwd ~context path =
  walk_comps k ~context (start_of k ~cwd path) (split_path path) ~finish:(fun gf ftype ->
      let ftype = match ftype with Some t -> t | None -> (Us.stat_gf k gf).Proto.i_ftype in
      match ftype with
      | Inode.Hidden_directory ->
        let _, body = load_dir k gf in
        select_context k ~context gf (dir_of_body body)
      | Inode.Directory | Inode.Regular | Inode.Mailbox | Inode.Database | Inode.Fifo ->
        (gf, ftype))

(* Resolve [path] to a gfile; [follow_hidden] controls whether a *final*
   hidden directory is transparently expanded (administrative tools
   escape to see the directory itself). *)
let resolve_from k ~cwd ~context ?(follow_hidden = true) path =
  if follow_hidden then fst (resolve_typed k ~cwd ~context path)
  else
    walk_comps k ~context (start_of k ~cwd path) (split_path path) ~finish:(fun gf _ -> gf)

(* Resolve all but the last component — in the same single walk, not by
   re-resolving a reassembled prefix string — and return the parent
   directory's gfile with the final name. Used by create/unlink/mkdir. A
   leading '@' on the final component is the hidden-directory escape:
   "/bin/who/@vax" names the entry "vax" inside the hidden directory
   /bin/who. *)
let resolve_parent k ~cwd ~context path =
  match List.rev (split_path path) with
  | [] -> err Proto.Einval "empty pathname"
  | last :: rev_prefix ->
    let dir_gf =
      walk_comps k ~context (start_of k ~cwd path) (List.rev rev_prefix)
        ~finish:(fun gf _ -> gf)
    in
    let last =
      if String.length last > 1 && last.[0] = '@' then
        String.sub last 1 (String.length last - 1)
      else last
    in
    (dir_gf, last)

(* Read a directory's live entries (for readdir / ls). *)
let read_directory k gf =
  let ftype, body = load_dir k gf in
  match ftype with
  | Inode.Directory | Inode.Hidden_directory -> dir_of_body body
  | Inode.Regular | Inode.Mailbox | Inode.Database | Inode.Fifo ->
    err Proto.Enotdir "%a is not a directory" Gfile.pp gf
