(* Kernel construction and the user-visible system-call layer.

   The system calls mirror the paper's list — open, create, read, write,
   commit, close, unlink (2.3) — plus the process calls of section 3 and
   the replication-control calls of section 2.3.7. All of them are
   location transparent: the same call with the same parameters works
   whether the file (or the process) is local or remote. *)

open Ktypes
module Inode = Storage.Inode
module Dir = Catalog.Dir
module Mbox = Catalog.Mailbox
module Mount = Catalog.Mount

type t = Ktypes.t

let create ~site ~machine_type ~engine ~net ~mount ~fg_table ?(config = default_config)
    () =
  let stats = Sim.Engine.stats engine in
  let counter = Sim.Stats.counter stats in
  let on_evict name =
    let c = counter name in
    fun _ _ -> Sim.Stats.cincr c
  in
  let hint = table_size net in
  let k =
    {
      site;
      machine_type;
      engine;
      net;
      config;
      mount;
      fg_table;
      packs = Hashtbl.create (min hint 64);
      css_state = Hashtbl.create (min hint 64);
      open_files = Hashtbl.create hint;
      ss_opens = Gfile.Tbl.create hint;
      us_cache =
        Us_cache.create ~on_evict:(on_evict "cache.us.evict") ~capacity:config.us_cache_pages ();
      us_open_keys = Keys.create ~capacity:config.us_cache_pages ();
      ss_cache =
        Ss_cache.create ~on_evict:(on_evict "cache.ss.evict") ~capacity:config.ss_cache_pages ();
      ss_dirs =
        Ss_dirs.create ~on_evict:(on_evict "ss.dir.index_evict") ~capacity:config.ss_cache_pages ();
      name_cache = Namecache.create ~stats ~capacity:config.name_cache_entries ();
      open_leases = Openlease.create ~stats ~capacity:config.open_lease_entries ();
      prop_pending = Gfile.Set.empty;
      prop_queue = Queue.create ();
      shared_fds = Hashtbl.create (min hint 64);
      procs = Hashtbl.create (min hint 64);
      pipe_bufs = Gfile.Tbl.create 8;
      next_serial = 1;
      next_grant = 1;
      site_table = [ site ];
      site_set = Site.Set.singleton site;
      alive = true;
      recon_stage = 0;
      hot =
        {
          hc_us_hit = counter "cache.us.hit";
          hc_us_miss = counter "cache.us.miss";
          hc_ss_hit = counter "cache.ss.hit";
          hc_ss_miss = counter "cache.ss.miss";
        };
    }
  in
  Openlease.set_on_dead k.open_leases (Us.lease_dead k);
  k

let site k = k.site

let add_pack k pack = Hashtbl.replace k.packs (Storage.Pack.fg pack) pack

let set_site_table k sites = set_sites k sites

let site_table k = k.site_table

(* ---- path-level conveniences used by processes ---- *)

let resolve k (proc : proc) path =
  Pathname.resolve_from k ~cwd:proc.p_cwd ~context:proc.p_context path

(* Like [resolve], but a final hidden directory is not expanded. *)
let resolve_raw k (proc : proc) path =
  Pathname.resolve_from k ~cwd:proc.p_cwd ~context:proc.p_context
    ~follow_hidden:false path

(* ---- protection (2.3.3: "protection checks are made") ---- *)

(* Unix-style owner/other permission bits; uid "root" bypasses. *)
let may_access (proc : proc) (info : Proto.inode_info) ~write =
  let bit = if write then 0o200 else 0o400 in
  let other_bit = if write then 0o002 else 0o004 in
  String.equal proc.p_uid "root"
  || (String.equal proc.p_uid info.Proto.i_owner && info.Proto.i_perms land bit <> 0)
  || ((not (String.equal proc.p_uid info.Proto.i_owner))
     && info.Proto.i_perms land other_bit <> 0)

(* Open with the caller's credentials checked against the descriptor. *)
let open_checked k (proc : proc) gf mode =
  let o = Us.open_gf k gf mode in
  let write = mode = Proto.Mode_modify in
  if may_access proc o.o_info ~write then o
  else begin
    Us.release k o;
    err Proto.Eaccess "%s permission denied on %a for %s"
      (if write then "write" else "read")
      Gfile.pp gf proc.p_uid
  end

(* ---- file descriptors ---- *)

let alloc_fd_num (proc : proc) =
  let n = proc.p_next_fd in
  proc.p_next_fd <- n + 1;
  n

let open_path k (proc : proc) path mode =
  let gf = resolve k proc path in
  let o = open_checked k proc gf mode in
  match Tokens.create_fd k ~gf ~mode ~ofile:o with
  | fd ->
    let num = alloc_fd_num proc in
    Hashtbl.replace proc.p_fds num fd.f_key;
    num
  | exception e ->
    Us.release k o;
    raise e

let fd_of k (proc : proc) num =
  match Hashtbl.find_opt proc.p_fds num with
  | None -> err Proto.Einval "bad file descriptor %d" num
  | Some key -> Tokens.get_fd k key

(* The site using a shared descriptor needs its own open on the file; a
   descriptor that arrived by fork opens lazily, joining the original open
   (exempt from the single-writer policy: the token serializes access). *)
let ensure_ofile k (fd : shared_fd) =
  match fd.f_ofile with
  | Some o when not o.o_closed -> o
  | Some _ | None ->
    let o = Us.open_gf ~shared:true k fd.f_gf fd.f_mode in
    fd.f_ofile <- Some o;
    o

let read_fd k (proc : proc) num ~len =
  let fd = fd_of k proc num in
  Tokens.acquire k fd;
  let o = ensure_ofile k fd in
  let data = Us.read_bytes k o ~off:fd.f_offset ~len in
  fd.f_offset <- fd.f_offset + String.length data;
  data

let write_fd k (proc : proc) num data =
  let fd = fd_of k proc num in
  Tokens.acquire k fd;
  let o = ensure_ofile k fd in
  Us.write k o ~off:fd.f_offset data;
  fd.f_offset <- fd.f_offset + String.length data

let lseek k (proc : proc) num pos =
  let fd = fd_of k proc num in
  Tokens.acquire k fd;
  fd.f_offset <- pos

let commit_fd k (proc : proc) num =
  let fd = fd_of k proc num in
  let o = ensure_ofile k fd in
  Us.commit k o

let abort_fd k (proc : proc) num =
  let fd = fd_of k proc num in
  let o = ensure_ofile k fd in
  Us.abort k o

let close_fd k (proc : proc) num =
  let fd = fd_of k proc num in
  Hashtbl.remove proc.p_fds num;
  fd.f_refs <- fd.f_refs - 1;
  if fd.f_refs <= 0 then begin
    (match fd.f_ofile with
    | Some o -> (
      (* A close can fail mid-protocol (its commit leg raises when the SS
         died); the open must still be torn down or it leaks, dirty,
         holding the CSS write lock. *)
      try Us.close k o with Error _ -> Us.release k o)
    | None -> ());
    Hashtbl.remove k.shared_fds fd.f_key
  end

(* ---- name-space calls ---- *)

let creat ?(ftype = Inode.Regular) k (proc : proc) path =
  let dir_gf, name =
    Pathname.resolve_parent k ~cwd:proc.p_cwd ~context:proc.p_context path
  in
  let gf =
    Dirops.create_in k dir_gf ~name ~ftype ~owner:proc.p_uid ~perms:0o644
      ~ncopies:proc.p_ncopies
  in
  gf

let mkdir ?(hidden = false) k (proc : proc) path =
  let dir_gf, name =
    Pathname.resolve_parent k ~cwd:proc.p_cwd ~context:proc.p_context path
  in
  let ftype = if hidden then Inode.Hidden_directory else Inode.Directory in
  let gf =
    Dirops.create_in k dir_gf ~name ~ftype ~owner:proc.p_uid ~perms:0o755
      ~ncopies:proc.p_ncopies
  in
  if not hidden then Dirops.init_directory k gf ~parent_ino:dir_gf.Gfile.ino;
  gf

let mkfifo k (proc : proc) path = creat ~ftype:Inode.Fifo k proc path

let unlink k (proc : proc) path =
  let dir_gf, name =
    Pathname.resolve_parent k ~cwd:proc.p_cwd ~context:proc.p_context path
  in
  ignore (Dirops.unlink_gf k dir_gf ~name)

let link k (proc : proc) ~target ~path =
  let target_gf, ftype =
    Pathname.resolve_typed k ~cwd:proc.p_cwd ~context:proc.p_context target
  in
  let dir_gf, name =
    Pathname.resolve_parent k ~cwd:proc.p_cwd ~context:proc.p_context path
  in
  Dirops.link_gf k ~target:target_gf ~ftype ~dir_gf ~name

let rename k (proc : proc) ~from_path ~to_path =
  let old_dir, old_name =
    Pathname.resolve_parent k ~cwd:proc.p_cwd ~context:proc.p_context from_path
  in
  let new_dir, new_name =
    Pathname.resolve_parent k ~cwd:proc.p_cwd ~context:proc.p_context to_path
  in
  ignore (Dirops.rename_gf k ~old_dir ~old_name ~new_dir ~new_name)

let readdir k (proc : proc) path =
  let gf = resolve_raw k proc path in
  Dir.live_entries (Pathname.read_directory k gf)

let stat k (proc : proc) path =
  let gf = resolve k proc path in
  Us.stat_gf k gf

let chdir k (proc : proc) path =
  let gf = resolve_raw k proc path in
  proc.p_cwd <- gf

(* ---- whole-file conveniences ---- *)

(* A failing step mid-operation (an SS crash surfacing as a raised Error,
   say) must not abandon the open: release it so the close protocol still
   runs and the SS serving registration and shadow session are torn down. *)
let read_file k (proc : proc) path =
  let gf = resolve k proc path in
  let o = open_checked k proc gf Proto.Mode_read in
  match Us.read_all k o with
  | body ->
    Us.close k o;
    body
  | exception e ->
    Us.release k o;
    raise e

let write_file k (proc : proc) path body =
  let gf = resolve k proc path in
  let o = open_checked k proc gf Proto.Mode_modify in
  match
    Us.set_contents k o body;
    Us.commit k o
  with
  | () -> Us.close k o
  | exception e ->
    Us.release k o;
    raise e

let append_file k (proc : proc) path body =
  let gf = resolve k proc path in
  let o = open_checked k proc gf Proto.Mode_modify in
  match
    Us.write k o ~off:o.o_info.Proto.i_size body;
    Us.commit k o
  with
  | () -> Us.close k o
  | exception e ->
    Us.release k o;
    raise e

(* ---- attribute changes: metadata-only commits ---- *)

let set_attr k (proc : proc) path ~perms ~owner =
  let gf = resolve k proc path in
  let info = Us.stat_gf k gf in
  if not (String.equal proc.p_uid "root" || String.equal proc.p_uid info.Proto.i_owner)
  then err Proto.Eaccess "only the owner may change attributes";
  (* Serialize against writers via the normal open protocol. *)
  let o = Us.open_gf k gf Proto.Mode_modify in
  match rpc k o.o_ss (Proto.Set_attr { gf; perms; owner }) with
  | (_ : Vvec.t) -> Us.close k o
  | exception e ->
    Us.release k o;
    raise e

let chmod k (proc : proc) path perms = set_attr k proc path ~perms:(Some perms) ~owner:None

let chown k (proc : proc) path owner = set_attr k proc path ~perms:None ~owner:(Some owner)

(* ---- replication control (section 2.3.7) ---- *)

let set_ncopies (proc : proc) n =
  if n < 1 then err Proto.Einval "replication factor must be at least 1";
  proc.p_ncopies <- n

let get_ncopies (proc : proc) = proc.p_ncopies

let set_advice (proc : proc) advice =
  proc.p_advice <- (match advice with Some s -> [ s ] | None -> [])

let set_advice_list (proc : proc) advice = proc.p_advice <- advice

let set_context (proc : proc) context = proc.p_context <- context

(* ---- named pipes (section 2.4.2) ---- *)

let pipe_storage_site k gf =
  let fi = fg_info k gf.Gfile.fg in
  let { Proto.sites; _ } = rpc k fi.css_site (Proto.Where_stored { gf; stat = false }) in
  match List.filter (fun s -> in_partition k s) sites with
  | s :: _ -> s
  | [] -> err Proto.Enet "no reachable site stores the pipe"

let pipe_write k (proc : proc) path data =
  let gf = resolve k proc path in
  rpc k (pipe_storage_site k gf) (Proto.Pipe_write { gf; data })

let pipe_read k (proc : proc) path ~max =
  let gf = resolve k proc path in
  rpc k (pipe_storage_site k gf) (Proto.Pipe_read { gf; max })

(* ---- mailbox delivery (used for conflict notification, section 4.6) ---- *)

(* A body that does not decode is an error, never an empty mailbox: a
   delivery over it would commit one message in place of all of them. *)
let decode_mailbox body =
  match Mbox.decode body with
  | mbox -> mbox
  | exception Failure _ -> err Proto.Eio "corrupt mailbox"

let mailbox_deliver k ~path ~from ~body =
  let root = Mount.root k.mount in
  let gf = Pathname.resolve_from k ~cwd:root ~context:[] path in
  let o = Us.open_gf k gf Proto.Mode_modify in
  match
    let mbox = decode_mailbox (Us.read_all k o) in
    let id = Printf.sprintf "%d.%d" k.site (fresh_serial k) in
    Mbox.insert mbox ~id ~stamp:(now k) ~from ~body;
    Us.set_contents k o (Mbox.encode mbox);
    Us.commit k o
  with
  | () -> Us.close k o
  | exception e ->
    Us.release k o;
    raise e

let mailbox_read k (proc : proc) path = Mbox.live (decode_mailbox (read_file k proc path))

(* ---- cleanup after partition change (section 5.6's table) ---- *)

(* Local resources in use remotely / remote resources in use locally. *)
let handle_site_failure k dead =
  (* US side: open files served by the failed SS. A reopen adds an entry
     to [k.open_files] and removes it again, so the opens are taken first,
     in the table's order, and handled after. *)
  let served =
    Hashtbl.fold
      (fun _ (o : ofile) acc ->
        if (not o.o_closed) && Site.equal o.o_ss dead then o :: acc else acc)
      k.open_files []
  in
  List.iter
    (fun (o : ofile) ->
      match o.o_mode with
      | Proto.Mode_modify ->
        (* Discard pages, set error in the local file descriptor. *)
        o.o_wb <- None;
        o.o_dirty <- false;
        o.o_closed <- true;
        Us.drop_private k o;
        Sim.Stats.incr (stats k) "cleanup.us.update_lost";
        record k ~tag:"cleanup" "update lost %a" Gfile.pp o.o_gf
      | Proto.Mode_read | Proto.Mode_internal -> (
        (* Internal close, attempt to reopen at another site. *)
        match Us.open_gf k o.o_gf o.o_mode with
        | o' ->
          (* The open now rides the new grant (if any); stop riding the
             dead one. *)
          (match o.o_lease with Some e -> Us.lease_drop_rider k e | None -> ());
          o.o_ss <- o'.o_ss;
          o.o_info <- o'.o_info;
          o.o_key <- o'.o_key;
          o.o_lease <- o'.o_lease;
          Hashtbl.remove k.open_files o'.o_serial;
          Sim.Stats.incr (stats k) "cleanup.us.reopened";
          record k ~tag:"cleanup" "reopened %a at %a" Gfile.pp o.o_gf Site.pp o'.o_ss
        | exception Error _ ->
          o.o_closed <- true;
          (match o.o_lease with Some e -> Us.lease_drop_rider k e | None -> ());
          o.o_lease <- None;
          Sim.Stats.incr (stats k) "cleanup.us.read_lost"))
    (List.rev served);
  (* The SS side (opens served to the failed site) is ended by
     [Ss.revalidate_serving], and the CSS side (its lock-table entries)
     by the rebuild, both part of every membership install. *)
  Tokens.handle_site_failure k dead;
  Process.handle_site_failure k dead

(* ---- crash and restart ---- *)

(* A crash destroys all volatile state: incore inodes, open shadow
   sessions (their pages become unreachable orphans on disk), caches,
   processes, tokens, and CSS bookkeeping. The packs (the disks) survive. *)
let crash k =
  k.alive <- false;
  (* The incore inodes die with their pending write-behind runs and
     readahead: a timer armed before the crash finds its open closed and
     does nothing, even once the site is back. *)
  Hashtbl.iter
    (fun _ (o : ofile) ->
      o.o_wb <- None;
      o.o_closed <- true)
    k.open_files;
  Gfile.Tbl.iter
    (fun _ (s : ss_open) ->
      match s.s_shadow with
      | Some session -> Storage.Shadow.crash_before_switch session
      | None -> ())
    k.ss_opens;
  Gfile.Tbl.reset k.ss_opens;
  Hashtbl.reset k.open_files;
  Hashtbl.reset k.css_state;
  Hashtbl.reset k.shared_fds;
  Hashtbl.reset k.procs;
  Gfile.Tbl.reset k.pipe_bufs;
  Transport.forget_replies k.net k.site;
  Coherence.forgotten k Coherence.Crash;
  Queue.clear k.prop_queue;
  k.prop_pending <- Gfile.Set.empty;
  set_sites k [ k.site ];
  record k ~tag:"crash" "volatile state lost"

(* Restart: bring the kernel back up and salvage the disks — orphaned
   shadow pages left by the crash are reclaimed. Rejoining the network is
   the merge protocol's job. *)
let restart k =
  k.alive <- true;
  let reclaimed =
    Hashtbl.fold (fun _ pack acc -> acc + Storage.Pack.scavenge pack) k.packs 0
  in
  record k ~tag:"restart" "%d orphan pages reclaimed" reclaimed;
  reclaimed
