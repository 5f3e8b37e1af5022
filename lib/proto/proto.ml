(* Kernel-to-kernel protocol vocabulary.

   These are the lowest-level protocols in the system: single
   request/response exchanges with no layered acknowledgements (section
   2.3.3 of the paper). Each constructor corresponds to one message of the
   paper's open / read / write / commit / close / create protocols, the
   remote-process machinery (section 3), or the reconfiguration protocols
   (section 5). [req_bytes] and [resp_bytes] give the wire-size model used
   for latency charging and byte accounting. *)

module Vvec = Vv.Version_vector

type open_mode =
  | Mode_read          (* normal synchronized read *)
  | Mode_modify        (* open for update *)
  | Mode_internal      (* unsynchronized internal read, pathname searching *)

let pp_mode ppf m =
  Format.pp_print_string ppf
    (match m with
    | Mode_read -> "read"
    | Mode_modify -> "modify"
    | Mode_internal -> "internal")

(* Typed failures reflected across machine boundaries. *)
type errno =
  | Enoent        (* no such file or directory *)
  | Enotdir
  | Eisdir
  | Eexist
  | Eaccess
  | Ebusy         (* synchronization policy refused the open *)
  | Estale        (* version no longer latest / file replaced *)
  | Econflict     (* copies in version-vector conflict; access blocked *)
  | Enospc
  | Eio
  | Enet          (* partition or site failure mid-operation *)
  | Esrch         (* no such process *)
  | Edeadtoken    (* token holder unreachable *)
  | Einval

let errno_to_string = function
  | Enoent -> "ENOENT"
  | Enotdir -> "ENOTDIR"
  | Eisdir -> "EISDIR"
  | Eexist -> "EEXIST"
  | Eaccess -> "EACCES"
  | Ebusy -> "EBUSY"
  | Estale -> "ESTALE"
  | Econflict -> "ECONFLICT"
  | Enospc -> "ENOSPC"
  | Eio -> "EIO"
  | Enet -> "ENET"
  | Esrch -> "ESRCH"
  | Edeadtoken -> "EDEADTOKEN"
  | Einval -> "EINVAL"

let pp_errno ppf e = Format.pp_print_string ppf (errno_to_string e)

(* Disk-inode information shipped in open/stat responses: "all the disk
   inode information (eg. file size, ownership, permissions) is obtained
   from the CSS response" (section 2.3.3). *)
type inode_info = {
  i_ftype : Storage.Inode.ftype;
  i_size : int;
  i_nlink : int;
  i_owner : string;
  i_perms : int;
  i_mtime : float;
  i_vv : Vvec.t;
  i_deleted : bool;
}

let info_of_inode (i : Storage.Inode.t) =
  {
    i_ftype = i.Storage.Inode.ftype;
    i_size = i.size;
    i_nlink = i.nlink;
    i_owner = i.owner;
    i_perms = i.perms;
    i_mtime = i.mtime;
    i_vv = i.vv;
    i_deleted = i.deleted;
  }

type token_key =
  | Tok_fd of int * int (* shared file-descriptor offset: origin site, serial *)

let pp_token ppf = function
  | Tok_fd (s, n) -> Format.fprintf ppf "fd-token(%d.%d)" s n

(* One shared open file descriptor carried to a forked child (section 3.1):
   the parent and child share the descriptor, with a token deciding which
   site's copy of the file position is valid. *)
type fd_desc = {
  d_num : int;                 (* descriptor number in the process *)
  d_key : int * int;           (* shared-descriptor identity: origin site, serial *)
  d_gf : Catalog.Gfile.t;
  d_mode : open_mode;
}

(* Environment needed to initialize a remote process (section 3.1). *)
type process_env = {
  e_uid : string;
  e_cwd : Catalog.Gfile.t;
  e_context : string list;       (* hidden-directory context, e.g. ["vax"] *)
  e_ncopies : int;               (* inherited default replication factor *)
  e_fds : fd_desc list;
}

(* One directory-search step performed server-side by a partial-pathname
   lookup (the remedy named in section 2.3.4): which directory was
   searched, at which version, and which gfile the component named. The
   using site turns each step into a name-cache entry. *)
type lookup_step = {
  l_dir : Catalog.Gfile.t;
  l_vv : Vvec.t; (* the directory's version vector at search time *)
  l_child : Catalog.Gfile.t;
  l_ftype : Storage.Inode.ftype option; (* child's type, when stored at the SS *)
}

(* One name-space change a using site asks the directory's CSS for, as a
   single intent (sections 2.3.4, 2.3.7). [links] is false only for the
   two halves of a rename, which move a name and leave the file's link
   count alone. *)
type intent =
  | Create of {
      name : string;
      ftype : Storage.Inode.ftype;
      owner : string;
      perms : int;
      ncopies : int;
      ino : int option;
        (* allocated by the using site when it is the first storage site;
           otherwise the storage site that enters the name allocates it *)
    }
  | Unlink of { name : string; links : bool }
  | Link of { name : string; ino : int; links : bool }

(* The work a CSS forwards to a storage site for an intent: the record
   change and commit of the directory, or a file's link-count change. *)
type intent_step =
  | Step_dir of {
      dir : Catalog.Gfile.t;
      op : intent;
      others : Net.Site.t list;
        (* the other sites holding the directory's latest copy, which the
           commit notifies *)
      refuse : (int * errno) list;
        (* an unlink of a name bound to one of these inodes fails with the
           errno and changes nothing (a held modification lock, a conflict) *)
      stale : int list;
        (* inodes whose link count this site must leave to the CSS: its copy
           is not the latest *)
    }
  | Step_link of { gf : Catalog.Gfile.t; delta : int }

(* A write run riding a [Commit_req]: the fields of a [Write_pages] — an
   optional truncate, then [data] at byte [off] of page [first], at most a
   window of pages. *)
type run = { run_trunc : int option; run_first : int; run_off : int; run_data : string }

type req =
  (* --- open protocol (Figure 2) --- *)
  | Open_req of {
      gf : Catalog.Gfile.t;
      mode : open_mode;
      us_vv : Vvec.t option;
      shared : bool;
        (* join an existing open through a shared descriptor (fork):
           exempt from the single-writer policy, serialized by the token *)
      want : int;
        (* how many of the file's first pages a read open asks the CSS to
           carry in its reply, should the CSS serve the open itself; 0 (the
           paper's open, and every open at window 1) asks for none. Costs 4
           bytes only when nonzero. *)
    } (* US -> CSS: open request; carries the US's copy version if it stores one *)
  | Storage_req of {
      gf : Catalog.Gfile.t;
      vv : Vvec.t;
      us : Net.Site.t;
      mode : open_mode;
      others : Net.Site.t list;
        (* the other sites storing the file, so that the SS can send its
           commit notifications directly to them (section 2.3.6) *)
    } (* CSS -> candidate SS: will you serve this open at this version? *)
  (* --- data transfer --- *)
  | Read_pages of {
      gf : Catalog.Gfile.t;
      first : int;
      count : int;
      guess : int;
      committed : bool;
      stat : bool;
    }
    (* US -> SS: up to [count] consecutive pages starting at [first], in
       one round trip — the network read protocol, for a using site, a
       propagation pull and reconciliation alike. [count] = 1 is the
       paper's one-page read. [guess] is the hint for locating the incore
       inode. A using site reads an open modification
       session's pages when one exists; a background read (a pull,
       reconciliation) sets [committed] and reads only the committed copy.
       [stat] also asks for that copy's inode in the reply; it implies
       [committed]. With [count] 0 it is the stat message. *)
  | Write_pages of {
      gf : Catalog.Gfile.t;
      trunc : int option;
      first : int;
      off : int;
      data : string;
    }
    (* US -> SS: first shrink the open modification session's file to
       [trunc] bytes, when set, then write one contiguous run of modified
       bytes starting at byte [off] within page [first], possibly spanning
       several pages — one page of modification (whole page or patch), a
       coalesced write-behind batch, or the first window of a whole-file
       overwrite, whose truncate to 0 rides along. With no data it is the
       network truncate alone. Absolute positioning keeps the request
       idempotent. *)
  | Dir_intent of { dir : Catalog.Gfile.t; op : intent }
    (* US -> CSS: one name-space change, serialized at the CSS and run as
       one atomic directory modification at a storage site *)
  | Intent_step of { us : Net.Site.t; step : intent_step }
    (* CSS -> SS: the forwarded work of using site [us]'s intent *)
  | Commit_req of {
      gf : Catalog.Gfile.t;
      us : Net.Site.t;
      abort : bool;
      delete : bool;
      force_vv : Vvec.t option;
        (* recovery only: install this exact version vector (the pointwise
           maximum of the merged copies, bumped at the merge site) instead
           of bumping the local one *)
      run : run option;
        (* the write the commit follows: the US's last run of modified
           bytes, written into the session before it commits, in place of
           a [Write_pages] round trip of its own *)
    } (* US -> SS: commit (or abort) the open modification session; [delete]
         marks the inode deleted before committing (section 2.3.7) *)
  (* --- close protocol (3 messages; see the race note in section 2.3.3) --- *)
  | Us_close of { gf : Catalog.Gfile.t; mode : open_mode }
  | Ss_close of { gf : Catalog.Gfile.t; ss : Net.Site.t; us : Net.Site.t; mode : open_mode }
  (* --- commit notification and propagation (section 2.3.6) --- *)
  | Commit_notify of {
      gf : Catalog.Gfile.t;
      vv : Vvec.t;
      meta_only : bool;
      modified : int list; (* modified logical pages; [] with meta_only=false means "all" *)
      origin : Net.Site.t;
      fresh : bool; (* a new commit (propagate me) vs. a completed propagation *)
      deleted : bool;
      designate : bool;
        (* create-time designation: pull a first copy even though this
           site does not store the file yet (section 2.3.7) *)
      replicas : Net.Site.t list;
        (* create -> CSS only: the designated initial storage sites, so
           the CSS records them as (stale) copy holders immediately *)
      carried : (inode_info * string list) option;
        (* the committed inode and the modified pages below its eof, in
           [modified] order: a copy at the version this commit replaced
           installs them without pulling *)
    }
  | Reclaim_req of { gf : Catalog.Gfile.t }
    (* CSS -> SS: every storage site has seen the delete; the inode number
       can be reallocated (section 2.3.7) *)
  | Page_invalidate of { gf : Catalog.Gfile.t; first : int; count : int }
    (* SS -> other USs it serves: your buffered copies of pages [first] to
       [first + count - 1] are no longer valid (the page-valid tokens of
       section 3.2). One covers every page a [Write_pages] wrote or cut. *)
  | Lease_break of { gf : Catalog.Gfile.t }
    (* CSS -> lease-holding US: the read lease granted on this file is
       revoked (a writer opened, a new version committed, a conflict or
       delete was recorded, or the partition changed). The holder drops
       its retained open grant and sends any deferred close. *)
  (* --- interrogation --- *)
  | Set_attr of { gf : Catalog.Gfile.t; perms : int option; owner : string option }
    (* US -> SS: chmod/chown; a metadata-only commit (section 2.3.6's
       "just inode information changed" case) *)
  | Where_stored of { gf : Catalog.Gfile.t } (* CSS bookkeeping query *)
  | Lookup_req of { gf : Catalog.Gfile.t; comps : string list }
    (* US -> SS: walk as many of the remaining pathname components from
       [gf] as this site stores, in one round trip (section 2.3.4) *)
  (* --- tokens (section 3.2) --- *)
  | Token_req of { key : token_key; for_site : Net.Site.t }
  | Token_state_req of { key : token_key } (* fetch guarded state with the token *)
  (* --- remote processes (section 3) --- *)
  | Fork_req of { child_pid : int; env : process_env; image_pages : int; parent : int * Net.Site.t }
  | Exec_req of { pid : int; path : string; env : process_env; image_pages : int; parent : int * Net.Site.t }
  | Run_req of {
      child_pid : int;
      path : string;
      env : process_env;
      parent : int * Net.Site.t;
      context_override : string list option;
        (* caller-specified hidden-directory context, applied after exec *)
    }
  | Signal_req of { pid : int; signo : int }
  | Exit_notify of { pid : int; status : int; child_site : Net.Site.t }
  (* --- reconfiguration (section 5) --- *)
  | Part_poll of { initiator : Net.Site.t; pset : Net.Site.t list }
    (* partition protocol poll: here is my partition set; send me yours *)
  | Part_announce of { active : Net.Site.t; members : Net.Site.t list }
  | Merge_poll of { initiator : Net.Site.t }
  | Merge_announce of { members : Net.Site.t list }
  | Status_check of { asker : Net.Site.t }
    (* protocol-synchronization probe of section 5.7 *)
  | Open_files_query of { fg : int }
    (* new CSS rebuilding its lock table after reconfiguration (section 5.6) *)
  | Pack_inventory of { fg : int }
    (* recovery: which inodes does your pack store, at which versions? *)
  | Pipe_write of { gf : Catalog.Gfile.t; data : string }
  | Pipe_read of { gf : Catalog.Gfile.t; max : int }

type resp =
  | R_ok
  | R_err of errno
  | R_open of {
      ss : Net.Site.t;
      info : inode_info option;
        (* [None] on the US-is-current shortcut: the US serves itself from
           its own inode and registers the open there itself *)
      others : Net.Site.t list;
      nocache : bool; (* a writer is active: using sites must not buffer pages *)
      slot : int;     (* the SS's incore-inode slot: the US's read guess *)
      lease : bool;
        (* the CSS granted a revocable read lease on (gf, vv): the US may
           retain the whole grant across close and re-open with no
           messages until a [Lease_break] arrives. Packs into the same
           flag byte as [nocache], so the wire size is unchanged and the
           [open_lease_entries = 0] ablation is byte-identical. *)
      pages : string list;
        (* the committed copy's first pages, up to the request's [want],
           when the CSS serves a remote read open itself with no writer;
           otherwise none, and the reply is the paper's.
           Framed like [R_pages]'s. *)
    }
  | R_storage of { accept : bool; info : inode_info option; slot : int }
  | R_pages of { pages : string list; eof : bool; info : inode_info option }
    (* the pages of a [Read_pages]; fewer than asked when the file ends
       mid-window, none when [first] is past it. [eof] marks that the last
       page returned contains end of file (or that [first] was past it).
       [info] is the committed copy's inode, when the request set [stat]. *)
  | R_committed of { vv : Vvec.t }
  | R_intent of { ino : int; dir_vv : Vvec.t; file : (Vvec.t * bool) option }
    (* an intent's inode, the directory's new version, and the file's new
       version and deleted flag when the replying site changed its links
       (or, for a create, allocated it) *)
  | R_linked of { vv : Vvec.t; deleted : bool }
    (* a [Step_link]'s new version of the file; [deleted] at the last link *)
  | R_lookup of { gf : Catalog.Gfile.t; consumed : int; trail : lookup_step list }
    (* where the server-side walk stopped, how many components it
       consumed, and one trail step per consumed component *)
  | R_where of { sites : Net.Site.t list }
    (* reachable sites holding the latest version *)
  | R_token of { granted : bool; state : string }
  | R_pid of { pid : int }
  | R_pset of { pset : Net.Site.t list }
  | R_merge_info of { believed_up : Net.Site.t list }
  | R_busy of { active : Net.Site.t }
  | R_status of { stage : int; site : Net.Site.t }
  | R_open_files of { files : (int * open_mode * Net.Site.t) list }
  | R_inventory of { files : (int * Vvec.t * Storage.Inode.ftype * bool) list }
    (* ino, version, type, deleted? for every inode the pack stores *)
  | R_data of { data : string }

(* ---- wire-size model ---- *)

(* Every message's fixed header; a request's transport call id is in it. *)
let header = 24

let gfile_bytes = 8

let vv_bytes v = 8 * max 1 (List.length (Vvec.to_list v))

let site_list_bytes l = 4 * List.length l

let info_bytes i =
  40 + String.length i.i_owner + vv_bytes i.i_vv

let env_bytes e =
  16 + String.length e.e_uid + gfile_bytes
  + List.fold_left (fun a s -> a + String.length s) 0 e.e_context
  + ((13 + gfile_bytes) * List.length e.e_fds)

let page_bytes = 1024

let token_bytes = function Tok_fd _ -> 8

(* An op byte and a flag byte, then the op's fields. *)
let intent_bytes = function
  | Create { name; owner; ino; _ } ->
    2 + String.length name + String.length owner + 4
    + (match ino with Some _ -> 4 | None -> 0)
  | Unlink { name; _ } -> 2 + String.length name
  | Link { name; _ } -> 2 + 4 + String.length name

(* A batch of pages costs one byte, then a small length frame plus its
   payload per page; a lone page needs no frame. *)
let pages_bytes = function
  | [ data ] -> 1 + String.length data
  | pages -> List.fold_left (fun a p -> a + 2 + String.length p) 1 pages

(* The body of a write run, past the header and file: a truncate alone
   carries just the size; a run carries a page number, an offset and a
   whole-page flag within one page and a run header across several, and
   pays 4 bytes for a truncate only when it carries one. *)
let run_bytes ~trunc ~off data =
  match (trunc, data) with
  | Some _, "" -> 4
  | _ ->
    let len = String.length data in
    (if off + len <= Storage.Page.size then 9 else 12)
    + (if Option.is_some trunc then 4 else 0)
    + len

let req_bytes = function
  | Open_req { us_vv; want; _ } ->
    header + gfile_bytes + 2
    + (match us_vv with Some v -> vv_bytes v | None -> 0)
    + if want > 0 then 4 else 0
  | Storage_req { vv; others; _ } ->
    header + gfile_bytes + vv_bytes vv + 5 + site_list_bytes others
  (* A stat is the header and the file: at count 0 the page number, the
     guess and the flags carry nothing. *)
  | Read_pages { count = 0; stat = true; _ } -> header + gfile_bytes
  (* The one-page forms cost what the paper's one-page messages do: a
     count travels only when it is not 1, and a write within one page carries a page number, an offset and a
     whole-page flag, not a run header. A background read's flags travel
     in one byte, only when set. *)
  | Read_pages { count; committed; stat; _ } ->
    header + gfile_bytes + 8
    + (if count <> 1 then 4 else 0)
    + if committed || stat then 1 else 0
  | Write_pages { trunc; off; data; _ } -> header + gfile_bytes + run_bytes ~trunc ~off data
  | Dir_intent { op; _ } -> header + gfile_bytes + intent_bytes op
  | Intent_step { step = Step_dir { op; others; refuse; stale; _ }; _ } ->
    header + 4 + gfile_bytes + intent_bytes op + site_list_bytes others
    + (5 * List.length refuse) + (4 * List.length stale)
  | Intent_step { step = Step_link _; _ } -> header + 4 + gfile_bytes + 4
  | Commit_req { force_vv; run; _ } ->
    header + gfile_bytes + 5
    + (match force_vv with Some v -> vv_bytes v | None -> 0)
    + (match run with
      | Some { run_trunc; run_off; run_data; _ } ->
        run_bytes ~trunc:run_trunc ~off:run_off run_data
      | None -> 0)
  | Us_close _ -> header + gfile_bytes + 1
  | Ss_close _ -> header + gfile_bytes + 9
  | Commit_notify { vv; modified; replicas; carried; _ } ->
    header + gfile_bytes + vv_bytes vv + 3 + (4 * List.length modified) + 4
    + site_list_bytes replicas
    + (match carried with Some (info, pages) -> info_bytes info + pages_bytes pages | None -> 0)
  | Reclaim_req _ -> header + gfile_bytes
  | Page_invalidate { count; _ } -> header + gfile_bytes + 4 + if count <> 1 then 4 else 0
  | Lease_break _ -> header + gfile_bytes
  | Set_attr { owner; _ } ->
    header + gfile_bytes + 6
    + (match owner with Some o -> String.length o | None -> 0)
  | Where_stored _ -> header + gfile_bytes
  | Lookup_req { comps; _ } ->
    header + gfile_bytes
    + List.fold_left (fun a c -> a + 1 + String.length c) 0 comps
  | Token_req { key; _ } -> header + token_bytes key + 4
  | Token_state_req { key } -> header + token_bytes key
  | Fork_req { env; image_pages; _ } ->
    (* A fork ships the whole process image to the destination site. *)
    header + 16 + env_bytes env + (image_pages * page_bytes)
  | Exec_req { path; env; _ } -> header + 16 + String.length path + env_bytes env
  | Run_req { path; env; context_override; _ } ->
    header + 12 + String.length path + env_bytes env
    + (match context_override with
      | Some c -> List.fold_left (fun a s -> a + 1 + String.length s) 0 c
      | None -> 0)
  | Signal_req _ -> header + 8
  | Exit_notify _ -> header + 12
  | Part_poll { pset; _ } -> header + 4 + site_list_bytes pset
  | Part_announce { members; _ } -> header + 4 + site_list_bytes members
  | Merge_poll _ -> header + 4
  | Merge_announce { members } -> header + site_list_bytes members
  | Status_check _ -> header + 4
  | Open_files_query _ -> header + 4
  | Pack_inventory _ -> header + 4
  | Pipe_write { data; _ } -> header + gfile_bytes + String.length data
  | Pipe_read _ -> header + gfile_bytes + 4

let resp_bytes = function
  | R_ok -> header
  | R_err _ -> header + 4
  | R_open { info; others; pages; _ } ->
    header + 5
    + (match info with Some i -> info_bytes i | None -> 0)
    + site_list_bytes others
    + if pages = [] then 0 else pages_bytes pages
  | R_storage { info; _ } ->
    header + 1 + (match info with Some i -> info_bytes i | None -> 0)
  | R_pages { pages; info; _ } ->
    (* One header for the whole batch; each page pays only a small length
       frame plus its payload — the honest accounting that makes the bulk
       win fewer headers and RTTs, not free bytes. With no pages and an
       inode it is the stat reply. *)
    header + pages_bytes pages
    + (match info with Some i -> info_bytes i | None -> 0)
  | R_committed { vv } -> header + vv_bytes vv
  | R_intent { dir_vv; file; _ } ->
    header + 5 + vv_bytes dir_vv
    + (match file with Some (vv, _) -> 1 + vv_bytes vv | None -> 0)
  | R_linked { vv; _ } -> header + 1 + vv_bytes vv
  | R_lookup { trail; _ } ->
    header + gfile_bytes + 4
    + List.fold_left (fun a s -> a + (2 * gfile_bytes) + vv_bytes s.l_vv + 1) 0 trail
  | R_where { sites } -> header + site_list_bytes sites
  | R_token { state; _ } -> header + 1 + String.length state
  | R_pid _ -> header + 4
  | R_pset { pset } -> header + site_list_bytes pset
  | R_merge_info { believed_up } -> header + site_list_bytes believed_up
  | R_busy _ -> header + 4
  | R_status _ -> header + 8
  | R_open_files { files } -> header + (9 * List.length files)
  | R_inventory { files } ->
    (* 4 bytes of inode number and one flag byte holding the type and the
       deleted bit *)
    header + List.fold_left (fun a (_, vv, _, _) -> a + 5 + vv_bytes vv) 0 files
  | R_data { data } -> header + String.length data

let req_tag = function
  | Open_req _ -> "open"
  | Storage_req _ -> "storage"
  | Read_pages { count = 0; stat = true; _ } -> "stat"
  | Read_pages _ -> "read"
  | Write_pages { trunc = Some _; data = ""; _ } -> "truncate"
  | Write_pages _ -> "write"
  | Commit_req _ -> "commit"
  | Us_close _ -> "close.us"
  | Ss_close _ -> "close.ss"
  | Commit_notify _ -> "notify"
  | Reclaim_req _ -> "reclaim"
  | Page_invalidate _ -> "page.invalidate"
  | Lease_break _ -> "lease.break"
  | Dir_intent _ -> "dirop"
  | Intent_step _ -> "dirop.step"
  | Set_attr _ -> "setattr"
  | Where_stored _ -> "where"
  | Lookup_req _ -> "lookup"
  | Token_req _ -> "token"
  | Token_state_req _ -> "token.state"
  | Fork_req _ -> "fork"
  | Exec_req _ -> "exec"
  | Run_req _ -> "run"
  | Signal_req _ -> "signal"
  | Exit_notify _ -> "exit"
  | Part_poll _ -> "part.poll"
  | Part_announce _ -> "part.announce"
  | Merge_poll _ -> "merge.poll"
  | Merge_announce _ -> "merge.announce"
  | Status_check _ -> "status"
  | Open_files_query _ -> "lock.rebuild"
  | Pack_inventory _ -> "inventory"
  | Pipe_write _ -> "pipe.write"
  | Pipe_read _ -> "pipe.read"

(* Requests whose handler has the same effect run twice as once: reads,
   queries, token traffic, absolutely positioned writes and re-sendable
   notifications. The transport keeps the reply of every other request,
   so a resend of it is answered without running it again. *)
let req_idempotent = function
  | Read_pages _ | Where_stored _ | Lookup_req _
  | Open_files_query _ | Pack_inventory _ | Token_state_req _ | Token_req _
  | Page_invalidate _ | Lease_break _ | Reclaim_req _ | Commit_notify _
  | Write_pages _ | Part_poll _ | Part_announce _ | Merge_poll _ | Merge_announce _
  | Status_check _ ->
    true
  | Open_req _ | Storage_req _ | Commit_req _ | Us_close _ | Ss_close _
  | Dir_intent _ | Intent_step _ | Set_attr _ | Fork_req _ | Exec_req _
  | Run_req _ | Signal_req _ | Exit_notify _ | Pipe_write _ | Pipe_read _ ->
    false

(* Reconfiguration probes are single-shot because unreachability is the
   information being gathered (section 5.4); everything else may resend. *)
let req_policy = function
  | Part_poll _ | Part_announce _ | Merge_poll _ | Merge_announce _
  | Status_check _ ->
    Net.Rpc.probe
  | _ -> Net.Rpc.default_policy
