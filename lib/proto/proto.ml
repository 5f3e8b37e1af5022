(* Kernel-to-kernel protocol vocabulary.

   These are the lowest-level protocols in the system: single
   request/response exchanges with no layered acknowledgements (section
   2.3.3 of the paper), each request with exactly one kind of reply. Each
   constructor of [req] is one message of the paper's open / read / write
   / commit / close / create protocols, the remote-process machinery
   (section 3), or the reconfiguration protocols (section 5), and its type
   index is its reply. A refusal is not a reply of its own: a handler
   raises [Error], and the transport answers with the errno. [req_bytes]
   and [resp_bytes] give the wire-size model used for latency charging and
   byte accounting. *)

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

(* Every kernel failure, local or reflected from a remote site (section
   3.3); raised by a handler, it is the request's refusal. *)
exception Error of errno * string

let () =
  Printexc.register_printer (function
    | Error (e, s) -> Some (Printf.sprintf "Locus error %s: %s" (errno_to_string e) s)
    | _ -> None)

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
   using site turns each step into a name-cache entry. A re-warming
   lookup's steps also carry the other live links on the directory page
   the search read. *)
type near_link = { n_name : string; n_ino : int; n_ftype : Storage.Inode.ftype }

type lookup_step = {
  l_dir : Catalog.Gfile.t;
  l_vv : Vvec.t; (* the directory's version vector at search time *)
  l_child : Catalog.Gfile.t;
  l_ftype : Storage.Inode.ftype; (* the child's type, from the directory entry *)
  l_near : near_link list; (* the page's other live links, when asked *)
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
      ino : (int * float) option;
        (* the inode number and its allocation time, when the using site
           is the first storage site and allocated it; otherwise the
           storage site that enters the name allocates it *)
    }
  | Unlink of { name : string; links : bool }
  | Link of { name : string; ino : int; ftype : Storage.Inode.ftype; links : bool }

(* The reply to an intent: its inode and the type its entry records, the
   directory's new version, and the file's new version and deleted flag
   when the replying site changed its links (or, for a create, allocated
   it), with the allocated inode's [mtime] then; the CSS's reply to the
   using site drops the [mtime]. *)
type intent_reply = {
  ino : int;
  ftype : Storage.Inode.ftype;
  dir_vv : Vvec.t;
  file : (Vvec.t * bool) option;
  mtime : float option;
}

(* The work a CSS forwards to a storage site for an intent: the record
   change and commit of the directory, or a file's link-count change,
   answered with the file's new version and whether its last link went. *)
type _ intent_step =
  | Step_dir : {
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
      -> intent_reply intent_step
  | Step_link : { gf : Catalog.Gfile.t; delta : int } -> (Vvec.t * bool) intent_step

(* A write run riding a [Commit_req]: the fields of a [Write_pages] — an
   optional truncate, then [data] at byte [off] of page [first], at most a
   window of pages. *)
type run = { run_trunc : int option; run_first : int; run_off : int; run_data : string }

(* ---- replies: each request's one kind of response ---- *)

(* The CSS's answer to an open (Figure 2); the interface details each
   field. *)
type open_grant = {
  ss : Net.Site.t;
  info : inode_info option; (* [None]: the US-is-current shortcut *)
  others : Net.Site.t list;
  nocache : bool; (* a writer is active: using sites must not buffer pages *)
  slot : int;     (* the SS's incore-inode slot: the US's read guess *)
  lease : int;    (* nonzero: a revocable read lease's grant id *)
  pages : string list; (* the committed copy's first pages, up to [want] *)
}

(* The pages of a [Read_pages], and the committed copy's inode when the
   request set [stat] or named another version than the copy's. *)
type pages = { pages : string list; eof : bool; info : inode_info option }

(* Where a server-side walk stopped, how many components it consumed, and
   one trail step per consumed component. *)
type lookup_reply = { gf : Catalog.Gfile.t; consumed : int; trail : lookup_step list }

(* Reachable sites holding the latest version, and for a [stat] query the
   CSS's own copy's inode when that copy is the latest. *)
type where = { sites : Net.Site.t list; info : inode_info option }

(* A merge poll's answer: the sites the polled site believes up, or the
   higher-numbered merge it is already taking part in. *)
type merge_answer =
  | Believed_up of Net.Site.t list
  | Busy of Net.Site.t

type _ req =
  (* --- open protocol (Figure 2) --- *)
  | Open_req : {
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
      release : (Catalog.Gfile.t * open_mode * int) option;
        (* the close of the lease this open evicted at the US, when the
           CSS is that lease's SS: the [Us_close] of that grant id rides
           the open instead of travelling on its own. Costs a file, a mode
           and the id only when set. *)
    } -> open_grant req (* US -> CSS: open request; carries the US's copy version if it stores one *)
  | Storage_req : {
      gf : Catalog.Gfile.t;
      vv : Vvec.t;
      us : Net.Site.t;
      mode : open_mode;
      others : Net.Site.t list;
        (* the other sites storing the file, so that the SS can send its
           commit notifications directly to them (section 2.3.6) *)
    } -> (inode_info * int) option req (* CSS -> candidate SS: will you serve this open at this version? *)
  (* --- data transfer --- *)
  | Read_pages : {
      gf : Catalog.Gfile.t;
      first : int;
      count : int;
      guess : int;
      committed : bool;
      stat : bool;
      vv : Vvec.t option;
    } -> pages req
    (* US -> SS: up to [count] consecutive pages starting at [first], in
       one round trip — the network read protocol, for a using site, a
       propagation pull and reconciliation alike. [count] = 1 is the
       paper's one-page read. [guess] is the hint for locating the incore
       inode. A using site reads an open modification
       session's pages when one exists; a background read (a pull,
       reconciliation) sets [committed] and reads only the committed copy.
       [stat] also asks for that copy's inode in the reply; it implies
       [committed]. With [count] 0 it is the stat message. [vv] is the
       version a using site files the pages under; an SS whose committed
       copy is another version also returns that copy's inode. *)
  | Write_pages : {
      gf : Catalog.Gfile.t;
      trunc : int option;
      first : int;
      off : int;
      data : string;
      pos : int;
      len : int;
    } -> unit req
    (* US -> SS: first shrink the open modification session's file to
       [trunc] bytes, when set, then write one contiguous run of modified
       bytes starting at byte [off] within page [first], possibly spanning
       several pages — one page of modification (whole page or patch), a
       coalesced write-behind batch, or the first window of a whole-file
       overwrite, whose truncate to 0 rides along. The run is the [len]
       bytes of [data] from [pos]: a window of the sender's body travels
       without a copy, and only those bytes count on the wire. With no data
       it is the network truncate alone. Absolute positioning keeps the
       request idempotent. *)
  | Dir_intent : { dir : Catalog.Gfile.t; op : intent } -> intent_reply req
    (* US -> CSS: one name-space change, serialized at the CSS and run as
       one atomic directory modification at a storage site *)
  | Intent_step : { us : Net.Site.t; step : 'a intent_step } -> 'a req
    (* CSS -> SS: the forwarded work of using site [us]'s intent *)
  | Commit_req : {
      gf : Catalog.Gfile.t;
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
    } -> Vvec.t req (* US -> SS: commit (or abort) the open modification session; [delete]
         marks the inode deleted before committing (section 2.3.7) *)
  (* --- close protocol (3 messages; see the race note in section 2.3.3) --- *)
  | Us_close : { gf : Catalog.Gfile.t; mode : open_mode; grant : int; released : bool } -> unit req
    (* US -> SS. [grant] names the read lease whose deferred close this
       is (0: no lease, the paper's close); it costs 4 bytes only when
       nonzero. [released]: the CSS released the grant at its break, so
       the SS ends its registration and sends no [Ss_close]; it packs
       into the mode byte. *)
  | Ss_close : { gf : Catalog.Gfile.t; us : Net.Site.t; mode : open_mode; grant : int } -> unit req
    (* SS -> CSS: the close leg; a nonzero [grant] (4 bytes) releases
       that grant, and nothing once its break already has *)
  (* --- commit notification and propagation (section 2.3.6) --- *)
  | Commit_notify : {
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
      carried : (inode_info * string list) option;
        (* the committed inode and the modified pages below its eof, in
           [modified] order: a copy at the version this commit replaced
           installs them without pulling *)
    } -> unit req
  | Reclaim_req : { gf : Catalog.Gfile.t } -> unit req
    (* CSS -> SS: every storage site has seen the delete; the inode number
       can be reallocated (section 2.3.7) *)
  | Page_invalidate : { gf : Catalog.Gfile.t; first : int; count : int } -> unit req
    (* SS -> other USs it serves: your buffered copies of pages [first] to
       [first + count - 1] are no longer valid (the page-valid tokens of
       section 3.2). One covers every page a [Write_pages] wrote or cut. *)
  | Lease_break : { gf : Catalog.Gfile.t; id : int; closed : bool } -> unit req
    (* CSS -> lease holder, a call: grant [id] on this file is revoked (a
       writer opened, a new version committed, a conflict or delete was
       recorded). The CSS released the grant's reader count itself, and
       with [closed] its SS registration too, served at the CSS: the
       holder kills its grant [id] (a newer grant stays) and sends no
       close, or with [closed] false only the SS half. *)
  (* --- interrogation --- *)
  | Set_attr : { gf : Catalog.Gfile.t; perms : int option; owner : string option } -> Vvec.t req
    (* US -> SS: chmod/chown; a metadata-only commit (section 2.3.6's
       "just inode information changed" case) *)
  | Where_stored : { gf : Catalog.Gfile.t; stat : bool } -> where req
    (* CSS bookkeeping query; [stat] also asks for the inode, which a CSS
       holding the latest copy returns itself *)
  | Lookup_req : { gf : Catalog.Gfile.t; comps : string list; near : bool } -> lookup_reply req
    (* US -> SS: walk as many of the remaining pathname components from
       [gf] as this site stores, in one round trip (section 2.3.4); with
       [near], each step also returns its page's other live links *)
  (* --- tokens (section 3.2) --- *)
  | Token_req : { key : token_key; for_site : Net.Site.t } -> string req
  | Token_state_req : { key : token_key } -> string req (* fetch guarded state with the token *)
  (* --- remote processes (section 3) --- *)
  | Fork_req : { child_pid : int; env : process_env; image_pages : int; parent : int * Net.Site.t } -> int req
  | Exec_req : { pid : int; path : string; env : process_env; parent : int * Net.Site.t } -> int req
  | Run_req : {
      child_pid : int;
      path : string;
      env : process_env;
      parent : int * Net.Site.t;
      context_override : string list option;
        (* caller-specified hidden-directory context, applied after exec *)
    } -> int req
  | Signal_req : { pid : int; signo : int } -> unit req
  | Exit_notify : { pid : int; status : int } -> unit req
  (* --- reconfiguration (section 5) --- *)
  | Part_poll : Net.Site.t list req (* partition protocol poll: send me your partition set *)
  | Part_announce : { members : Net.Site.t list } -> unit req
  | Merge_poll : { initiator : Net.Site.t } -> merge_answer req
  | Merge_announce : { members : Net.Site.t list } -> unit req
  | Status_check : (int * Net.Site.t) req
  (* protocol-synchronization probe of section 5.7: the answering site and
     its reconfiguration stage *)
  | Open_files_query : { fg : int } -> (int * open_mode * Net.Site.t) list req
    (* new CSS rebuilding its lock table after reconfiguration (section 5.6) *)
  | Pack_inventory : { fg : int } -> (int * Vvec.t * Storage.Inode.ftype * bool) list req
    (* recovery: which inodes does your pack store, at which versions? *)
  | Pipe_write : { gf : Catalog.Gfile.t; data : string } -> unit req
  | Pipe_read : { gf : Catalog.Gfile.t; max : int } -> string req

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
    + (match ino with Some _ -> 4 + 8 | None -> 0)
  | Unlink { name; _ } -> 2 + String.length name
  | Link { name; _ } -> 2 + 4 + 1 + String.length name

(* A batch of pages costs one byte, then a small length frame plus its
   payload per page; a lone page needs no frame. *)
let pages_bytes = function
  | [ data ] -> 1 + String.length data
  | pages -> List.fold_left (fun a p -> a + 2 + String.length p) 1 pages

(* The body of a write run, past the header and file: a truncate alone
   carries just the size; a run carries a page number, an offset and a
   whole-page flag within one page and a run header across several, and
   pays 4 bytes for a truncate only when it carries one. *)
let run_bytes ~trunc ~off len =
  match (trunc, len) with
  | Some _, 0 -> 4
  | _ ->
    (if off + len <= Storage.Page.size then 9 else 12)
    + (if Option.is_some trunc then 4 else 0)
    + len

(* A lease grant id travels only when there is one. *)
let grant_bytes id = if id = 0 then 0 else 4

let req_bytes : type a. a req -> int = function
  | Open_req { us_vv; want; release; _ } ->
    header + gfile_bytes + 2
    + (match us_vv with Some v -> vv_bytes v | None -> 0)
    + (if want > 0 then 4 else 0)
    + if Option.is_some release then gfile_bytes + 5 else 0
  | Storage_req { vv; others; _ } ->
    header + gfile_bytes + vv_bytes vv + 5 + site_list_bytes others
  (* A stat is the header and the file: at count 0 the page number, the
     guess and the flags carry nothing. *)
  | Read_pages { count = 0; stat = true; _ } -> header + gfile_bytes
  (* The one-page forms cost what the paper's one-page messages do: a
     count travels only when it is not 1, and a write within one page carries a page number, an offset and a
     whole-page flag, not a run header. A background read's flags travel
     in one byte, only when set. *)
  | Read_pages { count; committed; stat; vv; _ } ->
    header + gfile_bytes + 8
    + (if count <> 1 then 4 else 0)
    + (if committed || stat then 1 else 0)
    + (match vv with Some v -> vv_bytes v | None -> 0)
  | Write_pages { trunc; off; len; _ } -> header + gfile_bytes + run_bytes ~trunc ~off len
  | Dir_intent { op; _ } -> header + gfile_bytes + intent_bytes op
  | Intent_step { step = Step_dir { op; others; refuse; stale; _ }; _ } ->
    header + 4 + gfile_bytes + intent_bytes op + site_list_bytes others
    + (5 * List.length refuse) + (4 * List.length stale)
  | Intent_step { step = Step_link _; _ } -> header + 4 + gfile_bytes + 4
  | Commit_req { force_vv; run; _ } ->
    header + gfile_bytes + 1
    + (match force_vv with Some v -> vv_bytes v | None -> 0)
    + (match run with
      | Some { run_trunc; run_off; run_data; _ } ->
        run_bytes ~trunc:run_trunc ~off:run_off (String.length run_data)
      | None -> 0)
  | Us_close { grant; _ } -> header + gfile_bytes + 1 + grant_bytes grant
  | Ss_close { grant; _ } -> header + gfile_bytes + 5 + grant_bytes grant
  | Commit_notify { vv; modified; carried; _ } ->
    header + gfile_bytes + vv_bytes vv + 3 + (4 * List.length modified) + 4
    + (match carried with Some (info, pages) -> info_bytes info + pages_bytes pages | None -> 0)
  | Reclaim_req _ -> header + gfile_bytes
  | Page_invalidate { count; _ } -> header + gfile_bytes + 4 + if count <> 1 then 4 else 0
  | Lease_break _ -> header + gfile_bytes + 5
  | Set_attr { owner; _ } ->
    header + gfile_bytes + 6
    + (match owner with Some o -> String.length o | None -> 0)
  | Where_stored { stat; _ } -> header + gfile_bytes + if stat then 1 else 0
  | Lookup_req { comps; near; _ } ->
    header + gfile_bytes
    + List.fold_left (fun a c -> a + 1 + String.length c) 0 comps
    + if near then 1 else 0
  | Token_req { key; _ } -> header + token_bytes key + 4
  | Token_state_req { key } -> header + token_bytes key
  | Fork_req { env; image_pages; _ } ->
    (* A fork ships the whole process image to the destination site. *)
    header + 16 + env_bytes env + (image_pages * page_bytes)
  | Exec_req { path; env; _ } -> header + 12 + String.length path + env_bytes env
  | Run_req { path; env; context_override; _ } ->
    header + 12 + String.length path + env_bytes env
    + (match context_override with
      | Some c -> List.fold_left (fun a s -> a + 1 + String.length s) 0 c
      | None -> 0)
  | Signal_req _ -> header + 8
  | Exit_notify _ -> header + 8
  | Part_poll -> header
  | Part_announce { members } -> header + site_list_bytes members
  | Merge_poll _ -> header + 4
  | Merge_announce { members } -> header + site_list_bytes members
  | Status_check -> header
  | Open_files_query _ -> header + 4
  | Pack_inventory _ -> header + 4
  | Pipe_write { data; _ } -> header + gfile_bytes + String.length data
  | Pipe_read _ -> header + gfile_bytes + 4

let intent_reply_bytes { dir_vv; file; mtime; _ } =
  header + 6 + vv_bytes dir_vv
  + (match file with Some (vv, _) -> 1 + vv_bytes vv | None -> 0)
  + if Option.is_some mtime then 8 else 0

(* A reply's wire size, by the request it answers. *)
let resp_bytes : type a. a req -> a -> int =
 fun req reply ->
  let info_opt = function Some i -> info_bytes i | None -> 0 in
  match req with
  | Open_req _ ->
    let { info; others; pages; lease; _ } : open_grant = reply in
    header + 5 + grant_bytes lease + info_opt info + site_list_bytes others
    + if pages = [] then 0 else pages_bytes pages
  | Storage_req _ -> header + 1 + (match reply with Some (i, _) -> info_bytes i | None -> 0)
  | Read_pages _ ->
    (* One header for the whole batch; each page pays only a small length
       frame plus its payload — the honest accounting that makes the bulk
       win fewer headers and RTTs, not free bytes. With no pages and an
       inode it is the stat reply. *)
    let { pages; info; _ } : pages = reply in
    header + pages_bytes pages + info_opt info
  | Commit_req _ -> header + vv_bytes reply
  | Set_attr _ -> header + vv_bytes reply
  | Dir_intent _ -> intent_reply_bytes reply
  | Intent_step { step = Step_dir _; _ } -> intent_reply_bytes reply
  | Intent_step { step = Step_link _; _ } -> header + 1 + vv_bytes (fst reply)
  | Lookup_req _ ->
    header + gfile_bytes + 4
    + List.fold_left
        (fun a s ->
          (* a neighbour: name length u16, inode number, type byte *)
          List.fold_left
            (fun a n -> a + 7 + String.length n.n_name)
            (a + (2 * gfile_bytes) + vv_bytes s.l_vv + 1)
            s.l_near)
        0 reply.trail
  | Where_stored _ -> header + site_list_bytes reply.sites + info_opt reply.info
  | Token_req _ -> header + 1 + String.length reply
  | Token_state_req _ -> header + 1 + String.length reply
  | Fork_req _ -> header + 4
  | Exec_req _ -> header + 4
  | Run_req _ -> header + 4
  | Part_poll -> header + site_list_bytes reply
  | Merge_poll _ -> (
    match reply with
    | Believed_up sites -> header + site_list_bytes sites
    | Busy _ -> header + 4)
  | Status_check -> header + 8
  | Open_files_query _ -> header + (9 * List.length reply)
  | Pack_inventory _ ->
    (* 4 bytes of inode number and one flag byte holding the type and the
       deleted bit *)
    header + List.fold_left (fun a (_, vv, _, _) -> a + 5 + vv_bytes vv) 0 reply
  | Pipe_read _ -> header + String.length reply
  | Write_pages _ | Us_close _ | Ss_close _ | Commit_notify _ | Reclaim_req _
  | Page_invalidate _ | Lease_break _ | Signal_req _ | Exit_notify _ | Part_announce _
  | Merge_announce _ | Pipe_write _ ->
    header

(* The one error reply, whatever the request: the header and the errno. *)
let refused_bytes = header + 4

(* Every message class, indexed by [tag]: the names of its stats. *)
let tag_names =
  [| "open"; "storage"; "stat"; "read"; "truncate"; "write"; "commit"; "close.us";
     "close.ss"; "notify"; "reclaim"; "page.invalidate"; "lease.break"; "dirop";
     "dirop.step"; "setattr"; "where"; "lookup"; "token"; "token.state"; "fork"; "exec";
     "run"; "signal"; "exit"; "part.poll"; "part.announce"; "merge.poll";
     "merge.announce"; "status"; "lock.rebuild"; "inventory"; "pipe.write"; "pipe.read" |]

let tag : type a. a req -> int = function
  | Open_req _ -> 0
  | Storage_req _ -> 1
  | Read_pages { count = 0; stat = true; _ } -> 2
  | Read_pages _ -> 3
  | Write_pages { trunc = Some _; len = 0; _ } -> 4
  | Write_pages _ -> 5
  | Commit_req _ -> 6
  | Us_close _ -> 7
  | Ss_close _ -> 8
  | Commit_notify _ -> 9
  | Reclaim_req _ -> 10
  | Page_invalidate _ -> 11
  | Lease_break _ -> 12
  | Dir_intent _ -> 13
  | Intent_step _ -> 14
  | Set_attr _ -> 15
  | Where_stored _ -> 16
  | Lookup_req _ -> 17
  | Token_req _ -> 18
  | Token_state_req _ -> 19
  | Fork_req _ -> 20
  | Exec_req _ -> 21
  | Run_req _ -> 22
  | Signal_req _ -> 23
  | Exit_notify _ -> 24
  | Part_poll -> 25
  | Part_announce _ -> 26
  | Merge_poll _ -> 27
  | Merge_announce _ -> 28
  | Status_check -> 29
  | Open_files_query _ -> 30
  | Pack_inventory _ -> 31
  | Pipe_write _ -> 32
  | Pipe_read _ -> 33

let tag_name req = tag_names.(tag req)

(* Requests whose handler has the same effect run twice as once: reads,
   queries, token traffic, absolutely positioned writes and re-sendable
   notifications. The transport records every other request it ran, so a
   resend of it is answered from the first run's reply. *)
let idempotent : type a. a req -> bool = function
  | Read_pages _ | Where_stored _ | Lookup_req _
  | Open_files_query _ | Pack_inventory _ | Token_state_req _ | Token_req _
  | Page_invalidate _ | Lease_break _ | Reclaim_req _ | Commit_notify _
  | Write_pages _ | Part_poll | Part_announce _ | Merge_poll _ | Merge_announce _
  | Status_check ->
    true
  | Open_req _ | Storage_req _ | Commit_req _ | Us_close _ | Ss_close _
  | Dir_intent _ | Intent_step _ | Set_attr _ | Fork_req _ | Exec_req _
  | Run_req _ | Signal_req _ | Exit_notify _ | Pipe_write _ | Pipe_read _ ->
    false

(* Reconfiguration probes are single-shot because unreachability is the
   information being gathered (section 5.4); everything else may resend. *)
let policy : type a. a req -> Net.Netsim.policy = function
  | Part_poll | Part_announce _ | Merge_poll _ | Merge_announce _
  | Status_check ->
    Net.Netsim.probe
  | _ -> Net.Netsim.default_policy
