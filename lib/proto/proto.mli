(** Kernel-to-kernel protocol vocabulary.

    These are the lowest-level protocols in the system: single
    request/response exchanges with no layered acknowledgements, flow
    control, or retransmission stack underneath — "this specialized
    protocol is an important contributor to LOCUS performance" (§2.3.3).
    Each constructor corresponds to one message of the paper's
    open / read / write / commit / close / create protocols, the
    remote-process machinery (§3), or the reconfiguration protocols (§5).

    {!req_bytes} and {!resp_bytes} define the wire-size model used for
    latency charging and byte accounting; {!req_tag} labels messages in
    the per-category statistics. *)

(** {1 Open modes} *)

type open_mode =
  | Mode_read      (** normal synchronized read *)
  | Mode_modify    (** open for update; one per file per partition *)
  | Mode_internal  (** unsynchronized internal read (pathname searching) *)

val pp_mode : Format.formatter -> open_mode -> unit

(** {1 Errors reflected across machine boundaries} *)

type errno =
  | Enoent
  | Enotdir
  | Eisdir
  | Eexist
  | Eaccess
  | Ebusy       (** the synchronization policy refused the open *)
  | Estale      (** stale CSS knowledge / file replaced *)
  | Econflict   (** copies in version-vector conflict; access blocked (§4.6) *)
  | Enospc
  | Eio
  | Enet        (** partition or site failure mid-operation *)
  | Esrch       (** no such process *)
  | Edeadtoken  (** token holder unreachable *)
  | Einval

val errno_to_string : errno -> string

val pp_errno : Format.formatter -> errno -> unit

(** {1 Shipped descriptor information} *)

(** Disk-inode information carried in open/stat responses: "all the disk
    inode information (eg. file size, ownership, permissions) is obtained
    from the CSS response" (§2.3.3). *)
type inode_info = {
  i_ftype : Storage.Inode.ftype;
  i_size : int;
  i_nlink : int;
  i_owner : string;
  i_perms : int;
  i_mtime : float;
  i_vv : Vv.Version_vector.t;
  i_deleted : bool;
}

val info_of_inode : Storage.Inode.t -> inode_info

(** {1 Tokens (§3.2)} *)

type token_key =
  | Tok_fd of int * int
      (** shared file-descriptor offset token: origin site, serial *)

val pp_token : Format.formatter -> token_key -> unit

(** {1 Process environment (§3.1)} *)

(** One shared open descriptor carried to a forked child: parent and
    child share it, with the token deciding whose file position is
    valid. *)
type fd_desc = {
  d_num : int;
  d_key : int * int;
  d_gf : Catalog.Gfile.t;
  d_mode : open_mode;
}

type process_env = {
  e_uid : string;
  e_cwd : Catalog.Gfile.t;
  e_context : string list; (** hidden-directory context (§2.4.1) *)
  e_ncopies : int;         (** inherited replication factor (§2.3.7) *)
  e_fds : fd_desc list;
}

(** {1 Partial-pathname lookup (§2.3.4)} *)

(** One directory-search step performed server-side by {!Lookup_req}: the
    directory searched, its version vector at search time, and the gfile
    the component named. The using site turns each step into a name-cache
    entry keyed by the directory's version. *)
type lookup_step = {
  l_dir : Catalog.Gfile.t;
  l_vv : Vv.Version_vector.t;
  l_child : Catalog.Gfile.t;
  l_ftype : Storage.Inode.ftype option;
      (** the child's type, when its inode is stored at the serving site *)
}

(** {1 Directory intents} *)

(** One name-space change a using site asks the directory's CSS for, in
    one request ({!Dir_intent}). [links] is false only for the two halves
    of a rename, which move a name and leave the link count alone. *)
type intent =
  | Create of {
      name : string;
      ftype : Storage.Inode.ftype;
      owner : string;
      perms : int;
      ncopies : int;
      ino : int option;
          (** allocated by the using site when it is the first storage
              site; [None] lets the storage site that enters the name
              allocate it, after the name check *)
    }
  | Unlink of { name : string; links : bool }
  | Link of { name : string; ino : int; links : bool }

(** What a CSS forwards to a storage site for an intent. *)
type intent_step =
  | Step_dir of {
      dir : Catalog.Gfile.t;
      op : intent;
      others : Net.Site.t list;
          (** the other sites holding the directory's latest copy, which
              the commit notifies *)
      refuse : (int * errno) list;
          (** an unlink of a name bound to one of these inodes fails with
              the errno and changes nothing *)
      stale : int list;
          (** inodes whose link count the step must leave to the CSS: this
              site's copy is not the latest *)
    }  (** apply the record change, commit the directory *)
  | Step_link of { gf : Catalog.Gfile.t; delta : int }
      (** change a file's link count; at zero links, a delete commit *)

(** A write run riding a {!Commit_req}: the fields of a {!Write_pages},
    at most a window of pages. *)
type run = { run_trunc : int option; run_first : int; run_off : int; run_data : string }

(** {1 Requests} *)

type req =
  | Open_req of {
      gf : Catalog.Gfile.t;
      mode : open_mode;
      us_vv : Vv.Version_vector.t option;
      shared : bool;
      want : int;
    }  (** US → CSS: the open request of Figure 2; carries the US's copy
           version for the US-is-current optimization. [shared] joins an
           existing open through a forked descriptor. [want] asks a CSS
           that serves a read open itself to carry up to that many of the
           file's first pages in its [R_open]; 0, the paper's open, asks
           for none and costs no bytes. *)
  | Storage_req of {
      gf : Catalog.Gfile.t;
      vv : Vv.Version_vector.t;
      us : Net.Site.t;
      mode : open_mode;
      others : Net.Site.t list;
    }  (** CSS → candidate SS: will you serve this open at this version?
           [others] lets the SS send its commit notifications directly. *)
  | Read_pages of {
      gf : Catalog.Gfile.t;
      first : int;
      count : int;
      guess : int;
      committed : bool;
      stat : bool;
    }  (** US → SS: up to [count] consecutive pages from [first], in one
           round trip — the network read protocol (§2.3.3), used alike by
           the using site, propagation pulls and reconciliation. [count] =
           1 is the paper's one-page read and costs what it did on the
           wire. [guess] locates the incore inode. A using site reads an open modification
           session's pages when one exists; a background read (a pull,
           reconciliation) sets [committed] and reads only the committed
           copy. [stat] also asks for that copy's inode in the reply; it
           implies [committed]. The flags cost one byte, only when set.
           With [stat] and a [count] of 0 it is the stat message: tagged
           ["stat"] and priced as the header and the file, since [first],
           [guess] and the flags then carry nothing. A site with no copy
           answers [R_err]. *)
  | Write_pages of {
      gf : Catalog.Gfile.t;
      trunc : int option;
      first : int;
      off : int;
      data : string;
    }
      (** US → SS: shrink the open modification session's file to
          [trunc] bytes when set, then write a contiguous run of modified
          bytes starting at byte [off] within page [first] — one page of
          modification (whole or patch), a coalesced write-behind batch
          over several pages, or the first window of a whole-file
          overwrite with its truncate to 0. With [trunc] and no data it is
          the truncate alone, tagged ["truncate"] and sized as the old
          separate truncate message; a run pays 4 bytes for [trunc] only
          when it is set. Absolute positioning keeps the request
          idempotent: the transport keeps no reply for it. *)
  | Dir_intent of { dir : Catalog.Gfile.t; op : intent }
      (** US → CSS: one name-space change. The CSS takes the directory's
          modification lock (and the target file's, for a counted unlink
          or link), has a storage site change the record and commit, and
          answers [R_intent]. *)
  | Intent_step of { us : Net.Site.t; step : intent_step }
      (** CSS → SS: the forwarded work of [us]'s intent, answered
          [R_intent] ([Step_dir]) or [R_linked] ([Step_link]). *)
  | Commit_req of {
      gf : Catalog.Gfile.t;
      us : Net.Site.t;
      abort : bool;
      delete : bool;
      force_vv : Vv.Version_vector.t option;
      run : run option;
    }  (** US → SS: commit/abort the open modification; [delete] marks
           the inode deleted (§2.3.7); [force_vv] installs recovery's
           merged vector. The commit goes to the open's one SS. [run] is
           the write the commit follows: the SS writes it into the session
           as a [Write_pages] would, then commits, in one round trip. It
           is sized as a [Write_pages] body, and only when present. The
           transport keeps the reply, so a resend never writes it twice. *)
  | Us_close of { gf : Catalog.Gfile.t; mode : open_mode }
  | Ss_close of {
      gf : Catalog.Gfile.t;
      ss : Net.Site.t;
      us : Net.Site.t;
      mode : open_mode;
    }  (** the race-free three-message close (§2.3.3 footnote) *)
  | Commit_notify of {
      gf : Catalog.Gfile.t;
      vv : Vv.Version_vector.t;
      meta_only : bool;
      modified : int list;
      origin : Net.Site.t;
      fresh : bool;
      deleted : bool;
      designate : bool;
      replicas : Net.Site.t list;
      carried : (inode_info * string list) option;
    }  (** SS → CSS and other storage sites after a commit (§2.3.6).
           [modified] lets receivers pull just the changes; [designate]
           makes a site pull its first copy; [replicas] registers
           create-time designations at the CSS. Above a window of 1, the
           notification of a fresh commit to the other storing sites
           [carried] the committed inode and the modified pages below
           its eof, in [modified] order, when the commit modified 1 to
           [bulk_window] pages or only the inode: a copy exactly at the
           version the commit replaced installs them with no message,
           and any other copy pulls. The payload costs [info_bytes] plus
           [pages_bytes] only when present, so a notification carrying
           nothing keeps the paper's size. *)
  | Reclaim_req of { gf : Catalog.Gfile.t }
      (** CSS → SS: all storage sites saw the delete; release the inode
          number (§2.3.7). *)
  | Page_invalidate of { gf : Catalog.Gfile.t; first : int; count : int }
      (** SS → other USs: buffered copies of pages [first] to
          [first + count - 1] are no longer valid (§3.2). The SS sends one
          per [Write_pages], covering every page it wrote or its truncate
          cut. A count travels only when it is not 1. *)
  | Lease_break of { gf : Catalog.Gfile.t }
      (** CSS → lease-holding US: the read lease on this file is revoked
          (writer open, new committed version, conflict/delete, or a
          partition event). The holder drops its retained open grant and
          sends any deferred close. *)
  | Set_attr of { gf : Catalog.Gfile.t; perms : int option; owner : string option }
      (** metadata-only commits (§2.3.6's "just inode information") *)
  | Where_stored of { gf : Catalog.Gfile.t }
  | Lookup_req of { gf : Catalog.Gfile.t; comps : string list }
      (** US → SS: walk as many of the remaining pathname components from
          [gf] as this site stores, in one round trip — §2.3.4's remedy
          for per-component internal opens. The walk stops at mount
          points, hidden directories, [".."], deleted inodes, and
          pack/filegroup boundaries; the US resumes from there. *)
  | Token_req of { key : token_key; for_site : Net.Site.t }
  | Token_state_req of { key : token_key }
  | Fork_req of {
      child_pid : int;
      env : process_env;
      image_pages : int;
      parent : int * Net.Site.t;
    }  (** remote fork ships the process image (§3.1) *)
  | Exec_req of {
      pid : int;
      path : string;
      env : process_env;
      image_pages : int;
      parent : int * Net.Site.t;
    }
  | Run_req of {
      child_pid : int;
      path : string;
      env : process_env;
      parent : int * Net.Site.t;
      context_override : string list option;
    }  (** the optimized fork+exec: no image copy; the override is the
           caller's environment parameterization *)
  | Signal_req of { pid : int; signo : int }
  | Exit_notify of { pid : int; status : int; child_site : Net.Site.t }
  | Part_poll of { initiator : Net.Site.t; pset : Net.Site.t list }
      (** partition protocol poll (§5.4) *)
  | Part_announce of { active : Net.Site.t; members : Net.Site.t list }
  | Merge_poll of { initiator : Net.Site.t }
  | Merge_announce of { members : Net.Site.t list }
      (** the merge's new partition (§5.5); each member places every
          filegroup's CSS itself, by the replicated placement function
          over the members holding its pack, so no assignment travels *)
  | Status_check of { asker : Net.Site.t }
      (** the §5.7 synchronization probe *)
  | Open_files_query of { fg : int }
      (** lock-table rebuild input (§5.6) *)
  | Pack_inventory of { fg : int }
  | Pipe_write of { gf : Catalog.Gfile.t; data : string }
  | Pipe_read of { gf : Catalog.Gfile.t; max : int }

(** {1 Responses} *)

type resp =
  | R_ok
  | R_err of errno
  | R_open of {
      ss : Net.Site.t;
      info : inode_info option;
        (** the chosen copy's inode; [None] on the US-is-current shortcut
            (§2.3.3, optimization 1), where [ss] is the US itself: it
            reads its own inode and registers its own serving state,
            which no storage poll made. [None] costs no bytes. *)
      others : Net.Site.t list;
      nocache : bool;
      slot : int;
      lease : bool;
        (** the CSS granted a revocable read lease on [(gf, vv)]: the US
            may retain the whole grant across close and re-open with zero
            messages until a [Lease_break] arrives. Packs into the same
            flag byte as [nocache] (wire size unchanged). *)
      pages : string list;
        (** the committed copy's first pages, up to the request's [want]:
            only when the CSS is itself the SS of a remote US's read open,
            with no writer. Empty otherwise, and then the
            reply costs what the paper's does; framed like [R_pages]. *)
    }
  | R_storage of { accept : bool; info : inode_info option; slot : int }
  | R_pages of { pages : string list; eof : bool; info : inode_info option }
      (** the pages answering a [Read_pages]; fewer than asked when
          the file ends mid-window, [eof] when the batch reaches end of
          file (or started past it). [info] is the committed copy's inode
          when the request set [stat], at [info_bytes]; [None] costs
          nothing. The stat reply is this with no pages. *)
  | R_committed of { vv : Vv.Version_vector.t }
  | R_intent of {
      ino : int;
      dir_vv : Vv.Version_vector.t;
      file : (Vv.Version_vector.t * bool) option;
    }
      (** an intent's inode and the directory's new version; [file] is
          the file's new version and deleted flag when the replying site
          changed its link count (or, for a create, allocated it) *)
  | R_linked of { vv : Vv.Version_vector.t; deleted : bool }
      (** a [Step_link]'s new version of the file; [deleted] when the last
          link went *)
  | R_lookup of { gf : Catalog.Gfile.t; consumed : int; trail : lookup_step list }
      (** where the server-side walk stopped, how many components it
          consumed, and one trail step per consumed component *)
  | R_where of { sites : Net.Site.t list }
      (** the reachable sites holding the latest version *)
  | R_token of { granted : bool; state : string }
  | R_pid of { pid : int }
  | R_pset of { pset : Net.Site.t list }
  | R_merge_info of { believed_up : Net.Site.t list }
      (** a merge poll's answer: the sites the polled site believes up *)
  | R_busy of { active : Net.Site.t }
  | R_status of { stage : int; site : Net.Site.t }
  | R_open_files of { files : (int * open_mode * Net.Site.t) list }
  | R_inventory of {
      files : (int * Vv.Version_vector.t * Storage.Inode.ftype * bool) list;
    }  (** ino, version, type, deleted? for every inode the pack stores *)
  | R_data of { data : string }

(** {1 Wire-size model} *)

val req_bytes : req -> int
(** Modelled wire size of a request, bytes (header + scaled payload; a
    remote fork includes the shipped image). *)

val resp_bytes : resp -> int

val req_tag : req -> string
(** Short label for per-category message statistics. *)

val req_idempotent : req -> bool
(** Whether running the request twice has the effect of running it once
    (reads, queries, token traffic, absolutely positioned writes,
    re-sendable notifications). The transport keeps no reply for these
    ({!Net.Netsim.set_idempotent_classifier}); it keeps the reply of every
    other request, so a resend is answered without running it again. *)

val req_policy : req -> Net.Rpc.policy
(** Transport retry policy: {!Net.Rpc.probe} for the §5 reconfiguration
    polls — those must not retry, since unreachability is their answer —
    and {!Net.Rpc.default_policy} for everything else. *)
