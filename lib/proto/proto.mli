(** Kernel-to-kernel protocol vocabulary.

    These are the lowest-level protocols in the system: single
    request/response exchanges with no layered acknowledgements, flow
    control, or retransmission stack underneath — "this specialized
    protocol is an important contributor to LOCUS performance" (§2.3.3).
    Each constructor of {!req} is one message of the paper's open / read /
    write / commit / close / create protocols, the remote-process
    machinery (§3), or the reconfiguration protocols (§5). A request has
    exactly one kind of response, and its type index names it: an
    [Open_req] is answered by an {!open_grant}, a [Read_pages] by
    {!pages}, a close or a one-way message by [unit]. A refusal is no
    reply of its own: the handler raises {!Error}, and the transport
    answers any request with the errno, the one error reply, at
    {!refused_bytes}.

    This module is the protocol {!Net.Netsim.Make} is applied to:
    {!req_bytes} and {!resp_bytes} define the wire-size model used for
    latency charging and byte accounting, {!tag} labels messages in the
    per-category statistics, and {!idempotent} and {!policy} tell the
    transport what a resend may do. *)

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

exception Error of errno * string
(** Every kernel failure, local or reflected from a remote site (§3.3).
    Raised by a handler, it is the request's refusal: the caller's
    transport returns {!Net.Netsim.Refused} with the errno. *)

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

(** A live link on the directory page a server-side search read, other
    than the one the component named: [n_ino] is in the directory's
    filegroup. On the wire it costs 7 bytes plus the name (name length
    u16, inode number 4 bytes, type 1 byte). *)
type near_link = { n_name : string; n_ino : int; n_ftype : Storage.Inode.ftype }

(** One directory-search step performed server-side by {!Lookup_req}: the
    directory searched, its version vector at search time, and the gfile
    the component named. The using site turns each step into a name-cache
    entry keyed by the directory's version. *)
type lookup_step = {
  l_dir : Catalog.Gfile.t;
  l_vv : Vv.Version_vector.t;
  l_child : Catalog.Gfile.t;
  l_ftype : Storage.Inode.ftype;
      (** the child's type, as the directory entry records it: known
          whether or not the serving site stores the child *)
  l_near : near_link list;
      (** for a [near] lookup, the other live links on the page the search
          read (no tombstone, no ["."] or [".."], no record past the
          committed size, no inode the serving pack marks deleted), filed
          under the same [l_dir] and [l_vv]; empty otherwise *)
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
      ino : (int * float) option;
          (** the inode number and its allocation time, when the using
              site is the first storage site and allocated it (12 bytes);
              [None] lets the storage site that enters the name allocate
              it, after the name check *)
    }
  | Unlink of { name : string; links : bool }
  | Link of { name : string; ino : int; ftype : Storage.Inode.ftype; links : bool }
      (** [ftype] is the target's type, which the new entry records *)

(** An intent's reply: its inode, the type its entry records (a rename's
    unlink half hands it to the link half) and the directory's new
    version, at one byte for the type; [file] is the file's new version
    and deleted flag when the replying site changed its link count (or,
    for a create, allocated it), and [mtime] the allocated inode's time, 8
    bytes, which only a storing site's reply to the CSS carries. *)
type intent_reply = {
  ino : int;
  ftype : Storage.Inode.ftype;
  dir_vv : Vv.Version_vector.t;
  file : (Vv.Version_vector.t * bool) option;
  mtime : float option;
}

(** What a CSS forwards to a storage site for an intent, indexed by the
    step's reply. *)
type _ intent_step =
  | Step_dir : {
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
    }
      -> intent_reply intent_step  (** apply the record change, commit the directory *)
  | Step_link : { gf : Catalog.Gfile.t; delta : int } -> (Vv.Version_vector.t * bool) intent_step
      (** change a file's link count; at zero links, a delete commit. The
          reply is the file's new version, and whether its last link
          went. *)

(** A write run riding a {!Commit_req}: the fields of a {!Write_pages},
    at most a window of pages. *)
type run = { run_trunc : int option; run_first : int; run_off : int; run_data : string }

(** {1 Replies} *)

(** The CSS's answer to an open. *)
type open_grant = {
  ss : Net.Site.t;
  info : inode_info option;
    (** the chosen copy's inode; [None] on the US-is-current shortcut
        (§2.3.3, optimization 1), where [ss] is the US itself: it reads
        its own inode and registers its own serving state, which no
        storage poll made. [None] costs no bytes. *)
  others : Net.Site.t list;
  nocache : bool;
  slot : int;
  lease : int;
    (** nonzero: the id of a revocable read lease the CSS granted on
        [(gf, vv)]. The US may retain the whole grant across close and
        re-open with zero messages until a [Lease_break] names the id. 4
        bytes only when nonzero, so the [open_lease_entries = 0] ablation
        is byte-identical. *)
  pages : string list;
    (** the committed copy's first pages, up to the request's [want]:
        only when the CSS is itself the SS of a remote US's read open,
        with no writer. Empty otherwise, and then the reply costs what the
        paper's does; framed like {!pages}. *)
}

(** The pages answering a [Read_pages]; fewer than asked when the file
    ends mid-window, [eof] when the batch reaches end of file (or started
    past it). [info] is the committed copy's inode when the request set
    [stat] or named another version, at [info_bytes]; [None] costs
    nothing. The stat reply is this with no pages. *)
type pages = { pages : string list; eof : bool; info : inode_info option }

(** Where the server-side walk stopped, how many components it consumed,
    and one trail step per consumed component. *)
type lookup_reply = { gf : Catalog.Gfile.t; consumed : int; trail : lookup_step list }

(** The reachable sites holding the latest version, and for a [stat] query
    the CSS's own copy's inode when that copy is the latest, at
    [info_bytes]. *)
type where = { sites : Net.Site.t list; info : inode_info option }

(** A merge poll's answer. *)
type merge_answer =
  | Believed_up of Net.Site.t list  (** the sites the polled site believes up *)
  | Busy of Net.Site.t  (** the polled site takes part in this site's merge *)

(** {1 Requests} *)

type _ req =
  | Open_req : {
      gf : Catalog.Gfile.t;
      mode : open_mode;
      us_vv : Vv.Version_vector.t option;
      shared : bool;
      want : int;
      release : (Catalog.Gfile.t * open_mode * int) option;
    } -> open_grant req  (** US → CSS: the open request of Figure 2; carries the US's copy
           version for the US-is-current optimization. [shared] joins an
           existing open through a forked descriptor. [want] asks a CSS
           that serves a read open itself to carry up to that many of the
           file's first pages in its {!open_grant}; 0, the paper's open, asks
           for none and costs no bytes. [release] is the [Us_close] of a
           lease the open evicted at the using site, whose SS is this CSS,
           naming its grant id: it runs before the open, whatever the open
           answers, and costs 13 bytes (a file, a mode and the id) only
           when present. *)
  | Storage_req : {
      gf : Catalog.Gfile.t;
      vv : Vv.Version_vector.t;
      us : Net.Site.t;
      mode : open_mode;
      others : Net.Site.t list;
    } -> (inode_info * int) option req  (** CSS → candidate SS: will you serve this open at this version?
           [others] lets the SS send its commit notifications directly. *)
  | Read_pages : {
      gf : Catalog.Gfile.t;
      first : int;
      count : int;
      guess : int;
      committed : bool;
      stat : bool;
      vv : Vv.Version_vector.t option;
    } -> pages req  (** US → SS: up to [count] consecutive pages from [first], in one
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
           refuses. A using site's read open names its version in
           [vv], at [vv_bytes] ([None] costs nothing): a copy at another
           version answers with its inode, so the using site never files
           a page under a version its SS did not serve. *)
  | Write_pages : {
      gf : Catalog.Gfile.t;
      trunc : int option;
      first : int;
      off : int;
      data : string;
      pos : int;
      len : int;
    } -> unit req
      (** US → SS: shrink the open modification session's file to
          [trunc] bytes when set, then write a contiguous run of modified
          bytes starting at byte [off] within page [first] — one page of
          modification (whole or patch), a coalesced write-behind batch
          over several pages, or the first window of a whole-file
          overwrite with its truncate to 0. The run is the [len] bytes of
          [data] from [pos]: a window of the sender's body travels without
          a copy, and only those bytes are priced. With [trunc] and no data it is
          the truncate alone, tagged ["truncate"] and sized as the old
          separate truncate message; a run pays 4 bytes for [trunc] only
          when it is set. Absolute positioning keeps the request
          idempotent: a resend runs it again. *)
  | Dir_intent : { dir : Catalog.Gfile.t; op : intent } -> intent_reply req
      (** US → CSS: one name-space change. The CSS takes the directory's
          modification lock (and the target file's, for a counted unlink
          or link), has a storage site change the record and commit, and
          answers with the {!intent_reply}. *)
  | Intent_step : { us : Net.Site.t; step : 'a intent_step } -> 'a req
      (** CSS → SS: the forwarded work of [us]'s intent, answered as its
          step says. *)
  | Commit_req : {
      gf : Catalog.Gfile.t;
      abort : bool;
      delete : bool;
      force_vv : Vv.Version_vector.t option;
      run : run option;
    } -> Vv.Version_vector.t req  (** US → SS: commit/abort the open modification; [delete] marks
           the inode deleted (§2.3.7); [force_vv] installs recovery's
           merged vector. The commit goes to the open's one SS. [run] is
           the write the commit follows: the SS writes it into the session
           as a [Write_pages] would, then commits, in one round trip. It
           is sized as a [Write_pages] body, and only when present. The
           transport answers a resend from the first run's reply, so it never
           writes the run twice. *)
  | Us_close : { gf : Catalog.Gfile.t; mode : open_mode; grant : int; released : bool } -> unit req
      (** US → SS, the first leg of the close. A lease's deferred close
          names its [grant] id (4 bytes, only when nonzero; 0 is the
          paper's close). [released] (in the mode byte) says the CSS
          released the grant at its break: the SS ends its registration
          and sends no [Ss_close]. *)
  | Ss_close : {
      gf : Catalog.Gfile.t;
      us : Net.Site.t;
      mode : open_mode;
      grant : int;
    } -> unit req  (** the race-free three-message close (§2.3.3 footnote). A nonzero
           [grant] (4 bytes) releases that grant at the CSS, and nothing
           when its break already did. *)
  | Commit_notify : {
      gf : Catalog.Gfile.t;
      vv : Vv.Version_vector.t;
      meta_only : bool;
      modified : int list;
      origin : Net.Site.t;
      fresh : bool;
      deleted : bool;
      designate : bool;
      carried : (inode_info * string list) option;
    } -> unit req  (** SS → CSS and other storage sites after a commit (§2.3.6).
           [modified] lets receivers pull just the changes; [designate]
           makes a site pull its first copy. Above a window of 1, the
           notification of a fresh commit to the other storing sites
           [carried] the committed inode and the modified pages below
           its eof, in [modified] order, when the commit modified 1 to
           [bulk_window] pages or only the inode: a copy exactly at the
           version the commit replaced installs them with no message,
           and any other copy pulls. The payload costs [info_bytes] plus
           [pages_bytes] only when present, so a notification carrying
           nothing keeps the paper's size. *)
  | Reclaim_req : { gf : Catalog.Gfile.t } -> unit req
      (** CSS → SS: all storage sites saw the delete; release the inode
          number (§2.3.7). *)
  | Page_invalidate : { gf : Catalog.Gfile.t; first : int; count : int } -> unit req
      (** SS → other USs: buffered copies of pages [first] to
          [first + count - 1] are no longer valid (§3.2). The SS sends one
          per [Write_pages], covering every page it wrote or its truncate
          cut. A count travels only when it is not 1. *)
  | Lease_break : { gf : Catalog.Gfile.t; id : int; closed : bool } -> unit req
      (** CSS → lease holder, a call the transport retries: grant [id] on
          this file is revoked (writer open, new committed version,
          conflict/delete). The break is the close: the CSS already
          uncounted the reader, and with [closed] it also ended the
          grant's SS registration, which it serves itself. The holder
          kills its entry only when it holds grant [id], and then sends no
          close ([closed]) or only the [Us_close] that ends the remote
          SS's registration. *)
  | Set_attr : { gf : Catalog.Gfile.t; perms : int option; owner : string option } -> Vv.Version_vector.t req
      (** metadata-only commits (§2.3.6's "just inode information") *)
  | Where_stored : { gf : Catalog.Gfile.t; stat : bool } -> where req
      (** US → CSS: which reachable sites hold the latest version? With
          [stat] (1 byte) a CSS whose own copy is the latest also answers
          with its inode: a stat in one round trip. *)
  | Lookup_req : { gf : Catalog.Gfile.t; comps : string list; near : bool } -> lookup_reply req
      (** US → SS: walk as many of the remaining pathname components from
          [gf] as this site stores, in one round trip — §2.3.4's remedy
          for per-component internal opens. The walk stops at mount
          points, hidden directories, [".."], deleted inodes, and
          pack/filegroup boundaries; the US resumes from there. With
          [near] (1 byte, only when set) each step also carries its
          page's other live links ({!lookup_step.l_near}): a site re-warms
          a directory a merge dropped from its name cache. *)
  | Token_req : { key : token_key; for_site : Net.Site.t } -> string req
  | Token_state_req : { key : token_key } -> string req
  | Fork_req : {
      child_pid : int;
      env : process_env;
      image_pages : int;
      parent : int * Net.Site.t;
    } -> int req  (** remote fork ships the process image (§3.1) *)
  | Exec_req : {
      pid : int;
      path : string;
      env : process_env;
      parent : int * Net.Site.t;
    } -> int req
  | Run_req : {
      child_pid : int;
      path : string;
      env : process_env;
      parent : int * Net.Site.t;
      context_override : string list option;
    } -> int req  (** the optimized fork+exec: no image copy; the override is the
           caller's environment parameterization *)
  | Signal_req : { pid : int; signo : int } -> unit req
  | Exit_notify : { pid : int; status : int } -> unit req
  | Part_poll : Net.Site.t list req
      (** partition protocol poll (§5.4): the answer is the polled site's
          partition set, and the transport names the poller *)
  | Part_announce : { members : Net.Site.t list } -> unit req
  | Merge_poll : { initiator : Net.Site.t } -> merge_answer req
  | Merge_announce : { members : Net.Site.t list } -> unit req
      (** the merge's new partition (§5.5); each member places every
          filegroup's CSS itself, by the replicated placement function
          over the members holding its pack, so no assignment travels *)
  | Status_check : (int * Net.Site.t) req
      (** the §5.7 synchronization probe: the polled site's stage, and the
          site *)
  | Open_files_query : { fg : int } -> (int * open_mode * Net.Site.t) list req
      (** lock-table rebuild input (§5.6) *)
  | Pack_inventory : { fg : int } -> (int * Vv.Version_vector.t * Storage.Inode.ftype * bool) list req
  | Pipe_write : { gf : Catalog.Gfile.t; data : string } -> unit req
  | Pipe_read : { gf : Catalog.Gfile.t; max : int } -> string req

(** {1 Wire-size model and transport facts} *)

val req_bytes : 'a req -> int
(** Modelled wire size of a request, bytes (header + scaled payload; a
    remote fork includes the shipped image). *)

val resp_bytes : 'a req -> 'a -> int
(** Modelled wire size of the reply to a request. *)

val refused_bytes : int
(** The error reply's size, whatever the request: the header and the
    errno. *)

val tag_names : string array
(** Every message class's short label, which names its statistics. *)

val tag : 'a req -> int
(** The request's message class, an index of {!tag_names}. *)

val tag_name : 'a req -> string

val idempotent : 'a req -> bool
(** Running the request twice has the effect of running it once (reads,
    queries, token traffic, absolutely positioned writes, re-sendable
    notifications). For every other request the transport records the
    call, and a resend is answered from its first run's reply. *)

val policy : 'a req -> Net.Netsim.policy
(** {!Net.Netsim.probe} for the §5 reconfiguration polls, which must not
    retry since unreachability is their answer, and
    {!Net.Netsim.default_policy} for everything else. *)
