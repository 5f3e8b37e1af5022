(** The LOCUS kernel: construction and the user-visible system-call layer.

    One [t] is the resident kernel of one site. The system calls mirror the
    paper's list — open, create, read, write, commit, close, unlink (§2.3)
    — plus the process calls of §3 and the replication-control calls of
    §2.3.7. All of them are location transparent: the same call with the
    same parameters works whether the file (or process) is local or remote.

    System calls take the calling {!Ktypes.proc} because per-process state
    (uid, working directory, hidden-directory context, replication factor,
    execution advice) shapes their behaviour. *)

type t = Ktypes.t

val create :
  site:Net.Site.t ->
  machine_type:string ->
  engine:Sim.Engine.t ->
  net:(Proto.req, Proto.resp) Net.Netsim.t ->
  mount:Catalog.Mount.t ->
  fg_table:Ktypes.fg_info list ->
  ?config:Ktypes.config ->
  unit ->
  t
(** Create a kernel. It serves no message until its caller registers a
    handler for its site with the network, as [World.create] registers
    [Dispatch.handle]. [machine_type] selects hidden-directory entries
    (§2.4.1). *)

val site : t -> Net.Site.t

val add_pack : t -> Storage.Pack.t -> unit
(** Attach a physical container for one filegroup. *)

val set_site_table : t -> Net.Site.t list -> unit
(** Install the believed-up-site list (normally the recovery layer's job). *)

val site_table : t -> Net.Site.t list

(** {1 Pathname resolution} *)

val resolve : t -> Ktypes.proc -> string -> Catalog.Gfile.t
(** Resolve a pathname under the process's cwd and context; a final hidden
    directory is expanded. Raises {!Ktypes.Error} [ENOENT] etc. *)

(** {1 Protection (§2.3.3: "protection checks are made")} *)

val open_checked : t -> Ktypes.proc -> Catalog.Gfile.t -> Proto.open_mode -> Ktypes.ofile
(** Open with the caller's credentials checked; raises [EACCES]. *)

(** {1 File descriptors}

    Descriptors are the shared objects of §3.1: a fork ships them to the
    child, and the current file position migrates between sites under the
    token mechanism of §3.2. *)

val open_path : t -> Ktypes.proc -> string -> Proto.open_mode -> int
(** Open a file; returns the descriptor number. *)

val read_fd : t -> Ktypes.proc -> int -> len:int -> string
(** Read at the shared offset (acquiring the offset token if needed). *)

val write_fd : t -> Ktypes.proc -> int -> string -> unit

val lseek : t -> Ktypes.proc -> int -> int -> unit

val commit_fd : t -> Ktypes.proc -> int -> unit
(** Commit the modifications made through this descriptor (§2.3.6). *)

val abort_fd : t -> Ktypes.proc -> int -> unit
(** Undo the modifications back to the previous commit point. *)

val close_fd : t -> Ktypes.proc -> int -> unit
(** Drop this process's reference; the last reference closes the file
    (which commits, as in Unix LOCUS: "closing a file commits it"). *)

val fd_of : t -> Ktypes.proc -> int -> Ktypes.shared_fd

(** {1 Name-space calls} *)

val creat :
  ?ftype:Storage.Inode.ftype -> t -> Ktypes.proc -> string -> Catalog.Gfile.t
(** Create a file (default type regular) with the process's replication
    factor; initial storage sites are chosen by the §2.3.7 algorithm. *)

val mkdir : ?hidden:bool -> t -> Ktypes.proc -> string -> Catalog.Gfile.t
(** Create a directory; [hidden] makes a context-expanding hidden
    directory (§2.4.1). *)

val mkfifo : t -> Ktypes.proc -> string -> Catalog.Gfile.t

val unlink : t -> Ktypes.proc -> string -> unit
(** Remove a name; the last link deletes the file body (§2.3.7). *)

val link : t -> Ktypes.proc -> target:string -> path:string -> unit
(** Hard link (within one filegroup). *)

val rename : t -> Ktypes.proc -> from_path:string -> to_path:string -> unit

val readdir : t -> Ktypes.proc -> string -> Catalog.Dir.entry list
(** Live entries. On a hidden directory this lists the per-machine
    entries (the escape view). *)

val stat : t -> Ktypes.proc -> string -> Proto.inode_info

val chdir : t -> Ktypes.proc -> string -> unit

(** {1 Whole-file conveniences} *)

val read_file : t -> Ktypes.proc -> string -> string

val write_file : t -> Ktypes.proc -> string -> string -> unit
(** Whole-file overwrite, committed atomically via shadow pages. *)

val append_file : t -> Ktypes.proc -> string -> string -> unit

(** {1 Attribute changes (metadata-only commits)} *)

val chmod : t -> Ktypes.proc -> string -> int -> unit

val chown : t -> Ktypes.proc -> string -> string -> unit

(** {1 Replication control (§2.3.7)} *)

val set_ncopies : Ktypes.proc -> int -> unit
(** The new system call of §2.3.7: set the per-process default number of
    copies for created files. *)

val get_ncopies : Ktypes.proc -> int

val set_advice : Ktypes.proc -> Net.Site.t option -> unit
(** Execution-site advice for fork/exec/run (§3.1). *)

val set_advice_list : Ktypes.proc -> Net.Site.t list -> unit
(** The full structured advice list; earlier entries are preferred. *)

val set_context : Ktypes.proc -> string list -> unit
(** The hidden-directory context (machine types, §2.4.1). *)

(** {1 Named pipes (§2.4.2)} *)

val pipe_write : t -> Ktypes.proc -> string -> string -> unit

val pipe_read : t -> Ktypes.proc -> string -> max:int -> string

(** {1 Mailboxes} *)

val mailbox_deliver : t -> path:string -> from:string -> body:string -> unit
(** Append a message to a mailbox file (used by recovery for conflict
    notification, §4.6). *)

val mailbox_read : t -> Ktypes.proc -> string -> Catalog.Mailbox.msg list

(** {1 Failure handling} *)

val handle_site_failure : t -> Net.Site.t -> unit
(** The cleanup procedure of §5.6 for the resources this site uses at the
    departed site (its opens there, tokens and processes). The resources
    the departed site used here are the membership install's: the CSS
    rebuild and {!Ss.revalidate_serving}. *)

val crash : t -> unit
(** Destroy all volatile state (incore inodes, shadow sessions, caches,
    processes, CSS bookkeeping). The disks survive. *)

val restart : t -> int
(** Bring the kernel back up; scavenges orphaned shadow pages and returns
    how many were reclaimed. *)
