(** Remote processes (§3).

    Programs execute at any site with no rebinding: fork and exec are
    controlled by the execution-site advice list in the process
    environment; [run] is the optimized fork+exec that skips copying the
    parent image. Signals and exit status cross machine boundaries;
    failures of the parent's or child's machine are reflected as error
    signals with details deposited in the process structure (§3.3). *)

val sigchld : int

val sigerr : int
(** The error signal reflecting a remote failure (§3.3). *)

val get_proc : Ktypes.t -> int -> Ktypes.proc
(** Raises [ESRCH]. *)

val create_process : Ktypes.t -> uid:string -> Ktypes.proc
(** A fresh (init-like) process at this site, context = the site's machine
    type, cwd = the global root. *)

val fork : Ktypes.t -> Ktypes.proc -> int * Net.Site.t
(** Fork at the advised site; a remote fork ships the parent's image pages
    and the shared descriptors' identities. Returns (pid, site). *)

val exec : Ktypes.t -> Ktypes.proc -> string -> Net.Site.t
(** Install a load module; under remote advice the process is effectively
    moved and the module is read at the destination (whose machine type
    selects the hidden-directory entry). Returns the executing site. *)

val exec_local : Ktypes.t -> Ktypes.proc -> string -> unit

val run :
  ?uid:string ->
  ?cwd:Catalog.Gfile.t ->
  ?ncopies:int ->
  ?context:string list ->
  Ktypes.t ->
  Ktypes.proc ->
  string ->
  int * Net.Site.t
(** The optimized fork+exec of §3.1: no parent-image copy; transparent as
    to where it executes; the optional arguments are the paper's
    "parameterization that permits the caller to set up the environment
    of the new process". *)

val signal : Ktypes.t -> site:Net.Site.t -> pid:int -> int -> unit
(** Deliver a signal across machines. Raises [ESRCH]. *)

val deliver_signal : Ktypes.t -> int -> int -> unit

val exit_proc : Ktypes.t -> Ktypes.proc -> int -> unit
(** Terminate: release descriptors, notify the parent (across the net if
    need be) with the exit status. *)

val wait : Ktypes.t -> Ktypes.proc -> (int * int) option
(** Reap one exited child: (pid, status). *)

val read_error_info : Ktypes.t -> Ktypes.proc -> string option
(** The new system call of §3.3: extra information about a reflected
    failure, cleared on read. *)

val handle_fork :
  Ktypes.t ->
  child_pid:int ->
  env:Proto.process_env ->
  image_pages:int ->
  parent:int * Net.Site.t ->
  int

val handle_exec :
  Ktypes.t ->
  pid:int ->
  path:string ->
  env:Proto.process_env ->
  image_pages:int ->
  parent:int * Net.Site.t ->
  int

val handle_run :
  ?context_override:string list ->
  Ktypes.t ->
  child_pid:int ->
  path:string ->
  env:Proto.process_env ->
  parent:int * Net.Site.t ->
  int

val handle_exit_notify : Ktypes.t -> pid:int -> status:int -> unit

val handle_site_failure : Ktypes.t -> Net.Site.t -> unit
(** Reflect a machine failure into the local halves of cross-machine
    parent/child pairs (the "Interacting Processes" rows of §5.6). *)
