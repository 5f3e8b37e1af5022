(** Nested transactions [MEUL 83], integrated with the LOCUS commit
    machinery (section 2.3.6 of the paper).

    A top-level transaction binds updates to a set of files together:
    nothing reaches the filesystem until the top-level commit, which drives
    each file through the standard shadow-page commit while the CSS
    single-writer lock (acquired at first write) provides isolation.
    Subtransactions commit into their parent (their write sets and locks
    are inherited) or abort independently without disturbing it.

    Partition behaviour follows the failure-action table of section 5.6:
    when a site holding part of a transaction's state leaves the partition,
    every related (sub)transaction in the partition is aborted. *)

type t

type status = Active | Committed | Aborted

exception Txn_error of string

val begin_top : Locus_core.Kernel.t -> Locus_core.Ktypes.proc -> t
(** Start a top-level transaction executed by [proc]. *)

val begin_sub : t -> t
(** Start a subtransaction. Raises [Txn_error] if the parent is not
    active. *)

val status : t -> status

val id : t -> int

val depth : t -> int
(** 0 for a top-level transaction. *)

val read : t -> string -> string
(** Read a file's contents as seen by this transaction: its own buffered
    writes shadow its ancestors', which shadow the filesystem. *)

val write : t -> string -> string -> unit
(** Buffer a whole-file overwrite. Takes the file's modification lock (via
    the normal open-for-modification protocol) on first touch; the lock is
    held until the top-level commit or abort. *)

val create : t -> string -> unit
(** Create a new (empty) file under the transaction: the name appears
    immediately, but is removed again if the transaction aborts. *)

val commit : t -> unit
(** Commit. For a subtransaction, merge the write set and locks into the
    parent. For a top-level transaction, write every buffered file through
    the shadow-page commit and release all locks. *)

val abort : t -> unit
(** Undo everything back to the transaction's start, recursively aborting
    its active subtransactions. *)

val touched_sites : t -> Net.Site.t list
(** Sites whose storage this transaction family depends on. *)

val handle_site_failure : Locus_core.Kernel.t -> Net.Site.t -> int
(** Abort every active transaction at this kernel that depends on the
    failed site (the "Distributed Transaction" row of the section 5.6
    table), scanning this kernel's active transactions with
    {!touched_sites}. Another kernel's transactions are never touched,
    even one of another world at the same site number. Returns the number
    of transactions aborted. *)

val active_count : Locus_core.Kernel.t -> int
(** Active top-level transactions begun at this kernel. *)
