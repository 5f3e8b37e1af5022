(** Cache coherence at one site (§2.3.6, §3.2): each event that makes
    cached state stale is one call, which retires all of it: US pages, SS
    buffers, the SS directory index, name-cache links and open leases.
    DESIGN.md §7 tables what each event retires. *)

open Ktypes

(** How a directory index of the copy's old version comes to locate the
    new version's records. *)
type index_change =
  | Followed
      (** it made the change's record changes itself: a commit of this
          site's session on the directory, or a metadata-only commit *)
  | Reindex  (** from the replaced pages: a pull or a carried install *)

val installed :
  t -> Gfile.t -> old_vv:Vvec.t -> vv:Vvec.t -> deleted:bool -> old_size:int -> size:int ->
  replaced:(int * Storage.Page.t) list -> index:index_change -> unit
(** This site's copy moved from [old_vv] to [vv], replacing the pages
    [replaced], given as (logical page, page) below [size], and taking
    the size from [old_size] to [size]: a local or metadata-only commit,
    a pull or carried install, or a propagated delete. The replaced pages
    enter the SS buffer cache, and a directory index of [old_vv] follows
    the change as [index] says. *)

val announced : t -> Gfile.t -> vv:Vvec.t -> deleted:bool -> origin:Site.t -> unit
(** A commit of [vv] became known here, from [origin], without this
    site's copy moving: a commit notification, a page read whose SS served
    another version than the open's, or the reply to this site's own
    directory intent, whose change originated here. *)

(** Who rewrote pages of a file, as this site sees it. *)
type writer =
  | Here of ofile  (** this site's open, whose private key holds its bytes *)
  | Elsewhere of { first : int; count : int }
      (** another site's, over pages [[first, first + count)], as the SS
          reports in a page invalidation *)

val rewritten : t -> Gfile.t -> writer -> unit
(** A writer's session rewrote pages of the file. While it exists, every
    other open of the file here reads through its SS, as an open made now
    would: the SS serves the session's pages, which no open may file under
    the committed version's key. *)

val lease_broken : t -> Gfile.t -> id:int -> closed:bool -> unit
(** The CSS broke read lease [id] on the file and released it, with its SS
    registration when [closed]: the grant dies here if this site still
    holds it, owing no close or only the SS's half, and with [closed] the
    opens riding it stop caching, as a page invalidation would make
    them. *)

val reclaimed : t -> Gfile.t -> unit
(** The inode number was released and may be reallocated. *)

(** What a site forgets at once, sending nothing. *)
type loss = Crash | Membership of { merge : bool }

val forgotten : t -> loss -> unit
