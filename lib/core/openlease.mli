(** Per-site cache of CSS-granted open leases.

    Retains the full open grant (serving SS, inode info, incore-inode
    slot) of lease-backed read/internal opens across [close], in an LRU
    on {!Storage.Lru.Make}. A re-open while the lease is valid completes
    with zero messages; the close of a lease-backed open is deferred
    until the lease dies. A kill at the holder (local commit observation,
    coherence event, capacity eviction) sends exactly one batched close
    naming the grant, through the callbacks installed by [Kernel.create],
    except an eviction's that rides the cold open displacing it
    ({!make_room}). A break by the CSS ({!revoke}) arrives already
    released: the holder owes no close, or only the SS's half. A crash,
    partition or merge drops every lease silently ({!clear}), as the §5.6
    rebuild restores the lock tables the closes would have updated.

    Counters: [open.lease.hit], [open.lease.miss], [open.lease.break],
    [open.lease.evict], [open.lease.defer] (the last is counted by the
    US close path). *)

(** The close a dead lease owes. *)
type owed =
  | Grant_close  (** [Us_close] and [Ss_close], naming the grant *)
  | Plain_close
      (** the same legs naming no grant: a membership change dropped the
          lease, and the §5.6 rebuild counted its riders as plain opens *)
  | Ss_half  (** the CSS released the grant at its break; the SS has not *)
  | No_close  (** the CSS released the grant and its SS registration *)

type entry = {
  le_gf : Catalog.Gfile.t;
  le_ss : Net.Site.t;
  le_mode : Proto.open_mode;
  le_info : Proto.inode_info;
  le_slot : int;
  le_vv : Vv.Version_vector.t;
  le_id : int;  (** the CSS's grant id, from {!Proto.open_grant}'s [lease] *)
  mutable le_active : int;  (** local opens currently riding this grant *)
  mutable le_broken : bool; (** dead: no reuse; close sent at last drain *)
  mutable le_owed : owed;
}

type t

val create : stats:Sim.Stats.t -> capacity:int -> unit -> t
(** [capacity] 0 is an empty table: no re-open finds a grant to ride, and
    a grant inserted is evicted at once. *)

val set_on_dead : t -> (evicted:bool -> entry -> unit) -> unit
(** Install the deferred-close sender: called exactly once per entry when
    the lease is dead and no local open rides it, with [evicted] when a
    capacity eviction displaced it idle. *)

val length : t -> int

val find_entry : t -> Catalog.Gfile.t -> entry option
(** Lookup without recency or counter effects. *)

val acquire : t -> Catalog.Gfile.t -> entry option
(** Warm re-open: returns the live entry with its rider count bumped, or
    [None] (counted as a miss). *)

val make_room : t -> ss:Net.Site.t -> entry option
(** Before a cold open asks the CSS at [ss]: when the table is full and its
    least recent grant is idle and served by [ss], evict that grant
    (counted as [open.lease.evict]) and return it. Its close is then the
    caller's to send, in the open request. [None] otherwise: any victim is
    left to {!insert}. *)

val insert : t -> entry -> unit
(** Register a fresh grant; may evict the LRU entry (one batched close). *)

val kill : t -> Catalog.Gfile.t -> unit
(** Break the lease on a file: no further re-opens ride it; the deferred
    close goes out now (idle) or at the last riding close. Counted as
    [open.lease.break]. *)

val revoke : t -> Catalog.Gfile.t -> id:int -> closed:bool -> entry option
(** The CSS broke grant [id] and released it itself, with its SS
    registration when [closed]: kill the entry as {!kill} does, when it is
    that grant, owing no close ([closed]) or only the SS's half. Returns
    the killed entry; a break of any other grant kills nothing. *)

val drop : entry -> unit
(** A membership change dropped the entry: it is dead, and its last rider's
    close names no grant. *)

val clear : t -> unit
(** Crash, partition or merge: drop every lease silently, sending nothing.
    An open still riding a dropped lease sends its one close when it
    closes. *)
