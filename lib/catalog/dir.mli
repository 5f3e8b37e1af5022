(** Directory contents.

    A directory is "a set of records, each one containing the character
    string comprising one element in the path name" plus the inode number it
    points at (§4.4). The two operations are insert and remove; removed
    entries leave *tombstones* carrying the time and site of the removal,
    which is exactly the deletion information the reconciliation rules of
    §4.4 require.

    The directory file's body is a binary record log. Each entry is one
    record of 21 bytes plus the name: a status byte (below), the name
    length (u16, big-endian), the origin site (u16), the inode number
    (i64), the bits of the stamp (i64), then the name bytes. Records are in log order: a new name goes after the last
    record, while a remove or a re-insert of a tombstoned name rewrites the
    entry's record in place, since the record keeps its length. A record
    never straddles a page: one that does not fit in the rest of the
    current page starts the next, and the tail is padded with zero bytes
    (status 0 means "padding to the end of this page"). So a create
    changes only the last page or adds one, and an unlink changes one.

    The status byte of a record packs two fields. Its low two bits are
    the status: 1 live, 2 tombstone. The next three bits are the child's
    type (its [d_type]): 0 regular, 1 directory, 2 hidden directory,
    3 mailbox, 4 database, 5 fifo. The top three bits are 0. So a
    nonzero status byte whose low two bits are 0 or 3, whose type code is
    6 or 7 or whose top bits are set is corrupt: 13 of the 256 byte
    values are valid, 0 among them. A tombstone keeps the type of the
    entry it removed. *)

type status = Live | Tombstone

type entry = {
  name : string;
  ino : int;           (** inode number within the directory's filegroup *)
  ftype : Storage.Inode.ftype;
      (** the child's type, so a lookup needs no stat of the child *)
  status : status;
  stamp : float;       (** simulated time of the last change to this entry *)
  origin : int;        (** site that performed the change *)
}

type t

val empty : unit -> t

val lookup_typed : t -> string -> (int * Storage.Inode.ftype) option
(** Inode number and type of a live entry. *)

val lookup : t -> string -> int option
(** Inode number bound to a live entry. *)

val find_entry : t -> string -> entry option
(** Entry, live or tombstone. *)

val max_name : int
(** Longest valid name in bytes: [Page.size - 21], so a record always
    fits in one page. *)

val insert :
  t -> name:string -> ino:int -> ftype:Storage.Inode.ftype -> stamp:float -> origin:int -> unit
(** Add or resurrect a binding. Raises [Invalid_argument] on an empty
    name, one longer than {!max_name} or containing "/", a tab or a
    newline, and on an [origin] outside u16. *)

val remove : t -> name:string -> stamp:float -> origin:int -> bool
(** Replace a live entry by a tombstone. Returns false if no live entry.
    Raises [Invalid_argument] on an [origin] outside u16. *)

val conflict_name : string -> ino:int -> string
(** The altered name a name conflict gives the entry for [ino]
    (§4.4 rule 1): [name!conflict!ino], with [name] shortened as needed so
    the result is still a valid name. *)

val live_entries : t -> entry list
(** Sorted by name. *)

val all_entries : t -> entry list
(** Live entries and tombstones, sorted by name. *)

val cardinal : t -> int
(** Number of live entries. *)

val names_of_ino : t -> int -> string list
(** All live names binding an inode (hard links). *)

val encode : t -> string
(** The record log, ending with the last record. *)

val decode : string -> t
(** Inverse of {!encode}: [encode (decode b) = b] for every [b] that
    {!encode} produced. Raises [Failure] on a record cut short, one that
    crosses a page boundary, a status byte that is not valid (see the
    layout above) or a repeated name. *)

val decode_count : unit -> int
(** Calls of {!decode} in this process so far: how a test shows that a
    path does no whole-body decode. *)

(** {1 Single records}

    What a storage site needs to change the log in place: a record's
    bytes, the entry a page holds at an offset, and where each record is
    ({!Index}). *)

val record : entry -> string
(** The one record {!encode} writes for the entry. Raises
    [Invalid_argument] where {!insert} would. *)

val entry_at : Storage.Page.t -> int -> entry
(** The entry whose record starts at byte [at] of a page. *)

val page_links :
  Storage.Page.t ->
  limit:int ->
  (string -> int -> Storage.Inode.ftype -> 'a -> 'a) ->
  'a ->
  'a
(** [page_links page ~limit f acc] folds [f name ino ftype] over the live
    records of one page, in log order, that end by byte [limit] of the
    page: padding and tombstones are skipped, and with [limit] the
    committed size's offset into the page, so is a record an uncommitted
    session appended. It walks the page as {!decode} does and builds no
    entry. Raises [Failure] where {!decode} would. *)

(** An offset index over the record log: name to the offset of its
    record, plus the log's end. It keeps no entry and no name — a lookup
    hashes the name, reads the page of each record the hash points at and
    compares the name bytes there — so it costs two to four words per
    name and one per page (its count of records, which lets a re-index
    skip the records it keeps), and status, inode and stamp are always
    the page's. *)
module Index : sig
  type t

  val build : read:(int -> Storage.Page.t) -> size:int -> t
  (** Index the log of [size] bytes whose logical page [p] is [read p],
      reading each page once. Raises [Failure] where {!decode} would. *)

  val find :
    t -> read:(int -> Storage.Page.t) -> limit:int -> string -> (int * Storage.Page.t) option
  (** The offset of the name's record and the page holding it, reading
      only that page. Records that do not end by [limit] are left out:
      with [limit] the committed size, a lookup skips records appended by
      an uncommitted session. *)

  val next : t -> string -> int
  (** Where a new record for the name goes: at the log's end, or at the
      next page when the record would straddle. *)

  val add : t -> string -> int -> unit
  (** Note that the name's record now starts at the offset. *)

  val reindex :
    t -> read:(int -> Storage.Page.t) -> pages:(int * Storage.Page.t) list -> size:int -> unit
  (** Follow a new version of the log, [size] bytes long, that differs
      from the indexed one only in [pages], its changed pages below
      [size] as (logical page, page), ascending: drop the records that
      lay in those pages or past the new last page, and index the
      records of [pages]. The result equals {!build} of the new log. The
      pages are in hand; [read] is called only for a page that is not
      among them: a kept record whose name hash matches a new record's,
      and the last kept record once the old last record left and no new
      record lies past it. On
      [Failure], where {!build} would raise, the index is left part done
      and must be dropped. *)

  val log_end : t -> int
  (** The byte after the last record. *)
end

val copy : t -> t

val equal : t -> t -> bool
(** Same live bindings and same tombstones. *)
