(** Kernel state shared by every module of the core library.

    One {!t} is the resident LOCUS kernel of one site. A site can
    simultaneously play the three logical roles of §2.3.1 — using site
    (US), storage site (SS) and current synchronization site (CSS) — so
    the kernel holds the state for all three, keyed by filegroup and
    file. *)

module Engine = Sim.Engine
module Vvec = Vv.Version_vector
module Site = Net.Site
module Gfile = Catalog.Gfile

(** An LRU of versions, one per file. *)
module Keys : sig
  type t

  val create : ?on_evict:(Gfile.t -> Vvec.t -> unit) -> capacity:int -> unit -> t

  val find : t -> Gfile.t -> Vvec.t option

  val insert : t -> Gfile.t -> Vvec.t -> unit

  val clear : t -> unit
end

(** The version a US cache page is filed under. *)
type vkey =
  | Committed of Vvec.t
      (** a committed version, shared by every open of it: a new one
          changes the key, so stale buffered pages miss naturally *)
  | Private of int
      (** a writer's key, a {!fresh_serial}: no other open can hit its
          uncommitted bytes *)

val vkey_equal : vkey -> vkey -> bool
(** Structural: committed versions compare by {!Vvec.equal}. *)

(** The US page cache: (file, logical page, version) → page. *)
module Us_cache :
  Storage.Lru.S with type key = Gfile.t * int * vkey and type value = Storage.Page.t

(** The SS buffer cache: (file, logical page) → the local copy's page. *)
module Ss_cache : Storage.Lru.S with type key = Gfile.t * int and type value = Storage.Page.t

exception Error of Proto.errno * string
(** {!Proto.Error}: every kernel failure, local or reflected from a
    remote site (§3.3). *)

val err : Proto.errno -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message. *)

(** The transport, carrying {!Proto}'s requests. *)
module Transport : module type of Net.Netsim.Make (Proto)

(** {1 Configuration} *)

type config = {
  us_cache_pages : int;      (** US page-cache entries; 0: an empty table, read past *)
  ss_cache_pages : int;      (** SS buffer-cache entries; 0: an empty table *)
  propagation_delay : float; (** ms before the propagation kernel process runs *)
  name_cache_entries : int;  (** pathname name-cache entries; 0: an empty table (§2.3.4) *)
  remote_lookup : bool;      (** ship partial pathnames to a storage site (§2.3.4) *)
  bulk_window : int;
      (** maximum pages per bulk transfer: streaming-read fetch window,
          write-behind batch size, and propagation pull batch. 1 disables
          the bulk layer and reproduces the one-page-per-RTT protocols. *)
  open_lease_entries : int;
      (** retained open grants per site. Above 0, the CSS grants revocable
          read leases on open: the US retains the whole open grant across
          close and re-opens with zero messages until a callback break. 0:
          an empty table, and the CSS grants no lease, so the classic
          open/close protocol is byte-identical. *)
}

val default_config : config

val table_size : Transport.t -> int
(** Initial bucket count for the hot per-kernel hashtables: [max 64] the
    installation's site count, so large worlds don't pay repeated
    rehashing. *)

(** {1 CSS state: synchronization and version bookkeeping (§2.3.1)} *)

(** A read lease the CSS granted: to [g_holder], under the id [g_id]
    that its {!Proto.open_grant} carried and every close or break of it names, on
    the open that [g_ss] serves. *)
type grant = { g_holder : Site.t; g_id : int; g_ss : Site.t }

type css_file = {
  mutable latest_vv : Vvec.t;
  mutable site_vv : Vvec.t Site.Map.t;
      (** every site storing a copy, with the version it holds *)
  mutable readers : int Site.Map.t; (** open-for-read counts per US *)
  mutable writer : Site.t option;        (** at most one open for modification *)
  mutable writer_ss : Site.t option;     (** the single SS while a writer exists *)
  mutable css_deleted : bool;
  mutable css_conflict : bool;
      (** unresolved version conflict: normal opens fail (§4.6) *)
  mutable css_ftype : Storage.Inode.ftype;
      (** the file's type, from the local pack or the pack inventories of
          the last lock-table rebuild: reconciliation merges directories
          and mailboxes by type (§4.4, §4.5) *)
  mutable leases : grant list;
      (** the live read leases on this file. Each is released once: by
          its holder's close, or by its break ([Lease_break]) when a
          writer opens, the version advances, or a conflict or delete is
          recorded, whichever reaches the CSS first *)
}

type css_fg = { css_files : (int, css_file) Hashtbl.t }

(** {1 US state: incore inodes for open files (§2.3.3)} *)

type wb_run = {
  wb_trunc : int option;
  wb_off : int;
  wb_head : string;
  wb_rest : Buffer.t;
  wb_due : float;
}
(** A write-behind run, held at the US until the next flush point: a
    truncate to [wb_trunc] when set, then the bytes [wb_head] followed by
    [wb_rest] from byte [wb_off]. [wb_head] is the run's first chunk (a
    write's data or a whole-file write's last window) held as given;
    adjacent chunks coalesce into [wb_rest]. It travels as one
    [Write_pages], or inside the commit when the commit is the flush
    point, or when the open's timer finds it at [wb_due]. *)

type ra_batch = { ra_serial : int; ra_first : int; ra_count : int }
(** A readahead batch: pages [[ra_first, ra_first + ra_count)] requested
    ahead of a sequential reader. [ra_serial] ties the batch's callback to
    it, so a batch that left [o_inflight] (a demand miss took it over)
    makes its callback a no-op. *)

type ofile = {
  o_gf : Gfile.t;
  o_serial : int; (** distinguishes simultaneous opens of the same file *)
  o_mode : Proto.open_mode;
  mutable o_ss : Site.t;
  mutable o_info : Proto.inode_info;
  mutable o_nocache : bool;
      (** another open is writing the file: bypass the US cache. A
          writer's own open caches under a private key instead, unless its
          descriptor has been shared with another site *)
  mutable o_key : vkey;
      (** the version part of this open's US cache keys: the committed
          version for a read open; for a writer, a key private to the
          open, renewed on every write, truncate, commit and abort *)
  mutable o_dirty : bool;   (** uncommitted modifications sent to the SS *)
  mutable o_committed_size : int;
      (** the size of the version the open's writes started from: an
          abort returns [o_info] to it *)
  mutable o_last_lpage : int; (** drives the sequential readahead *)
  mutable o_guess : int; (** the SS's incore-inode slot, sent with page reads *)
  mutable o_window : int;
      (** streaming fetch window, pages: doubles on sequential reads up to
          [config.bulk_window], resets to 1 on a seek *)
  mutable o_ra_frontier : int; (** first page not yet requested ahead *)
  mutable o_inflight : ra_batch list;
      (** readahead batches scheduled and not yet run, deduping overlaps;
          a demand miss inside one takes it over and retires it *)
  mutable o_wb : wb_run option; (** pending write-behind run *)
  mutable o_wb_timer : bool;
      (** the open's one write-behind timer is pending: it is armed when
          a run is still held as the engine next runs events and none
          is, and re-armed only when it fires before the held run is
          due *)
  mutable o_closed : bool;
  mutable o_lease : Openlease.entry option;
      (** the lease grant this open rides: its close is deferred while
          the lease lives *)
}

(** {1 SS state: served opens and shadow sessions (§2.3.5, §2.3.6)} *)

type ss_open = {
  s_gf : Gfile.t;
  s_slot : int; (** incore-inode slot; shipped to USs as their read guess *)
  mutable s_shadow : Storage.Shadow.t option;
  mutable s_uss : int Site.Map.t; (** using sites currently served, with counts *)
  mutable s_writers : int Site.Map.t; (** the modify opens among them *)
  mutable s_others : Site.t list; (** other storing sites, for commit notifications *)
}

type dir_index = {
  mutable di_vv : Vvec.t; (** the committed version whose records it locates *)
  di_index : Catalog.Dir.Index.t;
}
(** A directory's record index at the SS: where each name's record lies in
    the committed version [di_vv], plus the records that the session open
    on the directory, if any, has patched or appended through it. *)

(** The SS directory indexes: directory → its index. *)
module Ss_dirs : Storage.Lru.S with type key = Gfile.t and type value = dir_index

(** {1 Shared file descriptors and their offset tokens (§3.2)} *)

type fd_key = int * int
(** Shared-descriptor identity: origin site, serial. The origin site
    manages the token. *)

type shared_fd = {
  f_key : fd_key;
  f_gf : Gfile.t;
  f_mode : Proto.open_mode;
  mutable f_offset : int;    (** meaningful only where the token is *)
  mutable f_holder : Site.t; (** manager's view of the current holder *)
  mutable f_valid : bool;    (** this site currently holds the token *)
  mutable f_refs : int;      (** local fd-table references *)
  mutable f_ofile : ofile option; (** this site's own open handle *)
}

(** {1 Processes (§3)} *)

type proc_status = Running | Exited of int

type proc = {
  pid : int;
  mutable p_site : Site.t;
  mutable p_parent : (int * Site.t) option;
  mutable p_uid : string;
  mutable p_cwd : Gfile.t;
  mutable p_context : string list; (** hidden-directory context (§2.4.1) *)
  mutable p_ncopies : int; (** inherited default replication factor (§2.3.7) *)
  mutable p_advice : Site.t list;
      (** execution-site advice list (§3.1): first reachable entry wins *)
  p_fds : (int, fd_key) Hashtbl.t;
  mutable p_next_fd : int;
  mutable p_status : proc_status;
  mutable p_children : (int * Site.t) list;
  mutable p_signals : int list; (** delivered signals, newest first *)
  mutable p_zombies : (int * int) list; (** exited children awaiting wait() *)
  mutable p_err_info : string option;
      (** details of a reflected remote failure, read by a new call (§3.3) *)
  mutable p_image_pages : int; (** image size, shipped by a remote fork *)
}

(** {1 Per-filegroup replicated configuration} *)

type fg_info = {
  fg : int;
  mutable css_site : Site.t;
  mutable pack_sites : Site.t list;
      (** sites with a physical container of this filegroup *)
}

(** {1 Background propagation} *)

(** One queued pull (§2.3.6): what the commit notification said, and the
    retry state. *)
type pull = {
  pull_gf : Gfile.t;
  pull_vv : Vvec.t;  (** the committed version *)
  pull_origin : Site.t;  (** the site that committed it *)
  pull_modified : int list;
      (** the pages the commit modified; [[]] means every page, unless
          [pull_meta_only] *)
  pull_meta_only : bool;  (** the commit changed only the inode *)
  pull_deleted : bool;  (** the commit deleted the file *)
  pull_retries : int;  (** retries left *)
  pull_not_before : float;
      (** earliest retry time, simulated ms (backed off after a failed
          pull) *)
}

(** {1 The kernel} *)

(** Counters the per-page paths bump, resolved once when the kernel is
    created: {!Sim.Stats.incr} hashes its name on every call. *)
type hot_counters = {
  hc_us_hit : Sim.Stats.counter; (** [cache.us.hit] *)
  hc_us_miss : Sim.Stats.counter; (** [cache.us.miss] *)
  hc_ss_hit : Sim.Stats.counter; (** [cache.ss.hit] *)
  hc_ss_miss : Sim.Stats.counter; (** [cache.ss.miss] *)
}

type t = {
  site : Site.t;
  machine_type : string; (** cpu type; selects hidden-directory entries *)
  engine : Engine.t;
  net : Transport.t;
  config : config;
  mount : Catalog.Mount.t; (** the replicated mount table (§2.1) *)
  mutable fg_table : fg_info list;
  packs : (int, Storage.Pack.t) Hashtbl.t;
  css_state : (int, css_fg) Hashtbl.t;
  open_files : (int, ofile) Hashtbl.t; (** US incore inodes, by serial *)
  ss_opens : ss_open Gfile.Tbl.t;
  us_cache : Us_cache.t;
      (** (file, page, version) → page: stale versions miss naturally *)
  us_open_keys : Keys.t;
      (** file → the version of this site's last cold read open of it:
          a hint, checked against [us_cache], that the file's first pages
          are still buffered, so the open need not ask for them. Holds no
          more files than [us_cache] holds pages. *)
  ss_cache : Ss_cache.t;
      (** SS buffer cache fronting pack/disk page reads: (file, page) → the
          local copy's page. [Coherence.installed] buffers the pages a
          new version of the copy wrote and drops those it cut off. *)
  ss_dirs : Ss_dirs.t;
      (** SS directory indexes, together covering at most as many
          directory pages as the buffer cache holds pages *)
  name_cache : Namecache.t;
      (** (directory, component) → child links, vv-validated (§2.3.4) *)
  open_leases : Openlease.t;
      (** retained open grants of lease-backed read opens: zero-message
          re-opens and deferred closes *)
  mutable prop_pending : Gfile.Set.t;
  prop_queue : pull Queue.t;
  shared_fds : (fd_key, shared_fd) Hashtbl.t;
  procs : (int, proc) Hashtbl.t;
  pipe_bufs : string ref Gfile.Tbl.t;
  mutable next_serial : int;
  mutable next_grant : int; (** the id of the next read lease this CSS grants *)
  mutable site_table : Site.t list; (** believed-up sites: this partition *)
  mutable site_set : Site.Set.t;
      (** same membership as [site_table] for O(log n) tests; update both
          through {!set_sites} only *)
  mutable alive : bool;
  mutable recon_stage : int; (** reconfiguration stage, for §5.7 ordering *)
  hot : hot_counters;
}

(** {1 Helpers} *)

val now : t -> float
(** Simulated time, ms. *)

val stats : t -> Sim.Stats.t

val latency : t -> Net.Latency.t

val charge : t -> float -> unit

val charge_disk_read : t -> unit

val charge_disk_write : t -> unit

val charge_cpu_page : t -> unit

val record : t -> tag:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [record k ~tag fmt args] appends a protocol-trace event, its detail
    formatted from [fmt] and prefixed with this site. While the trace is
    not recording, nothing is formatted. *)

val pp_sites : Format.formatter -> Net.Site.t list -> unit
(** Comma-separated site names, for trace details. *)

val fg_info : t -> int -> fg_info
(** Raises [EINVAL] for an unknown filegroup. *)

val local_pack : t -> int -> Storage.Pack.t option

val local_pack_exn : t -> int -> Storage.Pack.t
(** Raises [EIO] when this site has no pack of the filegroup. *)

val local_inode : t -> Gfile.t -> Storage.Inode.t option
(** This site's copy of the file: its pack's inode, if the site has a
    pack of the filegroup and the pack stores the file. Every role finds
    its own copy here. *)

val local_inode_exn : t -> Gfile.t -> what:string -> Storage.Inode.t
(** {!local_inode} as a storage site's refusal: raises [EIO] when the site
    has no pack of the filegroup and [ENOENT] when the pack has no such
    inode, the message naming the request [what]. *)

val local_vv : t -> Gfile.t -> Vvec.t option
(** The version of this site's own copy of the file, if it stores one. *)

val in_partition : t -> Site.t -> bool

val set_sites : t -> Site.t list -> unit
(** Replace the partition membership, keeping the ordered list view and
    the set view consistent (sorts and dedups the input). *)

val place_css : fg:int -> Site.t list -> Site.t option
(** Deterministic CSS placement: every site computes the same coordinator
    for [fg] from the sorted pack-holder candidates alone. Filegroup 0
    maps to the lowest candidate (the classic layout); distinct
    filegroups spread across their holders. [None] iff no candidates. *)

val cached_pack_page :
  t -> read:(int -> Storage.Page.t) -> Gfile.t -> int -> Storage.Page.t
(** [cached_pack_page k ~read gf lpage]: the committed page through the
    SS buffer cache, a miss read with [read] (a {!Storage.Pack.reader})
    at a disk read's charge. *)

val ss_dir_drop : t -> Gfile.t -> unit
(** Forget a directory's index: its session aborted or took a raw page
    write, or another version of it was installed. *)

val dir_index_pages : dir_index -> int
(** The directory pages an index covers. *)

val dir_index_fit : t -> unit
(** Evict the least recently used directory indexes until they together
    cover at most as many pages as the SS buffer cache holds. *)

val fresh_serial : t -> int

val rpc_result : t -> Site.t -> 'a Proto.req -> ('a, Proto.errno Net.Netsim.error) result
(** Remote procedure call to another kernel through the {!Transport},
    under the request's retry policy ({!Proto.policy}); the transport
    makes a call to this site a procedure call (§2.3.2). Returns the
    reply, or the handler's refusal or the transport failure as a typed
    error; callers that can tolerate or interpret failure (close paths,
    recovery polls, token reclamation) match on it. If this kernel is
    down the error carries [attempts = 0]. *)

val rpc : t -> Site.t -> 'a Proto.req -> 'a
(** Like {!rpc_result}, but a refusal raises its errno and any transport
    failure raises [ENET] — for the protocol paths where either simply
    fails the operation. *)

val send_close : t -> Site.t -> unit Proto.req -> unit
(** {!rpc_result} for a close leg ([Us_close]/[Ss_close]), with two
    hand-offs. A destination outside this site's partition is not sent to:
    membership cleanup owns that state. A close whose every attempt was
    lost before it arrived ([Unreachable]: the handler never ran) is parked
    and retried on a growing background timer until it reaches the
    destination, the destination leaves the partition, or the backoff
    budget runs out (an undetected dead site; restart scavenging owns the
    state). A close handed off — skipped, parked, or run with every reply
    lost — is done; a refusal raises its errno. *)

val notify : t -> Site.t -> 'a Proto.req -> unit
(** One-way message; losses are silent (recovery reconciles). *)

val ss_find_open : t -> Gfile.t -> ss_open option

val ss_get_open : t -> Gfile.t -> ss_open
(** Find-or-create the SS serving state (allocating its incore slot). *)

val ss_register :
  t -> Gfile.t -> us:Site.t -> mode:Proto.open_mode -> others:Site.t list -> ss_open
(** Register an open of the file in [mode] by [us] at this SS: the serving
    state the open protocol leaves at the storage site it selected, with
    the file's [others] storing sites its commits notify. *)

val ss_end : t -> ss_open -> us:Site.t -> opens:int -> writes:int -> unit
(** End [opens] of [us]'s registrations, [writes] of them modify opens
    (a close, a revalidation, the cleanup after [us] failed; 0 and 0 just
    tears down state nothing registers). The shadow session is aborted,
    with the directory index its record changes went through, when a
    modify registration ended and none remains, or when no registration
    remains at all; serving state with no registration left is freed with
    its incore slot. The one way serving state ends. *)
