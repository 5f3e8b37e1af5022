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

(** An LRU of version keys, one per file. *)
module Keys : sig
  type 'k t

  val create : ?on_evict:('k -> unit) -> capacity:int -> unit -> 'k t

  val find : 'k t -> 'k -> string option

  val insert : 'k t -> 'k -> string -> unit

  val clear : 'k t -> notify:bool -> unit
end

exception Error of Proto.errno * string
(** Every kernel failure, local or reflected from a remote site (§3.3). *)

val err : Proto.errno -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message. *)

(** {1 Configuration} *)

type config = {
  readahead : bool;          (** one-page readahead on sequential reads (§2.3.3) *)
  us_cache_pages : int;      (** US page-cache entries; 0 disables the US cache *)
  ss_cache_pages : int;      (** SS buffer-cache entries; 0 disables the tier *)
  cache_retention : bool;    (** keep version-keyed US pages across opens *)
  propagation_delay : float; (** ms before the propagation kernel process runs *)
  name_cache_entries : int;  (** pathname name-cache entries; 0 disables (§2.3.4) *)
  remote_lookup : bool;      (** ship partial pathnames to a storage site (§2.3.4) *)
  bulk_window : int;
      (** maximum pages per bulk transfer: streaming-read fetch window,
          write-behind batch size, and propagation pull batch. 1 disables
          the bulk layer and reproduces the one-page-per-RTT protocols. *)
  open_lease_entries : int;
      (** retained open grants per site. Above 0, the CSS grants revocable
          read leases on open: the US retains the whole open grant across
          close and re-opens with zero messages until a callback break. 0
          disables the lease layer and keeps the classic open/close
          protocol byte-identical. *)
  stripe_width : int;
      (** stripe a file's logical pages across up to this many storage
          sites holding latest copies; 1 disables striping and keeps the
          classic protocol byte-identical *)
  table_size_hint : int;
      (** initial bucket count for the hot per-kernel hashtables, so
          large runs don't pay repeated rehashing *)
}

val default_config : config

(** {1 CSS state: synchronization and version bookkeeping (§2.3.1)} *)

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
  mutable leases : Site.Set.t;
      (** sites granted a read lease on this file; broken by callback
          ([Lease_break]) when a writer opens, the version advances, a
          conflict or delete is recorded, or the partition changes *)
  mutable stripes : Site.t list;
      (** stripe map pinned while opens are outstanding, so every US of a
          shared file uses the same page→SS assignment; [[]] = unstriped *)
}

type css_fg = { css_files : (int, css_file) Hashtbl.t }

(** {1 US state: incore inodes for open files (§2.3.3)} *)

type wb_run = { wb_off : int; wb_buf : Buffer.t; wb_serial : int }
(** A write-behind run: adjacent write chunks coalesced at the US, sent to
    the SS as one [Write_pages] batch at the next flush point.
    [wb_serial] ties the flush timer to the run it was armed for. *)

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
          writer's own open caches under a private key instead, unless it
          is striped or its descriptor has been shared with another site *)
  mutable o_key : string;
      (** the version part of this open's US cache keys, computed once:
          the committed version for a read open; for a writer, a key
          private to the open, renewed on every write, truncate, commit
          and abort, so no other open can hit uncommitted bytes *)
  mutable o_private : int list;
      (** pages a writer filed under its current private key, dropped
          when the key is renewed and at close *)
  mutable o_gen : int; (** numbers this open's readahead batches and private keys *)
  mutable o_dirty : bool;   (** uncommitted modifications sent to the SS *)
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
  mutable o_stripes : Site.t list;
      (** stripe map for this open: page p is served by
          [stripes.(p mod width)]; [[]] = unstriped. When striped, [o_ss]
          is the primary (first) stripe site. *)
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
  mutable s_others : Site.t list; (** other storing sites, for commit notifications *)
}

type dir_index = {
  mutable di_key : string;
      (** {!vv_key} of the committed version whose records it locates *)
  di_index : Catalog.Dir.Index.t;
  mutable di_used : int; (** recency tick, for eviction *)
}
(** A directory's record index at the SS: where each name's record lies in
    the committed version [di_key], plus the records that the session open
    on the directory, if any, has patched or appended through it. *)

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

type t = {
  site : Site.t;
  machine_type : string; (** cpu type; selects hidden-directory entries *)
  engine : Engine.t;
  net : (Proto.req, Proto.resp) Net.Netsim.t;
  config : config;
  mount : Catalog.Mount.t; (** the replicated mount table (§2.1) *)
  mutable fg_table : fg_info list;
  packs : (int, Storage.Pack.t) Hashtbl.t;
  css_state : (int, css_fg) Hashtbl.t;
  open_files : (Gfile.t * int, ofile) Hashtbl.t;
  ss_opens : (Gfile.t, ss_open) Hashtbl.t;
  ss_slots : (int, Gfile.t) Hashtbl.t; (** incore-inode slot → file *)
  us_cache : (Gfile.t * int * string) Storage.Cache.t;
      (** (file, page, version) → page: stale versions miss naturally *)
  us_open_keys : Gfile.t Keys.t;
      (** file → the version key of this site's last cold read open of it:
          a hint, checked against [us_cache], that the file's first pages
          are still buffered, so the open need not ask for them. Holds no
          more files than [us_cache] holds pages. *)
  ss_cache : (Gfile.t * int) Storage.Cache.t;
      (** SS buffer cache fronting pack/disk page reads: (file, page) → the
          local copy's page. Whatever installs a new version of the copy
          carries the buffers ({!ss_cache_carry}) or drops the file's. *)
  ss_dirs : (Gfile.t, dir_index) Hashtbl.t;
      (** SS directory indexes, together covering at most as many
          directory pages as the buffer cache holds pages *)
  mutable ss_dirs_tick : int;
  name_cache : Namecache.t;
      (** (directory, component) → child links, vv-validated (§2.3.4) *)
  open_leases : Openlease.t;
      (** retained open grants of lease-backed read opens: zero-message
          re-opens and deferred closes *)
  mutable prop_pending : Gfile.Set.t;
  prop_queue : pull Queue.t;
  shared_fds : (fd_key, shared_fd) Hashtbl.t;
  procs : (int, proc) Hashtbl.t;
  pipe_bufs : (Gfile.t, string ref) Hashtbl.t;
  mutable next_serial : int;
  mutable dispatch : Site.t -> Proto.req -> Proto.resp;
      (** local fast path into this kernel's own message handler *)
  mutable extra_handler : Site.t -> Proto.req -> Proto.resp option;
      (** reconfiguration handlers, installed by the recovery layer *)
  mutable site_table : Site.t list; (** believed-up sites: this partition *)
  mutable site_set : Site.Set.t;
      (** same membership as [site_table] for O(log n) tests; update both
          through {!set_sites} only *)
  mutable alive : bool;
  mutable recon_stage : int; (** reconfiguration stage, for §5.7 ordering *)
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

val in_partition : t -> Site.t -> bool

val set_sites : t -> Site.t list -> unit
(** Replace the partition membership, keeping the ordered list view and
    the set view consistent (sorts and dedups the input). *)

val place_css : fg:int -> Site.t list -> Site.t option
(** Deterministic CSS placement: every site computes the same coordinator
    for [fg] from the sorted pack-holder candidates alone. Filegroup 0
    maps to the lowest candidate (the classic layout); distinct
    filegroups spread across their holders. [None] iff no candidates. *)

val stripe_map : width:int -> ino:int -> Site.t list -> Site.t list
(** Deterministic stripe map: up to [width] distinct latest-copy holders,
    rotated by [ino]. [[]] (unstriped) when [width <= 1] or fewer than
    two candidates. *)

val stripe_owner : Site.t list -> int -> Site.t
(** The stripe site serving logical page [lpage]. Raises on an unstriped
    ([[]]) map. *)

val vv_key : Vvec.t -> string
(** The version vector as a cache-key component: a new committed version
    changes the key, so stale buffered pages miss naturally. *)

val ss_cache_enabled : t -> bool
(** Whether the SS-side buffer-cache tier is on ([ss_cache_pages > 0]). *)

val ss_cache_carry : t -> Gfile.t -> old_size:int -> size:int -> replaced:int list -> unit
(** After a shadow commit took the local copy of a file from [old_size]
    to [size] bytes, drop the SS buffers of the pages it [replaced] and of
    the pages it cut off; every other buffer still holds its page. *)

val ss_dir_drop : t -> Gfile.t -> unit
(** Forget a directory's index: its session aborted or took a raw page
    write, or another version of it was installed. *)

val ss_dir_carry : t -> Gfile.t -> old_vv:Vvec.t -> vv:Vvec.t -> unit
(** After a commit took the local copy from [old_vv] to [vv]: an index of
    [old_vv], which already holds the session's record changes, now
    locates [vv]'s records; an index of any other version is dropped. *)

val fresh_serial : t -> int

val rpc_result : t -> Site.t -> Proto.req -> (Proto.resp, Net.Rpc.rpc_error) result
(** Remote procedure call to another kernel through the {!Net.Rpc}
    transport layer, under the request's retry policy
    ({!Proto.req_policy}); collocated roles short-circuit to a procedure
    call (§2.3.2). Returns the typed transport error; callers that can
    tolerate or interpret failure (close paths, recovery polls, token
    reclamation) match on it. If this kernel is down the error carries
    [attempts = 0]. *)

val rpc : t -> Site.t -> Proto.req -> Proto.resp
(** Like {!rpc_result}, but any transport failure raises [ENET] — for the
    protocol paths where unreachability simply fails the operation. *)

val send_close : t -> Site.t -> Proto.req -> Proto.resp
(** {!rpc_result} for a close leg ([Us_close]/[Ss_close]), with two
    hand-offs. A destination outside this site's partition is not sent to:
    membership cleanup owns that state. A close whose every attempt was
    lost before it arrived ([Unreachable]: the handler never ran) is parked
    and retried on a growing background timer until it reaches the
    destination, the destination leaves the partition, or the backoff
    budget runs out (an undetected dead site; restart scavenging owns the
    state). A close handed off — skipped, parked, or run with every reply
    lost — is answered [R_ok]. *)

val notify : t -> Site.t -> Proto.req -> unit
(** One-way message; losses are silent (recovery reconciles). *)

val ss_find_open : t -> Gfile.t -> ss_open option

val ss_get_open : t -> Gfile.t -> ss_open
(** Find-or-create the SS serving state (allocating its incore slot). *)

val ss_add_us : ss_open -> Site.t -> unit

val expect_ok : Proto.resp -> unit
(** Raise on [R_err]; accept [R_ok]. *)
