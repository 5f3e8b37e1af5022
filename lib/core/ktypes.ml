(* Kernel state shared by every module of the core library.

   One [t] is the resident LOCUS kernel of one site. A site can
   simultaneously play the three logical roles of section 2.3.1 — using
   site (US), storage site (SS) and current synchronization site (CSS) —
   so the kernel holds the state for all three, keyed by filegroup and
   file. *)

module Engine = Sim.Engine
module Vvec = Vv.Version_vector
module Site = Net.Site
module Gfile = Catalog.Gfile

(* An LRU of versions, one per file. *)
module Keys =
  Storage.Lru.Make
    (Gfile.Key)
    (struct
      type t = Vvec.t
    end)

(* The version a US cache page is filed under: a committed version,
   shared by every open of it, so a new one misses naturally (coherence
   for free); or a writer's private key, a [fresh_serial]. *)
type vkey = Committed of Vvec.t | Private of int

let vkey_equal a b =
  match (a, b) with
  | Committed v, Committed v' -> Vvec.equal v v'
  | Private n, Private n' -> n = n'
  | Committed _, Private _ | Private _, Committed _ -> false

(* The US page cache: (file, logical page, version) -> page. The version
   is left out of the hash: a page is rarely buffered under more than one
   version at once. *)
module Us_cache =
  Storage.Lru.Make
    (struct
      type t = Gfile.t * int * vkey

      let equal (g, p, v) (g', p', v') = p = p' && Gfile.equal g g' && vkey_equal v v'

      let hash (g, p, _) = (Gfile.id g * 65599) + p

      let file (g, _, _) = Gfile.id g
    end)
    (Storage.Page)

(* The SS buffer cache: (file, logical page) -> the local copy's page. *)
module Ss_cache =
  Storage.Lru.Make
    (struct
      type t = Gfile.t * int

      let equal (g, p) (g', p') = p = p' && Gfile.equal g g'

      let hash (g, p) = (Gfile.id g * 65599) + p

      let file (g, _) = Gfile.id g
    end)
    (Storage.Page)

exception Error of Proto.errno * string

let err errno fmt = Format.kasprintf (fun s -> raise (Error (errno, s))) fmt

let () =
  Printexc.register_printer (function
    | Error (e, s) ->
      Some (Printf.sprintf "Locus error %s: %s" (Proto.errno_to_string e) s)
    | _ -> None)

type config = {
  us_cache_pages : int;      (* US page-cache entries; 0: an empty table, read past *)
  ss_cache_pages : int;      (* SS buffer-cache entries; 0: an empty table *)
  propagation_delay : float; (* ms before the kernel propagation process runs a pull *)
  name_cache_entries : int;  (* pathname name-cache entries; 0: an empty table (2.3.4) *)
  remote_lookup : bool;      (* ship partial pathnames to a storage site (2.3.4) *)
  bulk_window : int;
  (* maximum pages per bulk transfer: streaming-read fetch window,
     write-behind batch size, and propagation pull batch. 1 disables the
     bulk layer entirely and reproduces the one-page-per-RTT protocols. *)
  open_lease_entries : int;
  (* retained open grants per site. Above 0, the CSS grants revocable read
     leases on open: the US retains the whole open grant across close and
     re-opens with zero messages until a callback break. 0: an empty
     table, and the CSS grants no lease, so the classic open/close
     protocol is byte-identical. *)
}

let default_config =
  {
    us_cache_pages = 256;
    ss_cache_pages = 512;
    propagation_delay = 2.0;
    name_cache_entries = 512;
    remote_lookup = true;
    bulk_window = 8;
    open_lease_entries = 64;
  }

(* Initial bucket count for the hot per-kernel hashtables (open files, SS
   serving state, CSS files), from the installation's site count,
   so large worlds don't pay repeated rehashing. *)
let table_size net = max 64 (Net.Topology.n_sites (Net.Netsim.topology net))

(* ---- CSS state: synchronization and version bookkeeping (2.3.1) ---- *)

(* A read lease the CSS granted: to [g_holder], under the id its R_open
   carried, on the open [g_ss] serves. *)
type grant = { g_holder : Site.t; g_id : int; g_ss : Site.t }

type css_file = {
  mutable latest_vv : Vvec.t;
  mutable site_vv : Vvec.t Site.Map.t; (* every site storing a copy, with its version *)
  mutable readers : int Site.Map.t; (* open-for-read counts per US *)
  mutable writer : Site.t option;        (* at most one open for modification *)
  mutable writer_ss : Site.t option;     (* the single SS while a writer exists *)
  mutable css_deleted : bool;
  mutable css_conflict : bool; (* unresolved version conflict: normal opens fail (4.6) *)
  mutable css_ftype : Storage.Inode.ftype; (* from the local pack or the rebuild's inventories *)
  mutable leases : grant list;
  (* the live read leases on this file, each released once: at its
     close or at its break, whichever reaches the CSS first *)
}

type css_fg = { css_files : (int, css_file) Hashtbl.t }

(* ---- US state: incore inodes for open files (2.3.3) ---- *)

(* A write-behind run: an optional truncate, then adjacent write chunks,
   travelling to the SS as a single [Write_pages] batch or inside the
   commit. The first chunk is held as given, never copied. *)
type wb_run = {
  wb_trunc : int option; (* truncate to this size before the bytes land *)
  wb_off : int; (* absolute byte offset of the run's start *)
  wb_head : string; (* the run's first chunk *)
  wb_rest : Buffer.t; (* the adjacent chunks after it *)
  wb_due : float; (* when the open's timer pushes the run out *)
}

(* A readahead batch: pages [ra_first, ra_first + ra_count) requested
   ahead of a sequential reader. *)
type ra_batch = {
  ra_serial : int;
  (* ties the batch's callback to it: a batch a demand miss took over
     (or any batch no longer in [o_inflight]) makes its callback a no-op *)
  ra_first : int;
  ra_count : int;
}

type ofile = {
  o_gf : Gfile.t;
  o_serial : int;  (* distinguishes simultaneous opens of the same file *)
  o_mode : Proto.open_mode;
  mutable o_ss : Site.t;
  mutable o_info : Proto.inode_info;
  mutable o_nocache : bool;
  (* another open is writing the file: bypass the US cache. A writer's own
     open caches under a private key instead, unless its descriptor has
     been shared with another site *)
  mutable o_key : vkey;
  (* the version part of this open's US cache keys: the committed version
     for a read open, a key private to the open for a writer, renewed on
     every write, truncate, commit and abort *)
  mutable o_dirty : bool;   (* uncommitted modifications have been sent to the SS *)
  mutable o_committed_size : int; (* the committed size an abort returns [o_info] to *)
  mutable o_last_lpage : int; (* last page read, drives sequential readahead *)
  mutable o_guess : int; (* the SS's incore-inode slot, sent with page reads *)
  mutable o_window : int; (* streaming fetch window, pages: grows 1->2->4->..
                             on sequential reads, resets to 1 on a seek *)
  mutable o_ra_frontier : int; (* first page NOT yet requested ahead *)
  mutable o_inflight : ra_batch list;
  (* readahead batches scheduled and not yet run, to dedup overlapping
     fetches; a demand miss inside one takes it over and retires it *)
  mutable o_wb : wb_run option; (* pending write-behind run, if any *)
  mutable o_wb_timer : bool; (* the open's write-behind timer is pending *)
  mutable o_closed : bool;
  mutable o_lease : Openlease.entry option;
  (* the lease grant this open rides: its close is deferred while the
     lease lives (the entry retains the registered SS/CSS state) *)
}

(* ---- SS state: served opens and shadow sessions (2.3.5/2.3.6) ---- *)

type ss_open = {
  s_gf : Gfile.t;
  s_slot : int; (* incore-inode slot; shipped to USs as their read guess (2.3.3) *)
  mutable s_shadow : Storage.Shadow.t option;
  mutable s_uss : int Site.Map.t; (* using sites currently served, with counts *)
  mutable s_writers : int Site.Map.t; (* the modify opens among them *)
  mutable s_others : Site.t list; (* other storing sites, for commit notifications *)
}

(* A directory's record index at the SS: where each name's record lies
   in the committed version [di_vv], plus the records the open session
   on the directory, if any, has patched or appended through it. *)
type dir_index = {
  mutable di_vv : Vvec.t;
  di_index : Catalog.Dir.Index.t;
}

(* The SS directory indexes, by directory, least recently used first out. *)
module Ss_dirs =
  Storage.Lru.Make
    (Gfile.Key)
    (struct
      type t = dir_index
    end)

(* ---- shared file descriptors and their offset tokens (3.2) ---- *)

type fd_key = int * int (* origin site, serial *)

type shared_fd = {
  f_key : fd_key;
  f_gf : Gfile.t;
  f_mode : Proto.open_mode;
  mutable f_offset : int;     (* meaningful only where the token is *)
  mutable f_holder : Site.t;  (* manager's view of the current token holder *)
  mutable f_valid : bool;     (* this site currently holds the token *)
  mutable f_refs : int;       (* local fd-table references *)
  mutable f_ofile : ofile option; (* this site's own open handle on the file *)
}

(* ---- processes (3) ---- *)

type proc_status = Running | Exited of int

type proc = {
  pid : int;
  mutable p_site : Site.t;
  mutable p_parent : (int * Site.t) option;
  mutable p_uid : string;
  mutable p_cwd : Gfile.t;
  mutable p_context : string list; (* hidden-directory context, e.g. ["vax"] *)
  mutable p_ncopies : int;         (* inherited default replication factor (2.3.7) *)
  mutable p_advice : Site.t list;
  (* execution-site advice list (3.1): first reachable entry wins *)
  p_fds : (int, fd_key) Hashtbl.t;
  mutable p_next_fd : int;
  mutable p_status : proc_status;
  mutable p_children : (int * Site.t) list;
  mutable p_signals : int list;    (* delivered signals, newest first *)
  mutable p_zombies : (int * int) list; (* exited children awaiting wait() *)
  mutable p_err_info : string option; (* extra error info, read by a new call (3.3) *)
  mutable p_image_pages : int;     (* process image size, charged on fork/exec *)
}

(* ---- per-filegroup replicated configuration ---- *)

type fg_info = {
  fg : int;
  mutable css_site : Site.t;
  mutable pack_sites : Site.t list; (* sites with a physical container of this fg *)
}

(* ---- background propagation ---- *)

(* One queued pull: what the commit notification said, and the retry
   state. [pull_modified] = [] means every page, unless the commit changed
   only the inode. *)
type pull = {
  pull_gf : Gfile.t;
  pull_vv : Vvec.t;             (* the committed version *)
  pull_origin : Site.t;         (* the site that committed it *)
  pull_modified : int list;     (* the pages the commit modified *)
  pull_meta_only : bool;        (* the commit changed only the inode *)
  pull_deleted : bool;          (* the commit deleted the file *)
  pull_retries : int;           (* retries left *)
  pull_not_before : float;      (* earliest retry, simulated ms *)
}

(* ---- the kernel ---- *)

(* Counters the per-page paths bump, resolved once, as the transport's
   are: [Stats.incr] hashes its name on every call. *)
type hot_counters = {
  hc_us_hit : Sim.Stats.counter;  (* cache.us.hit *)
  hc_us_miss : Sim.Stats.counter; (* cache.us.miss *)
  hc_ss_hit : Sim.Stats.counter;  (* cache.ss.hit *)
  hc_ss_miss : Sim.Stats.counter; (* cache.ss.miss *)
}

type t = {
  site : Site.t;
  machine_type : string; (* cpu type, selects hidden-directory entries (2.4.1) *)
  engine : Engine.t;
  net : (Proto.req, Proto.resp) Net.Netsim.t;
  config : config;
  mount : Catalog.Mount.t;
  mutable fg_table : fg_info list;
  packs : (int, Storage.Pack.t) Hashtbl.t;       (* fg -> local physical container *)
  css_state : (int, css_fg) Hashtbl.t;           (* fgs this site is CSS for *)
  open_files : (int, ofile) Hashtbl.t; (* US incore inodes, by serial *)
  ss_opens : ss_open Gfile.Tbl.t;      (* SS-side serving state *)
  us_cache : Us_cache.t; (* (file, lpage, version) -> page *)
  us_open_keys : Keys.t;
    (* file -> the version of this site's last cold read open of it: a
       hint that its first pages may still be buffered. No more entries
       than the US cache has pages. *)
  ss_cache : Ss_cache.t;
  (* SS buffer cache fronting pack/disk page reads: (file, page) -> the
     local copy's page. [Coherence.installed] buffers the pages a new
     version of the copy wrote and drops those it cut off. *)
  ss_dirs : Ss_dirs.t;
  (* SS directory indexes, together covering at most as many directory
     pages as the buffer cache holds pages *)
  name_cache : Namecache.t;
  (* (directory, component) -> child links, vv-validated (section 2.3.4) *)
  open_leases : Openlease.t;
  (* retained open grants of lease-backed read opens, for zero-message
     re-opens and deferred closes *)
  mutable prop_pending : Gfile.Set.t;
  prop_queue : pull Queue.t;
  shared_fds : (fd_key, shared_fd) Hashtbl.t;
  procs : (int, proc) Hashtbl.t;
  pipe_bufs : string ref Gfile.Tbl.t; (* SS-side fifo contents *)
  mutable next_serial : int;
  mutable next_grant : int; (* the id of the next read lease this CSS grants *)
  mutable site_table : Site.t list; (* believed-up sites: this site's partition *)
  mutable site_set : Site.Set.t;    (* same membership as [site_table], for O(log n)
                                       partition tests on hot paths; keep in sync via
                                       [set_sites] *)
  mutable alive : bool;
  mutable recon_stage : int; (* reconfiguration stage, for section 5.7 ordering *)
  hot : hot_counters;
}

let now k = Engine.now k.engine

let stats k = Engine.stats k.engine

let latency k = Net.Netsim.latency k.net

let charge k dt = Engine.charge k.engine dt

let charge_disk_read k = charge k (latency k).Net.Latency.disk_read

let charge_disk_write k = charge k (latency k).Net.Latency.disk_write

let charge_cpu_page k = charge k (latency k).Net.Latency.cpu_page

(* The detail is formatted only while the trace records: most runs switch
   recording off, and every call site would otherwise pay the formatting. *)
let record k ~tag fmt =
  if Sim.Trace.recording (Engine.trace k.engine) then
    Format.kasprintf
      (fun detail -> Engine.record k.engine ~tag (Site.to_string k.site ^ " " ^ detail))
      fmt
  else Format.ikfprintf ignore Format.err_formatter fmt

let pp_sites ppf sites =
  Format.pp_print_string ppf (String.concat "," (List.map Site.to_string sites))

let fg_info k fg =
  match List.find_opt (fun fi -> fi.fg = fg) k.fg_table with
  | Some fi -> fi
  | None -> err Proto.Einval "unknown filegroup %d" fg

let local_pack k fg = Hashtbl.find_opt k.packs fg

let local_pack_exn k fg =
  match local_pack k fg with
  | Some p -> p
  | None -> err Proto.Eio "site %a has no pack for filegroup %d" Site.pp k.site fg

let local_vv k gf =
  match local_pack k gf.Gfile.fg with
  | None -> None
  | Some pack ->
    Storage.Pack.find_inode pack gf.Gfile.ino
    |> Option.map (fun (i : Storage.Inode.t) -> i.Storage.Inode.vv)

let in_partition k site = Site.Set.mem site k.site_set

(* The only sanctioned way to change the partition membership: keeps the
   list view (ordering, wire format) and the set view (membership tests)
   consistent. *)
let set_sites k sites =
  let sites = List.sort_uniq Site.compare sites in
  k.site_table <- sites;
  k.site_set <- Site.Set.of_list sites

(* Deterministic CSS placement (scale-out): every site computes the same
   coordinator for a filegroup from the sorted pack-holder list alone, so
   election needs no negotiation beyond agreeing on the candidates. The
   multiplicative hash spreads distinct filegroups across their holders;
   filegroup 0 lands on the lowest holder, preserving the classic
   single-filegroup layout. *)
let place_css ~fg candidates =
  match List.sort_uniq Site.compare candidates with
  | [] -> None
  | sorted ->
    let n = List.length sorted in
    let idx = fg * 2654435761 land max_int mod n in
    Some (List.nth sorted idx)

(* A committed page through the SS buffer cache, which holds pages of the
   local copy as it is now: a commit or pull buffers the pages it wrote
   and drops those it cut off, so the cache can never serve a stale
   version. A hit skips the disk; a miss reads the page with [read], a
   {!Storage.Pack.reader}. *)
let cached_pack_page k ~read gf lpage =
  let key = (gf, lpage) in
  match Ss_cache.find k.ss_cache key with
  | Some page ->
    Sim.Stats.cincr k.hot.hc_ss_hit;
    page
  | None ->
    Sim.Stats.cincr k.hot.hc_ss_miss;
    charge_disk_read k;
    let page = read lpage in
    Ss_cache.insert k.ss_cache key page;
    page

(* Forget [gf]'s directory index: its session aborted or took a raw page
   write, or another version of the directory was installed. *)
let ss_dir_drop k gf = Ss_dirs.invalidate k.ss_dirs gf

let dir_index_pages d =
  (Catalog.Dir.Index.log_end d.di_index + Storage.Page.size - 1) / Storage.Page.size

(* Keep the indexes within as many directory pages as the buffer cache
   holds pages, evicting the least recently used first. *)
let dir_index_fit k =
  let rec evict total =
    match Ss_dirs.oldest k.ss_dirs with
    | Some (gf, d) when total > k.config.ss_cache_pages ->
      ss_dir_drop k gf;
      Sim.Stats.incr (stats k) "ss.dir.index_evict";
      evict (total - dir_index_pages d)
    | Some _ | None -> ()
  in
  evict (Ss_dirs.fold (fun _ d n -> n + dir_index_pages d) k.ss_dirs 0)

let fresh_serial k =
  let n = k.next_serial in
  k.next_serial <- n + 1;
  n

(* Remote procedure call to another kernel, through the transport layer:
   typed errors, one exactly-once retry policy, per-call tracing.
   The transport makes a call to this site a procedure call (section
   2.3.2). *)
let rpc_result k dst req =
  if not k.alive then Stdlib.Error (Net.Netsim.Unreachable { src = k.site; dst; attempts = 0 })
  else Net.Netsim.call k.net ~src:k.site ~dst req

(* Raising variant for the protocol paths where any transport failure means
   the operation fails with a network error. *)
let rpc k dst req =
  if not k.alive then err Proto.Enet "site %a is down" Site.pp k.site;
  match rpc_result k dst req with
  | Ok resp -> resp
  | Stdlib.Error e -> err Proto.Enet "%a" Net.Netsim.pp_error e

(* Send a close leg. A destination outside this site's partition is left
   to membership cleanup, which owns the state (section 5.6). A close that
   never reached a destination inside it is parked and retried on a
   growing timer until it gets through, the destination leaves the
   partition, or the backoff budget runs out (the destination is down but
   not yet detected; restart scavenging owns the state): dropped, it would
   leak serving state for as long as both ends stay up. A close handed
   off either way is answered [R_ok]. *)
let close_park_base_delay = 4.0

let close_park_max_tries = 8

let rec park_close k dst req ~tries =
  if k.alive && in_partition k dst && tries < close_park_max_tries then
    Engine.schedule k.engine
      ~delay:(close_park_base_delay *. (2.0 ** float_of_int tries))
      (fun () ->
        if k.alive && in_partition k dst then begin
          Sim.Stats.incr (Engine.stats k.engine) "net.close.park_retry";
          match rpc_result k dst req with
          | Stdlib.Error (Net.Netsim.Unreachable _) -> park_close k dst req ~tries:(tries + 1)
          | Ok _ | Stdlib.Error _ -> ()
        end)

let send_close k dst req =
  if not (in_partition k dst) then Proto.R_ok
  else
    match rpc_result k dst req with
    | Ok resp -> resp
    | Stdlib.Error (Net.Netsim.Unreachable _) ->
      park_close k dst req ~tries:0;
      Proto.R_ok
    | Stdlib.Error _ -> Proto.R_ok

(* One-way notification; losses are silent (the commit protocol tolerates
   them: recovery reconciles). *)
let notify k dst req = if k.alive then Net.Netsim.send k.net ~src:k.site ~dst req

(* SS serving state, shared by the SS handlers and the CSS (which
   registers a remote using site when it selects itself). *)
let ss_find_open k gf = Gfile.Tbl.find_opt k.ss_opens gf

let ss_get_open k gf =
  match ss_find_open k gf with
  | Some s -> s
  | None ->
    let s =
      {
        s_gf = gf;
        s_slot = fresh_serial k;
        s_shadow = None;
        s_uss = Site.Map.empty;
        s_writers = Site.Map.empty;
        s_others = [];
      }
    in
    Gfile.Tbl.add k.ss_opens gf s;
    s

let count_add us n counts =
  let m = n + Option.value ~default:0 (Site.Map.find_opt us counts) in
  if m <= 0 then Site.Map.remove us counts else Site.Map.add us m counts

(* Register an open of [gf] in [mode] by [us]: the serving state the open
   protocol leaves at the SS it selected. *)
let ss_register k gf ~us ~mode =
  let s = ss_get_open k gf in
  s.s_uss <- count_add us 1 s.s_uss;
  if mode = Proto.Mode_modify then s.s_writers <- count_add us 1 s.s_writers;
  s

(* End [opens] of [us]'s registrations on [s], [writes] of them modify
   opens: a close, a revalidation or the cleanup after [us] failed. A
   shadow session no writer is left to commit is aborted, with the
   directory index its record changes went through: when a modify
   registration ended and none remains, or when no registration remains
   at all. Serving state no open registers goes, with its incore slot. *)
let ss_end k s ~us ~opens ~writes =
  s.s_uss <- count_add us (-opens) s.s_uss;
  s.s_writers <- count_add us (-writes) s.s_writers;
  let idle = Site.Map.is_empty s.s_uss in
  (match s.s_shadow with
  | Some session when idle || (writes > 0 && Site.Map.is_empty s.s_writers) ->
    Storage.Shadow.abort session;
    s.s_shadow <- None;
    ss_dir_drop k s.s_gf;
    Sim.Stats.incr (Engine.stats k.engine) "ss.orphan_abort";
    record k ~tag:"ss.abort" "%a orphaned" Gfile.pp s.s_gf
  | Some _ | None -> ());
  if idle then Gfile.Tbl.remove k.ss_opens s.s_gf

let expect_ok = function
  | Proto.R_ok -> ()
  | Proto.R_err e -> err e "remote operation failed"
  | _ -> err Proto.Eio "unexpected response"
