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

(* An LRU of version keys, one per file. *)
module Keys = Storage.Lru.Make (struct
  type t = string

  let copy s = s
end)

exception Error of Proto.errno * string

let err errno fmt = Format.kasprintf (fun s -> raise (Error (errno, s))) fmt

let () =
  Printexc.register_printer (function
    | Error (e, s) ->
      Some (Printf.sprintf "Locus error %s: %s" (Proto.errno_to_string e) s)
    | _ -> None)

type config = {
  readahead : bool;          (* one-page readahead on sequential reads (2.3.3) *)
  us_cache_pages : int;      (* US page-cache entries; 0 disables the US cache *)
  ss_cache_pages : int;      (* SS buffer-cache entries; 0 disables the tier *)
  cache_retention : bool;    (* keep version-keyed US pages across opens *)
  propagation_delay : float; (* ms before the kernel propagation process runs a pull *)
  name_cache_entries : int;  (* pathname name-cache entries; 0 disables (2.3.4) *)
  remote_lookup : bool;      (* ship partial pathnames to a storage site (2.3.4) *)
  bulk_window : int;
  (* maximum pages per bulk transfer: streaming-read fetch window,
     write-behind batch size, and propagation pull batch. 1 disables the
     bulk layer entirely and reproduces the one-page-per-RTT protocols. *)
  open_lease_entries : int;
  (* retained open grants per site. Above 0, the CSS grants revocable read
     leases on open: the US retains the whole open grant across close and
     re-opens with zero messages until a callback break. 0 disables the
     lease layer and keeps the classic open/close protocol byte-identical. *)
  stripe_width : int;
  (* stripe a file's logical pages across up to this many storage sites
     holding latest copies: page p lives at stripes.(p mod width). 1
     disables striping and keeps the classic protocol byte-identical. *)
  table_size_hint : int;
  (* initial bucket count for the hot per-kernel hashtables (open files,
     SS serving state, slots, descriptors); sized up front so large runs
     don't pay repeated rehashing *)
}

let default_config =
  {
    readahead = true;
    us_cache_pages = 256;
    ss_cache_pages = 512;
    cache_retention = true;
    propagation_delay = 2.0;
    name_cache_entries = 512;
    remote_lookup = true;
    bulk_window = 8;
    open_lease_entries = 64;
    stripe_width = 1;
    table_size_hint = 64;
  }

(* ---- CSS state: synchronization and version bookkeeping (2.3.1) ---- *)

type css_file = {
  mutable latest_vv : Vvec.t;
  mutable site_vv : Vvec.t Site.Map.t; (* every site storing a copy, with its version *)
  mutable readers : int Site.Map.t; (* open-for-read counts per US *)
  mutable writer : Site.t option;        (* at most one open for modification *)
  mutable writer_ss : Site.t option;     (* the single SS while a writer exists *)
  mutable css_deleted : bool;
  mutable css_conflict : bool; (* unresolved version conflict: normal opens fail (4.6) *)
  mutable leases : Site.Set.t;
  (* sites granted a read lease on this file; broken by callback
     (Lease_break) when a writer opens, the version advances, a conflict
     or delete is recorded, or the partition changes *)
  mutable stripes : Site.t list;
  (* the stripe map pinned while opens are outstanding, so every US of a
     shared file reads and writes the same page->SS assignment; [] means
     unstriped (classic single-SS service) *)
}

type css_fg = { css_files : (int, css_file) Hashtbl.t }

(* ---- US state: incore inodes for open files (2.3.3) ---- *)

(* A write-behind run: adjacent write chunks coalesce into one buffer and
   travel to the SS as a single [Write_pages] batch. *)
type wb_run = {
  wb_off : int; (* absolute byte offset of the run's start *)
  wb_buf : Buffer.t;
  wb_serial : int;
  (* ties the flush timer to the run it was armed for: a timer whose run
     has already been flushed (and possibly replaced) is a no-op *)
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
     open caches under a private key instead, unless it is striped or its
     descriptor has been shared with another site *)
  mutable o_key : string;
  (* the version part of this open's US cache keys, computed once: the
     committed version for a read open, a key private to the open for a
     writer, renewed on every write, truncate, commit and abort *)
  mutable o_private : int list;
  (* pages a writer filed under its current private key, dropped when the
     key is renewed and at close *)
  mutable o_gen : int; (* numbers this open's readahead batches and private keys *)
  mutable o_dirty : bool;   (* uncommitted modifications have been sent to the SS *)
  mutable o_last_lpage : int; (* last page read, drives sequential readahead *)
  mutable o_guess : int; (* the SS's incore-inode slot, sent with page reads *)
  mutable o_window : int; (* streaming fetch window, pages: grows 1->2->4->..
                             on sequential reads, resets to 1 on a seek *)
  mutable o_ra_frontier : int; (* first page NOT yet requested ahead *)
  mutable o_inflight : ra_batch list;
  (* readahead batches scheduled and not yet run, to dedup overlapping
     fetches; a demand miss inside one takes it over and retires it *)
  mutable o_wb : wb_run option; (* pending write-behind run, if any *)
  mutable o_stripes : Site.t list;
  (* stripe map for this open: page p is served by stripes.(p mod width);
     [] = unstriped, everything goes to [o_ss]. [o_ss] is always the
     primary (first) stripe site when striped. *)
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
  mutable s_others : Site.t list; (* other storing sites, for commit notifications *)
}

(* A directory's record index at the SS: where each name's record lies
   in the committed version [di_key], plus the records the open session
   on the directory, if any, has patched or appended through it. *)
type dir_index = {
  mutable di_key : string;
  di_index : Catalog.Dir.Index.t;
  mutable di_used : int; (* recency tick, for eviction *)
}

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
  open_files : (Gfile.t * int, ofile) Hashtbl.t; (* US incore inodes, by (file, serial) *)
  ss_opens : (Gfile.t, ss_open) Hashtbl.t;       (* SS-side serving state *)
  ss_slots : (int, Gfile.t) Hashtbl.t;           (* incore-inode slot -> file *)
  us_cache : (Gfile.t * int * string) Storage.Cache.t; (* (file, lpage, vv) -> page *)
  us_open_keys : Gfile.t Keys.t;
    (* file -> the version key of this site's last cold read open of it: a
       hint that its first pages may still be buffered. No more entries
       than the US cache has pages. *)
  ss_cache : (Gfile.t * int) Storage.Cache.t;
  (* SS buffer cache fronting pack/disk page reads: (file, page) -> the
     local copy's page. Whatever installs a new version of the copy
     carries the buffers ([ss_cache_carry]) or drops the file's. *)
  ss_dirs : (Gfile.t, dir_index) Hashtbl.t;
  (* SS directory indexes, together covering at most as many directory
     pages as the buffer cache holds pages *)
  mutable ss_dirs_tick : int;
  name_cache : Namecache.t;
  (* (directory, component) -> child links, vv-validated (section 2.3.4) *)
  open_leases : Openlease.t;
  (* retained open grants of lease-backed read opens, for zero-message
     re-opens and deferred closes *)
  mutable prop_pending : Gfile.Set.t;
  prop_queue : pull Queue.t;
  shared_fds : (fd_key, shared_fd) Hashtbl.t;
  procs : (int, proc) Hashtbl.t;
  pipe_bufs : (Gfile.t, string ref) Hashtbl.t;   (* SS-side fifo contents *)
  mutable next_serial : int;
  mutable dispatch : Site.t -> Proto.req -> Proto.resp;
  (* local fast path into this kernel's own message handler *)
  mutable extra_handler : Site.t -> Proto.req -> Proto.resp option;
  (* reconfiguration-protocol handlers, installed by the recovery layer *)
  mutable site_table : Site.t list; (* believed-up sites: this site's partition *)
  mutable site_set : Site.Set.t;    (* same membership as [site_table], for O(log n)
                                       partition tests on hot paths; keep in sync via
                                       [set_sites] *)
  mutable alive : bool;
  mutable recon_stage : int; (* reconfiguration stage, for section 5.7 ordering *)
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

(* Deterministic stripe map for a file: up to [width] distinct sites, all
   holding the latest version, rotated by inode number so different files
   spread load across the same holders. Striping only engages when at
   least two latest-copy holders exist; otherwise the classic single-SS
   protocol applies ([]). *)
let stripe_map ~width ~ino candidates =
  if width <= 1 then []
  else
    match List.sort_uniq Site.compare candidates with
    | [] | [ _ ] -> []
    | sorted ->
      let n = List.length sorted in
      let w = min width n in
      let arr = Array.of_list sorted in
      let rot = ino mod n in
      List.init w (fun i -> arr.((rot + i) mod n))

(* Which stripe site serves logical page [lpage] under map [stripes]. *)
let stripe_owner stripes lpage =
  match stripes with
  | [] -> invalid_arg "stripe_owner: unstriped file"
  | _ -> List.nth stripes (lpage mod List.length stripes)

(* US cache keys carry the version vector rendered to a string, so a new
   committed version naturally misses (coherence for free). *)
let vv_key vv = Vvec.to_string vv

let ss_cache_enabled k = k.config.ss_cache_pages > 0

(* The local copy of [gf] went from [old_size] to [size] bytes by a shadow
   commit, which left every logical page it did not replace on the same
   disk page: the buffers of those pages still hold their contents. Only
   the buffers of the [replaced] pages and of the pages the commit cut off
   go. A buffer past the old end holds a page that reads as zeroes, which
   stays true until a commit writes the page, and so replaces it. *)
let ss_cache_carry k gf ~old_size ~size ~replaced =
  let npages size = (size + Storage.Page.size - 1) / Storage.Page.size in
  List.iter (fun p -> Storage.Cache.invalidate k.ss_cache (gf, p)) replaced;
  for p = npages size to npages old_size - 1 do
    Storage.Cache.invalidate k.ss_cache (gf, p)
  done

(* Forget [gf]'s directory index: its session aborted or took a raw page
   write, or another version of the directory was installed. *)
let ss_dir_drop k gf = Hashtbl.remove k.ss_dirs gf

(* A commit took the local copy of [gf] from [old_vv] to [vv]. An index of
   [old_vv] already holds the session's record changes, so it now locates
   [vv]'s records; an index of any other version is stale. *)
let ss_dir_carry k gf ~old_vv ~vv =
  match Hashtbl.find_opt k.ss_dirs gf with
  | Some d when String.equal d.di_key (vv_key old_vv) -> d.di_key <- vv_key vv
  | Some _ -> ss_dir_drop k gf
  | None -> ()

let fresh_serial k =
  let n = k.next_serial in
  k.next_serial <- n + 1;
  n

(* Remote procedure call to another kernel, through the transport layer:
   typed errors, one exactly-once retry policy, per-call tracing.
   Collocated roles short-circuit to a procedure call (section 2.3.2). *)
let rpc_result k dst req =
  if not k.alive then Stdlib.Error (Net.Rpc.Unreachable { src = k.site; dst; attempts = 0 })
  else
    Net.Rpc.call k.net ~policy:(Proto.req_policy req) ~tag:(Proto.req_tag req) ~src:k.site
      ~dst ~req_bytes:(Proto.req_bytes req) ~resp_bytes:Proto.resp_bytes req

(* Raising variant for the protocol paths where any transport failure means
   the operation fails with a network error. *)
let rpc k dst req =
  if not k.alive then err Proto.Enet "site %a is down" Site.pp k.site;
  match rpc_result k dst req with
  | Ok resp -> resp
  | Stdlib.Error e -> err Proto.Enet "%a" Net.Rpc.pp_error e

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
          | Stdlib.Error (Net.Rpc.Unreachable _) -> park_close k dst req ~tries:(tries + 1)
          | Ok _ | Stdlib.Error _ -> ()
        end)

let send_close k dst req =
  if not (in_partition k dst) then Proto.R_ok
  else
    match rpc_result k dst req with
    | Ok resp -> resp
    | Stdlib.Error (Net.Rpc.Unreachable _) ->
      park_close k dst req ~tries:0;
      Proto.R_ok
    | Stdlib.Error _ -> Proto.R_ok

(* One-way notification; losses are silent (the commit protocol tolerates
   them: recovery reconciles). *)
let notify k dst req =
  if k.alive then
    Net.Rpc.send k.net ~tag:(Proto.req_tag req) ~src:k.site ~dst
      ~bytes:(Proto.req_bytes req) req

(* SS serving-state bookkeeping, shared by the SS handlers and the CSS
   (which must register remote using sites when it selects itself). *)
let ss_find_open k gf = Hashtbl.find_opt k.ss_opens gf

let ss_get_open k gf =
  match ss_find_open k gf with
  | Some s -> s
  | None ->
    let slot = fresh_serial k in
    let s =
      { s_gf = gf; s_slot = slot; s_shadow = None; s_uss = Site.Map.empty; s_others = [] }
    in
    Hashtbl.add k.ss_opens gf s;
    Hashtbl.replace k.ss_slots slot gf;
    s

let ss_add_us s us =
  let n = match Site.Map.find_opt us s.s_uss with Some n -> n | None -> 0 in
  s.s_uss <- Site.Map.add us (n + 1) s.s_uss

let expect_ok = function
  | Proto.R_ok -> ()
  | Proto.R_err e -> err e "remote operation failed"
  | _ -> err Proto.Eio "unexpected response"
