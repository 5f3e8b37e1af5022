(* Using Site file access (section 2.3.3, 2.3.5).

   The US carries out the user-visible half of every file operation: it
   contacts the CSS to open, exchanges pages with the selected SS, and runs
   the close protocol. Pages travel in one read message and one write
   message, [Read_pages] and [Write_pages], whose one-page forms are the
   paper's network read and write; [Ss.read_pages] and [Ss.write_run] send
   them, for propagation and reconciliation too. A truncate rides in a
   [Write_pages], and above a window of 1 the last window of a write rides
   in the commit, so a whole-file overwrite of up to a window of pages
   and its commit are one round trip. All page traffic goes
   through kernel buffers; remote pages are cached at the US (keyed by
   file and version, so a new committed version naturally misses; a
   writer's pages go under a key private to its open). One windowed
   fetcher fills the cache for every remote read, a reader's or a
   writer's: a window of up to [bulk_window] pages from the one SS the
   CSS chose for the open, which serves every page of it. A read call tells
   the fetcher its extent, so a demand miss fetches the call's pages up to
   a full window at once, and readahead starts only past the call's last
   page. A demand miss on a page whose readahead batch has not run yet
   waits for that batch, so a page-at-a-time sequential read moves one
   window per round trip even when nothing runs between reads. A read
   open asks for the file's first window, and a CSS that serves the open
   itself returns those pages in its grant: they are filed like a
   fetch's, so a file of up to a window is read with no read message.
   Window 1 is the paper's one-page readahead on sequential reads, and
   its open, which asks for no pages. *)

open Ktypes
module Inode = Storage.Inode
module Pack = Storage.Pack
module Page = Storage.Page

(* ---- US cache keys ----

   A read open files its pages under the committed version it reads,
   shared with every other open of that version. A writer's pages may hold
   its own uncommitted bytes, so it files them under a key private to the
   open, [Private] of a fresh serial, renewed whenever its bytes change: on
   every write, truncate, commit and abort. No other open can hit them,
   and neither can this one once they are stale, so a renewal drops them,
   as does close. *)

let cache_key o lpage = (o.o_gf, lpage, o.o_key)

let file_page k o lpage data =
  Us_cache.insert k.us_cache (cache_key o lpage) (Page.of_string data)

let cacheable k o = k.config.us_cache_pages > 0 && not o.o_nocache

(* Drop the pages filed under the open's current key, visiting the file's
   entries only. *)
let drop_keyed k o =
  let key = o.o_key in
  ignore
    (Us_cache.drop_file k.us_cache (Gfile.id o.o_gf) ~only:(fun (_, _, v) _ ->
         vkey_equal v key))

(* A read open's key is shared with every open of its version; only a
   writer's is its own to drop. *)
let drop_private k o = if o.o_mode = Proto.Mode_modify then drop_keyed k o

let renew_key k o =
  drop_private k o;
  o.o_key <-
    (match o.o_mode with
    | Proto.Mode_modify -> Private (fresh_serial k)
    | Proto.Mode_read | Proto.Mode_internal -> Committed o.o_info.Proto.i_vv)

(* A writer's descriptor is leaving for another site (fork, exec, run).
   Its holders there write, truncate and abort the same SS session behind
   this open's back, so from now on this open reads uncached, like every
   shared open. The renewal drops its pages and any batch in flight. *)
let share k o =
  if o.o_mode = Proto.Mode_modify && not o.o_nocache then begin
    o.o_nocache <- true;
    renew_key k o
  end

(* Whether a cold open asks its CSS for the file's first pages: a
   non-shared read open through a remote CSS, whose pages this site would
   buffer, with windows of more than one page. At window 1 no open asks,
   and the exchange is the paper's. *)
let asks_first_pages k fi mode ~shared =
  mode = Proto.Mode_read && (not shared)
  && k.config.us_cache_pages > 0
  && k.config.bulk_window > 1
  && not (Site.equal fi.css_site k.site)

(* Whether page 0 of [gf] is still buffered under the version this site's
   last read open of it named, counted in [us.open.buffered] when it is.
   A hint: a newer version misses and costs one [Read_pages], never wrong
   bytes. *)
let first_page_buffered k gf =
  match Keys.find k.us_open_keys gf with
  | Some vv when Us_cache.mem k.us_cache (gf, 0, Committed vv) ->
    Sim.Stats.incr (stats k) "us.open.buffered";
    true
  | Some _ | None -> false

(* Run the close protocol's first leg at [ss]: one [Us_close] handed off
   to {!Ktypes.send_close}. A close that can never reach the SS is handled
   by cleanup when the membership change is observed. *)
let close_at ?(grant = 0) ?(released = false) k ss gf mode =
  try ignore (send_close k ss (Proto.Us_close { gf; mode; grant; released }))
  with Error _ -> ()

(* Send the one batched close a dead lease owes: the [Us_close] the cold
   open deferred, naming the grant, or only its SS half when the CSS's
   break released the rest. Kills arriving through dispatch, eviction or
   recovery all route here ([lease_dead]), as does an eviction's close
   that could not ride its open. *)
let lease_send_close k (e : Openlease.entry) =
  if k.alive then begin
    let send ~grant ~released =
      record k ~tag:"us.lease.close" "%a" Gfile.pp e.Openlease.le_gf;
      close_at ~grant ~released k e.Openlease.le_ss e.Openlease.le_gf e.Openlease.le_mode
    in
    match e.Openlease.le_owed with
    | Openlease.Grant_close -> send ~grant:e.Openlease.le_id ~released:false
    | Openlease.Plain_close -> send ~grant:0 ~released:false
    | Openlease.Ss_half -> send ~grant:0 ~released:true
    | Openlease.No_close -> ()
  end

(* The deferred-close sender [Kernel.create] installs. The close of an
   idle grant a capacity eviction displaced leaves the foreground, from a
   zero-delay event. *)
let lease_dead k ~evicted e =
  if evicted then Engine.schedule k.engine ~delay:0.0 (fun () -> lease_send_close k e)
  else lease_send_close k e

(* The CSS released this site's own grant on [gf] at its modify open, as
   a break does, with the grant's SS registration when the CSS is that SS,
   and sent it no [Lease_break]: the open's reply is the break. *)
let own_grant_released k fi gf =
  Option.iter
    (fun (e : Openlease.entry) ->
      Coherence.lease_broken k gf ~id:e.Openlease.le_id
        ~closed:(Site.equal e.Openlease.le_ss fi.css_site))
    (Openlease.find_entry k.open_leases gf)

(* Open <filegroup, inode>: interrogate the CSS, which selects the SS
   (Figure 2). Returns the US incore inode.

   A retained open lease short-circuits the whole exchange: a read or
   internal re-open of a file whose grant is still live completes with
   zero messages — no [Open_req], no storage poll — riding the grant the
   CSS issued at the cold open. Shared opens never ride a lease (their
   offset token traffic needs the full registration). *)
let rec open_gf ?(shared = false) k gf mode =
  let fi = fg_info k gf.Gfile.fg in
  let lease_ride =
    match mode with
    | (Proto.Mode_read | Proto.Mode_internal) when not shared -> (
      match Openlease.acquire k.open_leases gf with
      | Some e when in_partition k e.Openlease.le_ss -> Some e
      | Some e ->
        (* The serving SS left the partition under us: the grant is dead
           even if no break callback made it through. *)
        e.Openlease.le_active <- e.Openlease.le_active - 1;
        Openlease.kill k.open_leases gf;
        None
      | None -> None)
    | _ -> None
  in
  let asks = asks_first_pages k fi mode ~shared in
  let tag, ss, info, nocache, slot, lease, pages =
    match lease_ride with
    (* Leases only exist while no writer does, but the break of one this
       site's own writer opened may still be on its way: until it
       arrives, a ride reads past the cache, as every other open of the
       file here does while the writer's session lives. *)
    | Some e ->
      ( "us.open.lease",
        e.Openlease.le_ss,
        e.Openlease.le_info,
        Hashtbl.fold
          (fun _ w here -> here || (w.o_mode = Proto.Mode_modify && Gfile.equal w.o_gf gf))
          k.open_files false,
        e.Openlease.le_slot,
        Some e,
        [] )
    | None -> open_cold ~shared ~asks k fi gf mode
  in
  let o =
    {
      o_gf = gf;
      o_serial = fresh_serial k;
      o_mode = mode;
      o_ss = ss;
      o_info = info;
      (* The CSS reports any writer, this open included. The writer's own
         open caches under its private key unless a shared descriptor's
         other holders write behind its back (the original open stops
         caching once its descriptor leaves the site: see [share]). *)
      o_nocache = nocache && (shared || mode <> Proto.Mode_modify);
      o_key = Private 0; (* set by [renew_key] below; no serial is 0 *)
      o_dirty = false;
      o_committed_size = info.Proto.i_size;
      (* -1 so a scan starting at page 0 counts as sequential and primes
         the readahead window immediately. *)
      o_last_lpage = -1;
      o_guess = slot;
      o_window = 1;
      o_ra_frontier = 0;
      o_inflight = [];
      o_wb = None;
      o_wb_timer = false;
      o_closed = false;
      o_lease = lease;
    }
  in
  renew_key k o;
  (* The pages the CSS carried in its reply are this version's first
     pages, filed as the fetcher would have filed them. *)
  if pages <> [] && cacheable k o then begin
    List.iteri (file_page k o) pages;
    Sim.Stats.add (stats k) "us.open.pages" (List.length pages)
  end;
  if asks && Option.is_none lease_ride then Keys.insert k.us_open_keys gf o.o_info.Proto.i_vv;
  Hashtbl.add k.open_files o.o_serial o;
  record k ~tag "%a %a ss=%a" Gfile.pp gf Proto.pp_mode mode Site.pp ss;
  o

(* The full exchange with the CSS; returns what the open record needs. A
   read open asks for a window of first pages unless page 0 is still
   buffered. A lease-eligible open that finds the lease table full evicts
   the least recent grant first when it is idle and the CSS is its SS:
   that grant's close rides the request. The request's handler runs once
   or not at all, so the close is sent again only when no attempt reached
   the CSS. *)
and open_cold ~shared ~asks k fi gf mode =
  let us_vv = local_vv k gf in
  let want = if asks && not (first_page_buffered k gf) then k.config.bulk_window else 0 in
  let victim =
    match mode with
    | (Proto.Mode_read | Proto.Mode_internal) when not shared ->
      Openlease.make_room k.open_leases ~ss:fi.css_site
    | Proto.Mode_read | Proto.Mode_internal | Proto.Mode_modify -> None
  in
  let release =
    Option.map
      (fun (e : Openlease.entry) ->
        record k ~tag:"us.lease.release" "%a" Gfile.pp e.Openlease.le_gf;
        (e.Openlease.le_gf, e.Openlease.le_mode, e.Openlease.le_id))
      victim
  in
  match rpc_result k fi.css_site (Proto.Open_req { gf; mode; us_vv; shared; want; release }) with
  | Stdlib.Error (Net.Netsim.Refused e) -> err e "open %a refused" Gfile.pp gf
  | Stdlib.Error (Net.Netsim.Unreachable _ as e) ->
    Option.iter (lease_send_close k) victim;
    err Proto.Enet "%a" Transport.pp_error e
  | Stdlib.Error (Net.Netsim.Lost_reply _ as e) ->
    if mode = Proto.Mode_modify then own_grant_released k fi gf;
    err Proto.Enet "%a" Transport.pp_error e
  | Ok { Proto.ss; info; others; nocache; slot; lease; pages } ->
    if mode = Proto.Mode_modify then own_grant_released k fi gf;
    let info =
      match info with
      | Some info -> info
      | None -> (
        (* The US-is-current shortcut: no storage poll registered this
           open here, so this site does, once (a polled or CSS-local
           serve is already registered, and two registrations would
           need two closes). *)
        match local_pack k gf.Gfile.fg with
        | Some pack when Pack.stores pack gf.Gfile.ino ->
          let s = ss_register k gf ~us:k.site ~mode in
          s.s_others <- others;
          Proto.info_of_inode (Pack.get_inode pack gf.Gfile.ino)
        | Some _ | None -> err Proto.Eio "open %a: no local copy to serve" Gfile.pp gf)
    in
    let lease_entry =
      if lease <> 0 then begin
        let e =
          {
            Openlease.le_gf = gf;
            le_ss = ss;
            le_mode = mode;
            le_info = info;
            le_slot = slot;
            le_vv = info.Proto.i_vv;
            le_id = lease;
            le_active = 1;
            le_broken = false;
            le_owed = Openlease.Grant_close;
          }
        in
        Openlease.insert k.open_leases e;
        record k ~tag:"us.lease.grant" "%a" Gfile.pp gf;
        Some e
      end
      else None
    in
    ("us.open", ss, info, nocache, slot, lease_entry, pages)

(* The bulk-transfer layer batches write traffic with a remote SS; local
   access and a window of one page keep the original protocol exactly. *)
let bulk_enabled k o = k.config.bulk_window > 1 && not (Site.equal o.o_ss k.site)

(* ---- write-behind (bulk write path) ---- *)

(* How long a small run may sit at the US before a timer pushes it out:
   long enough to coalesce a burst of adjacent write() calls, short enough
   that any settle point still observes the data at the SS. *)
let wb_flush_delay = 0.05

(* Count one answered bulk write request of [pages] pages. *)
let bulk_sent k pages =
  Sim.Stats.incr (stats k) "us.bulk.write";
  Sim.Stats.add (stats k) "us.bulk.write.pages" pages

let wb_length run = String.length run.wb_head + Buffer.length run.wb_rest

let wb_contents run =
  if Buffer.length run.wb_rest = 0 then run.wb_head
  else run.wb_head ^ Buffer.contents run.wb_rest

(* Flush the pending write-behind run to the SS as [Write_pages] batches of
   at most a window of pages each, its truncate riding the first. Every
   path that makes the modification externally visible — a read on this
   open, a truncate, a file-offset token moving away, the timer — must
   come through here first, so the SS shadow session always holds the
   data before anyone can look. The commit is the one flush point that
   carries the run itself (see [commit_gen]). *)
let flush_wb k o =
  match o.o_wb with
  | None -> ()
  | Some run ->
    o.o_wb <- None;
    Ss.write_run ?trunc:run.wb_trunc k o.o_ss o.o_gf ~off:run.wb_off (wb_contents run)
      ~sent:(bulk_sent k)

(* The open's one write-behind timer, pending at [time]. It pushes out a
   run that is due; a run held since it was armed (the one it was armed
   for was pushed out and replaced) is not, and the timer waits on for
   it. A timer that finds no run is done, and the next run held arms it
   again. *)
let rec arm_wb k o ~time =
  o.o_wb_timer <- true;
  Engine.schedule_at k.engine ~time (fun () ->
      o.o_wb_timer <- false;
      match o.o_wb with
      | Some run when k.alive && not o.o_closed -> (
        if run.wb_due > Engine.now k.engine then arm_wb k o ~time:run.wb_due
        else
          match flush_wb k o with
          | () -> ()
          | exception Error _ ->
            (* No caller hears a timer's flush fail: the run is kept, so
               the next flush point, the commit at the latest, sends it
               again. The resend is harmless: it truncates first and
               writes at absolute positions. *)
            if o.o_wb = None && not o.o_closed then o.o_wb <- Some run)
      | Some _ | None -> ())

(* Hold [data] at byte [off], after a truncate to [trunc] when set, as the
   open's write-behind run, due [wb_flush_delay] from now. The run holds
   [data] itself, not a copy. The timer is armed only if the run is still
   held when the simulation next runs events: a whole-file write's run
   is nearly always carried by the commit that follows it in the same
   call sequence, and then costs no event. *)
let hold_run ?trunc k o ~off data =
  let due = Engine.now k.engine +. wb_flush_delay in
  let run =
    { wb_trunc = trunc; wb_off = off; wb_head = data; wb_rest = Buffer.create 64; wb_due = due }
  in
  o.o_wb <- Some run;
  Engine.defer k.engine (fun () ->
      match o.o_wb with
      | Some r when r == run && not o.o_wb_timer -> arm_wb k o ~time:due
      | Some _ | None -> ())

(* ---- the windowed page fetcher (section 2.3.3; bulk reads) ----

   One fetcher serves every cacheable read. A sequential reader keeps a
   window of up to [bulk_window] pages requested ahead of it from the
   open's SS, so a round trip moves up to a window of pages. The paper's
   protocol is the degenerate setting: window 1 fetches one page per
   one-page [Read_pages] with one-page readahead. *)

let npages_of o = (o.o_info.Proto.i_size + Page.size - 1) / Page.size

let covers p b = p >= b.ra_first && p < b.ra_first + b.ra_count

let in_flight o p = List.exists (covers p) o.o_inflight

let retire o serial =
  o.o_inflight <- List.filter (fun b -> b.ra_serial <> serial) o.o_inflight

(* Length of the run of wanted pages from [from]: stop at the first page
   already cached or already requested, at [limit] pages, or at eof. *)
let run_length k o ~from ~limit =
  let npages = npages_of o in
  let rec len i =
    if i >= limit || from + i >= npages then i
    else if Us_cache.mem k.us_cache (cache_key o (from + i)) || in_flight o (from + i) then i
    else len (i + 1)
  in
  len 0

(* [count] pages from [first] in one [Read_pages] to the open's SS. Only
   a request of two or more pages counts as a bulk read. *)
let fetch ?vv k o ~first ~count =
  let reply = Ss.read_pages ?vv k o.o_ss o.o_gf ~first ~count ~guess:o.o_guess in
  if count > 1 then begin
    Sim.Stats.incr (stats k) "us.bulk.read";
    Sim.Stats.add (stats k) "us.bulk.read.pages" (List.length reply.Proto.pages)
  end;
  reply

(* The open's SS holds another committed version than the one the open
   files its pages under: a commit reached that copy, but neither its
   lease break nor a page invalidation reached this site. The reply
   announces the commit here; the open drops the pages it filed under the
   old version and moves to the version the SS served. *)
let rebase k o (info : Proto.inode_info) =
  Sim.Stats.incr (stats k) "us.read.rebase";
  record k ~tag:"us.rebase" "%a vv=%a" Gfile.pp o.o_gf Vvec.pp info.Proto.i_vv;
  Coherence.announced k o.o_gf ~vv:info.Proto.i_vv ~deleted:false ~origin:o.o_ss;
  drop_keyed k o;
  o.o_info <- info;
  renew_key k o

(* Fetch the run [first, first+count) into the US cache. Returns page
   [first] and whether it ends the file. A read open names its version,
   so its pages are filed under the version the SS served; a writer's
   are filed under its private key. *)
let fetch_range k o ~first ~count =
  let vv = if o.o_mode = Proto.Mode_modify then None else Some o.o_info.Proto.i_vv in
  let { Proto.pages; eof; info } = fetch ?vv k o ~first ~count in
  Option.iter (rebase k o) info;
  List.iteri (fun i d -> file_page k o (first + i) d) pages;
  match pages with d :: rest -> (d, rest = [] && eof) | [] -> ("", true)

(* One page straight from the SS, past the US cache. *)
let fetch_uncached k o lpage =
  let { Proto.pages; eof; _ } = fetch k o ~first:lpage ~count:1 in
  ((match pages with d :: _ -> d | [] -> ""), eof)

(* Keep a full window requested ahead of a sequential reader. The frontier
   is the first page no fetch has been issued for; a new batch goes out
   only when the reader has caught up with it, so steady-state sequential
   reading issues one request per window of pages. A readahead failure is
   silent: the next demand fetch surfaces the error. *)
let schedule_window k o ~lpage =
  let npages = npages_of o in
  let first = lpage + 1 in
  if o.o_ra_frontier <= first && first < npages then begin
    let count = run_length k o ~from:first ~limit:(min o.o_window (npages - first)) in
    if count > 0 then begin
      let serial = fresh_serial k and key = o.o_key in
      o.o_inflight <- { ra_serial = serial; ra_first = first; ra_count = count } :: o.o_inflight;
      o.o_ra_frontier <- first + count;
      Engine.schedule k.engine ~delay:0.01 (fun () ->
          (* A batch no longer pending was taken over by a demand miss. *)
          let pending = List.exists (fun b -> b.ra_serial = serial) o.o_inflight in
          retire o serial;
          (* A write changed the bytes under us: drop the batch. *)
          if pending && (not o.o_closed) && k.alive && vkey_equal o.o_key key then begin
            (* A demand fetch may have overtaken us: re-scan and fetch only
               the still-missing tail of the scheduled range. *)
            let rec first_missing p =
              if p >= first + count then None
              else if Us_cache.mem k.us_cache (cache_key o p) then first_missing (p + 1)
              else Some p
            in
            match first_missing first with
            | None -> ()
            | Some p0 -> (
              match fetch_range k o ~first:p0 ~count:(first + count - p0) with
              | _ -> Sim.Stats.incr (stats k) "us.readahead"
              | exception Error _ -> ())
          end)
    end
  end

(* A cacheable read: a hit is served from the US cache, a miss fetches
   the run of missing pages the window or the call's extent allows. The
   read call wants [want] pages from [lpage] on; a miss fetches that many,
   or the window if it is larger, capped at a full window. A
   miss on a page whose readahead batch is scheduled but has not run
   models the reader sleeping on the buffer until that batch's reply
   lands: it fetches the batch's still-missing pages from the demanded
   page on, or the call's capped extent if longer, in one round trip, and
   retires the batch. Either way a sequential reader grows the window, and
   on the call's last page keeps it scheduled ahead; a seek resets it to
   one page. *)
let read_cached k o lpage ~sequential ~want =
  if sequential then o.o_window <- min k.config.bulk_window (o.o_window * 2)
  else begin
    o.o_window <- 1;
    o.o_ra_frontier <- lpage + 1
  end;
  let data, eof =
    match Us_cache.find k.us_cache (cache_key o lpage) with
    | Some page ->
      Sim.Stats.cincr k.hot.hc_us_hit;
      let size = o.o_info.Proto.i_size in
      let len = max 0 (min Page.size (size - (lpage * Page.size))) in
      (Page.sub page 0 len, (lpage + 1) * Page.size >= size)
    | None ->
      Sim.Stats.cincr k.hot.hc_us_miss;
      let want = min want k.config.bulk_window in
      let run limit =
        max 1 (run_length k o ~from:lpage ~limit:(min limit (npages_of o - lpage)))
      in
      let count =
        match List.find_opt (covers lpage) o.o_inflight with
        | Some b ->
          retire o b.ra_serial;
          let rec last p =
            if p > lpage && Us_cache.mem k.us_cache (cache_key o p) then last (p - 1) else p
          in
          max (last (b.ra_first + b.ra_count - 1) - lpage + 1) (run want)
        | None -> run (max o.o_window want)
      in
      let result = fetch_range k o ~first:lpage ~count in
      if o.o_ra_frontier < lpage + count then o.o_ra_frontier <- lpage + count;
      result
  in
  if sequential && (not eof) && want <= 1 then schedule_window k o ~lpage;
  (data, eof)

(* Read one logical page through the kernel buffers (section 2.3.3). An
   open served by this site reads its own pack, at the cost of
   conventional Unix; a cacheable open, a writer's included, goes through
   the fetcher; an open that must bypass the cache (another open is
   writing) reads the page from its SS. [want] is how many pages the read
   call covers from [lpage] on. *)
let read_page ?(want = 1) k o lpage =
  if o.o_closed then err Proto.Einval "read on closed file";
  (* Read-your-writes: anything buffered for write-behind must reach the
     SS shadow session before a page can be read back. *)
  if o.o_wb <> None then flush_wb k o;
  charge_cpu_page k;
  let sequential = lpage = o.o_last_lpage + 1 in
  o.o_last_lpage <- lpage;
  if cacheable k o && not (Site.equal o.o_ss k.site) then
    read_cached k o lpage ~sequential ~want
  else fetch_uncached k o lpage

(* A read of one version: when a fetch moved the open to another version
   part-way ([rebase]), the read starts over, so it never joins pages of
   two versions. *)
let rec one_version o read =
  let vv = o.o_info.Proto.i_vv in
  let r = read () in
  if Vvec.equal vv o.o_info.Proto.i_vv then r else one_version o read

(* Whole-body read, following the SS's eof indications. Each page read
   wants the pages left to eof. The body goes into one buffer sized from
   the open's inode, which becomes the result without a copy when the
   pages fill it exactly; it grows only if the SS serves more. *)
let read_all k o =
  one_version o (fun () ->
      let buf = ref (Bytes.create o.o_info.Proto.i_size) in
      let rec loop lpage at =
        let data, eof = read_page ~want:(npages_of o - lpage) k o lpage in
        let n = String.length data in
        if at + n > Bytes.length !buf then
          buf := Bytes.extend !buf 0 (max (at + n) (2 * Bytes.length !buf) - Bytes.length !buf);
        Bytes.blit_string data 0 !buf at n;
        if (not eof) && n > 0 then loop (lpage + 1) (at + n) else at + n
      in
      let len = if o.o_info.Proto.i_size > 0 || Site.equal o.o_ss k.site then loop 0 0 else 0 in
      if len = Bytes.length !buf then Bytes.unsafe_to_string !buf else Bytes.sub_string !buf 0 len)

(* Read up to [len] bytes starting at byte [off] (fd-style read). Each
   page read wants the pages left in the range. *)
let read_bytes k o ~off ~len =
  if len <= 0 then ""
  else
    one_version o @@ fun () ->
    let buf = Buffer.create len in
    let last = (off + len - 1) / Page.size in
    let rec loop abs remaining =
      if remaining > 0 then begin
        let lpage = abs / Page.size in
        let poff = abs mod Page.size in
        let data, eof = read_page ~want:(last - lpage + 1) k o lpage in
        let avail = max 0 (String.length data - poff) in
        let take = min remaining avail in
        if take > 0 then Buffer.add_substring buf data poff take;
        if not eof then begin
          (* A short or sparse mid-file page reads as zeroes out to the page
             boundary; keep going into the next page rather than silently
             returning short data. *)
          let page_room = Page.size - poff in
          let gap = min (remaining - take) (page_room - avail) in
          if gap > 0 then Buffer.add_substring buf Page.blank 0 gap;
          loop (abs + take + gap) (remaining - take - gap)
        end
      end
    in
    loop off len;
    Buffer.contents buf

(* The open's bytes changed: renew its key, and every other open of the
   file here reads through the SS while the session lives. *)
let rewrote k o =
  renew_key k o;
  o.o_dirty <- true;
  Coherence.rewritten k o.o_gf (Coherence.Here o)

let writable o =
  if o.o_closed then err Proto.Einval "write on closed file";
  if o.o_mode <> Proto.Mode_modify then err Proto.Eaccess "file not open for modification"

(* Write [data] at byte offset [off] through the write protocol: each
   affected page travels US -> SS once; whole-page changes need no read.
   With the bulk layer on, adjacent chunks coalesce into a write-behind
   run at the US and travel later as one [Write_pages] batch; otherwise
   the run goes now, in one [Ss.write_run]. *)
let write k o ~off data =
  writable o;
  let len = String.length data in
  let write_behind () =
    (match o.o_wb with
    | Some run when run.wb_off + wb_length run = off -> Buffer.add_string run.wb_rest data
    | Some _ ->
      (* Non-adjacent write: push the old run out first, in order. *)
      flush_wb k o;
      hold_run k o ~off data
    | None -> hold_run k o ~off data);
    match o.o_wb with
    | Some run
      when (run.wb_off mod Page.size) + wb_length run >= k.config.bulk_window * Page.size ->
      flush_wb k o
    | _ -> ()
  in
  if len > 0 then
    if bulk_enabled k o then write_behind ()
    else Ss.write_run k o.o_ss o.o_gf ~off data;
  rewrote k o;
  if off + len > o.o_info.Proto.i_size then
    o.o_info <- { o.o_info with Proto.i_size = off + len }

let truncate k o size =
  if o.o_mode <> Proto.Mode_modify then err Proto.Eaccess "file not open for modification";
  (* Buffered writes precede the truncate in program order. *)
  if o.o_wb <> None then flush_wb k o;
  Ss.write_run ~trunc:size k o.o_ss o.o_gf ~off:0 "";
  rewrote k o;
  if size < o.o_info.Proto.i_size then o.o_info <- { o.o_info with Proto.i_size = size }

(* A whole-file overwrite. The truncate rides in the first [Write_pages]
   of the run, and any pending write-behind run is dropped: the truncate
   would discard it. With the bulk layer on, the body's last window (all
   of it, with the truncate, when it fits in one) is held as the
   write-behind run, so the commit carries it; the leading windows go
   now. The open is dirty before anything is sent, so a failure part-way
   through aborts the session. *)
let set_contents k o body =
  writable o;
  o.o_wb <- None;
  o.o_dirty <- true;
  if bulk_enabled k o then begin
    let len = String.length body and window_bytes = k.config.bulk_window * Page.size in
    let tail = if len = 0 then 0 else (len - 1) / window_bytes * window_bytes in
    if tail = 0 then hold_run ~trunc:0 k o ~off:0 body
    else begin
      Ss.write_run ~trunc:0 ~len:tail k o.o_ss o.o_gf ~off:0 body ~sent:(bulk_sent k);
      hold_run k o ~off:tail (String.sub body tail (len - tail))
    end
  end
  else Ss.write_run ~trunc:0 k o.o_ss o.o_gf ~off:0 body;
  rewrote k o;
  o.o_info <- { o.o_info with Proto.i_size = String.length body }

(* One local open stops riding the lease. If the lease already died while
   it was open, the last rider out sends the deferred close. *)
let lease_drop_rider k (e : Openlease.entry) =
  e.Openlease.le_active <- e.Openlease.le_active - 1;
  if e.Openlease.le_broken && e.Openlease.le_active <= 0 then lease_send_close k e

(* Commit or abort the modifications of this open (section 2.3.6). The
   write-behind run is part of what commits: it rides in the commit, which
   the SS writes into the shadow session before committing, so the write
   costs no round trip of its own. A held run never exceeds a window, so
   it fits the one request. Aborting just drops it. *)
let commit_gen k o ~abort =
  let run =
    match o.o_wb with
    | Some run when not abort ->
      Some
        { Proto.run_trunc = run.wb_trunc; run_first = run.wb_off / Page.size;
          run_off = run.wb_off mod Page.size; run_data = wb_contents run }
    | Some _ | None -> None
  in
  o.o_wb <- None;
  let vv =
    rpc k o.o_ss (Proto.Commit_req { gf = o.o_gf; abort; delete = false; force_vv = None; run })
  in
  (match run with
  | Some { Proto.run_off; run_data; _ } ->
    let pages = Ss.run_pages ~poff:run_off (String.length run_data) in
    Sim.Stats.incr (stats k) "us.commit.run";
    Sim.Stats.add (stats k) "us.commit.run.pages" pages;
    if pages > 0 then bulk_sent k pages
  | None -> ());
  o.o_dirty <- false;
  if abort then o.o_info <- { o.o_info with Proto.i_size = o.o_committed_size }
  else o.o_committed_size <- o.o_info.Proto.i_size;
  if not (Vvec.equal vv Vvec.zero) then o.o_info <- { o.o_info with Proto.i_vv = vv };
  renew_key k o;
  vv

let commit k o = ignore (commit_gen k o ~abort:false)

let abort k o = ignore (commit_gen k o ~abort:true)

(* Close: flush (commit) any modification, then run the close protocol
   US -> SS -> CSS (section 2.3.3). A lease-backed read open defers the
   protocol instead: the SS keeps serving this US, and the [Us_close] /
   [Ss_close] pair travels once, when the lease dies. *)
let close k o =
  if not o.o_closed then begin
    (* A writer's privately keyed pages can never hit again: drop them
       first, so a failing commit cannot strand them. *)
    drop_private k o;
    if o.o_dirty then commit k o;
    o.o_closed <- true;
    Hashtbl.remove k.open_files o.o_serial;
    (match o.o_lease with
    | Some e ->
      if not e.Openlease.le_broken then Sim.Stats.incr (stats k) "open.lease.defer";
      lease_drop_rider k e
    | None -> close_at k o.o_ss o.o_gf o.o_mode);
    (* The buffered pages stay, version-keyed, so a re-open of the same
       version hits warm. *)
    record k ~tag:"us.close" "%a" Gfile.pp o.o_gf
  end


(* Best-effort release of [o] after a failed operation: drop uncommitted
   modification state, abort any shadow session, run the close protocol —
   and never raise, so the original error propagates. Error paths that
   skip the release leak the open forever: nothing else ever closes it,
   so the SS keeps its serving registration (and any shadow session and
   its shadow pages) until the site dies. *)
let release k o =
  if not o.o_closed then begin
    o.o_wb <- None;
    if o.o_dirty then
      (try ignore (commit_gen k o ~abort:true) with Error _ -> ());
    (* Whether or not the abort reached the SS, this open must not try to
       commit on close. *)
    o.o_dirty <- false;
    try close k o with Error _ -> ()
  end

(* Run [f] on [o], an open made for this one operation, and end the open:
   close it when [f] returns, release it when [f] raises (the SS died or
   the link failed mid-operation) and re-raise. [f] takes its argument
   rather than capturing it, so a hot caller allocates no closure. *)
let with_open k o f x =
  match f k o x with
  | r ->
    close k o;
    r
  | exception e ->
    release k o;
    raise e

let stat_gf k gf =
  (* Prefer the local copy; otherwise ask the CSS, which answers itself
     when its own copy is the latest, else names the sites that hold it. *)
  match local_pack k gf.Gfile.fg with
  | Some pack when Pack.stores pack gf.Gfile.ino ->
    Proto.info_of_inode (Pack.get_inode pack gf.Gfile.ino)
  | Some _ | None -> (
    let fi = fg_info k gf.Gfile.fg in
    match rpc k fi.css_site (Proto.Where_stored { gf; stat = true }) with
    | { Proto.info = Some info; _ } -> info
    | { Proto.sites; info = None } -> (
      let reachable = List.filter (fun s -> in_partition k s) sites in
      match reachable with
      | [] -> err Proto.Enet "no reachable copy of %a" Gfile.pp gf
      | _ :: _ ->
        (* The CSS's storing-site list can be momentarily stale, and any
           one site can be newly unreachable: fall through the remaining
           candidates rather than failing on the first. *)
        let rec try_sites = function
          | [] -> err Proto.Enoent "stat %a: no reachable copy answered" Gfile.pp gf
          | s :: rest -> (
            match Ss.read_committed k s gf ~first:0 ~count:0 ~stat:true with
            | { info = Some info; _ } -> info
            | { info = None; _ } | (exception Error _) -> try_sites rest)
        in
        try_sites reachable))
