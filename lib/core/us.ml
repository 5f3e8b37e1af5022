(* Using Site file access (section 2.3.3, 2.3.5).

   The US carries out the user-visible half of every file operation: it
   contacts the CSS to open, exchanges pages with the selected SS, and runs
   the close protocol. Pages travel in one read message and one write
   message, [Read_pages] and [Write_pages], whose one-page forms are the
   paper's network read and write; [Ss.read_pages] and [Ss.write_run] send
   them, for propagation and reconciliation too. A truncate rides in a
   [Write_pages], so a whole-file overwrite of up to a window of pages is
   one write round trip. All page traffic goes
   through kernel buffers; remote pages are cached at the US (keyed by
   file and version, so a new committed version naturally misses; a
   writer's pages go under a key private to its open). One windowed
   fetcher fills the cache for every remote read, a reader's or a
   writer's: a window of up to [bulk_window] pages per page owner, over
   [width] owners (the stripe count, 1 when unstriped). A read call tells
   the fetcher its extent, so a demand miss fetches the call's pages up to
   a full window at once, and readahead starts only past the call's last
   page. A demand miss on a page whose readahead batch has not run yet
   waits for that batch, so a page-at-a-time sequential read moves one
   window per round trip even when nothing runs between reads. A read
   open asks for the file's first window, and a CSS that serves the open
   itself returns those pages in its [R_open]: they are filed like a
   fetch's, so a file of up to a window is read with no read message.
   Window 1 and width 1 is the paper's one-page readahead on sequential
   reads, and its open, which asks for no pages. *)

open Ktypes
module Inode = Storage.Inode
module Pack = Storage.Pack
module Page = Storage.Page
module Cache = Storage.Cache

(* ---- US cache keys ----

   A read open files its pages under the committed version it reads,
   shared with every other open of that version. A writer's pages may hold
   its own uncommitted bytes, so it files them under a key private to the
   open ("w<serial>.<n>", never a version key, which prints as "<...>"),
   renewed whenever its bytes change: on every write, truncate, commit and
   abort. No other open can hit them, and neither can this one once they
   are stale, so a renewal drops them, as does close. The key is computed
   here, not on every cache probe. *)

let next_gen o =
  o.o_gen <- o.o_gen + 1;
  o.o_gen

let cache_key o lpage = (o.o_gf, lpage, o.o_key)

(* File a fetched page in the US cache, remembering a writer's pages so
   they can be dropped without a scan of the whole cache. *)
let file_page k o lpage data =
  Cache.insert k.us_cache (cache_key o lpage) (Page.of_string data);
  if o.o_mode = Proto.Mode_modify then o.o_private <- lpage :: o.o_private

let cacheable k o = k.config.us_cache_pages > 0 && not o.o_nocache

let drop_private k o =
  List.iter (fun p -> Cache.invalidate k.us_cache (cache_key o p)) o.o_private;
  o.o_private <- []

let renew_key k o =
  drop_private k o;
  o.o_key <-
    (match o.o_mode with
    | Proto.Mode_modify -> "w" ^ string_of_int o.o_serial ^ "." ^ string_of_int (next_gen o)
    | Proto.Mode_read | Proto.Mode_internal -> vv_key o.o_info.Proto.i_vv)

(* A writer's descriptor is leaving for another site (fork, exec, run).
   Its holders there write, truncate and abort the same SS session behind
   this open's back, so from now on this open reads uncached, like every
   shared open. The renewal drops its pages and any batch in flight. *)
let share k o =
  if o.o_mode = Proto.Mode_modify && not o.o_nocache then begin
    o.o_nocache <- true;
    renew_key k o
  end

let local_vv_of k gf =
  match local_pack k gf.Gfile.fg with
  | None -> None
  | Some pack ->
    Pack.find_inode pack gf.Gfile.ino
    |> Option.map (fun (i : Inode.t) -> i.Inode.vv)

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
  | Some key when Cache.mem k.us_cache (gf, 0, key) ->
    Sim.Stats.incr (stats k) "us.open.buffered";
    true
  | Some _ | None -> false

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
    (* Leases only exist while no writer does. A striped grant rides too:
       the peers serve their stripes statelessly, so the map stays valid as
       long as the lease does. *)
    | Some e ->
      ( "us.open.lease",
        e.Openlease.le_ss,
        e.Openlease.le_info,
        false,
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
      o_stripes = info.Proto.i_stripes;
      (* The CSS reports any writer, this open included. The writer's own
         open caches under its private key unless other hands move its
         bytes: a shared descriptor's other holders write behind its back
         (the original open stops caching once its descriptor leaves the
         site: see [share]), and a striped writer's peer copies lag its
         own commits until propagation catches them up. *)
      o_nocache =
        nocache && (shared || mode <> Proto.Mode_modify || info.Proto.i_stripes <> []);
      o_key = "";
      o_private = [];
      o_gen = 0;
      o_dirty = false;
      (* -1 so a scan starting at page 0 counts as sequential and primes
         the readahead window immediately. *)
      o_last_lpage = -1;
      o_guess = slot;
      o_window = 1;
      o_ra_frontier = 0;
      o_inflight = [];
      o_wb = None;
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
  if asks && Option.is_none lease_ride then Keys.insert k.us_open_keys gf o.o_key;
  Hashtbl.add k.open_files (gf, o.o_serial) o;
  record k ~tag "%a %a ss=%a" Gfile.pp gf Proto.pp_mode mode Site.pp ss;
  o

(* The full exchange with the CSS; returns what the open record needs. A
   read open asks for a window of first pages unless page 0 is still
   buffered. *)
and open_cold ~shared ~asks k fi gf mode =
  let us_vv = local_vv_of k gf in
  let want = if asks && not (first_page_buffered k gf) then k.config.bulk_window else 0 in
  match rpc k fi.css_site (Proto.Open_req { gf; mode; us_vv; shared; want }) with
  | Proto.R_open { ss; info; others; nocache; slot; lease; registered; pages } ->
    let info =
      if Site.equal ss k.site then begin
        (* We serve ourselves: the real disk inode is local. *)
        match local_pack k gf.Gfile.fg with
        | Some pack -> (
          match Pack.find_inode pack gf.Gfile.ino with
          | Some inode ->
            (* The stripe map is CSS state, not disk state: keep it. *)
            { (Proto.info_of_inode inode) with Proto.i_stripes = info.Proto.i_stripes }
          | None -> info)
        | None -> info
      end
      else info
    in
    (* When the CSS chose this site as SS without a storage poll (the US-is-
       current optimization), create the serving state locally. When the
       CSS *did* poll (or registered a CSS-local serve), the registration
       already counts this open — adding again would need two closes to
       balance and leaks a serving entry forever. *)
    if Site.equal ss k.site && not registered then begin
      let s = Ss.get_open k gf in
      Ss.add_us s k.site;
      s.s_others <- others
    end;
    let lease_entry =
      if lease && Openlease.enabled k.open_leases then begin
        let e =
          {
            Openlease.le_gf = gf;
            le_ss = ss;
            le_mode = mode;
            le_info = info;
            le_slot = slot;
            le_vv = info.Proto.i_vv;
            le_active = 1;
            le_broken = false;
          }
        in
        Openlease.insert k.open_leases e;
        record k ~tag:"us.lease.grant" "%a" Gfile.pp gf;
        Some e
      end
      else None
    in
    ("us.open", ss, info, nocache, slot, lease_entry, pages)
  | Proto.R_err e -> err e "open %a failed" Gfile.pp gf
  | _ -> err Proto.Eio "unexpected open response"

(* ---- page owners: striping (section: scale-out storage) ----

   A striped open carries a stripe map from the CSS: logical page [p] is
   served by [o_stripes.(p mod width)]. An empty map is width 1: every
   page lives at [o_ss], the classic single-SS protocol. *)

let striped o = o.o_stripes <> []

let width o = match o.o_stripes with [] -> 1 | stripes -> List.length stripes

let page_site o lpage =
  match o.o_stripes with [] -> o.o_ss | stripes -> stripe_owner stripes lpage

(* A stripe peer stopped answering: drop back to the classic protocol
   against the primary, which holds a complete latest copy. Modify opens
   cannot degrade (pages already written to peer sessions would be lost);
   they fail like a classic open whose SS died. *)
let stripe_degrade k o =
  record k ~tag:"us.stripe.degrade" "%a" Gfile.pp o.o_gf;
  Sim.Stats.incr (stats k) "us.stripe.degrade";
  o.o_stripes <- []

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

(* Flush the pending write-behind run to the SS as [Write_pages] batches of
   at most a window of pages each. Every path that makes the modification
   externally visible — commit, close, truncate, a read on this open, a
   file-offset token moving away — must come through here first, so the
   SS shadow session always holds the data before anyone can look. *)
let flush_wb k o =
  match o.o_wb with
  | None -> ()
  | Some run ->
    o.o_wb <- None;
    Ss.write_run k o.o_ss o.o_gf ~off:run.wb_off (Buffer.contents run.wb_buf)
      ~sent:(bulk_sent k)

let start_wb_run k o ~off data =
  let buf = Buffer.create (max 64 (String.length data)) in
  Buffer.add_string buf data;
  let serial = fresh_serial k in
  o.o_wb <- Some { wb_off = off; wb_buf = buf; wb_serial = serial };
  (* The timer is tied to this run by serial: if the run was already pushed
     out (and possibly replaced by a later one) the timer is a no-op rather
     than flushing somebody else's half-built run early. *)
  Engine.schedule k.engine ~delay:wb_flush_delay (fun () ->
      match o.o_wb with
      | Some run when run.wb_serial = serial && k.alive && not o.o_closed -> (
        match flush_wb k o with () -> () | exception Error _ -> ())
      | Some _ | None -> ())

(* ---- the windowed page fetcher (section 2.3.3; bulk reads; striping) ----

   One fetcher serves every cacheable read. A sequential reader keeps a
   window of up to [bulk_window] pages per owner requested ahead of it,
   and the [width] owners of a striped file serve their shares in
   parallel, so a round trip moves up to [width * window] pages. The
   paper's protocol is the degenerate setting: window 1 and width 1 fetch
   one page per one-page [Read_pages] with one-page readahead. *)

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
    else if Cache.mem k.us_cache (cache_key o (from + i)) || in_flight o (from + i) then i
    else len (i + 1)
  in
  len 0

(* One owner's share of a run: [cnt] of its pages from [f], every [w]-th,
   in one [Read_pages]. Only a request of two or more pages counts as a
   bulk read. *)
let fetch_share k o ~w site ~f ~cnt =
  let guess = if w = 1 && Site.equal site o.o_ss then o.o_guess else 0 in
  let ((pages, _) as reply) =
    Ss.read_pages k site o.o_gf ~first:f ~count:cnt ~stride:w ~guess
  in
  if w > 1 then begin
    Sim.Stats.incr (stats k) "us.stripe.read";
    Sim.Stats.add (stats k) "us.stripe.read.pages" (List.length pages)
  end
  else if cnt > 1 then begin
    Sim.Stats.incr (stats k) "us.bulk.read";
    Sim.Stats.add (stats k) "us.bulk.read.pages" (List.length pages)
  end;
  reply

(* Whether page [lpage] ends a striped file. An owner's eof speaks for
   its own session's size, which a striped writer's extending writes grew
   only where they landed, so the open's own size decides. *)
let stripe_eof o lpage = (lpage + 1) * Page.size >= o.o_info.Proto.i_size

(* Fetch the run [first, first+count) into the US cache: each owner gets
   the arithmetic subsequence of its own pages as one strided request, and
   the requests travel in parallel, so the elapsed cost is the slowest
   share, not the sum. Returns page [first] and whether it ends the file. *)
let fetch_range k o ~first ~count =
  let w = width o in
  let head = ref ("", true) in
  let share site ~f ~cnt () =
    let pages, eof = fetch_share k o ~w site ~f ~cnt in
    List.iteri (fun i d -> file_page k o (f + (i * w)) d) pages;
    match pages with
    | d :: rest when f = first ->
      head := (d, if w = 1 then rest = [] && eof else stripe_eof o first)
    | _ -> ()
  in
  if w = 1 || count = 1 then share (page_site o first) ~f:first ~cnt:count ()
  else
    Engine.parallel k.engine
      (List.init w Fun.id
      |> List.filter_map (fun j ->
             let f = first + ((j - (first mod w) + w) mod w) in
             let cnt = (first + count - f + w - 1) / w in
             if f >= first + count then None
             else Some (share (stripe_owner o.o_stripes f) ~f ~cnt)));
  !head

(* One page straight from its owner, past the US cache. *)
let fetch_uncached k o lpage =
  let pages, eof = fetch_share k o ~w:1 (page_site o lpage) ~f:lpage ~cnt:1 in
  ( (match pages with d :: _ -> d | [] -> ""),
    if striped o then stripe_eof o lpage else eof )

(* Keep a full window requested ahead of a sequential reader. The frontier
   is the first page no fetch has been issued for; a new batch goes out
   only when the reader has caught up with it, so steady-state sequential
   reading issues one request per owner per window of pages. A readahead
   failure is silent: the next demand fetch surfaces the error (and the
   degrade path handles a failed stripe peer). *)
let schedule_window k o ~lpage =
  let npages = npages_of o in
  let first = lpage + 1 in
  if k.config.readahead && o.o_ra_frontier <= first && first < npages then begin
    let w = width o in
    let count = run_length k o ~from:first ~limit:(min (o.o_window * w) (npages - first)) in
    if count > 0 then begin
      let serial = next_gen o and key = o.o_key in
      o.o_inflight <- { ra_serial = serial; ra_first = first; ra_count = count } :: o.o_inflight;
      o.o_ra_frontier <- first + count;
      Engine.schedule k.engine ~delay:0.01 (fun () ->
          (* A batch no longer pending was taken over by a demand miss. *)
          let pending = List.exists (fun b -> b.ra_serial = serial) o.o_inflight in
          retire o serial;
          (* A degrade changed the owners, or a write the bytes, under us:
             drop the batch. *)
          if
            pending && (not o.o_closed) && k.alive && width o = w
            && String.equal o.o_key key
          then begin
            (* A demand fetch may have overtaken us: re-scan and fetch only
               the still-missing tail of the scheduled range. *)
            let rec first_missing p =
              if p >= first + count then None
              else if Cache.mem k.us_cache (cache_key o p) then first_missing (p + 1)
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
   or the window if it is larger, capped at a full window per owner. A
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
    match Cache.find k.us_cache (cache_key o lpage) with
    | Some page ->
      Sim.Stats.incr (stats k) "cache.us.hit";
      let size = o.o_info.Proto.i_size in
      let len = max 0 (min Page.size (size - (lpage * Page.size))) in
      (Page.sub page 0 len, (lpage + 1) * Page.size >= size)
    | None ->
      Sim.Stats.incr (stats k) "cache.us.miss";
      let w = width o in
      let want = min want (k.config.bulk_window * w) in
      let run limit =
        max 1 (run_length k o ~from:lpage ~limit:(min limit (npages_of o - lpage)))
      in
      let count =
        match List.find_opt (covers lpage) o.o_inflight with
        | Some b ->
          retire o b.ra_serial;
          let rec last p =
            if p > lpage && Cache.mem k.us_cache (cache_key o p) then last (p - 1) else p
          in
          max (last (b.ra_first + b.ra_count - 1) - lpage + 1) (run want)
        | None -> run (max (o.o_window * w) want)
      in
      let result = fetch_range k o ~first:lpage ~count in
      if o.o_ra_frontier < lpage + count then o.o_ra_frontier <- lpage + count;
      result
  in
  if sequential && (not eof) && want <= 1 then schedule_window k o ~lpage;
  (data, eof)

(* Read one logical page through the kernel buffers (section 2.3.3). An
   unstriped open served by this site reads its own pack, at the cost of
   conventional Unix; a cacheable open, a writer's included, goes through
   the fetcher; an open that must bypass the cache (another open is
   writing) reads the page from its owner. When a stripe peer fails under
   a read open whose primary is still up, the open drops to the classic
   protocol and the read retries. [want] is how many pages the read call
   covers from [lpage] on. *)
let rec read_page ?(want = 1) k o lpage =
  if o.o_closed then err Proto.Einval "read on closed file";
  (* Read-your-writes: anything buffered for write-behind must reach the
     SS shadow session before a page can be read back. *)
  if o.o_wb <> None then flush_wb k o;
  charge_cpu_page k;
  let sequential = lpage = o.o_last_lpage + 1 in
  o.o_last_lpage <- lpage;
  match
    if cacheable k o && (striped o || not (Site.equal o.o_ss k.site)) then
      read_cached k o lpage ~sequential ~want
    else fetch_uncached k o lpage
  with
  | result -> result
  | exception Error _
    when striped o && o.o_mode <> Proto.Mode_modify && in_partition k o.o_ss ->
    stripe_degrade k o;
    read_page ~want k o lpage

(* Whole-body read, following the SS's eof indications. Each page read
   wants the pages left to eof. *)
let read_all k o =
  let buf = Buffer.create 1024 in
  let rec loop lpage =
    let data, eof = read_page ~want:(npages_of o - lpage) k o lpage in
    Buffer.add_string buf data;
    if (not eof) && String.length data > 0 then loop (lpage + 1)
  in
  if o.o_info.Proto.i_size > 0 || Site.equal o.o_ss k.site then loop 0;
  Buffer.contents buf

(* One page of zeroes, shared by every sparse/short-page gap below: a gap
   never exceeds the page size, so [Buffer.add_substring] of this covers
   any gap without allocating a fresh string per hole. *)
let blank_page = String.make Page.size '\000'

(* Read up to [len] bytes starting at byte [off] (fd-style read). Each
   page read wants the pages left in the range. *)
let read_bytes k o ~off ~len =
  if len <= 0 then ""
  else begin
    let buf = Buffer.create len in
    let last = (off + len - 1) / Page.size in
    let rec loop abs remaining =
      if remaining > 0 then begin
        let lpage = abs / Page.size in
        let poff = abs mod Page.size in
        let data, eof = read_page ~want:(last - lpage + 1) k o lpage in
        let avail = max 0 (String.length data - poff) in
        let take = min remaining avail in
        if take > 0 then Buffer.add_string buf (String.sub data poff take);
        if not eof then begin
          (* A short or sparse mid-file page reads as zeroes out to the page
             boundary; keep going into the next page rather than silently
             returning short data. *)
          let page_room = Page.size - poff in
          let gap = min (remaining - take) (page_room - avail) in
          if gap > 0 then Buffer.add_substring buf blank_page 0 gap;
          loop (abs + take + gap) (remaining - take - gap)
        end
      end
    in
    loop off len;
    Buffer.contents buf
  end

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
    | Some run when run.wb_off + Buffer.length run.wb_buf = off ->
      Buffer.add_string run.wb_buf data
    | Some _ ->
      (* Non-adjacent write: push the old run out first, in order. *)
      flush_wb k o;
      start_wb_run k o ~off data
    | None -> start_wb_run k o ~off data);
    match o.o_wb with
    | Some run
      when (run.wb_off mod Page.size) + Buffer.length run.wb_buf
           >= k.config.bulk_window * Page.size ->
      flush_wb k o
    | _ -> ()
  in
  (* A striped write must route each page to its owner, so the contiguous
     run does not apply; pages travel singly as in the unbatched
     protocol. *)
  let rec per_page pos =
    if pos < len then begin
      let abs = off + pos in
      let n = min (Page.size - (abs mod Page.size)) (len - pos) in
      Ss.write_run k (page_site o (abs / Page.size)) o.o_gf ~off:abs (String.sub data pos n);
      per_page (pos + n)
    end
  in
  if len > 0 then
    if striped o then per_page 0
    else if bulk_enabled k o then write_behind ()
    else Ss.write_run k o.o_ss o.o_gf ~off data;
  renew_key k o;
  o.o_dirty <- true;
  if off + len > o.o_info.Proto.i_size then
    o.o_info <- { o.o_info with Proto.i_size = off + len }

let truncate k o size =
  if o.o_mode <> Proto.Mode_modify then err Proto.Eaccess "file not open for modification";
  (* Buffered writes precede the truncate in program order. *)
  if o.o_wb <> None then flush_wb k o;
  (* Every stripe session must agree on the size, so commit-time size
     reconciliation (the max of the session sizes) stays sound. *)
  List.iter
    (fun site -> Ss.write_run ~trunc:size k site o.o_gf ~off:0 "")
    (match o.o_stripes with [] -> [ o.o_ss ] | stripes -> stripes);
  renew_key k o;
  o.o_dirty <- true;
  if size < o.o_info.Proto.i_size then o.o_info <- { o.o_info with Proto.i_size = size }

(* A whole-file overwrite. Unstriped, the truncate rides in the first
   [Write_pages] of the run, and any pending write-behind run is dropped:
   the truncate would discard it. The open is dirty before anything is
   sent, so a failure part-way through aborts the session. *)
let set_contents k o body =
  if striped o then begin
    truncate k o 0;
    if String.length body > 0 then write k o ~off:0 body
  end
  else begin
    writable o;
    o.o_wb <- None;
    o.o_dirty <- true;
    Ss.write_run ~trunc:0 k o.o_ss o.o_gf ~off:0 body
      ~sent:(if bulk_enabled k o then bulk_sent k else ignore);
    renew_key k o;
    o.o_info <- { o.o_info with Proto.i_size = String.length body }
  end;
  o.o_dirty <- true

(* Commit or abort the modifications of this open (section 2.3.6). *)
let commit_gen k o ~abort ~delete =
  (* The write-behind run is part of what commits: flush it into the SS
     shadow session first. Aborting just drops it. *)
  if abort then o.o_wb <- None else if o.o_wb <> None then flush_wb k o;
  let resp =
    match o.o_stripes with
    | (primary :: _) as stripes when o.o_mode = Proto.Mode_modify ->
      (* Striped commit goes to the primary, which collects each peer's
         session pages, folds them into one complete shadow copy, and
         runs the classic atomic commit on it. *)
      if Site.equal primary k.site then
        Ss.handle_commit ~stripes k o.o_gf ~abort ~delete
      else
        rpc k primary
          (Proto.Commit_req
             { gf = o.o_gf; us = k.site; abort; delete; force_vv = None; stripes })
    | _ ->
      if Site.equal o.o_ss k.site then
        Ss.handle_commit k o.o_gf ~abort ~delete
      else
        rpc k o.o_ss
          (Proto.Commit_req
             { gf = o.o_gf; us = k.site; abort; delete; force_vv = None; stripes = [] })
  in
  match resp with
  | Proto.R_committed { vv } ->
    o.o_dirty <- false;
    if not (Vvec.equal vv Vvec.zero) then o.o_info <- { o.o_info with Proto.i_vv = vv };
    renew_key k o;
    vv
  | Proto.R_err e -> err e "commit failed"
  | _ -> err Proto.Eio "unexpected commit response"

let commit k o = ignore (commit_gen k o ~abort:false ~delete:false)

let abort k o = ignore (commit_gen k o ~abort:true ~delete:false)

(* Run the close protocol's first leg at [ss]: in process, or one
   [Us_close] handed off to {!Ktypes.send_close}. A close that can never
   reach the SS is handled by cleanup when the membership change is
   observed. *)
let close_at k ss gf mode =
  try
    ignore
      (if Site.equal ss k.site then Ss.handle_us_close k ~src:k.site gf ~mode
       else send_close k ss (Proto.Us_close { gf; mode }))
  with Error _ -> ()

(* Send the one batched close a dead lease owes: the [Us_close] the cold
   open deferred. Installed as [Openlease.on_dead] by [Kernel.create], so
   breaks arriving through dispatch, eviction or recovery all route here. *)
let lease_send_close k (e : Openlease.entry) =
  if k.alive then begin
    record k ~tag:"us.lease.close" "%a" Gfile.pp e.Openlease.le_gf;
    close_at k e.Openlease.le_ss e.Openlease.le_gf e.Openlease.le_mode
  end

(* One local open stops riding the lease. If the lease already died while
   it was open, the last rider out sends the deferred close. *)
let lease_drop_rider k (e : Openlease.entry) =
  e.Openlease.le_active <- e.Openlease.le_active - 1;
  if e.Openlease.le_broken && e.Openlease.le_active <= 0 then lease_send_close k e

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
    Hashtbl.remove k.open_files (o.o_gf, o.o_serial);
    (match o.o_lease with
    | Some e ->
      if not e.Openlease.le_broken then Sim.Stats.incr (stats k) "open.lease.defer";
      lease_drop_rider k e
    | None ->
      let close_at site = close_at k site o.o_gf o.o_mode in
      (match o.o_stripes with
      | (_ :: _) as stripes when o.o_mode = Proto.Mode_modify ->
        (* Every stripe site registered this open at the poll; each gets
           its [Us_close], and the CSS treats the resulting [Ss_close]
           volley idempotently. *)
        List.iter close_at stripes
      | _ -> close_at o.o_ss));
    (* Without retention the buffered pages die with the open; with it they
       stay, version-keyed, so a re-open of the same version hits warm. *)
    if not k.config.cache_retention then
      Cache.invalidate_if ~notify:false k.us_cache (fun (g, _, _) -> Gfile.equal g o.o_gf);
    record k ~tag:"us.close" "%a" Gfile.pp o.o_gf
  end

(* Delete the file body: mark the inode deleted and commit (section 2.3.7). *)
let delete_file k o = ignore (commit_gen k o ~abort:false ~delete:true)

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
      (try ignore (commit_gen k o ~abort:true ~delete:false) with Error _ -> ());
    (* Whether or not the abort reached the SS, this open must not try to
       commit on close. *)
    o.o_dirty <- false;
    try close k o with Error _ -> ()
  end

let stat_gf k gf =
  (* Prefer the local copy; otherwise ask the CSS's believed-latest site. *)
  match local_pack k gf.Gfile.fg with
  | Some pack when Pack.stores pack gf.Gfile.ino ->
    Proto.info_of_inode (Pack.get_inode pack gf.Gfile.ino)
  | Some _ | None -> (
    let fi = fg_info k gf.Gfile.fg in
    match rpc k fi.css_site (Proto.Where_stored { gf }) with
    | Proto.R_where { sites; _ } -> (
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
            match rpc_result k s (Proto.Stat_req { gf }) with
            | Ok (Proto.R_stat { info = Some info; _ }) -> info
            | Ok (Proto.R_stat { info = None; _ })
            | Ok (Proto.R_err _)
            | Stdlib.Error _ ->
              try_sites rest
            | Ok _ -> err Proto.Eio "unexpected stat response")
        in
        try_sites reachable)
    | Proto.R_err e -> err e "stat: CSS lookup failed"
    | _ -> err Proto.Eio "unexpected where response")
