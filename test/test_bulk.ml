(* Tests of the bulk page-transfer layer: windowed streaming reads,
   write-behind batching, and batched propagation pulls. The window=1
   configuration must reproduce the one-page-per-RTT protocol exactly;
   that ablation is checked here too. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Us = Locus_core.Us
module Pathname = Locus_core.Pathname
module Process = Locus_core.Process
module K = Locus_core.Ktypes
module Stats = Sim.Stats
module Engine = Sim.Engine
module Page = Storage.Page

let check = Alcotest.check

(* Packs only at sites 0 and 1, so sites 2..4 are pure using sites and
   every transfer in these tests really crosses the network. *)
let world ?(window = 8) () =
  let base = World.default_config ~n_sites:5 () in
  let config =
    { base with
      World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1 ]; mount_path = None } ];
      World.kernel_config = { base.World.kernel_config with K.bulk_window = window }
    }
  in
  World.create ~config ()

let gf_of k path =
  Pathname.resolve_from k ~cwd:(Catalog.Mount.root k.K.mount) ~context:[] path

(* Per-page distinctive bytes so a misplaced or misordered page shows up
   as a content mismatch, not just a length error. *)
let body_of_pages ?(tail = 0) pages =
  String.init ((pages * Page.size) + tail) (fun i ->
      Char.chr (Char.code 'a' + (i / Page.size mod 26)))

let mk_file w ~path ~body =
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  ignore (Kernel.creat k0 p0 path);
  Kernel.write_file k0 p0 path body;
  ignore (World.settle w)

(* Sequential page-by-page read with the engine drained between pages,
   so scheduled window fetches land like overlapped streaming I/O. *)
let read_streamed w k o ~pages =
  let buf = Buffer.create (pages * Page.size) in
  for lpage = 0 to pages - 1 do
    let data, _ = Us.read_page k o lpage in
    Buffer.add_string buf data;
    ignore (Engine.run_until_idle (World.engine w))
  done;
  Buffer.contents buf

(* ---- batch boundaries ---- *)

(* A file that ends mid-window with a short last page: the batch must be
   trimmed at eof and the short page returned at its true length. The
   open's batch is the first window: a 6-page file comes whole with the
   open, and a 14-page file's second batch is a 6-page [Read_pages]. *)
let test_batch_ends_mid_window () =
  let w = world ~window:8 () in
  let s = World.stats w in
  let body = body_of_pages 5 ~tail:100 in
  mk_file w ~path:"/short" ~body;
  let k2 = World.kernel w 2 in
  let snap = Stats.snapshot s in
  let o = Us.open_gf k2 (gf_of k2 "/short") Proto.Mode_read in
  let got = read_streamed w k2 o ~pages:6 in
  check Alcotest.string "6-page body with 100-byte tail intact" body got;
  (* The last page reports eof and its short length. *)
  let data, eof = Us.read_page k2 o 5 in
  check Alcotest.int "short last page length" 100 (String.length data);
  check Alcotest.bool "eof on last page" true eof;
  check Alcotest.int "the open carried the 6 pages, not 8" 6 (Stats.get s "us.open.pages");
  check Alcotest.int "no read message" 0 (Stats.delta_of s snap "net.msg.read");
  Us.close k2 o;
  let body = body_of_pages 13 ~tail:100 in
  mk_file w ~path:"/short14" ~body;
  let o = Us.open_gf k2 (gf_of k2 "/short14") Proto.Mode_read in
  let got = read_streamed w k2 o ~pages:14 in
  check Alcotest.string "14-page body with 100-byte tail intact" body got;
  let data, eof = Us.read_page k2 o 13 in
  check Alcotest.int "short last page length" 100 (String.length data);
  check Alcotest.bool "eof on last page" true eof;
  check Alcotest.int "this open carried a window" 14 (Stats.get s "us.open.pages");
  (* Only the pages that exist were ever transferred in bulk. *)
  let bulk_pages = Stats.get s "us.bulk.read.pages" in
  check Alcotest.bool "no pages fetched past eof" true (bulk_pages <= 6);
  check Alcotest.bool "batched fetches used" true (Stats.get s "us.bulk.read" >= 1);
  Us.close k2 o

(* ---- window growth and reset on seek ---- *)

let test_window_resets_on_seek () =
  let w = world ~window:8 () in
  mk_file w ~path:"/big" ~body:(body_of_pages 32);
  let k2 = World.kernel w 2 in
  let o = Us.open_gf k2 (gf_of k2 "/big") Proto.Mode_read in
  for lpage = 0 to 5 do
    ignore (Us.read_page k2 o lpage);
    ignore (Engine.run_until_idle (World.engine w))
  done;
  check Alcotest.bool "sequential reads grew the window" true (o.K.o_window > 1);
  (* A seek: the streaming window collapses and the frontier follows. *)
  let data, _ = Us.read_page k2 o 20 in
  check Alcotest.int "window back to one after seek" 1 o.K.o_window;
  check Alcotest.bool "frontier moved to the seek point" true
    (o.K.o_ra_frontier >= 21);
  check Alcotest.string "seek target page correct"
    (String.make Page.size (Char.chr (Char.code 'a' + 20))) data;
  (* Resuming sequentially from the seek point grows the window again. *)
  ignore (Us.read_page k2 o 21);
  ignore (Us.read_page k2 o 22);
  check Alcotest.bool "window regrows after resumed sequential run" true
    (o.K.o_window > 1);
  Us.close k2 o

(* ---- ablation: window=1 is the old one-page protocol ---- *)

let test_window_one_is_unbatched () =
  let pages = 8 in
  let body = body_of_pages pages in
  let run window =
    let w = world ~window () in
    mk_file w ~path:"/abl" ~body;
    let k2 = World.kernel w 2 in
    let o = Us.open_gf k2 (gf_of k2 "/abl") Proto.Mode_read in
    let snap = Stats.snapshot (World.stats w) in
    let got = read_streamed w k2 o ~pages in
    let msgs = Stats.delta_of (World.stats w) snap "net.msg.read" in
    Us.close k2 o;
    (got, msgs, Stats.get (World.stats w) "us.bulk.read", Stats.get (World.stats w) "us.open.pages")
  in
  let got1, msgs1, bulk1, open1 = run 1 in
  let got8, msgs8, bulk8, open8 = run 8 in
  check Alcotest.string "window 1 reads the right bytes" body got1;
  check Alcotest.string "window 8 reads identical bytes" body got8;
  (* With window=1 no bulk read is used: every fetch is a one-page
     request, exactly the pre-bulk protocol (2 messages per page, demand
     or readahead alike), and the open carries no page. *)
  check Alcotest.int "no bulk RPCs at window 1" 0 bulk1;
  check Alcotest.int "one-page protocol costs 2 msgs/page" (2 * pages) msgs1;
  check Alcotest.int "no pages with the open at window 1" 0 open1;
  (* At window 8 the open carries the whole 8-page file. *)
  check Alcotest.int "the window-8 open carries all 8 pages" pages open8;
  check Alcotest.int "so window 8 sends no bulk read" 0 bulk8;
  check Alcotest.bool "window 8 needs fewer messages" true (msgs8 < msgs1)

(* ---- streaming read message savings ---- *)

let test_streaming_read_savings () =
  let pages = 32 in
  let body = body_of_pages pages in
  let run window =
    let w = world ~window () in
    mk_file w ~path:"/seq" ~body;
    let k2 = World.kernel w 2 in
    let o = Us.open_gf k2 (gf_of k2 "/seq") Proto.Mode_read in
    let snap = Stats.snapshot (World.stats w) in
    let got = read_streamed w k2 o ~pages in
    let msgs = Stats.delta_of (World.stats w) snap "net.msg.read" in
    Us.close k2 o;
    check Alcotest.string
      (Printf.sprintf "window %d contents" window)
      body got;
    msgs
  in
  let msgs1 = run 1 and msgs8 = run 8 in
  check Alcotest.bool
    (Printf.sprintf "sequential 32-page read: %d msgs at w1 vs %d at w8"
       msgs1 msgs8)
    true
    (msgs1 >= 4 * msgs8)

(* ---- inline streaming: nothing runs between reads ---- *)

(* [Kernel.read_file] reads page after page with no engine step between
   them, and each page read tells the fetcher how many pages the call has
   left, so a demand miss fetches a full window at once: at window 8 the
   open carries the 16-page file's first 8 pages and the read is one bulk
   read of the other 8. Readahead runs only on the
   call's last page, where eof stops it, so no batch is scheduled only to
   be taken over and nothing runs once the read returns. *)
let inline_read ~window ~mode ~pages =
  let w = world ~window () in
  let body = body_of_pages pages ~tail:300 in
  mk_file w ~path:"/inline" ~body;
  let k2 = World.kernel w 2 in
  let s = World.stats w in
  let opened = Stats.get s "us.open.pages" in
  let o = Us.open_gf k2 (gf_of k2 "/inline") mode in
  let opened = Stats.get s "us.open.pages" - opened in
  let snap = Stats.snapshot s in
  let got = Us.read_all k2 o in
  let delta = Stats.delta_of s snap in
  let bulk = delta "us.bulk.read" and bulk_pages = delta "us.bulk.read.pages" in
  let msgs = delta "net.msg.read" in
  ignore (Engine.run_until_idle (World.engine w));
  check Alcotest.string "contents" body got;
  check Alcotest.int "taken-over batches send nothing" msgs (delta "net.msg.read");
  check Alcotest.bool "nothing left in flight" true (o.K.o_inflight = []);
  Us.close k2 o;
  (opened, bulk, bulk_pages, msgs)

let test_inline_read_streams () =
  let opened, bulk, bulk_pages, msgs = inline_read ~window:8 ~mode:Proto.Mode_read ~pages:15 in
  check Alcotest.int "the open carries 8 pages" 8 opened;
  check Alcotest.int "one bulk read" 1 bulk;
  check Alcotest.int "of 8 pages" 8 bulk_pages;
  check Alcotest.int "2 read messages" 2 msgs;
  (* Window 1 is still the paper's protocol: one one-page read per page. *)
  let opened, bulk, _, msgs = inline_read ~window:1 ~mode:Proto.Mode_read ~pages:15 in
  check Alcotest.int "no pages with the open at window 1" 0 opened;
  check Alcotest.int "no bulk reads at window 1" 0 bulk;
  check Alcotest.int "16 one-page round trips at window 1" 32 msgs

(* A writer reads its own file (a directory rewrite reads the directory
   first) through the same fetcher: bulk reads, not one one-page read
   per page. Its open carries no pages. *)
let test_writer_reads_stream () =
  let opened, bulk, bulk_pages, msgs = inline_read ~window:8 ~mode:Proto.Mode_modify ~pages:18 in
  check Alcotest.int "no pages with a modify open" 0 opened;
  check Alcotest.int "19 pages in three bulk reads (8 + 8 + 3)" 3 bulk;
  check Alcotest.int "every page in a bulk read" 19 bulk_pages;
  check Alcotest.int "6 read messages, not 38" 6 msgs

(* ---- a read call fetches its extent ---- *)

(* A 3-page [read_bytes] within the window the open carried sends
   nothing; one past it asks for its 3 pages in one [Read_pages], counted
   before anything scheduled gets to run. *)
let test_read_bytes_fetches_extent () =
  let w = world ~window:8 () in
  let body = body_of_pages 16 in
  mk_file w ~path:"/range" ~body;
  let k2 = World.kernel w 2 in
  let s = World.stats w in
  let o = Us.open_gf k2 (gf_of k2 "/range") Proto.Mode_read in
  let snap = Stats.snapshot s in
  let got = Us.read_bytes k2 o ~off:0 ~len:(3 * Page.size) in
  check Alcotest.string "the first 3 pages" (String.sub body 0 (3 * Page.size)) got;
  check Alcotest.int "carried by the open" 0 (Stats.delta_of s snap "net.msg.read");
  let snap = Stats.snapshot s in
  let got = Us.read_bytes k2 o ~off:(8 * Page.size) ~len:(3 * Page.size) in
  let delta = Stats.delta_of s snap in
  check Alcotest.string "the 3 pages" (String.sub body (8 * Page.size) (3 * Page.size)) got;
  check Alcotest.int "one bulk read" 1 (delta "us.bulk.read");
  check Alcotest.int "carrying 3 pages" 3 (delta "us.bulk.read.pages");
  check Alcotest.int "one round trip" 2 (delta "net.msg.read");
  ignore (Engine.run_until_idle (World.engine w));
  Us.close k2 o

(* A whole-file read leaves no readahead behind: it stops at eof, so no
   batch is ever scheduled. *)
let test_read_all_schedules_nothing () =
  let w = world ~window:8 () in
  mk_file w ~path:"/whole16" ~body:(body_of_pages 16);
  let k2 = World.kernel w 2 in
  let s = World.stats w in
  let o = Us.open_gf k2 (gf_of k2 "/whole16") Proto.Mode_read in
  let snap = Stats.snapshot s in
  let pending = Engine.pending (World.engine w) in
  ignore (Us.read_all k2 o);
  check Alcotest.int "no batch scheduled" pending (Engine.pending (World.engine w));
  check Alcotest.bool "nothing in flight" true (o.K.o_inflight = []);
  ignore (Engine.run_until_idle (World.engine w));
  check Alcotest.int "no readahead" 0 (Stats.delta_of s snap "us.readahead");
  Us.close k2 o

(* A lone one-page read on a fresh open keeps the slow start: a reader
   that seeks and reads one page does not pull a full window. *)
let test_lone_page_slow_start () =
  let w = world ~window:8 () in
  mk_file w ~path:"/lone" ~body:(body_of_pages 16);
  let k2 = World.kernel w 2 in
  let s = World.stats w in
  let o = Us.open_gf k2 (gf_of k2 "/lone") Proto.Mode_read in
  let snap = Stats.snapshot s in
  ignore (Us.read_page k2 o 0);
  check Alcotest.bool "at most 2 pages fetched" true
    (Stats.delta_of s snap "us.bulk.read.pages" <= 2);
  ignore (Engine.run_until_idle (World.engine w));
  Us.close k2 o

(* ---- the open carries its first window ---- *)

(* Site 0 is the file's CSS and only storage site, so it serves a remote
   read open itself and returns the file's pages with the grant: the open
   is its two messages and the whole-file read after it sends none. *)
let test_open_carries_first_window () =
  let w = world ~window:8 () in
  let body = body_of_pages 1 ~tail:200 in
  mk_file w ~path:"/two" ~body;
  let k2 = World.kernel w 2 in
  let s = World.stats w in
  let gf = gf_of k2 "/two" in
  let snap = Stats.snapshot s in
  let o = Us.open_gf k2 gf Proto.Mode_read in
  check Alcotest.int "open = 2 messages" 2 (Stats.delta_of s snap "net.msg");
  check Alcotest.bool "CSS serves" true (Net.Site.equal o.K.o_ss 0);
  check Alcotest.int "carrying both pages" 2 (Stats.delta_of s snap "us.open.pages");
  let snap = Stats.snapshot s in
  check Alcotest.string "contents" body (Us.read_all k2 o);
  check Alcotest.int "read_all = 0 messages" 0 (Stats.delta_of s snap "net.msg");
  Us.close k2 o

(* With leases off every re-open goes to the CSS. While the first page is
   still buffered under the version the last open named, the re-open
   asks for nothing: its request and reply are the paper's, byte for
   byte, and the read after it hits the buffer. *)
let test_buffered_reopen_asks_nothing () =
  let base = World.default_config ~n_sites:5 () in
  let w =
    World.create
      ~config:
        { base with
          World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1 ]; mount_path = None } ];
          World.kernel_config = { base.World.kernel_config with K.open_lease_entries = 0 }
        }
      ()
  in
  let body = body_of_pages 2 in
  mk_file w ~path:"/again" ~body;
  let k2 = World.kernel w 2 in
  let s = World.stats w in
  let gf = gf_of k2 "/again" in
  let o = Us.open_gf k2 gf Proto.Mode_read in
  check Alcotest.string "first read" body (Us.read_all k2 o);
  Us.close k2 o;
  ignore (World.settle w);
  let snap = Stats.snapshot s in
  let o = Us.open_gf k2 gf Proto.Mode_read in
  let delta = Stats.delta_of s snap in
  check Alcotest.int "open = 2 messages" 2 (delta "net.msg");
  check Alcotest.int "skipped as buffered" 1 (delta "us.open.buffered");
  check Alcotest.int "no pages carried" 0 (delta "us.open.pages");
  let paper_open =
    let req =
      Proto.Open_req
        { gf; mode = Proto.Mode_read; us_vv = None; shared = false; want = 0; release = None }
    in
    Proto.req_bytes req
    + Proto.resp_bytes req
        { ss = 0; info = Some o.K.o_info; others = []; nocache = false; slot = 0; lease = 0;
          pages = [] }
  in
  check Alcotest.int "the paper's open bytes" paper_open (delta "net.bytes");
  let snap = Stats.snapshot s in
  check Alcotest.string "re-read" body (Us.read_all k2 o);
  check Alcotest.int "served from the buffer" 0 (Stats.delta_of s snap "net.msg");
  Us.close k2 o

(* A read open of a file another site is writing carries no pages: the
   committed copy is not what the reader must see. It reads the writer's
   session bytes from the SS instead, once they are there: at window 1 at
   once, and above it once the engine has run past the write-behind bound
   that flushes the held run. A reader that opens before that flush reads
   the committed body whole, never a mix of the two. *)
let test_open_under_writer_carries_nothing () =
  List.iter
    (fun window ->
      let label what = Printf.sprintf "window %d: %s" window what in
      let w = world ~window () in
      let old = body_of_pages 2 in
      mk_file w ~path:"/busy" ~body:old;
      let k3 = World.kernel w 3 and k2 = World.kernel w 2 in
      let s = World.stats w in
      let writer = Us.open_gf k3 (gf_of k3 "/busy") Proto.Mode_modify in
      let fresh = String.make (2 * Page.size) 'W' in
      let snap = Stats.snapshot s in
      Us.set_contents k3 writer fresh;
      let read_now () =
        let snap = Stats.snapshot s in
        let o = Us.open_gf k2 (gf_of k2 "/busy") Proto.Mode_read in
        check Alcotest.int (label "no pages carried") 0 (Stats.delta_of s snap "us.open.pages");
        let got = Us.read_all k2 o in
        Us.close k2 o;
        got
      in
      if window = 1 then begin
        check Alcotest.int (label "the write went at once, page by page") 4
          (Stats.delta_of s snap "net.msg.write");
        check Alcotest.string (label "reads the writer's session") fresh (read_now ())
      end
      else begin
        check Alcotest.int (label "the write is held") 0 (Stats.delta_of s snap "net.msg.write");
        check Alcotest.string (label "before the flush, the committed body whole") old
          (read_now ());
        ignore (Engine.run_for (World.engine w) 1.0);
        check Alcotest.int (label "the bound flushed it in one round trip") 2
          (Stats.delta_of s snap "net.msg.write");
        check Alcotest.int (label "its truncate rode along") 0
          (Stats.delta_of s snap "net.msg.truncate");
        check Alcotest.string (label "then reads the writer's session") fresh (read_now ())
      end;
      Us.abort k3 writer;
      Us.close k3 writer)
    [ 1; 8 ]

(* ---- write-behind flush points ---- *)

(* Small adjacent writes coalesce in the write-behind buffer (no traffic)
   and ride the commit: above window 1 the commit carries the run, so the
   writes and the commit are one round trip. At window 1 each write goes
   at once, a one-page round trip each. *)
let test_write_behind_rides_the_commit () =
  List.iter
    (fun window ->
      let label what = Printf.sprintf "window %d: %s" window what in
      let w = world ~window () in
      mk_file w ~path:"/wb" ~body:"";
      let k2 = World.kernel w 2 in
      let s = World.stats w in
      let o = Us.open_gf k2 (gf_of k2 "/wb") Proto.Mode_modify in
      let snap = Stats.snapshot s in
      Us.write k2 o ~off:0 "one ";
      Us.write k2 o ~off:4 "two ";
      Us.write k2 o ~off:8 "three";
      let writes = if window = 1 then 6 else 0 in
      check Alcotest.int (label "write messages before the commit") writes
        (Stats.delta_of s snap "net.msg.write");
      Us.commit k2 o;
      check Alcotest.int (label "no write message after them") writes
        (Stats.delta_of s snap "net.msg.write");
      check Alcotest.int (label "one commit round trip") 2 (Stats.delta_of s snap "net.msg.commit");
      check Alcotest.int (label "commits carrying the run")
        (if window = 1 then 0 else 1)
        (Stats.delta_of s snap "us.commit.run");
      check Alcotest.int (label "bulk write requests")
        (if window = 1 then 0 else 1)
        (Stats.delta_of s snap "us.bulk.write");
      Us.close k2 o;
      ignore (World.settle w);
      let k0 = World.kernel w 0 and p0 = World.proc w 0 in
      check Alcotest.string (label "committed bytes visible at the SS") "one two three"
        (Kernel.read_file k0 p0 "/wb"))
    [ 1; 8 ]

(* Reading back your own uncommitted write forces the buffer out first:
   read-your-writes holds across the write-behind layer. *)
let test_write_behind_flushes_on_read_back () =
  let w = world ~window:8 () in
  mk_file w ~path:"/ryw" ~body:(String.make Page.size 'x');
  let k2 = World.kernel w 2 in
  let o = Us.open_gf k2 (gf_of k2 "/ryw") Proto.Mode_modify in
  Us.write k2 o ~off:0 "HELLO";
  let data, _ = Us.read_page k2 o 0 in
  check Alcotest.string "read sees the buffered write" "HELLO"
    (String.sub data 0 5);
  Us.abort k2 o;
  Us.close k2 o

(* A shared file descriptor hands its offset token to another site: the
   holder must flush buffered writes before yielding, or the other site's
   operations would run against stale bytes. *)
let test_write_behind_flushes_on_token_release () =
  let w = world ~window:8 () in
  mk_file w ~path:"/log" ~body:"";
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  let fd = Kernel.open_path k2 p2 "/log" Proto.Mode_modify in
  Kernel.write_fd k2 p2 fd "one ";
  Kernel.set_advice p2 (Some 3);
  let pid, _ = Process.fork k2 p2 in
  let k3 = World.kernel w 3 in
  let child = Process.get_proc k3 pid in
  (* The child's write pulls the offset token from site 2, which must
     flush "one " on the way out so the child appends after it. *)
  Kernel.write_fd k3 child fd "two ";
  Kernel.write_fd k2 p2 fd "three";
  Kernel.commit_fd k2 p2 fd;
  Kernel.close_fd k2 p2 fd;
  Kernel.close_fd k3 child fd;
  ignore (World.settle w);
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  check Alcotest.string "writes land in token order across sites"
    "one two three"
    (Kernel.read_file k0 p0 "/log")

(* ---- whole-file writes ---- *)

(* A remote whole-file write and its commit: at window 1, one one-page
   write round trip per page, the truncate riding the first, then the
   commit. Above it, a body of up to a window rides the commit with its
   truncate, so the write is one round trip in all; a longer body sends
   its leading windows and the commit carries the last. *)
let test_whole_file_write_one_trip () =
  List.iter
    (fun (window, pages, writes, carried) ->
      let label what = Printf.sprintf "window %d, %d pages: %s" window pages what in
      let w = world ~window () in
      mk_file w ~path:"/whole" ~body:(body_of_pages (pages + 1));
      let k2 = World.kernel w 2 and p2 = World.proc w 2 in
      let body = body_of_pages pages in
      let snap = Stats.snapshot (World.stats w) in
      Kernel.write_file k2 p2 "/whole" body;
      let delta tag = Stats.delta_of (World.stats w) snap tag in
      check Alcotest.int (label "write messages") writes (delta "net.msg.write");
      check Alcotest.int (label "no truncate message") 0 (delta "net.msg.truncate");
      check Alcotest.int (label "one commit round trip") 2 (delta "net.msg.commit");
      check Alcotest.int (label "pages the commit carried") carried
        (delta "us.commit.run.pages");
      ignore (World.settle w);
      let k0 = World.kernel w 0 and p0 = World.proc w 0 in
      check Alcotest.string (label "the overwrite replaced the longer body") body
        (Kernel.read_file k0 p0 "/whole"))
    [ (1, 2, 4, 0); (8, 2, 0, 2); (8, 8, 0, 8); (8, 12, 2, 4) ]

(* A whole-file write the open then aborts sends nothing: its held run
   dies with the abort, and the committed body stays. *)
let test_aborted_whole_file_write_sends_nothing () =
  let w = world ~window:8 () in
  let old = body_of_pages 3 in
  mk_file w ~path:"/kept" ~body:old;
  let k2 = World.kernel w 2 in
  let s = World.stats w in
  let o = Us.open_gf k2 (gf_of k2 "/kept") Proto.Mode_modify in
  let snap = Stats.snapshot s in
  Us.set_contents k2 o (body_of_pages 2);
  Us.abort k2 o;
  Us.close k2 o;
  ignore (World.settle w);
  check Alcotest.int "no write message" 0 (Stats.delta_of s snap "net.msg.write");
  check Alcotest.int "no truncate message" 0 (Stats.delta_of s snap "net.msg.truncate");
  check Alcotest.int "no commit carried a run" 0 (Stats.delta_of s snap "us.commit.run");
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  check Alcotest.string "the committed body stays" old (Kernel.read_file k0 p0 "/kept")

(* The write-behind timer's flush fails (each of its attempts is lost),
   and no caller hears it: the run is kept, and the commit carries it, so
   the commit installs the new body rather than reporting success for a
   session that never got it. *)
let test_failed_timer_flush_rides_the_commit () =
  let w = world ~window:8 () in
  mk_file w ~path:"/lost" ~body:(body_of_pages 3);
  let k2 = World.kernel w 2 in
  let s = World.stats w in
  let o = Us.open_gf k2 (gf_of k2 "/lost") Proto.Mode_modify in
  let fresh = String.make 100 'N' in
  Us.set_contents k2 o fresh;
  for _ = 1 to 3 do
    Locus_core.Ktypes.Transport.fail_next_message (World.net w) ~src:2 ~dst:0
  done;
  let snap = Stats.snapshot s in
  ignore (Engine.run_for (World.engine w) 1.0);
  check Alcotest.int "the timer's flush failed" 1 (Stats.delta_of s snap "rpc.fail");
  check Alcotest.bool "the run is still held" true (o.K.o_wb <> None);
  Us.commit k2 o;
  check Alcotest.int "the commit carried it" 1 (Stats.delta_of s snap "us.commit.run");
  Us.close k2 o;
  ignore (World.settle w);
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  check Alcotest.string "the new body committed" fresh (Kernel.read_file k0 p0 "/lost")

(* Two other using sites read the file while a third writes 8 pages in
   one request. Site 3's open holds no lease (a shared open gets none):
   the SS sends it one ranged invalidation, not one per page. Site 2's
   open rides a read lease that the CSS, which is also the SS, closed at
   the writer's open: the SS serves site 2 no longer and sends it none,
   and the break made the open stop caching instead. Neither reader sees
   its stale buffers again. *)
let test_one_ranged_invalidation () =
  let w = world ~window:8 () in
  mk_file w ~path:"/shared" ~body:(body_of_pages 8);
  let readers =
    List.map
      (fun (site, shared) ->
        let k = World.kernel w site in
        let o = Us.open_gf ~shared k (gf_of k "/shared") Proto.Mode_read in
        ignore (read_streamed w k o ~pages:8);
        (k, o))
      [ (2, false); (3, true) ]
  in
  let k4 = World.kernel w 4 in
  let o = Us.open_gf k4 (gf_of k4 "/shared") Proto.Mode_modify in
  let fresh = String.make (8 * Page.size) 'N' in
  let snap = Stats.snapshot (World.stats w) in
  Us.write k4 o ~off:0 fresh;
  ignore (World.settle w);
  check Alcotest.int "one invalidation, to the reader without a lease" 1
    (Stats.delta_of (World.stats w) snap "net.msg.page.invalidate");
  (match K.ss_find_open (World.kernel w 0) (gf_of k4 "/shared") with
  | Some s ->
    check Alcotest.bool "the closed grant's holder is not served" false
      (Net.Site.Map.mem 2 s.K.s_uss);
    check Alcotest.bool "the reader without a lease is" true (Net.Site.Map.mem 3 s.K.s_uss)
  | None -> Alcotest.fail "the SS serves no one");
  List.iter
    (fun (k, r) ->
      let data, _ = Us.read_page k r 7 in
      check Alcotest.string "reader sees the written page" (String.make Page.size 'N') data;
      Us.close k r)
    readers;
  Us.commit k4 o;
  Us.close k4 o

(* ---- batched propagation pulls ---- *)

(* A ten-page patch to a replicated file is pulled in window-sized runs:
   ceil(10/8) = 2 round trips, not 10. *)
let test_propagation_pulls_in_batches () =
  let w = world ~window:8 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/repl");
  Kernel.write_file k0 p0 "/repl" (body_of_pages 12);
  ignore (World.settle w);
  (* Patch ten consecutive pages in place. *)
  let patch = String.make (10 * Page.size) 'Z' in
  let o = Us.open_gf k0 (gf_of k0 "/repl") Proto.Mode_modify in
  Us.write k0 o ~off:0 patch;
  Us.commit k0 o;
  Us.close k0 o;
  let snap = Stats.snapshot (World.stats w) in
  ignore (World.settle w);
  let msgs = Stats.delta_of (World.stats w) snap "net.msg.read" in
  check Alcotest.int "ten pages pulled in two batched round trips" 4 msgs;
  check Alcotest.bool "propagation used bulk pulls" true
    (Stats.get (World.stats w) "prop.bulk" >= 1);
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  let got = Kernel.read_file k1 p1 "/repl" in
  check Alcotest.string "replica matches after batched pull"
    (patch ^ String.sub (body_of_pages 12) (10 * Page.size) (2 * Page.size))
    got

(* Message loss during a batched pull: Read_pages is idempotent, so the
   transport retries it and the replica still converges byte-for-byte. *)
let test_propagation_survives_message_loss () =
  let w = world ~window:8 () in
  let body = body_of_pages 16 in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/lossy");
  Kernel.write_file k0 p0 "/lossy" "seed";
  ignore (World.settle w);
  Kernel.write_file k0 p0 "/lossy" body;
  (* Kill the next message from the puller to the SS — the first read of
     the background pull. Read_pages is idempotent, so the transport
     retries and the pull completes anyway. *)
  Locus_core.Ktypes.Transport.fail_next_message (World.net w) ~src:1 ~dst:0;
  ignore (World.settle w);
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  check Alcotest.string "replica converged despite losses" body
    (Kernel.read_file k1 p1 "/lossy");
  check Alcotest.bool "retries happened" true
    (Stats.get (World.stats w) "rpc.retry" >= 1)

let () =
  Alcotest.run "bulk"
    [
      ( "bulk",
        [
          Alcotest.test_case "batch ends mid-window" `Quick test_batch_ends_mid_window;
          Alcotest.test_case "window resets on seek" `Quick test_window_resets_on_seek;
          Alcotest.test_case "window=1 is the unbatched protocol" `Quick
            test_window_one_is_unbatched;
          Alcotest.test_case "streaming read saves messages" `Quick
            test_streaming_read_savings;
          Alcotest.test_case "inline read streams one window per trip" `Quick
            test_inline_read_streams;
          Alcotest.test_case "writer reads stream" `Quick test_writer_reads_stream;
          Alcotest.test_case "read_bytes fetches its extent" `Quick
            test_read_bytes_fetches_extent;
          Alcotest.test_case "read_all schedules no readahead" `Quick
            test_read_all_schedules_nothing;
          Alcotest.test_case "lone page read keeps the slow start" `Quick
            test_lone_page_slow_start;
          Alcotest.test_case "read open carries its first window" `Quick
            test_open_carries_first_window;
          Alcotest.test_case "buffered re-open asks for no pages" `Quick
            test_buffered_reopen_asks_nothing;
          Alcotest.test_case "open under a writer carries no pages" `Quick
            test_open_under_writer_carries_nothing;
          Alcotest.test_case "write-behind rides the commit" `Quick
            test_write_behind_rides_the_commit;
          Alcotest.test_case "write-behind flushes on read-back" `Quick
            test_write_behind_flushes_on_read_back;
          Alcotest.test_case "write-behind flushes on token release" `Quick
            test_write_behind_flushes_on_token_release;
          Alcotest.test_case "whole-file write is one round trip" `Quick
            test_whole_file_write_one_trip;
          Alcotest.test_case "aborted whole-file write sends nothing" `Quick
            test_aborted_whole_file_write_sends_nothing;
          Alcotest.test_case "failed timer flush rides the commit" `Quick
            test_failed_timer_flush_rides_the_commit;
          Alcotest.test_case "one ranged invalidation per write" `Quick
            test_one_ranged_invalidation;
          Alcotest.test_case "propagation pulls in batches" `Quick
            test_propagation_pulls_in_batches;
          Alcotest.test_case "propagation survives message loss" `Quick
            test_propagation_survives_message_loss;
        ] );
    ]
