(* Kernel-level tests: the open protocol and its optimizations, reads and
   writes through the three logical sites, commit/abort semantics, pathname
   searching with hidden directories, and the name-space operations. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Us = Locus_core.Us
module Pathname = Locus_core.Pathname
module K = Locus_core.Ktypes
module Dispatch = Locus.Dispatch
module Stats = Sim.Stats
module Dir = Catalog.Dir
module Inode = Storage.Inode

let check = Alcotest.check

(* World with packs only at sites 0 and 1, so sites 2..4 are pure using
   sites — forcing genuinely remote opens. *)
let asym_world () =
  let base = World.default_config ~n_sites:5 () in
  let config =
    { base with
      World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1 ]; mount_path = None } ]
    }
  in
  World.create ~config ()

let full_world () = World.create ~config:(World.default_config ~n_sites:5 ()) ()

(* Like [asym_world], with the bulk-transfer layer disabled: for the tests
   that assert the exact shape of the one-page-per-RTT read protocol
   (per-page readahead counts, per-page guesses, injected single-page
   responses). Bulk behavior has its own suite in test_bulk.ml. *)
let asym_world_nobulk () =
  let base = World.default_config ~n_sites:5 () in
  let config =
    { base with
      World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1 ]; mount_path = None } ];
      World.kernel_config = { base.World.kernel_config with K.bulk_window = 1 }
    }
  in
  World.create ~config ()

let stats w = World.stats w

let msg_delta w snap = Stats.delta_of (stats w) snap "net.msg"

let gf_of k path =
  Pathname.resolve_from k ~cwd:(Catalog.Mount.root k.K.mount) ~context:[] path

(* ---- open protocol message counts (Figure 2) ---- *)

(* All roles collocated: an open costs no messages at all. *)
let test_open_all_local () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/f");
  Kernel.write_file k0 p0 "/f" "x";
  ignore (World.settle w);
  let snap = Stats.snapshot (stats w) in
  let gf = gf_of k0 "/f" in
  let o = Us.open_gf k0 gf Proto.Mode_read in
  check Alcotest.int "local open needs no messages" 0 (msg_delta w snap);
  Us.close k0 o

(* All roles collocated: every leg of a commit and a close is a procedure
   call through the transport, charged one local call each and sending
   nothing. A commit with nothing written is the one US -> SS leg; the
   close of the modify open is US -> SS, then SS -> CSS. *)
let test_collocated_legs_charged () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/f");
  Kernel.write_file k0 p0 "/f" "x";
  ignore (World.settle w);
  let gf = gf_of k0 "/f" in
  let o = Us.open_gf k0 gf Proto.Mode_modify in
  check Alcotest.int "the CSS chose the US's own copy" 0 o.K.o_ss;
  let local_call = (Net.Netsim.latency (World.net w)).Net.Latency.local_call in
  let leg what n f =
    let snap = Stats.snapshot (stats w) and t0 = World.now w in
    f ();
    check (Alcotest.float 1e-9) (what ^ ": clock") (float_of_int n *. local_call)
      (World.now w -. t0);
    check Alcotest.int (what ^ ": messages") 0 (msg_delta w snap)
  in
  leg "empty commit" 1 (fun () -> Us.commit k0 o);
  leg "close" 2 (fun () -> Us.close k0 o)

(* Fully remote: US=2, CSS=0, SS=1 — the general protocol is 4 messages
   (open request, storage request, storage response, open response). *)
let test_open_fully_remote_four_messages () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/f");
  Kernel.write_file k0 p0 "/f" "x";
  ignore (World.settle w);
  let k2 = World.kernel w 2 in
  let gf = gf_of k2 "/f" in
  (* Drop the CSS's own copy from the bookkeeping so it must poll site 1. *)
  let css = World.kernel w 0 in
  (match Locus_core.Css.find_file css 0 gf.Catalog.Gfile.ino with
  | Some f -> f.K.site_vv <- Net.Site.Map.remove 0 f.K.site_vv
  | None -> Alcotest.fail "css state missing");
  let snap = Stats.snapshot (stats w) in
  let o = Us.open_gf k2 gf Proto.Mode_read in
  check Alcotest.int "general open = 4 messages" 4 (msg_delta w snap);
  Us.close k2 o

(* US = SS optimization: the US stores the latest copy; two messages
   (request and response to the CSS), no storage poll. The reply carries
   no inode, only the read lease's grant id, and the US registers its own
   open, once. *)
let test_open_us_is_ss_two_messages () =
  let w = asym_world () in
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  ignore (Kernel.creat k1 p1 "/g");
  Kernel.write_file k1 p1 "/g" "y";
  ignore (World.settle w);
  let gf = gf_of k1 "/g" in
  let exchanges = ref [] in
  List.iter
    (fun site ->
      let k = World.kernel w site in
      Net.Netsim.set_handler (World.net w) site (fun ~src req ->
          let resp = Dispatch.handle k ~src req in
          exchanges := (req, resp) :: !exchanges;
          resp))
    (World.sites w);
  let snap = Stats.snapshot (stats w) in
  let o = Us.open_gf k1 gf Proto.Mode_read in
  check Alcotest.int "US-current open = 2 messages" 2 (msg_delta w snap);
  check Alcotest.bool "US serves itself" true (Net.Site.equal o.K.o_ss 1);
  (match !exchanges with
  | [ (req, (Proto.R_open { info = None; others; _ } as resp)) ] ->
    check Alcotest.int "reply: header, 5 bytes, the grant id, the other sites"
      (24 + 5 + 4 + (4 * List.length others))
      (Proto.resp_bytes resp);
    check Alcotest.int "exchange bytes"
      (Proto.req_bytes req + Proto.resp_bytes resp)
      (Stats.delta_of (stats w) snap "net.bytes");
    check Alcotest.int "two messages of the request's class" 2
      (Stats.delta_of (stats w) snap ("net.msg." ^ Proto.req_tag req))
  | _ -> Alcotest.fail "expected one open exchange whose reply carries no inode");
  let registrations () =
    match K.ss_find_open k1 gf with
    | Some s -> Option.value ~default:0 (Net.Site.Map.find_opt 1 s.K.s_uss)
    | None -> 0
  in
  check Alcotest.int "one registration for the US" 1 (registrations ());
  Us.close k1 o;
  (* The read lease defers the close until the lease goes. *)
  Locus_core.Openlease.kill k1.K.open_leases gf;
  check Alcotest.int "the close removes it" 0 (registrations ())

(* CSS = SS optimization: CSS stores the latest version and picks itself
   without message overhead — still 2 messages total from the US. *)
let test_open_css_is_ss () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/h");
  Kernel.write_file k0 p0 "/h" "z";
  ignore (World.settle w);
  let k2 = World.kernel w 2 in
  let gf = gf_of k2 "/h" in
  let snap = Stats.snapshot (stats w) in
  let o = Us.open_gf k2 gf Proto.Mode_read in
  check Alcotest.int "CSS-as-SS open = 2 messages" 2 (msg_delta w snap);
  check Alcotest.bool "CSS serves" true (Net.Site.equal o.K.o_ss 0);
  Us.close k2 o

(* ---- read protocol ---- *)

(* The paper's one-page read: at window 1 the open carries no pages. *)
let test_remote_read_two_messages_per_page () =
  let w = asym_world_nobulk () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/big");
  Kernel.write_file k0 p0 "/big" (String.make (3 * Storage.Page.size) 'q');
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/big" in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  let snap = Stats.snapshot (stats w) in
  let data, _eof = Us.read_page k3 o 1 in
  check Alcotest.int "page read = request + response" 2 (msg_delta w snap);
  check Alcotest.int "full page" Storage.Page.size (String.length data);
  Us.close k3 o;
  ignore (World.settle w)

let test_readahead_fills_cache () =
  let w = asym_world_nobulk () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/seq");
  Kernel.write_file k0 p0 "/seq" (String.make (4 * Storage.Page.size) 's');
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/seq" in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  let _ = Us.read_page k3 o 0 in
  let _ = Us.read_page k3 o 1 in
  ignore (World.settle w);
  check Alcotest.bool "readahead happened" true
    (Stats.get (stats w) "us.readahead" > 0);
  (* Page 2 was prefetched: reading it costs no messages. *)
  let snap = Stats.snapshot (stats w) in
  let _ = Us.read_page k3 o 2 in
  check Alcotest.int "prefetched page is free" 0 (msg_delta w snap);
  Us.close k3 o;
  ignore (World.settle w)

let test_cache_keyed_by_version () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/c");
  Kernel.write_file k0 p0 "/c" "old contents";
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  check Alcotest.string "first read" "old contents" (Kernel.read_file k3 p3 "/c");
  Kernel.write_file k0 p0 "/c" "new contents";
  ignore (World.settle w);
  check Alcotest.string "fresh read after update" "new contents"
    (Kernel.read_file k3 p3 "/c")

(* A version key compares by value: a page filed under a committed
   version is found through an equal vector built another way, and never
   under a writer's private key. The simulator passes reply values by
   reference, so a physical comparison would pass every end-to-end test. *)
let test_version_key_structural () =
  let module Vvec = Vv.Version_vector in
  let c = K.Us_cache.create ~capacity:8 () in
  let gf = Catalog.Gfile.make ~fg:0 ~ino:7 in
  let page = Storage.Page.of_string "v" in
  K.Us_cache.insert c (gf, 0, K.Committed (Vvec.of_list [ (0, 2); (3, 1) ])) page;
  let equal_vv = Vvec.bump (Vvec.bump (Vvec.bump Vvec.zero 3) 0) 0 in
  check Alcotest.bool "found through an equal vector" true
    (match K.Us_cache.find c (gf, 0, K.Committed equal_vv) with
    | Some p -> p == page
    | None -> false);
  check Alcotest.bool "and through one with a zero component" true
    (K.Us_cache.mem c (gf, 0, K.Committed (Vvec.of_list [ (3, 1); (1, 0); (0, 2) ])));
  check Alcotest.bool "not under another version" false
    (K.Us_cache.mem c (gf, 0, K.Committed (Vvec.bump equal_vv 1)));
  check Alcotest.bool "not under a private key" false
    (List.exists (fun n -> K.Us_cache.mem c (gf, 0, K.Private n)) [ 0; 1; 2; 3 ]);
  K.Us_cache.insert c (gf, 1, K.Private 5) page;
  check Alcotest.bool "a private key is found by its serial" true
    (K.Us_cache.mem c (gf, 1, K.Private 5));
  check Alcotest.bool "and by no committed version" false
    (K.Us_cache.mem c (gf, 1, K.Committed Vvec.zero))

(* Regression: a cache hit must extend the readahead window too. With the
   old code only misses scheduled readahead, so a sequential scan settled
   into miss/hit/miss/hit — every other page paid the network round trip. *)
let test_readahead_on_cache_hit () =
  let w = asym_world_nobulk () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/seq6");
  Kernel.write_file k0 p0 "/seq6" (String.make (6 * Storage.Page.size) 's');
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let o = Us.open_gf k3 (gf_of k3 "/seq6") Proto.Mode_read in
  let _ = Us.read_page k3 o 0 in
  ignore (World.settle w);
  (* Every subsequent page was prefetched before we asked for it: no demand
     read may cost a message, no matter how deep the scan goes. *)
  for lpage = 1 to 5 do
    let snap = Stats.snapshot (stats w) in
    let _ = Us.read_page k3 o lpage in
    check Alcotest.int (Printf.sprintf "page %d served from cache" lpage) 0
      (msg_delta w snap);
    ignore (World.settle w)
  done;
  (* Pages 1..5 were each readahead targets exactly once (page 5 is eof). *)
  check Alcotest.int "readahead fired on every sequential page" 5
    (Stats.get (stats w) "us.readahead");
  Us.close k3 o;
  ignore (World.settle w)

(* Version-keyed pages survive close and serve a re-open of the unchanged
   version; a new committed version both misses naturally and has its stale
   entries dropped by the Commit_notify prefix invalidation. *)
let test_cross_open_cache_retention () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/warm");
  let body = String.make (2 * Storage.Page.size) 'w' in
  Kernel.write_file k0 p0 "/warm" body;
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/warm" in
  let o1 = Us.open_gf k3 gf Proto.Mode_read in
  check Alcotest.string "first open reads through" body (Us.read_all k3 o1);
  Us.close k3 o1;
  ignore (World.settle w);
  check Alcotest.bool "pages retained across close" true
    (K.Us_cache.length k3.K.us_cache > 0);
  let o2 = Us.open_gf k3 gf Proto.Mode_read in
  let snap = Stats.snapshot (stats w) in
  check Alcotest.string "re-open served warm" body (Us.read_all k3 o2);
  check Alcotest.int "no page traffic on re-open" 0 (msg_delta w snap);
  Us.close k3 o2;
  ignore (World.settle w);
  (* A new committed version must not be masked by the warm pages. *)
  Kernel.write_file k0 p0 "/warm" "fresh";
  ignore (World.settle w);
  let p3 = World.proc w 3 in
  check Alcotest.string "new version read through" "fresh"
    (Kernel.read_file k3 p3 "/warm");
  (* The Commit_notify handler drops every entry of the file that is not
     at the announced version, from both cache tiers: an SS buffer holds
     the local copy's version, and this site stores none. *)
  let vv = (Us.stat_gf k0 gf).Proto.i_vv in
  let stale = K.Committed Vv.Version_vector.zero in
  K.Us_cache.insert k3.K.us_cache (gf, 0, K.Committed vv) (Storage.Page.of_string "cur");
  K.Us_cache.insert k3.K.us_cache (gf, 1, stale) (Storage.Page.of_string "old");
  K.Ss_cache.insert k3.K.ss_cache (gf, 2) (Storage.Page.of_string "old");
  let notify =
    Proto.Commit_notify
      { gf; vv; meta_only = false; modified = []; origin = 0; fresh = false;
        deleted = false; designate = false; carried = None }
  in
  ignore (Dispatch.handle k3 ~src:0 notify);
  check Alcotest.bool "current version kept" true
    (K.Us_cache.mem k3.K.us_cache (gf, 0, K.Committed vv));
  check Alcotest.bool "stale US entry dropped" false
    (K.Us_cache.mem k3.K.us_cache (gf, 1, stale));
  check Alcotest.bool "stale SS entry dropped" false
    (K.Ss_cache.mem k3.K.ss_cache (gf, 2))

(* Regression: a short mid-file page (a lying or sparse SS) used to stop
   the read_bytes loop, silently returning short data. It must read as
   zeroes to the page boundary and continue into the next page. *)
let test_read_bytes_zero_fills_short_page () =
  let w = asym_world_nobulk () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let ps = Storage.Page.size in
  ignore (Kernel.creat k0 p0 "/sparse");
  Kernel.write_file k0 p0 "/sparse"
    (String.make ps 'A' ^ String.make ps 'B' ^ String.make ps 'C');
  ignore (World.settle w);
  (* Serve page 1 short and non-eof; everything else takes the normal path. *)
  Net.Netsim.set_handler (World.net w) 0 (fun ~src req ->
      match req with
      | Proto.Read_pages { first = 1; count = 1; _ } ->
        Proto.R_pages { pages = [ "XY" ]; eof = false; info = None }
      | _ -> Dispatch.handle k0 ~src req);
  let k3 = World.kernel w 3 in
  let o = Us.open_gf k3 (gf_of k3 "/sparse") Proto.Mode_read in
  let data = Us.read_bytes k3 o ~off:0 ~len:(3 * ps) in
  check Alcotest.int "full length returned" (3 * ps) (String.length data);
  check Alcotest.string "page 0 intact" (String.make ps 'A') (String.sub data 0 ps);
  check Alcotest.string "short page prefix" "XY" (String.sub data ps 2);
  check Alcotest.string "zero fill to page boundary"
    (String.make (ps - 2) '\000')
    (String.sub data (ps + 2) (ps - 2));
  check Alcotest.string "next page reached" (String.make ps 'C')
    (String.sub data (2 * ps) ps);
  Us.close k3 o;
  ignore (World.settle w)

(* A read at end of file asks for a page the file does not have. The SS
   reads no disk for it and buffers nothing: the read costs the page's CPU
   charge and one read round trip (a one-page request and an empty reply)
   and nothing more. *)
let test_read_at_eof_reads_no_page () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/two");
  Kernel.write_file k0 p0 "/two" (String.make 2048 't');
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/two" in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  let ss = World.kernel w o.K.o_ss in
  let snap = Stats.snapshot (stats w) in
  let t0 = World.now w in
  let data = Us.read_bytes k3 o ~off:2048 ~len:100 in
  let elapsed = World.now w -. t0 in
  check Alcotest.string "nothing past eof" "" data;
  check Alcotest.int "no SS cache miss" 0 (Stats.delta_of (stats w) snap "cache.ss.miss");
  check Alcotest.bool "no buffer for page 2" false (K.Ss_cache.mem ss.K.ss_cache (gf, 2));
  let lat = K.latency k3 in
  let request =
    (* A read open names its version. *)
    Proto.Read_pages
      { gf; first = 2; count = 1; guess = 0; committed = false; stat = false;
        vv = Some o.K.o_info.Proto.i_vv }
  in
  let reply = Proto.R_pages { pages = []; eof = true; info = None } in
  let round_trip =
    Net.Latency.msg_cost lat ~bytes:(Proto.req_bytes request)
    +. Net.Latency.msg_cost lat ~bytes:(Proto.resp_bytes reply)
  in
  check (Alcotest.float 1e-9) "one round trip, no disk read"
    (lat.Net.Latency.cpu_page +. round_trip)
    elapsed;
  Us.close k3 o;
  ignore (World.settle w)

(* ---- write / commit / abort ---- *)

let test_commit_visibility () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/t");
  Kernel.write_file k0 p0 "/t" "committed";
  ignore (World.settle w);
  let k1 = World.kernel w 1 in
  let gf = gf_of k1 "/t" in
  let o = Us.open_gf k1 gf Proto.Mode_modify in
  Us.set_contents k1 o "uncommitted!";
  Us.abort k1 o;
  Us.close k1 o;
  ignore (World.settle w);
  check Alcotest.string "abort undoes" "committed" (Kernel.read_file k0 p0 "/t")

(* A directory intent at the SS ([Ss.apply_intent]) writes exactly the
   page that holds the changed record, with no page on the wire: an
   unlink and a re-entry patch the record in place, a new name lands on
   the last page, or starts the next page when it does not fit there —
   the old last page's padding reads as zeroes and is never written. The
   commit notification names the pages written; the body stays what the
   codec encodes. *)
let test_record_patch_writes_one_page () =
  let w = asym_world_nobulk () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let dir_gf = Kernel.mkdir k0 p0 "/r" in
  ignore (World.settle w);
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  let size () = (Kernel.stat k2 p2 "/r").Proto.i_size in
  (* Site 4 stores no copy: it only hears which pages each commit wrote. *)
  let written = ref [] in
  Net.Netsim.set_handler (World.net w) 4 (fun ~src req ->
      match req with
      | Proto.Commit_notify { gf; modified; _ } when Catalog.Gfile.equal gf dir_gf ->
        written := modified;
        Proto.R_ok
      | _ -> Dispatch.handle (World.kernel w 4) ~src req);
  let update op =
    let snap = Stats.snapshot (stats w) in
    (match
       Locus_core.Ss.apply_intent k0 ~us:2 dir_gf op ~others:[ 4 ]
         ~guard:(fun _ -> Ok ())
         ~links_here:(fun _ -> false)
     with
    | Proto.R_intent { dir_vv; _ } ->
      Locus_core.Css.handle_commit_notify k0 dir_gf ~origin:0 ~vv:dir_vv ~deleted:false
    | _ -> Alcotest.fail "the change was refused");
    check Alcotest.int "no page crosses the wire" 0
      (Stats.delta_of (stats w) snap "net.msg.read" + Stats.delta_of (stats w) snap "net.msg.write");
    ignore (World.settle w);
    let body = Kernel.read_file k2 p2 "/r" in
    check Alcotest.string "the body re-encodes to itself" body (Dir.encode (Dir.decode body));
    !written
  in
  let enter name = Proto.Link { name; ino = 77; ftype = Inode.Regular; links = false } in
  let page = Storage.Page.size in
  (* "." and ".." take 45 bytes: a 957-byte name (a 978-byte record) ends
     the first page 1 byte short of full. *)
  let long = String.make 957 'a' in
  check Alcotest.(list int) "a new name on the last page" [ 0 ] (update (enter long));
  check Alcotest.int "the log ends 1 byte short of the page" (page - 1) (size ());
  check Alcotest.(list int) "a name that does not fit starts the next page" [ 1 ]
    (update (enter "b"));
  check Alcotest.int "the record starts the second page" (page + 22) (size ());
  check Alcotest.(list int) "an unlink patches in place" [ 0 ]
    (update (Proto.Unlink { name = long; links = false }));
  check Alcotest.(list int) "a re-entry patches in place" [ 0 ] (update (enter long));
  check Alcotest.int "the size is unchanged" (page + 22) (size ());
  let names = List.map (fun (e : Dir.entry) -> e.Dir.name) (Kernel.readdir k2 p2 "/r") in
  check Alcotest.(list string) "every name is listed" [ "."; ".."; long; "b" ] names

let test_single_writer_policy () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/lock");
  Kernel.write_file k0 p0 "/lock" "v";
  ignore (World.settle w);
  let gf = gf_of k0 "/lock" in
  let o1 = Us.open_gf k0 gf Proto.Mode_modify in
  let k2 = World.kernel w 2 in
  (match Us.open_gf k2 (gf_of k2 "/lock") Proto.Mode_modify with
  | _ -> Alcotest.fail "second writer should be refused"
  | exception K.Error (Proto.Ebusy, _) -> ());
  let o2 = Us.open_gf k2 (gf_of k2 "/lock") Proto.Mode_read in
  Us.close k2 o2;
  Us.close k0 o1;
  ignore (World.settle w);
  let o3 = Us.open_gf k2 (gf_of k2 "/lock") Proto.Mode_modify in
  Us.close k2 o3;
  ignore (World.settle w)

let test_concurrent_read_during_write_sees_updates () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/live");
  Kernel.write_file k0 p0 "/live" "aaaa";
  ignore (World.settle w);
  let gf = gf_of k0 "/live" in
  let ow = Us.open_gf k0 gf Proto.Mode_modify in
  Us.write k0 ow ~off:0 "bbbb";
  (* A reader opening now is directed to the single SS and sees the
     uncommitted write (Unix shared-file semantics, section 3.2). *)
  let k2 = World.kernel w 2 in
  let orr = Us.open_gf k2 (gf_of k2 "/live") Proto.Mode_read in
  let data, _ = Us.read_page k2 orr 0 in
  check Alcotest.string "reader sees writer's data" "bbbb" (String.sub data 0 4);
  Us.close k2 orr;
  Us.commit k0 ow;
  Us.close k0 ow;
  ignore (World.settle w)

(* ---- pathname searching ---- *)

let test_nested_paths () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/a");
  ignore (Kernel.mkdir k0 p0 "/a/b");
  ignore (Kernel.mkdir k0 p0 "/a/b/c");
  ignore (Kernel.creat k0 p0 "/a/b/c/deep.txt");
  Kernel.write_file k0 p0 "/a/b/c/deep.txt" "treasure";
  ignore (World.settle w);
  let k4 = World.kernel w 4 and p4 = World.proc w 4 in
  check Alcotest.string "deep path from remote site" "treasure"
    (Kernel.read_file k4 p4 "/a/b/c/deep.txt");
  check Alcotest.string "dots" "treasure"
    (Kernel.read_file k4 p4 "/a/./b/c/../c/deep.txt");
  Kernel.chdir k4 p4 "/a/b";
  check Alcotest.string "relative" "treasure" (Kernel.read_file k4 p4 "c/deep.txt")

let test_enoent_and_enotdir () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/plain");
  Kernel.write_file k0 p0 "/plain" "x";
  ignore (World.settle w);
  (match Kernel.read_file k0 p0 "/missing" with
  | _ -> Alcotest.fail "expected ENOENT"
  | exception K.Error (Proto.Enoent, _) -> ());
  match Kernel.read_file k0 p0 "/plain/sub" with
  | _ -> Alcotest.fail "expected ENOTDIR"
  | exception K.Error (Proto.Enotdir, _) -> ()

(* A directory whose body no longer decodes fails the walk with EIO: read
   as empty, it would answer ENOENT for every name it holds. The first
   page is overwritten on every pack's disk and every cache is dropped, so
   both the local fast path (site 0) and a remote walk (site 3) read the
   damaged copy. *)
let test_corrupt_directory_is_eio () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/d");
  ignore (Kernel.creat k0 p0 "/d/f");
  Kernel.write_file k0 p0 "/d/f" "x";
  ignore (World.settle w);
  let gf = gf_of k0 "/d" in
  List.iter
    (fun k ->
      (match Hashtbl.find_opt k.K.packs gf.Catalog.Gfile.fg with
      | Some pack -> (
        match Storage.Pack.find_inode pack gf.Catalog.Gfile.ino with
        | Some inode -> (
          match Storage.Pack.page_addr pack inode 0 with
          | Some addr ->
            Storage.Disk.write (Storage.Pack.disk pack) addr
              (Storage.Page.of_string "not a directory")
          | None -> Alcotest.fail "directory has no first page")
        | None -> ())
      | None -> ());
      K.Us_cache.clear k.K.us_cache;
      K.Ss_cache.clear k.K.ss_cache;
      Locus_core.Namecache.clear k.K.name_cache)
    (World.kernels w);
  List.iter
    (fun site ->
      match gf_of (World.kernel w site) "/d/f" with
      | _ -> Alcotest.failf "site %d resolved a name in a corrupt directory" site
      | exception K.Error (Proto.Eio, _) -> ())
    [ 0; 3 ]

(* ---- hidden directories (section 2.4.1) ---- *)

let setup_hidden w =
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/bin");
  ignore (Kernel.mkdir ~hidden:true k0 p0 "/bin/who");
  ignore (Kernel.creat k0 p0 "/bin/who/@vax");
  Kernel.write_file k0 p0 "/bin/who/@vax" "vax load module";
  ignore (Kernel.creat k0 p0 "/bin/who/@pdp11");
  Kernel.write_file k0 p0 "/bin/who/@pdp11" "pdp11 load module";
  ignore (World.settle w)

let hidden_world () =
  let base = World.default_config ~n_sites:4 () in
  let config =
    { base with World.machine_type = (fun s -> if s < 2 then "vax" else "pdp11") }
  in
  World.create ~config ()

let test_hidden_dir_context_selection () =
  let w = hidden_world () in
  setup_hidden w;
  let read_at site =
    Kernel.read_file (World.kernel w site) (World.proc w site) "/bin/who"
  in
  check Alcotest.string "vax site" "vax load module" (read_at 0);
  check Alcotest.string "pdp11 site" "pdp11 load module" (read_at 3)

let test_hidden_dir_escape () =
  let w = hidden_world () in
  setup_hidden w;
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  check Alcotest.string "escape to pdp11 from a vax site" "pdp11 load module"
    (Kernel.read_file k0 p0 "/bin/who/@pdp11");
  let entries = Kernel.readdir k0 p0 "/bin/who" in
  let names = List.map (fun (e : Dir.entry) -> e.Dir.name) entries in
  check Alcotest.(list string) "hidden entries visible via escape"
    [ "pdp11"; "vax" ] names

let test_hidden_dir_no_context_entry () =
  let w = hidden_world () in
  setup_hidden w;
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_context p0 [ "cray" ];
  match Kernel.read_file k0 p0 "/bin/who" with
  | _ -> Alcotest.fail "no entry for context should fail"
  | exception K.Error (Proto.Enoent, _) -> ()

(* ---- name-space operations ---- *)

let test_unlink () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/gone");
  Kernel.write_file k0 p0 "/gone" "bye";
  ignore (World.settle w);
  Kernel.unlink k0 p0 "/gone";
  ignore (World.settle w);
  (match Kernel.read_file k0 p0 "/gone" with
  | _ -> Alcotest.fail "unlinked file readable"
  | exception K.Error (Proto.Enoent, _) -> ());
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  match Kernel.read_file k3 p3 "/gone" with
  | _ -> Alcotest.fail "unlinked file readable remotely"
  | exception K.Error (Proto.Enoent, _) -> ()

(* A dirop on a big replicated directory, issued from a packless site,
   moves one page end to end: one page of write traffic, a commit whose
   modified list is that page, a one-page pull at the second copy. The
   commit keeps the SS buffers of the pages it did not replace, so the
   next dirop reads those from the SS cache, not the disk. *)
let remote_dirop_moves_one_page ~window =
  let base = World.default_config ~n_sites:5 () in
  let w =
    World.create
      ~config:
        { base with
          World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1 ]; mount_path = None } ];
          (* Long enough that the second copy's queued pull can be read
             before it runs. *)
          World.kernel_config =
            { base.World.kernel_config with K.propagation_delay = 50.0; K.bulk_window = window };
        }
      ()
  in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  let dir_gf = Kernel.mkdir k0 p0 "/big" in
  ignore (World.settle w);
  let o = Us.open_gf k0 dir_gf Proto.Mode_modify in
  let dir = Dir.decode (Us.read_all k0 o) in
  for i = 1 to 160 do
    Dir.insert dir ~name:(Printf.sprintf "%0200d" i) ~ino:(1000 + i) ~ftype:Inode.Regular
      ~stamp:0.0 ~origin:0
  done;
  Us.set_contents k0 o (Dir.encode dir);
  Us.commit k0 o;
  Us.close k0 o;
  ignore (World.settle w);
  let pages = ((Kernel.stat k0 p0 "/big").Proto.i_size + Storage.Page.size - 1) / Storage.Page.size in
  check Alcotest.bool "directory of at least 30 pages" true (pages >= 30);
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  let snap = Stats.snapshot (stats w) in
  ignore (Kernel.creat k2 p2 "/big/one");
  (* The SS applies the change: no directory page crosses the wire, and
     the one round trip is the intent itself — the CSS holds the latest
     copy and runs it in process. *)
  check Alcotest.int "no directory page read" 0 (Stats.delta_of (stats w) snap "net.msg.read");
  check Alcotest.int "no write RPC" 0 (Stats.delta_of (stats w) snap "net.msg.write");
  check Alcotest.int "one intent round trip" 2 (Stats.delta_of (stats w) snap "net.msg.dirop");
  check Alcotest.int "no page shipped for writing" 0
    (Stats.delta_of (stats w) snap "us.bulk.write.pages");
  (* Deliver the commit notification; the pull it queues waits 50 ms. A
     notification that carried the commit is installed on arrival. *)
  ignore (Sim.Engine.run_for (World.engine w) 5.0);
  let queued =
    List.concat_map
      (fun site ->
        Queue.fold
          (fun acc (p : K.pull) ->
            if Catalog.Gfile.equal p.K.pull_gf dir_gf then p.K.pull_modified :: acc else acc)
          [] (World.kernel w site).K.prop_queue)
      [ 0; 1 ]
  in
  (* At a window of 1 the second copy pulls the one page; above it the
     notification carried the page and the copy sends no read. *)
  if window = 1 then begin
    (match queued with
    | [ modified ] -> check Alcotest.int "commit modified one page" 1 (List.length modified)
    | _ -> Alcotest.failf "expected one queued pull, found %d" (List.length queued));
    let snap = Stats.snapshot (stats w) in
    ignore (World.settle w);
    check Alcotest.int "second copy pulls one page" 2 (Stats.delta_of (stats w) snap "net.msg.read")
  end
  else begin
    check Alcotest.int "window 8: no pull queued" 0 (List.length queued);
    ignore (World.settle w);
    check Alcotest.int "window 8: second copy reads nothing" 0
      (Stats.delta_of (stats w) snap "net.msg.read");
    check Alcotest.int "window 8: the notification carried the commit" 1
      (Stats.delta_of (stats w) snap "prop.carried");
    check Alcotest.int "window 8: it carried the one page" 1
      (Stats.delta_of (stats w) snap "prop.carried.pages")
  end;
  let snap = Stats.snapshot (stats w) in
  ignore (Kernel.creat k2 p2 "/big/two");
  check Alcotest.bool "next dirop reads unmodified pages from the SS cache" true
    (Stats.delta_of (stats w) snap "cache.ss.miss" <= 1);
  ignore (World.settle w);
  List.iter (fun name -> ignore (Kernel.stat k0 p0 ("/big/" ^ name))) [ "one"; "two" ];
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  check Alcotest.int "both copies list every entry" 164 (List.length (Kernel.readdir k1 p1 "/big"))

let test_remote_dirop_moves_one_page () =
  remote_dirop_moves_one_page ~window:1;
  remote_dirop_moves_one_page ~window:8

(* The SS keeps one record index per directory version and carries it
   across its own commits: after a warm-up, 50 creates and unlinks from a
   packless site into one directory build it once, and nothing decodes a
   whole directory body. *)
let test_dir_index_built_once () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/d");
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  ignore (Kernel.stat k3 p3 "/d");
  let snap = Stats.snapshot (stats w) in
  let decodes = Dir.decode_count () in
  for i = 0 to 24 do
    ignore (Kernel.creat k3 p3 (Printf.sprintf "/d/f%d" i))
  done;
  for i = 0 to 24 do
    Kernel.unlink k3 p3 (Printf.sprintf "/d/f%d" i)
  done;
  check Alcotest.int "one index build" 1 (Stats.delta_of (stats w) snap "ss.dir.index_builds");
  check Alcotest.int "no whole-body decode" 0 (Dir.decode_count () - decodes);
  ignore (World.settle w);
  check Alcotest.(list string) "every name is gone" [ "."; ".." ]
    (List.map (fun (e : Dir.entry) -> e.Dir.name) (Kernel.readdir k3 p3 "/d"))

(* The SS keeps its directory indexes within as many pages as its buffer
   cache holds, dropping the least recently used first. With 5 pages and
   the storing site's caches cold, a walk of /A, /B, /A and /C indexes the
   1-page root and three 2-page directories: C's index pushes the total
   to 7 pages, and B's, the least recent, goes. Each walk names a new
   file, so only the root's links come from the name cache. *)
let test_dir_index_evicts_least_recent () =
  let base = World.default_config ~n_sites:2 () in
  let w =
    World.create
      ~config:
        { base with
          World.filegroups = [ { World.fg = 0; pack_sites = [ 0 ]; mount_path = None } ];
          World.kernel_config = { K.default_config with K.ss_cache_pages = 5 };
        }
      ()
  in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let file d i = Printf.sprintf "/%s/file%02d" d i in
  List.iter
    (fun d ->
      ignore (Kernel.mkdir k0 p0 ("/" ^ d));
      for i = 0 to 39 do
        ignore (Kernel.creat k0 p0 (file d i))
      done)
    [ "A"; "B"; "C" ];
  ignore (World.settle w);
  let pages path =
    ((Kernel.stat k0 p0 path).Proto.i_size + Storage.Page.size - 1) / Storage.Page.size
  in
  check Alcotest.(list int) "a 1-page root and 2-page directories" [ 1; 2; 2; 2 ]
    (List.map pages [ "/"; "/A"; "/B"; "/C" ]);
  Locus_core.Coherence.forgotten k0 Locus_core.Coherence.Crash;
  let lookup path =
    let snap = Stats.snapshot (stats w) in
    ignore (Kernel.resolve k0 p0 path);
    Stats.delta_of (stats w) snap "ss.dir.index_builds"
  in
  let snap = Stats.snapshot (stats w) in
  check Alcotest.(list int) "A, B, A, C: the first of each builds" [ 2; 1; 0; 1 ]
    (List.map lookup [ file "A" 0; file "B" 0; file "A" 1; file "C" 0 ]);
  check Alcotest.int "one index evicted" 1 (Stats.delta_of (stats w) snap "ss.dir.index_evict");
  check Alcotest.int "A's index stayed" 0 (lookup (file "A" 2));
  check Alcotest.int "B's index went" 1 (lookup (file "B" 1))

(* Packs at sites 0 and 1 (the CSS), at bulk window [window]: at 1 a
   second copy pulls each commit, above 1 it installs the commit its
   notification carries. *)
let two_copy_world ?(kconfig = K.default_config) ~window () =
  let base = World.default_config ~n_sites:5 () in
  World.create
    ~config:
      { base with
        World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1 ]; mount_path = None } ];
        World.kernel_config = { kconfig with K.bulk_window = window };
      }
    ()

(* Pages the disk of [site]'s pack has read so far. *)
let disk_reads w site =
  Storage.Disk.reads (Storage.Pack.disk (K.local_pack_exn (World.kernel w site) 0))

(* An install leaves the pages it wrote in the SS buffer cache, at the
   committing site and at the second copy alike, so another site's read
   of them reads no disk at either; a shrink and a delete drop the pages
   they cut off. *)
let install_buffers_what_it_wrote ~window =
  let w = two_copy_world ~window () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  let gf = Kernel.creat k0 p0 "/f" in
  ignore (World.settle w);
  let ps = Storage.Page.size in
  let body = String.init (3 * ps) (fun i -> Char.chr (97 + (i / ps))) in
  let r0 = disk_reads w 0 and r1 = disk_reads w 1 in
  let snap = Stats.snapshot (stats w) in
  Kernel.write_file k0 p0 "/f" body;
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  List.iter
    (fun site ->
      let pages, _, _ = Locus_core.Ss.read_pages k3 site gf ~first:0 ~count:3 ~guess:0 in
      check Alcotest.string (Printf.sprintf "site %d serves the body" site) body
        (String.concat "" pages))
    [ 0; 1 ];
  check Alcotest.int "no SS cache miss" 0 (Stats.delta_of (stats w) snap "cache.ss.miss");
  check Alcotest.int "no disk read at the committing site" 0 (disk_reads w 0 - r0);
  check Alcotest.int "no disk read at the second copy" 0 (disk_reads w 1 - r1);
  let buffered site lpage = K.Ss_cache.mem (World.kernel w site).K.ss_cache (gf, lpage) in
  Kernel.write_file k0 p0 "/f" (String.make ps 'z');
  ignore (World.settle w);
  List.iter
    (fun site ->
      check Alcotest.(list bool)
        (Printf.sprintf "site %d buffers page 0 and drops the cut pages" site)
        [ true; false; false ]
        (List.map (buffered site) [ 0; 1; 2 ]))
    [ 0; 1 ];
  Kernel.unlink k0 p0 "/f";
  ignore (World.settle w);
  List.iter
    (fun site ->
      check Alcotest.bool (Printf.sprintf "site %d drops a deleted file's page" site) false
        (buffered site 0))
    [ 0; 1 ]

let test_install_buffers_what_it_wrote () =
  install_buffers_what_it_wrote ~window:1;
  install_buffers_what_it_wrote ~window:8

(* Site 1's copy of /d installs another site's create, pulled or carried;
   its index follows the new version. With the name cache off, a lookup
   there goes through that index, and so does the next, after a create
   from site 1 that the CSS's copy runs and site 1 installs in turn:
   neither builds an index anywhere. *)
let pulled_directory_keeps_its_index ~window =
  let kconfig = { K.default_config with K.name_cache_entries = 0 } in
  let w = two_copy_world ~kconfig ~window () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  List.iter (fun p -> Kernel.set_ncopies p 2) [ p0; p1; p2 ];
  ignore (Kernel.mkdir k0 p0 "/d");
  ignore (Kernel.creat k0 p0 "/d/a");
  ignore (World.settle w);
  ignore (Kernel.resolve k1 p1 "/d/a");
  let c = Kernel.creat k2 p2 "/d/c" in
  ignore (World.settle w);
  let snap = Stats.snapshot (stats w) in
  check Alcotest.bool "the pulled name is found" true
    (Catalog.Gfile.equal c (Kernel.resolve k1 p1 "/d/c"));
  let e = Kernel.creat k1 p1 "/d/e" in
  ignore (World.settle w);
  check Alcotest.bool "the installed name is found" true
    (Catalog.Gfile.equal e (Kernel.resolve k1 p1 "/d/e"));
  check Alcotest.int "no index build" 0 (Stats.delta_of (stats w) snap "ss.dir.index_builds")

let test_pulled_directory_keeps_its_index () =
  pulled_directory_keeps_its_index ~window:1;
  pulled_directory_keeps_its_index ~window:8

(* Words the SS allocates for an append and a tombstone patch, once the
   directory's index exists, at a directory of [n] entries stored only at
   site 0, which is also the using site. *)
let dir_update_words n =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  let gf = Kernel.mkdir k0 p0 "/d" in
  let o = Us.open_gf k0 gf Proto.Mode_modify in
  let dir = Dir.decode (Us.read_all k0 o) in
  for i = 0 to n - 1 do
    Dir.insert dir ~name:(Printf.sprintf "%05d" i) ~ino:(100 + i) ~ftype:Inode.Regular ~stamp:0.0
      ~origin:0
  done;
  Us.set_contents k0 o (Dir.encode dir);
  Us.commit k0 o;
  Us.close k0 o;
  ignore (World.settle w);
  let update op =
    let before = Gc.minor_words () in
    let resp =
      Locus_core.Ss.apply_intent k0 ~us:0 gf op ~others:[]
        ~guard:(fun _ -> Ok ())
        ~links_here:(fun _ -> false)
    in
    let words = Gc.minor_words () -. before in
    (match resp with
    | Proto.R_intent _ -> ()
    | _ -> Alcotest.fail "the change was refused");
    words
  in
  let enter name = Proto.Link { name; ino = 7; ftype = Inode.Regular; links = false } in
  ignore (update (enter "warm-up"));
  update (enter "fresh") +. update (Proto.Unlink { name = "00050"; links = false })

(* Allocation is deterministic, so this pins exactly what the SS's host
   cost of a dirop does not do: grow with the directory. *)
let test_dir_update_allocation_flat () =
  let small = dir_update_words 100 and large = dir_update_words 10_000 in
  if large > 2.0 *. small then
    Alcotest.failf "a dirop at 10,000 entries allocates %.0f words, at 100 entries %.0f" large
      small

(* ---- one lost message of a state-changing request ---- *)

(* Lose one message of the first request at [site] that [picks] selects:
   its request, sent from [peer], or its reply to [peer], armed inside
   [site]'s handler. Returns how many times [site] ran a selected request;
   [disarm] puts the plain handler back. *)
let arm_loss w ~site ~peer ~reply picks =
  let net = World.net w and k = World.kernel w site in
  let runs = ref 0 in
  if not reply then Net.Netsim.fail_next_message net ~src:peer ~dst:site;
  Net.Netsim.set_handler net site (fun ~src req ->
      if picks req then begin
        incr runs;
        if reply && !runs = 1 then Net.Netsim.fail_next_message net ~src:site ~dst:peer
      end;
      Dispatch.handle k ~src req);
  runs

let disarm w site =
  let k = World.kernel w site in
  Net.Netsim.set_handler (World.net w) site (fun ~src req -> Dispatch.handle k ~src req)

(* The transport's share of a lost message: one resend, answered from the
   kept reply when the reply was what got lost, and one run. *)
let check_one_resend w snap ~label ~reply runs =
  check Alcotest.int (label ^ ": one resend") 1 (Stats.delta_of (stats w) snap "rpc.retry");
  check Alcotest.int (label ^ ": answered from the kept reply")
    (if reply then 1 else 0)
    (Stats.delta_of (stats w) snap "rpc.replay");
  check Alcotest.int (label ^ ": the handler ran once") 1 !runs

(* One message of a remote intent is lost — the using site's request to
   the CSS, the CSS's reply, or the storage site's reply to the CSS's
   forward. The create returns its true result and ran exactly once.
   Afterwards the SS keeps no serving registration and no shadow pages,
   the locks are free, and a second create of the name is [EEXIST]. *)
let test_lost_intent_messages () =
  let is_intent = function Proto.Dir_intent _ -> true | _ -> false in
  let is_step = function Proto.Intent_step _ -> true | _ -> false in
  let lose (label, site, peer, reply, picks) =
    let w = asym_world () in
    let k1 = World.kernel w 1 and p1 = World.proc w 1 in
    (* Stored at site 1 only; site 0 is the CSS and must forward, and site
       2 is the using site. *)
    let dir_gf = Kernel.mkdir k1 p1 "/d" in
    ignore (Kernel.creat k1 p1 "/d/old");
    ignore (World.settle w);
    let k2 = World.kernel w 2 and p2 = World.proc w 2 in
    ignore (Kernel.stat k2 p2 "/d/old");
    let pack = Hashtbl.find k1.K.packs 0 in
    let vv () = (Storage.Pack.get_inode pack dir_gf.Catalog.Gfile.ino).Inode.vv in
    let before = vv () in
    let k0 = World.kernel w 0 in
    let runs = arm_loss w ~site ~peer ~reply picks in
    let snap = Stats.snapshot (stats w) in
    let gf = Kernel.creat k2 p2 "/d/new" in
    disarm w site;
    check_one_resend w snap ~label ~reply runs;
    check Alcotest.bool (label ^ ": the directory committed once") true
      (Vv.Version_vector.equal (vv ()) (Vv.Version_vector.bump before 1));
    check Alcotest.bool (label ^ ": no serving registration at the SS") true
      (K.ss_find_open k1 dir_gf = None);
    check Alcotest.bool (label ^ ": no shadow pages left") true (Storage.Pack.fsck pack = []);
    check Alcotest.bool (label ^ ": the locks are free") true
      (List.for_all
         (fun ino ->
           match Locus_core.Css.find_file k0 0 ino with
           | Some f -> f.K.writer = None
           | None -> true)
         [ dir_gf.Catalog.Gfile.ino; gf.Catalog.Gfile.ino ]);
    ignore (World.settle w);
    let names = List.map (fun (e : Dir.entry) -> e.Dir.name) (Kernel.readdir k2 p2 "/d") in
    check Alcotest.(list string) (label ^ ": one new entry") [ "."; ".."; "new"; "old" ] names;
    match Kernel.creat k2 p2 "/d/new" with
    | _ -> Alcotest.failf "%s: a second create of the name succeeded" label
    | exception K.Error (Proto.Eexist, _) -> ()
  in
  List.iter lose
    [
      ("request", 0, 2, false, is_intent);
      ("CSS reply", 0, 2, true, is_intent);
      ("SS reply", 1, 0, true, is_step);
    ]

(* The reply to one request of a remote file operation is lost: an open,
   a commit or a close of a whole-file write, or the metadata commit of a
   chmod, sent from site 3 to site 0, which stores the file's one copy and
   is its CSS. The operation succeeds, and the file holds its new state
   under one version bump. The SS keeps no serving registration, and a
   writer at site 2 is not locked out. At the default window of 8 the
   write's body rides its commit, so no write message goes out at all,
   and the commit whose reply is lost carries the run: the handler that
   writes it runs once, and the resend is answered from the kept reply. *)
let test_lost_file_replies () =
  let lose (label, picks, op, holds) =
    let w = asym_world () in
    let k0 = World.kernel w 0 and p0 = World.proc w 0 in
    Kernel.set_ncopies p0 1;
    let gf = Kernel.creat k0 p0 "/f" in
    Kernel.write_file k0 p0 "/f" "old";
    ignore (World.settle w);
    let pack = Hashtbl.find k0.K.packs 0 in
    let inode () = Storage.Pack.get_inode pack gf.Catalog.Gfile.ino in
    let before = (inode ()).Inode.vv in
    let k3 = World.kernel w 3 and p3 = World.proc w 3 in
    ignore (Kernel.stat k3 p3 "/f");
    let runs = arm_loss w ~site:0 ~peer:3 ~reply:true picks in
    let snap = Stats.snapshot (stats w) in
    (match op k3 p3 with
    | () -> ()
    | exception K.Error (e, msg) -> Alcotest.failf "%s: %s (%s)" label (Proto.errno_to_string e) msg);
    disarm w 0;
    check_one_resend w snap ~label ~reply:true runs;
    check Alcotest.int (label ^ ": no write message") 0
      (Stats.delta_of (stats w) snap "net.msg.write");
    check Alcotest.bool (label ^ ": one version bump") true
      (Vv.Version_vector.equal (inode ()).Inode.vv (Vv.Version_vector.bump before 0));
    check Alcotest.bool (label ^ ": no serving registration at the SS") true
      (K.ss_find_open k0 gf = None);
    check Alcotest.bool (label ^ ": the new state is there") true (holds k0 p0 (inode ()));
    let k2 = World.kernel w 2 and p2 = World.proc w 2 in
    match Kernel.write_file k2 p2 "/f" "two" with
    | () -> ()
    | exception K.Error (e, msg) ->
      Alcotest.failf "%s: a writer at site 2: %s (%s)" label (Proto.errno_to_string e) msg
  in
  let write k p = Kernel.write_file k p "/f" "new" in
  let wrote k p _ = String.equal (Kernel.read_file k p "/f") "new" in
  let chmod k p = Kernel.chmod k p "/f" 0o600 in
  let chmodded _ _ (i : Inode.t) = i.Inode.perms = 0o600 in
  List.iter lose
    [
      ("open", (function Proto.Open_req _ -> true | _ -> false), write, wrote);
      ( "commit carrying the run",
        (function Proto.Commit_req { run = Some _; _ } -> true | _ -> false),
        write,
        wrote );
      ("close", (function Proto.Us_close _ -> true | _ -> false), write, wrote);
      ("set_attr", (function Proto.Set_attr _ -> true | _ -> false), chmod, chmodded);
    ]

(* Foreground round trips of a create and an unlink from a packless site:
   exactly one (two messages) when the CSS stores the directory and the
   file, and at most two when the CSS must forward to the storage site. *)
let test_intent_round_trips () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  ignore (Kernel.mkdir k0 p0 "/here");
  ignore (Kernel.mkdir k1 p1 "/there");
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  (* Warm the path without opening the directories: a read lease on one
     would add its break and deferred close to the count. *)
  ignore (Kernel.stat k3 p3 "/here");
  ignore (Kernel.stat k3 p3 "/there");
  ignore (World.settle w);
  let counts f =
    let snap = Stats.snapshot (stats w) in
    f ();
    let d tag = Stats.delta_of (stats w) snap tag in
    let r = (d "net.msg", d "net.msg.dirop", d "net.msg.dirop.step") in
    ignore (World.settle w);
    r
  in
  let total, dirop, step = counts (fun () -> ignore (Kernel.creat k3 p3 "/here/f")) in
  check Alcotest.(triple int int int) "create, CSS stores it: one round trip" (2, 2, 0)
    (total, dirop, step);
  let total, dirop, step = counts (fun () -> Kernel.unlink k3 p3 "/here/f") in
  check Alcotest.(triple int int int) "unlink, CSS stores it: one round trip" (2, 2, 0)
    (total, dirop, step);
  let _, dirop, step = counts (fun () -> ignore (Kernel.creat k3 p3 "/there/g")) in
  check Alcotest.bool "create, CSS forwards: at most two round trips" true
    (dirop = 2 && step <= 2);
  let _, dirop, step = counts (fun () -> Kernel.unlink k3 p3 "/there/g") in
  check Alcotest.bool "unlink, CSS forwards: at most two round trips" true
    (dirop = 2 && step <= 2);
  check Alcotest.(list string) "both directories are empty" [ "."; ".."; "."; ".." ]
    (List.concat_map
       (fun d -> List.map (fun (e : Dir.entry) -> e.Dir.name) (Kernel.readdir k3 p3 d))
       [ "/here"; "/there" ])

(* A create refused with [EEXIST] leaves no inode behind, whichever site
   would have numbered it: the storage site (from a packless site) or the
   creating site itself (which stores the parent). *)
let test_duplicate_create_no_orphan () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.mkdir k0 p0 "/d");
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  Kernel.set_ncopies p3 2;
  ignore (Kernel.creat k3 p3 "/d/f");
  ignore (World.settle w);
  let inodes () =
    List.map
      (fun s -> List.length (Storage.Pack.inodes (Hashtbl.find (World.kernel w s).K.packs 0)))
      [ 0; 1 ]
  in
  let before = inodes () in
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  List.iter
    (fun (k, p) ->
      for _ = 1 to 5 do
        match Kernel.creat k p "/d/f" with
        | _ -> Alcotest.fail "a duplicate create succeeded"
        | exception K.Error (Proto.Eexist, _) -> ()
      done)
    [ (k3, p3); (k1, p1) ];
  ignore (World.settle w);
  check Alcotest.(list int) "no orphan inode at any copy" before (inodes ())

(* Unlinking a file another site holds open for modification fails with
   [EBUSY] and changes nothing: the name stays and the file lives. Once
   the writer closes, the unlink succeeds and deletes the body. *)
let test_unlink_busy_file () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.mkdir k0 p0 "/d");
  ignore (Kernel.creat k0 p0 "/d/f");
  Kernel.write_file k0 p0 "/d/f" "busy";
  ignore (World.settle w);
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  let gf = gf_of k3 "/d/f" in
  let fd = Kernel.open_path k2 p2 "/d/f" Proto.Mode_modify in
  (match Kernel.unlink k3 p3 "/d/f" with
  | () -> Alcotest.fail "unlinked a file open for modification"
  | exception K.Error (Proto.Ebusy, _) -> ());
  ignore (World.settle w);
  let names () = List.map (fun (e : Dir.entry) -> e.Dir.name) (Kernel.readdir k3 p3 "/d") in
  check Alcotest.(list string) "the name stays" [ "."; ".."; "f" ] (names ());
  check Alcotest.string "the file lives" "busy" (Kernel.read_file k3 p3 "/d/f");
  Kernel.close_fd k2 p2 fd;
  Kernel.unlink k3 p3 "/d/f";
  ignore (World.settle w);
  check Alcotest.(list string) "the name is gone" [ "."; ".." ] (names ());
  List.iter
    (fun s ->
      match Storage.Pack.find_inode (Hashtbl.find (World.kernel w s).K.packs 0) gf.Catalog.Gfile.ino with
      | None | Some { Inode.deleted = true; _ } -> ()
      | Some _ -> Alcotest.failf "site %d still holds the body" s)
    [ 0; 1 ]

let test_hard_link () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/orig");
  Kernel.write_file k0 p0 "/orig" "shared data";
  ignore (World.settle w);
  Kernel.link k0 p0 ~target:"/orig" ~path:"/alias";
  ignore (World.settle w);
  check Alcotest.string "alias reads" "shared data" (Kernel.read_file k0 p0 "/alias");
  let info = Kernel.stat k0 p0 "/alias" in
  check Alcotest.int "nlink" 2 info.Proto.i_nlink;
  Kernel.unlink k0 p0 "/orig";
  ignore (World.settle w);
  check Alcotest.string "alias survives" "shared data"
    (Kernel.read_file k0 p0 "/alias")

let test_rename () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/d1");
  ignore (Kernel.mkdir k0 p0 "/d2");
  ignore (Kernel.creat k0 p0 "/d1/file");
  Kernel.write_file k0 p0 "/d1/file" "moving";
  ignore (World.settle w);
  Kernel.rename k0 p0 ~from_path:"/d1/file" ~to_path:"/d2/renamed";
  ignore (World.settle w);
  check Alcotest.string "new name works" "moving" (Kernel.read_file k0 p0 "/d2/renamed");
  match Kernel.read_file k0 p0 "/d1/file" with
  | _ -> Alcotest.fail "old name should be gone"
  | exception K.Error (Proto.Enoent, _) -> ()

(* A rename whose new entry is refused puts the old one back; when that
   fails too, the file has lost its name, and the rename says so with
   [EIO] naming the entry rather than returning the first refusal. *)
let test_rename_lost_entry_is_eio () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/d1");
  ignore (Kernel.mkdir k0 p0 "/d2");
  ignore (Kernel.creat k0 p0 "/d1/a");
  ignore (Kernel.creat k0 p0 "/d2/b");
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  (* The CSS (site 0) refuses the third intent: the put-back. *)
  let intents = ref 0 in
  Net.Netsim.set_handler (World.net w) 0 (fun ~src req ->
      match req with
      | Proto.Dir_intent _ when (incr intents; !intents = 3) -> Proto.R_err Proto.Enet
      | _ -> Dispatch.handle k0 ~src req);
  (match Kernel.rename k3 p3 ~from_path:"/d1/a" ~to_path:"/d2/b" with
  | () -> Alcotest.fail "the rename succeeded"
  | exception K.Error (Proto.Eio, msg) ->
    check Alcotest.bool "the message names the lost entry" true
      (String.length msg >= 10 && String.sub msg 0 10 = "rename: a ")
  | exception K.Error (e, _) -> Alcotest.failf "rename failed with %a" Proto.pp_errno e);
  check Alcotest.int "remove, refused enter, failed put-back" 3 !intents

let test_readdir () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/list");
  ignore (Kernel.creat k0 p0 "/list/a");
  ignore (Kernel.creat k0 p0 "/list/b");
  ignore (World.settle w);
  let names =
    Kernel.readdir k0 p0 "/list" |> List.map (fun (e : Dir.entry) -> e.Dir.name)
  in
  check Alcotest.(list string) "entries" [ "."; ".."; "a"; "b" ] names

let test_create_eexist () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/dup");
  ignore (World.settle w);
  match Kernel.creat k0 p0 "/dup" with
  | _ -> Alcotest.fail "duplicate create should fail"
  | exception K.Error (Proto.Eexist, _) -> ()

(* ---- named pipes ---- *)

let test_named_pipe_across_sites () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkfifo k0 p0 "/fifo");
  ignore (World.settle w);
  Kernel.pipe_write k0 p0 "/fifo" "first ";
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  Kernel.pipe_write k3 p3 "/fifo" "second";
  check Alcotest.string "fifo order across sites" "first second"
    (Kernel.pipe_read k3 p3 "/fifo" ~max:100);
  check Alcotest.string "drained" "" (Kernel.pipe_read k0 p0 "/fifo" ~max:100)

(* ---- the reopen race of the close protocol (2.3.3 footnote) ---- *)

(* "The US could attempt to reopen the file before the CSS knew that the
   file was closed. Thus the responses were added." With the three-message
   close, an immediate reopen-for-modification always succeeds. *)
let test_close_reopen_race_free () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/racy");
  Kernel.write_file k0 p0 "/racy" "r";
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/racy" in
  for _ = 1 to 10 do
    (* Open for modification and close, then IMMEDIATELY reopen without
       letting any background events run: the close must have reached the
       CSS synchronously or this open bounces with EBUSY. *)
    let o = Us.open_gf k3 gf Proto.Mode_modify in
    Us.close k3 o
  done;
  (* And a different site can take the write lock right away too. *)
  let k4 = World.kernel w 4 in
  let o = Us.open_gf k4 (gf_of k4 "/racy") Proto.Mode_modify in
  Us.close k4 o;
  ignore (World.settle w)

(* A site that is not the CSS answers opens with ESTALE so the US can
   refresh its filegroup knowledge. *)
let test_stale_css_detected () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/s");
  ignore (World.settle w);
  let gf = gf_of k0 "/s" in
  let k3 = World.kernel w 3 in
  match
    Dispatch.handle k3 ~src:0
      (Proto.Open_req
         { gf; mode = Proto.Mode_read; us_vv = None; shared = false; want = 0; release = None })
  with
  | Proto.R_err Proto.Estale -> ()
  | _ -> Alcotest.fail "non-CSS site should answer ESTALE"

(* ---- the incore-inode guess (2.3.3) ---- *)

let test_read_guess_hits () =
  let w = asym_world_nobulk () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/guessed");
  Kernel.write_file k0 p0 "/guessed" (String.make (4 * Storage.Page.size) 'g');
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/guessed" in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  let snap = Stats.snapshot (stats w) in
  for lpage = 0 to 3 do
    ignore (Us.read_page k3 o lpage)
  done;
  (* Every remote read carried a valid guess: the SS located the incore
     inode without a lookup. *)
  check Alcotest.bool "guess hits" true
    (Stats.delta_of (stats w) snap "ss.guess.hit" >= 4);
  check Alcotest.int "no guess misses" 0 (Stats.delta_of (stats w) snap "ss.guess.miss");
  Us.close k3 o;
  ignore (World.settle w)

(* ---- mailbox convenience ---- *)

let test_mailbox_deliver_read () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/mail");
  ignore (Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/root");
  ignore (World.settle w);
  Kernel.mailbox_deliver k0 ~path:"/mail/root" ~from:"system" ~body:"welcome";
  Kernel.mailbox_deliver (World.kernel w 2) ~path:"/mail/root" ~from:"s2" ~body:"hi";
  ignore (World.settle w);
  let msgs = Kernel.mailbox_read k0 p0 "/mail/root" in
  check Alcotest.int "two messages" 2 (List.length msgs)

(* A mailbox whose body does not decode is EIO to a delivery, which
   leaves the bytes as they were, and to a read; an empty one takes mail. *)
let test_mailbox_corrupt_is_eio () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/mail");
  ignore (Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/bad");
  ignore (Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/empty");
  Kernel.write_file k0 p0 "/mail/bad" "garbage\n";
  ignore (World.settle w);
  let is_eio f = match f () with _ -> false | exception K.Error (Proto.Eio, _) -> true in
  check Alcotest.bool "delivery fails EIO" true
    (is_eio (fun () -> Kernel.mailbox_deliver k0 ~path:"/mail/bad" ~from:"s" ~body:"hi"));
  check Alcotest.string "bytes unchanged" "garbage\n" (Kernel.read_file k0 p0 "/mail/bad");
  check Alcotest.bool "read fails EIO" true
    (is_eio (fun () -> Kernel.mailbox_read k0 p0 "/mail/bad"));
  Kernel.mailbox_deliver k0 ~path:"/mail/empty" ~from:"s" ~body:"hi";
  check Alcotest.int "empty mailbox takes mail" 1
    (List.length (Kernel.mailbox_read k0 p0 "/mail/empty"))

(* A stat at a packless site asks the CSS once. A CSS whose own copy is
   the latest answers with its inode: one round trip, and no stat message.
   A CSS that holds no copy, or only an old one, names the sites that hold
   the latest, and one of them answers the stat. *)
let test_stat_asks_css_once () =
  let w = asym_world_nobulk () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  Kernel.set_ncopies p0 1;
  Kernel.set_ncopies p1 1;
  let here = Kernel.creat k0 p0 "/here" in
  Kernel.write_file k0 p0 "/here" "at the CSS";
  let there = Kernel.creat k1 p1 "/there" in
  Kernel.write_file k1 p1 "/there" "elsewhere";
  Kernel.set_ncopies p1 2;
  let both = Kernel.creat k1 p1 "/both" in
  Kernel.write_file k1 p1 "/both" "v1";
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let stat gf =
    let snap = Stats.snapshot (stats w) in
    let info = Us.stat_gf k3 gf in
    (info.Proto.i_size, msg_delta w snap, Stats.delta_of (stats w) snap "net.msg.stat")
  in
  check Alcotest.(triple int int int) "the CSS holds the latest copy" (10, 2, 0) (stat here);
  check Alcotest.(triple int int int) "the CSS holds no copy" (9, 4, 2) (stat there);
  (* Site 1 commits again; site 0's pull of it has not run yet. *)
  Kernel.write_file k1 p1 "/both" "v2 longer";
  check Alcotest.(triple int int int) "the CSS's copy is behind" (9, 4, 2) (stat both);
  ignore (World.settle w);
  check Alcotest.(triple int int int) "and once it caught up" (9, 2, 0) (stat both)

let () =
  Alcotest.run "core"
    [
      ( "open-protocol",
        [
          Alcotest.test_case "all roles local" `Quick test_open_all_local;
          Alcotest.test_case "fully remote = 4 msgs" `Quick
            test_open_fully_remote_four_messages;
          Alcotest.test_case "US-is-SS optimization" `Quick
            test_open_us_is_ss_two_messages;
          Alcotest.test_case "CSS-is-SS optimization" `Quick test_open_css_is_ss;
          Alcotest.test_case "collocated legs pay a local call" `Quick
            test_collocated_legs_charged;
        ] );
      ( "read",
        [
          Alcotest.test_case "2 msgs per remote page" `Quick
            test_remote_read_two_messages_per_page;
          Alcotest.test_case "readahead" `Quick test_readahead_fills_cache;
          Alcotest.test_case "cache keyed by version" `Quick test_cache_keyed_by_version;
          Alcotest.test_case "version keys compare by value" `Quick
            test_version_key_structural;
          Alcotest.test_case "readahead on cache hit" `Quick test_readahead_on_cache_hit;
          Alcotest.test_case "cross-open retention" `Quick test_cross_open_cache_retention;
          Alcotest.test_case "read_bytes zero fill" `Quick
            test_read_bytes_zero_fills_short_page;
          Alcotest.test_case "read at eof reads no page" `Quick test_read_at_eof_reads_no_page;
          Alcotest.test_case "an install buffers what it wrote" `Quick
            test_install_buffers_what_it_wrote;
        ] );
      ( "write-commit",
        [
          Alcotest.test_case "abort undoes" `Quick test_commit_visibility;
          Alcotest.test_case "record patch writes one page" `Quick
            test_record_patch_writes_one_page;
          Alcotest.test_case "single writer" `Quick test_single_writer_policy;
          Alcotest.test_case "reader sees live writes" `Quick
            test_concurrent_read_during_write_sees_updates;
        ] );
      ( "pathname",
        [
          Alcotest.test_case "nested paths" `Quick test_nested_paths;
          Alcotest.test_case "errors" `Quick test_enoent_and_enotdir;
          Alcotest.test_case "corrupt directory is EIO" `Quick test_corrupt_directory_is_eio;
          Alcotest.test_case "hidden dir context" `Quick test_hidden_dir_context_selection;
          Alcotest.test_case "hidden dir escape" `Quick test_hidden_dir_escape;
          Alcotest.test_case "hidden dir miss" `Quick test_hidden_dir_no_context_entry;
        ] );
      ( "namespace",
        [
          Alcotest.test_case "unlink" `Quick test_unlink;
          Alcotest.test_case "hard link" `Quick test_hard_link;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "rename that loses the entry is EIO" `Quick
            test_rename_lost_entry_is_eio;
          Alcotest.test_case "readdir" `Quick test_readdir;
          Alcotest.test_case "create EEXIST" `Quick test_create_eexist;
          Alcotest.test_case "remote dirop moves one page" `Quick
            test_remote_dirop_moves_one_page;
          Alcotest.test_case "lost intent messages" `Quick test_lost_intent_messages;
          Alcotest.test_case "lost file-request replies" `Quick test_lost_file_replies;
          Alcotest.test_case "intent round trips" `Quick test_intent_round_trips;
          Alcotest.test_case "a stat asks the CSS once" `Quick test_stat_asks_css_once;
          Alcotest.test_case "duplicate create leaves no inode" `Quick
            test_duplicate_create_no_orphan;
          Alcotest.test_case "unlink of a busy file changes nothing" `Quick test_unlink_busy_file;
          Alcotest.test_case "dir index built once" `Quick test_dir_index_built_once;
          Alcotest.test_case "dir index evicts the least recent" `Quick
            test_dir_index_evicts_least_recent;
          Alcotest.test_case "a pulled directory keeps its index" `Quick
            test_pulled_directory_keeps_its_index;
          Alcotest.test_case "dir update allocation flat" `Quick test_dir_update_allocation_flat;
        ] );
      ( "close-protocol",
        [
          Alcotest.test_case "reopen race free" `Quick test_close_reopen_race_free;
          Alcotest.test_case "stale css" `Quick test_stale_css_detected;
        ] );
      ( "guess",
        [ Alcotest.test_case "read guess hits" `Quick test_read_guess_hits ] );
      ( "ipc-objects",
        [
          Alcotest.test_case "named pipe" `Quick test_named_pipe_across_sites;
          Alcotest.test_case "mailbox" `Quick test_mailbox_deliver_read;
          Alcotest.test_case "corrupt mailbox is EIO" `Quick test_mailbox_corrupt_is_eio;
        ] );
    ]
