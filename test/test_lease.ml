(* Open leases: CSS-granted read leases with callback invalidation and
   deferred close. Warm re-opens cost zero messages; a writer open or a
   version advance breaks the lease by callback before the next read can
   observe stale data; eviction sends exactly one deferred close, which
   rides the displacing open when that open's CSS is the lease's SS; no lease
   survives a partition event; both ablations reproduce the classic
   protocol's message counts exactly. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Us = Locus_core.Us
module Css = Locus_core.Css
module Openlease = Locus_core.Openlease
module Pathname = Locus_core.Pathname
module K = Locus_core.Ktypes
module Mount = Catalog.Mount
module Gfile = Catalog.Gfile
module Stats = Sim.Stats
module Vvec = Vv.Version_vector

let check = Alcotest.check

(* Packs at 0 and 1 (CSS at 0), five sites: every US/CSS/SS collocation of
   Figure 2 is constructible. *)
let make_world ?kconfig () =
  let base = World.default_config ~n_sites:5 () in
  let kernel_config = Option.value kconfig ~default:base.World.kernel_config in
  World.create
    ~config:
      {
        base with
        World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1 ]; mount_path = None } ];
        kernel_config;
      }
    ()

let gf_of k path =
  Pathname.resolve_from k ~cwd:(Mount.root k.K.mount) ~context:[] path

let mk_file w ~at ~path ~body =
  let k = World.kernel w at and p = World.proc w at in
  Kernel.set_ncopies p 1;
  ignore (Kernel.creat k p path);
  Kernel.write_file k p path body;
  ignore (World.settle w)

let msgs w snap = Stats.delta_of (World.stats w) snap "net.msg"

let held k gf = Openlease.find_entry k.K.open_leases gf <> None

(* Site 3's registrations for [gf]: at the SS (site 0) and as a reader at
   the CSS (site 0). *)
let registrations w gf =
  let k0 = World.kernel w 0 in
  let at_ss =
    match K.ss_find_open k0 gf with
    | Some s -> Option.value ~default:0 (Net.Site.Map.find_opt 3 s.K.s_uss)
    | None -> 0
  in
  let at_css =
    match Css.find_file k0 gf.Gfile.fg gf.Gfile.ino with
    | Some f -> Option.value ~default:0 (Net.Site.Map.find_opt 3 f.K.readers)
    | None -> 0
  in
  (at_ss, at_css)

(* ---- warm re-open ---- *)

(* All roles distinct (file at 1, CSS at 0, US at 3): the cold open costs
   the paper's four messages, and the re-open riding the retained grant
   costs none at all. *)
let test_warm_reopen_zero_messages () =
  let w = make_world () in
  mk_file w ~at:1 ~path:"/f" ~body:"x";
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/f" in
  let snap = Stats.snapshot (World.stats w) in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  check Alcotest.int "cold open msgs" 4 (msgs w snap);
  check Alcotest.string "cold data" "x" (Us.read_all k3 o);
  Us.close k3 o;
  ignore (World.settle w);
  check Alcotest.bool "grant retained across close" true (held k3 gf);
  let snap = Stats.snapshot (World.stats w) in
  let o2 = Us.open_gf k3 gf Proto.Mode_read in
  check Alcotest.int "warm reopen msgs" 0 (msgs w snap);
  check Alcotest.string "warm data" "x" (Us.read_all k3 o2);
  Us.close k3 o2;
  ignore (World.settle w);
  check Alcotest.int "lease hit counted" 1
    (Stats.get (World.stats w) "open.lease.hit")

(* ---- callback breaks ---- *)

(* A writer open revokes every read lease on the file; the holder's next
   open revalidates through the CSS and reads the committed data. *)
let test_break_on_writer_open () =
  let w = make_world () in
  mk_file w ~at:1 ~path:"/f" ~body:"old!";
  let k3 = World.kernel w 3 and k2 = World.kernel w 2 in
  let gf = gf_of k3 "/f" in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  ignore (Us.read_all k3 o);
  Us.close k3 o;
  ignore (World.settle w);
  check Alcotest.bool "lease held" true (held k3 gf);
  let ow = Us.open_gf k2 gf Proto.Mode_modify in
  ignore (World.settle w);
  check Alcotest.bool "broken by writer open" false (held k3 gf);
  Us.set_contents k2 ow "new!";
  Us.commit k2 ow;
  Us.close k2 ow;
  ignore (World.settle w);
  let snap = Stats.snapshot (World.stats w) in
  let o2 = Us.open_gf k3 gf Proto.Mode_read in
  check Alcotest.bool "reopen revalidates (cold)" true (msgs w snap > 0);
  check Alcotest.string "never stale" "new!" (Us.read_all k3 o2);
  Us.close k3 o2;
  ignore (World.settle w)

(* The CSS can also learn of a version advance without a writer open
   flowing through it (reconciliation, a replayed notification): the
   commit-notify bookkeeping must break the leases too. *)
let test_break_on_commit_notify () =
  let w = make_world () in
  mk_file w ~at:1 ~path:"/f" ~body:"v1";
  let k0 = World.kernel w 0 and k3 = World.kernel w 3 in
  let gf = gf_of k3 "/f" in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  Us.close k3 o;
  ignore (World.settle w);
  check Alcotest.bool "lease held" true (held k3 gf);
  let f = Css.get_file k0 0 gf.Gfile.ino in
  let vv' = Vvec.bump f.K.latest_vv 1 in
  Css.handle_commit_notify k0 gf ~origin:1 ~vv:vv' ~deleted:false;
  ignore (World.settle w);
  check Alcotest.bool "broken by version advance" false (held k3 gf)

(* A holder's own commit kills its lease at once: a read at the same
   instant, before the CSS's [Lease_break] arrives, goes cold and reads
   the new bytes under a new grant. The late break names the old grant,
   so the new one survives it, and so does the dead grant's late close,
   which the break already released: the CSS counts exactly the new
   grant. A write from another site breaks that one in turn. *)
let test_break_on_own_commit () =
  let w = make_world () in
  mk_file w ~at:1 ~path:"/f" ~body:"old!";
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  let gf = gf_of k3 "/f" in
  check Alcotest.string "first read" "old!" (Kernel.read_file k3 p3 "/f");
  check Alcotest.bool "lease held" true (held k3 gf);
  Kernel.write_file k3 p3 "/f" "new!";
  check Alcotest.string "own bytes at the same instant" "new!" (Kernel.read_file k3 p3 "/f");
  ignore (World.settle w);
  check Alcotest.bool "the new grant survives the late break" true (held k3 gf);
  check Alcotest.int "the CSS counts the new grant" 1 (snd (registrations w gf));
  Kernel.write_file (World.kernel w 4) (World.proc w 4) "/f" "later";
  ignore (World.settle w);
  check Alcotest.bool "a write elsewhere breaks it" false (held k3 gf);
  check Alcotest.int "reader registrations closed" 0 (snd (registrations w gf));
  check Alcotest.string "the holder reads the write" "later" (Kernel.read_file k3 p3 "/f")

(* A grant's close is parked (every attempt lost), the CSS breaks the
   grant, and the holder takes a new one before the parked close gets
   through. The break released the old grant, at the CSS and at its SS,
   the CSS itself; so the late close releases nothing, and the new grant
   stays live, counted once, until the next write breaks it. Files at 0
   (CSS and SS), leased at 3. *)
let test_parked_close_after_new_grant () =
  let w = make_world () in
  mk_file w ~at:0 ~path:"/f" ~body:"old!";
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  let gf = gf_of k3 "/f" in
  check Alcotest.string "first read" "old!" (Kernel.read_file k3 p3 "/f");
  ignore (World.settle w);
  let stats = World.stats w in
  let snap = Stats.snapshot stats in
  for _ = 1 to 3 do
    Locus_core.Ktypes.Transport.fail_next_message (World.net w) ~src:3 ~dst:0
  done;
  Openlease.kill k3.K.open_leases gf;
  check Alcotest.int "every attempt of the close lost" 1 (Stats.delta_of stats snap "rpc.fail");
  let k4 = World.kernel w 4 and p4 = World.proc w 4 in
  Kernel.write_file k4 p4 "/f" "new!";
  check Alcotest.string "the holder reads the write" "new!" (Kernel.read_file k3 p3 "/f");
  check Alcotest.bool "under a new grant" true (held k3 gf);
  ignore (World.settle w);
  check Alcotest.int "the parked close got through" 1
    (Stats.delta_of stats snap "net.close.park_retry");
  check Alcotest.bool "the new grant survives" true (held k3 gf);
  check Alcotest.(pair int int) "registered once, at the SS and the CSS" (1, 1)
    (registrations w gf);
  Kernel.write_file k4 p4 "/f" "newer";
  ignore (World.settle w);
  check Alcotest.bool "the next write breaks it" false (held k3 gf);
  check Alcotest.(pair int int) "released" (0, 0) (registrations w gf);
  check Alcotest.string "the holder reads the next write" "newer" (Kernel.read_file k3 p3 "/f")

(* A lost break is resent. Site 4 holds a lease; the next message from
   each of sites 0-3 to site 4 is lost, the break and any invalidation
   among them, while site 3 writes. The transport resends the
   acknowledged break, so after the settle site 4 reads the new body, not
   the leased old one. *)
let test_lost_break_resent () =
  let w = make_world () in
  mk_file w ~at:1 ~path:"/f" ~body:"old";
  let k4 = World.kernel w 4 and p4 = World.proc w 4 in
  check Alcotest.string "first read" "old" (Kernel.read_file k4 p4 "/f");
  ignore (World.settle w);
  check Alcotest.bool "lease held" true (held k4 (gf_of k4 "/f"));
  for src = 0 to 3 do
    Locus_core.Ktypes.Transport.fail_next_message (World.net w) ~src ~dst:4
  done;
  Kernel.write_file (World.kernel w 3) (World.proc w 3) "/f" "new-body";
  ignore (World.settle w);
  check Alcotest.string "read after the settle" "new-body" (Kernel.read_file k4 p4 "/f")

(* Lose every attempt of the CSS's (site 0's) next call to site 3: a
   break lost for good. *)
let lose_break w =
  for _ = 1 to 3 do
    Locus_core.Ktypes.Transport.fail_next_message (World.net w) ~src:0 ~dst:3
  done

(* A lost [Lease_break] must not tear a read. The holder (site 3) stores
   no copy; the SS's page invalidation still empties its cache, so an
   open riding the stale lease would miss, fetch the new bytes and file
   them under the old version's key, where the read after trims them to
   the old size. The invalidation kills the lease too. *)
let test_lost_break_no_torn_read () =
  let w = make_world () in
  mk_file w ~at:1 ~path:"/f" ~body:"short";
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  check Alcotest.string "first read" "short" (Kernel.read_file k3 p3 "/f");
  ignore (World.settle w);
  lose_break w;
  Kernel.write_file (World.kernel w 4) (World.proc w 4) "/f" "a-longer-body";
  ignore (World.settle w);
  check Alcotest.string "read after the lost break" "a-longer-body"
    (Kernel.read_file k3 p3 "/f");
  check Alcotest.string "read again" "a-longer-body" (Kernel.read_file k3 p3 "/f")

(* The same lost break, with the grant from a copy the writer's SS does
   not serve: site 0's copy pulls the new version, so no page
   invalidation reaches the holder, and after an eviction its open riding
   the stale lease fetches a page of the new version. The page reply
   names the version it holds, so the holder drops the lease and the old
   version's pages instead of filing the new bytes under the old key:
   each read returns one whole body. *)
let test_lost_break_from_another_copy () =
  let kconfig = { K.default_config with K.us_cache_pages = 1 } in
  let w = make_world ~kconfig () in
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  Kernel.set_ncopies p1 2;
  List.iter
    (fun (path, body) ->
      ignore (Kernel.creat k1 p1 path);
      Kernel.write_file k1 p1 path body)
    [ ("/f", "short"); ("/g", "other") ];
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  check Alcotest.string "first read" "short" (Kernel.read_file k3 p3 "/f");
  ignore (World.settle w);
  let gf = gf_of k3 "/f" in
  let lease_vv () =
    Option.map (fun e -> e.Openlease.le_vv) (Openlease.find_entry k3.K.open_leases gf)
  in
  let old = lease_vv () in
  check Alcotest.bool "lease held" true (old <> None);
  lose_break w;
  Kernel.write_file k1 p1 "/f" "a-longer-body";
  ignore (World.settle w);
  check Alcotest.string "other file" "other" (Kernel.read_file k3 p3 "/g");
  let whole body = body = "short" || body = "a-longer-body" in
  let first = Kernel.read_file k3 p3 "/f" in
  check Alcotest.bool ("read after the lost break: " ^ first) true (whole first);
  let again = Kernel.read_file k3 p3 "/f" in
  check Alcotest.bool ("read again: " ^ again) true (whole again);
  check Alcotest.bool "lease on the old version dropped" true (lease_vv () <> old)

(* ---- deferred close ---- *)

(* With a single-entry lease table, registering a second grant evicts the
   first, which sends its deferred close — exactly one [Us_close] RPC,
   from a zero-delay event, not in the open's foreground — and drains the
   reader registration at the CSS. *)
let test_eviction_sends_one_close () =
  let kconfig = { K.default_config with K.open_lease_entries = 1 } in
  let w = make_world ~kconfig () in
  mk_file w ~at:1 ~path:"/a" ~body:"a";
  mk_file w ~at:1 ~path:"/b" ~body:"b";
  let k3 = World.kernel w 3 and k0 = World.kernel w 0 in
  let gfa = gf_of k3 "/a" and gfb = gf_of k3 "/b" in
  let oa = Us.open_gf k3 gfa Proto.Mode_read in
  Us.close k3 oa;
  ignore (World.settle w);
  let stats = World.stats w in
  let snap = Stats.snapshot stats in
  let ob = Us.open_gf k3 gfb Proto.Mode_read in
  check Alcotest.int "one eviction" 1 (Stats.delta_of stats snap "open.lease.evict");
  check Alcotest.int "the open sends no Us_close" 0 (Stats.delta_of stats snap "net.msg.close.us");
  ignore (World.settle w);
  check Alcotest.int "exactly one deferred Us_close" 2
    (Stats.delta_of stats snap "net.msg.close.us");
  (match Css.find_file k0 0 gfa.Gfile.ino with
  | Some f -> check Alcotest.int "reader registration drained" 0 (K.Site.Map.cardinal f.K.readers)
  | None -> Alcotest.fail "css record missing");
  check Alcotest.bool "evicted grant gone" false (held k3 gfa);
  check Alcotest.bool "new grant live" true (held k3 gfb);
  Us.close k3 ob;
  ignore (World.settle w)

(* An evicted grant whose SS is the CSS the displacing open asks: its
   close rides that open's request. Files at 0 (CSS and only copy), leased
   at 3, which stores no pack, in a one-entry table: /a is leased and
   idle, and the open of /b evicts it. [shared] is held open on /a
   besides, through a shared descriptor, so that /a's registrations at
   site 3 count two, and a close run twice would show. *)

let ride_world () =
  let kconfig = { K.default_config with K.open_lease_entries = 1 } in
  let w = make_world ~kconfig () in
  mk_file w ~at:0 ~path:"/a" ~body:"a";
  mk_file w ~at:0 ~path:"/b" ~body:"b";
  let k3 = World.kernel w 3 in
  let gfa = gf_of k3 "/a" and gfb = gf_of k3 "/b" in
  Us.close k3 (Us.open_gf k3 gfa Proto.Mode_read);
  ignore (World.settle w);
  check Alcotest.bool "/a leased" true (held k3 gfa);
  (w, k3, gfa, gfb)

let test_eviction_close_rides_the_open () =
  let w, k3, gfa, gfb = ride_world () in
  check Alcotest.(pair int int) "/a registered once" (1, 1) (registrations w gfa);
  let stats = World.stats w in
  let snap = Stats.snapshot stats in
  let ob = Us.open_gf k3 gfb Proto.Mode_read in
  let delta = Stats.delta_of stats snap in
  check Alcotest.int "one open round trip" 2 (delta "net.msg.open");
  check Alcotest.int "no Us_close" 0 (delta "net.msg.close.us");
  check Alcotest.int "nothing else" 2 (delta "net.msg");
  check Alcotest.int "one eviction" 1 (delta "open.lease.evict");
  ignore (World.settle w);
  check Alcotest.int "no Us_close after the settle" 0 (delta "net.msg.close.us");
  check Alcotest.(pair int int) "/a closed at the SS and the CSS" (0, 0) (registrations w gfa);
  check Alcotest.bool "/a's serving state gone" true (K.ss_find_open (World.kernel w 0) gfa = None);
  check Alcotest.bool "evicted grant gone" false (held k3 gfa);
  check Alcotest.bool "new grant live" true (held k3 gfb);
  Us.close k3 ob;
  ignore (World.settle w)

(* Every attempt of the displacing open is lost, so its handler never
   ran: the open fails, and the evicted grant's close goes out on its own
   and gets through. *)
let test_eviction_close_after_unreachable_open () =
  let w, k3, gfa, gfb = ride_world () in
  for _ = 1 to 3 do
    Locus_core.Ktypes.Transport.fail_next_message (World.net w) ~src:3 ~dst:0
  done;
  (match Us.open_gf k3 gfb Proto.Mode_read with
  | _ -> Alcotest.fail "open with every attempt lost succeeded"
  | exception K.Error (Proto.Enet, _) -> ());
  ignore (World.settle w);
  check Alcotest.bool "/a's lease gone" false (held k3 gfa);
  check Alcotest.(pair int int) "/a closed at the SS and the CSS" (0, 0) (registrations w gfa)

(* The displacing open's reply is lost [lost] times: the resends are
   answered from the kept reply, so the carried close runs once, whether
   a resend's reply gets through (1) or none does (3: the open fails and
   the close is not sent again). *)
let test_eviction_close_runs_once lost () =
  let w, k3, gfa, gfb = ride_world () in
  let shared = Us.open_gf ~shared:true k3 gfa Proto.Mode_read in
  check Alcotest.(pair int int) "/a registered twice" (2, 2) (registrations w gfa);
  let stats = World.stats w in
  let snap = Stats.snapshot stats in
  for _ = 1 to lost do
    Locus_core.Ktypes.Transport.fail_next_message (World.net w) ~src:0 ~dst:3
  done;
  (match Us.open_gf k3 gfb Proto.Mode_read with
  | ob ->
    check Alcotest.int "opened after one lost reply" 1 lost;
    Us.close k3 ob
  | exception K.Error (Proto.Enet, _) -> check Alcotest.int "failed after every reply lost" 3 lost);
  check Alcotest.int "resends answered from the kept reply" (min lost 2)
    (Stats.delta_of stats snap "rpc.replay");
  ignore (World.settle w);
  check Alcotest.(pair int int) "/a's registrations down by one" (1, 1) (registrations w gfa);
  Us.close k3 shared;
  ignore (World.settle w);
  check Alcotest.(pair int int) "/a closed" (0, 0) (registrations w gfa)

(* ---- partition events ---- *)

(* No lease survives a partition or a merge: the grantor may be
   unreachable or no longer the CSS, so its break callbacks can no longer
   be trusted. A lease dies there as at a crash, silently: the merge's
   §5.6 rebuild counts only the members' open files at the CSS, and
   [Ss.revalidate_serving] drops the SS registrations no open backs. *)

let closes w snap =
  Stats.delta_of (World.stats w) snap "net.msg.close.us"
  + Stats.delta_of (World.stats w) snap "net.msg.close.ss"

let paths = [ "/f"; "/g"; "/h" ]

(* Read each file once at [k] and close it: [k] holds an idle lease on
   each. *)
let take_leases w k gfs =
  List.iter (fun gf -> Us.close k (Us.open_gf k gf Proto.Mode_read)) gfs;
  ignore (World.settle w);
  List.iter (fun gf -> check Alcotest.bool "lease held" true (held k gf)) gfs

(* Files at 1 (CSS at 0), each leased at [site]. *)
let hold_three w site =
  List.iter (fun path -> mk_file w ~at:1 ~path ~body:path) paths;
  let k = World.kernel w site in
  let gfs = List.map (gf_of k) paths in
  take_leases w k gfs;
  gfs

(* The SS (site 1) serves [site] for [gf]. *)
let serving w site gf =
  match K.ss_find_open (World.kernel w 1) gf with
  | Some s -> Net.Site.Map.mem site s.K.s_uss
  | None -> false

(* The CSS (site 0) counts [site] as a reader of [gf] or a lease holder. *)
let css_counts w site gf =
  match Css.find_file (World.kernel w 0) gf.Gfile.fg gf.Gfile.ino with
  | Some f -> Net.Site.Map.mem site f.K.readers
    || List.exists (fun g -> Net.Site.equal g.K.g_holder site) f.K.leases
  | None -> false

(* [site] is registered for [gf] at the SS or counted at the CSS. *)
let registered w site gf = serving w site gf || css_counts w site gf

let test_scrub_across_partition_and_merge () =
  let w = make_world () in
  let k2 = World.kernel w 2 in
  let gfs = hold_three w 2 in
  let snap = Stats.snapshot (World.stats w) in
  ignore (World.partition w [ [ 0; 1; 2 ]; [ 3; 4 ] ]);
  ignore (World.settle w);
  check Alcotest.int "no close at the partition" 0 (closes w snap);
  List.iter (fun gf -> check Alcotest.bool "dropped by the partition" false (held k2 gf)) gfs;
  (* Leases granted inside the partition die at the merge the same way. *)
  take_leases w k2 gfs;
  let snap = Stats.snapshot (World.stats w) in
  ignore (World.heal_and_merge w);
  ignore (World.settle w);
  check Alcotest.int "no close at the merge" 0 (closes w snap);
  List.iter
    (fun gf ->
      check Alcotest.bool "nothing resurrected by the merge" false (held k2 gf);
      check Alcotest.bool "no registration after the merge" false (registered w 2 gf))
    gfs;
  (* Service resumes through the normal protocol. *)
  let o2 = Us.open_gf k2 (List.hd gfs) Proto.Mode_read in
  check Alcotest.string "readable after merge" "/f" (Us.read_all k2 o2);
  Us.close k2 o2;
  ignore (World.settle w)

(* The partition that keeps the holder with both CSS and SS drops its
   leases too: a lease must never survive any membership change. The
   partition's revalidation ends their SS registrations at once, so the
   SS sends the former holder no more invalidations; the CSS's reader
   counts go at the merge's rebuild. *)
let test_scrub_even_in_surviving_partition () =
  let w = make_world () in
  let k3 = World.kernel w 3 in
  let gfs = hold_three w 3 in
  (* Sites 0 (CSS), 1 (SS) and 3 (holder) stay together; 2, 4 leave. *)
  let snap = Stats.snapshot (World.stats w) in
  ignore (World.partition w [ [ 0; 1; 3 ]; [ 2; 4 ] ]);
  ignore (World.settle w);
  check Alcotest.int "no close at the partition" 0 (closes w snap);
  List.iter
    (fun gf ->
      check Alcotest.bool "dropped anyway" false (held k3 gf);
      check Alcotest.bool "no registration after the partition" false (serving w 3 gf);
      check Alcotest.bool "no reader or lease holder at the CSS" false
        (css_counts w 3 gf))
    gfs;
  let o2 = Us.open_gf k3 (List.hd gfs) Proto.Mode_read in
  check Alcotest.string "still readable" "/f" (Us.read_all k3 o2);
  Us.close k3 o2;
  let snap = Stats.snapshot (World.stats w) in
  ignore (World.heal_and_merge w);
  ignore (World.settle w);
  check Alcotest.int "no close at the merge" 0 (closes w snap);
  List.iter
    (fun gf ->
      check Alcotest.bool "no registration after the merge" false (registered w 3 gf))
    gfs

(* An open riding a lease when the partition drops it keeps its one
   close: the partition sends none, for it or for the site's idle
   leases, and the rider's close sends exactly one. *)
let test_rider_closes_once_across_partition () =
  let w = make_world () in
  let k2 = World.kernel w 2 in
  let gfs = hold_three w 2 in
  let gf = List.hd gfs in
  let rider = Us.open_gf k2 gf Proto.Mode_read in
  check Alcotest.bool "rides the lease" true (rider.K.o_lease <> None);
  let snap = Stats.snapshot (World.stats w) in
  ignore (World.partition w [ [ 0; 1; 2 ]; [ 3; 4 ] ]);
  ignore (World.settle w);
  check Alcotest.int "no close at the partition" 0 (closes w snap);
  check Alcotest.bool "lease dropped" false (held k2 gf);
  check Alcotest.string "rider still reads" "/f" (Us.read_all k2 rider);
  let snap = Stats.snapshot (World.stats w) in
  Us.close k2 rider;
  ignore (World.settle w);
  (* A close is a request and its reply: one Us_close, one Ss_close. *)
  check Alcotest.int "one close from the rider" 2
    (Stats.delta_of (World.stats w) snap "net.msg.close.us");
  check Alcotest.int "forwarded once to the CSS" 2
    (Stats.delta_of (World.stats w) snap "net.msg.close.ss");
  let snap = Stats.snapshot (World.stats w) in
  ignore (World.heal_and_merge w);
  ignore (World.settle w);
  check Alcotest.int "no close at the merge" 0 (closes w snap);
  List.iter
    (fun gf ->
      check Alcotest.bool "no registration after the merge" false (registered w 2 gf))
    gfs

(* ---- ablations ---- *)

(* With the layer off, both the first and the second open of every E1
   collocation mode cost the paper's message counts: the protocol is
   exactly the pre-lease one. *)
let test_ablations_match_e1_counts () =
  (* (file_at, open_at, paper count) for the five E1 placements. *)
  let placements = [ (0, 0, 0); (1, 1, 2); (1, 0, 2); (0, 3, 2); (1, 3, 4) ] in
  let run kconfig (file_at, open_at, _) =
    let w = make_world ~kconfig () in
    mk_file w ~at:file_at ~path:"/f" ~body:"x";
    let k = World.kernel w open_at in
    let gf = gf_of k "/f" in
    let snap = Stats.snapshot (World.stats w) in
    let o = Us.open_gf k gf Proto.Mode_read in
    let cold = msgs w snap in
    Us.close k o;
    ignore (World.settle w);
    let snap = Stats.snapshot (World.stats w) in
    let o2 = Us.open_gf k gf Proto.Mode_read in
    let warm = msgs w snap in
    Us.close k o2;
    ignore (World.settle w);
    (cold, warm)
  in
  List.iter
    (fun ((_, _, paper) as p) ->
      let cold, warm = run { K.default_config with K.open_lease_entries = 0 } p in
      check Alcotest.int "open_lease_entries=0 cold" paper cold;
      check Alcotest.int "open_lease_entries=0 warm" paper warm)
    placements

let () =
  Alcotest.run "lease"
    [
      ( "warm reopen",
        [
          Alcotest.test_case "zero messages" `Quick test_warm_reopen_zero_messages;
        ] );
      ( "callback break",
        [
          Alcotest.test_case "writer open" `Quick test_break_on_writer_open;
          Alcotest.test_case "commit notify" `Quick test_break_on_commit_notify;
          Alcotest.test_case "own commit" `Quick test_break_on_own_commit;
          Alcotest.test_case "parked close after a new grant" `Quick
            test_parked_close_after_new_grant;
          Alcotest.test_case "lost break is resent" `Quick test_lost_break_resent;
          Alcotest.test_case "lost break tears no read" `Quick test_lost_break_no_torn_read;
          Alcotest.test_case "lost break from another copy" `Quick
            test_lost_break_from_another_copy;
        ] );
      ( "deferred close",
        [
          Alcotest.test_case "eviction sends one close" `Quick
            test_eviction_sends_one_close;
          Alcotest.test_case "eviction's close rides the open" `Quick
            test_eviction_close_rides_the_open;
          Alcotest.test_case "eviction's close after an unreachable open" `Quick
            test_eviction_close_after_unreachable_open;
          Alcotest.test_case "eviction's close runs once after a lost reply" `Quick
            (test_eviction_close_runs_once 1);
          Alcotest.test_case "eviction's close runs once after every reply lost" `Quick
            (test_eviction_close_runs_once 3);
        ] );
      ( "partition",
        [
          Alcotest.test_case "scrub across partition + merge" `Quick
            test_scrub_across_partition_and_merge;
          Alcotest.test_case "scrub in surviving partition" `Quick
            test_scrub_even_in_surviving_partition;
          Alcotest.test_case "rider closes once across a partition" `Quick
            test_rider_closes_once_across_partition;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "matches E1 counts" `Quick test_ablations_match_e1_counts;
        ] );
    ]
