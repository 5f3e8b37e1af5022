(* Reconfiguration and recovery tests (sections 4 and 5): the partition
   protocol's iterative intersection, the merge protocol and its adaptive
   timeout, CSS re-election and lock-table rebuild, the cleanup table, and
   the reconciliation rules for directories, mailboxes and untyped files. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Us = Locus_core.Us
module K = Locus_core.Ktypes
module Dispatch = Locus.Dispatch
module Partition = Recovery.Partition
module Merge = Recovery.Merge
module Reconcile = Recovery.Reconcile
module Topology = Net.Topology
module Inode = Storage.Inode

let check = Alcotest.check

let make_world ?(n = 6) () = World.create ~config:(World.default_config ~n_sites:n ()) ()

(* ---- partition protocol (section 5.4) ---- *)

let test_partition_membership_agreement () =
  let w = make_world () in
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ];
  let r = Partition.run_active (World.kernel w 0) in
  check Alcotest.(list int) "members" [ 0; 1; 2 ] r.Partition.members;
  (* Consensus: every member's site table equals the agreed set. *)
  List.iter
    (fun s ->
      check Alcotest.(list int)
        (Printf.sprintf "site %d table" s)
        [ 0; 1; 2 ]
        (World.kernel w s).K.site_table)
    [ 0; 1; 2 ]

(* A single broken link must not split the net into three parts: the
   protocol finds maximum partitions. *)
let test_partition_maximal_on_single_link_failure () =
  let w = make_world ~n:4 () in
  Topology.set_link (World.topology w) 1 3 false;
  let r = Partition.run_active (World.kernel w 0) in
  (* 0 keeps either {0,1,2} or {0,2,3}: size 3, not 2. *)
  check Alcotest.int "maximum partition kept" 3 (List.length r.Partition.members);
  check Alcotest.bool "initiator included" true (List.mem 0 r.Partition.members)

let test_partition_single_site () =
  let w = make_world ~n:3 () in
  Topology.partition (World.topology w) [ [ 0 ]; [ 1; 2 ] ];
  let r = Partition.run_active (World.kernel w 0) in
  check Alcotest.(list int) "alone" [ 0 ] r.Partition.members

let test_partition_active_failover () =
  let w = make_world ~n:4 () in
  (* Site 1 believes site 0 is coordinating, but site 0 is dead. *)
  World.crash_site w 0;
  match Partition.check_active_and_takeover (World.kernel w 1) ~active:0 with
  | Some r ->
    check Alcotest.(list int) "takeover found survivors" [ 1; 2; 3 ] r.Partition.members
  | None -> Alcotest.fail "passive site should have taken over"

let test_partition_css_reelection () =
  let w = make_world ~n:4 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.creat k0 p0 "/r");
  Kernel.write_file k0 p0 "/r" "data";
  ignore (World.settle w);
  ignore (World.partition w [ [ 0 ]; [ 1; 2; 3 ] ]);
  (* The right-hand partition must have re-elected site 1 as CSS for fg 0
     and rebuilt its tables: opens keep working. *)
  let k1 = World.kernel w 1 in
  check Alcotest.int "new CSS" 1 (Locus_core.Ktypes.fg_info k1 0).K.css_site;
  let p2 = World.proc w 2 and k2 = World.kernel w 2 in
  check Alcotest.string "reads still served" "data" (Kernel.read_file k2 p2 "/r");
  Kernel.write_file k2 p2 "/r" "updated in right partition";
  ignore (World.settle w);
  check Alcotest.string "updates still served" "updated in right partition"
    (Kernel.read_file k2 p2 "/r")

(* ---- merge protocol (section 5.5) ---- *)

let test_merge_rejoins_all () =
  let w = make_world () in
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ] ]);
  Topology.heal (World.topology w);
  let r = Merge.run_initiator (World.kernel w 0) ~all_sites:(World.sites w) in
  check Alcotest.(list int) "all sites merged" [ 0; 1; 2; 3; 4; 5 ] r.Merge.members;
  List.iter
    (fun s ->
      check Alcotest.(list int)
        (Printf.sprintf "site %d table" s)
        [ 0; 1; 2; 3; 4; 5 ]
        (World.kernel w s).K.site_table)
    (World.sites w)

let test_merge_adaptive_timeout_cheaper () =
  (* A small partition of a large network merges quickly under the
     two-level timeout: when every site believed up has answered, only the
     short timeout applies to the (down) rest. *)
  let run policy =
    let w = make_world ~n:6 () in
    ignore (World.partition w [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]);
    (* Sites 3..5 stay down: believed down by everyone in {0,1,2}. *)
    List.iter (fun s -> World.crash_site w s) [ 3; 4; 5 ];
    let r = Merge.run_initiator ~policy (World.kernel w 0) ~all_sites:(World.sites w) in
    r.Merge.wait_charged
  in
  let fixed = run (Merge.Fixed_timeout 150.0) in
  let adaptive = run (Merge.Adaptive_timeout { long = 150.0; short = 15.0 }) in
  check Alcotest.bool "adaptive waits much less" true (adaptive *. 2.0 < fixed);
  check (Alcotest.float 0.01) "adaptive = short timeout" 15.0 adaptive

let test_merge_expected_site_missing_uses_long_timeout () =
  let w = make_world ~n:4 () in
  (* Site 3 crashes without anyone noticing: still believed up. *)
  World.crash_site w 3;
  let r =
    Merge.run_initiator
      ~policy:(Merge.Adaptive_timeout { long = 150.0; short = 15.0 })
      (World.kernel w 0) ~all_sites:(World.sites w)
  in
  check (Alcotest.float 0.01) "long timeout charged" 150.0 r.Merge.wait_charged;
  check Alcotest.(list int) "survivors merged" [ 0; 1; 2 ] r.Merge.members

(* The gateway optimization of the 5.5 footnote: in a large network, only
   sites vouched for by a gateway are polled individually. *)
let test_merge_gateway_optimization () =
  let w = make_world ~n:12 () in
  (* Sites 6..11 form a remote subnet behind gateway 6; the whole remote
     subnet except the gateway is down. Everyone still believes only their
     own partition up. *)
  ignore (World.partition w [ [ 0; 1; 2; 3; 4; 5 ]; [ 6; 7; 8; 9; 10; 11 ] ]);
  List.iter (fun s -> World.crash_site w s) [ 7; 8; 9; 10; 11 ];
  ignore (World.detect_failures w ~initiator:6);
  Topology.heal (World.topology w);
  List.iter (fun s -> Topology.set_site_up (World.topology w) s false)
    [ 7; 8; 9; 10; 11 ];
  let r =
    Merge.run_initiator ~gateways:[ 6 ] (World.kernel w 0)
      ~all_sites:(World.sites w)
  in
  (* The five dead subnet members were never polled: no gateway vouched. *)
  check Alcotest.int "skipped unvouched sites" 5 r.Merge.skipped;
  check Alcotest.(list int) "gateway + local partition merged"
    [ 0; 1; 2; 3; 4; 5; 6 ] r.Merge.members;
  check (Alcotest.float 0.01) "no timeout charged" 0.0 r.Merge.wait_charged

let test_merge_busy_arbitration () =
  let w = make_world ~n:3 () in
  (* Site 0 is already coordinating a merge; a poll from a higher site is
     refused, and the higher site yields. *)
  (World.kernel w 0).K.recon_stage <- 3;
  match Merge.run_initiator (World.kernel w 1) ~all_sites:(World.sites w) with
  | _ -> Alcotest.fail "higher-numbered initiator should yield"
  | exception Merge.Yield active -> check Alcotest.int "yields to lower site" 0 active

(* An open file stays readable across a partition that cuts one of its
   copies away (the open rode a lease, which the partition drops), and an
   update made in the majority reaches the isolated pack once the merge
   heals the split. *)
let test_partition_merge_open_file () =
  let base = World.default_config ~n_sites:5 () in
  let w =
    World.create
      ~config:
        {
          base with
          World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1; 2 ]; mount_path = None } ];
        }
      ()
  in
  let body tag =
    String.init (24 * Storage.Page.size) (fun i ->
        Char.chr (Char.code 'a' + (((i / Storage.Page.size) + tag) mod 26)))
  in
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  Kernel.set_ncopies p3 3;
  ignore (Kernel.creat k3 p3 "/big");
  let v1 = body 5 in
  Kernel.write_file k3 p3 "/big" v1;
  ignore (World.settle w);
  let k4 = World.kernel w 4 and p4 = World.proc w 4 in
  let o = Us.open_gf k4 (Kernel.resolve k4 p4 "/big") Proto.Mode_read in
  check Alcotest.bool "the isolated pack does not serve the open" false
    (Net.Site.equal o.K.o_ss 2);
  ignore (World.partition w [ [ 0; 1; 3; 4 ]; [ 2 ] ]);
  check Alcotest.string "read in partition" v1 (Us.read_all k4 o);
  Us.close k4 o;
  let v2 = body 9 in
  Kernel.write_file k4 p4 "/big" v2;
  ignore (World.settle w);
  ignore (World.heal_and_merge w);
  ignore (World.settle w);
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  check Alcotest.string "merge converged at the isolated pack" v2
    (Kernel.read_file k2 p2 "/big")

(* ---- cleanup procedure (section 5.6 table) ---- *)

let test_cleanup_reader_reopens_other_copy () =
  let w = make_world ~n:4 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/multi");
  Kernel.write_file k0 p0 "/multi" "replicated";
  ignore (World.settle w);
  (* Open for read at site 3 served by some SS; crash that SS. *)
  let k3 = World.kernel w 3 in
  let gf =
    Locus_core.Pathname.resolve_from k3 ~cwd:(Catalog.Mount.root k3.K.mount)
      ~context:[] "/multi"
  in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  let ss = o.K.o_ss in
  World.crash_site w ss;
  ignore (World.detect_failures w ~initiator:3);
  (* The system substituted another copy: the open still works. *)
  check Alcotest.bool "reopened elsewhere" false (Net.Site.equal o.K.o_ss ss);
  check Alcotest.bool "still open" false o.K.o_closed;
  let data, _ = Us.read_page k3 o 0 in
  check Alcotest.string "data intact" "replicated" (String.sub data 0 10);
  Us.close k3 o

(* The partition's active site installs the membership before it
   announces it. A read open at site 4 is served by site 0, the CSS, and
   a partition isolates site 0: the new CSS is in the majority, and when
   site 4's install reopens the file elsewhere (section 5.6) that CSS has
   already rebuilt its tables, so the open moves to a copy in the
   partition instead of being closed as lost. *)
let test_cleanup_reopen_finds_installed_css () =
  let base = World.default_config ~n_sites:5 () in
  let w =
    World.create
      ~config:
        {
          base with
          World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1; 2 ]; mount_path = None } ];
        }
      ()
  in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 3;
  ignore (Kernel.creat k0 p0 "/f");
  Kernel.write_file k0 p0 "/f" "three copies";
  ignore (World.settle w);
  let k4 = World.kernel w 4 in
  let gf =
    Locus_core.Pathname.resolve_from k4 ~cwd:(Catalog.Mount.root k4.K.mount)
      ~context:[] "/f"
  in
  let o = Us.open_gf k4 gf Proto.Mode_read in
  check Alcotest.int "served by the CSS" 0 o.K.o_ss;
  ignore (World.partition w [ [ 0 ]; [ 1; 2; 3; 4 ] ]);
  check Alcotest.int "no read open lost" 0
    (Sim.Stats.get (World.stats w) "cleanup.us.read_lost");
  check Alcotest.bool "still open" false o.K.o_closed;
  check Alcotest.bool "reopened at a copy in the partition" true
    (List.mem o.K.o_ss [ 1; 2 ]);
  let data, _ = Us.read_page k4 o 0 in
  check Alcotest.string "reads" "three copies" (String.sub data 0 12);
  Us.close k4 o

(* The merge's announcement reaches the new CSS sites first, as the
   partition's does. The filegroup's packs are at 1, 3 and 4, so site 1 is
   its CSS; a read open at site 2 is served by site 1, and site 1 crashes
   unseen until a merge from site 0. The merge makes site 3 the CSS: the
   announcement goes to 3 before 2, so when site 2's install reopens the
   file elsewhere (section 5.6) site 3 has already rebuilt its tables, and
   the open moves to a copy instead of being closed as lost. *)
let test_merge_reopen_finds_installed_css () =
  let base = World.default_config ~n_sites:5 () in
  let w =
    World.create
      ~config:
        {
          base with
          World.filegroups = [ { World.fg = 0; pack_sites = [ 1; 3; 4 ]; mount_path = None } ];
        }
      ()
  in
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  Kernel.set_ncopies p1 3;
  ignore (Kernel.creat k1 p1 "/f");
  Kernel.write_file k1 p1 "/f" "three copies";
  ignore (World.settle w);
  let k2 = World.kernel w 2 in
  let gf =
    Locus_core.Pathname.resolve_from k2 ~cwd:(Catalog.Mount.root k2.K.mount)
      ~context:[] "/f"
  in
  let o = Us.open_gf k2 gf Proto.Mode_read in
  check Alcotest.int "served by the CSS" 1 o.K.o_ss;
  let announced = ref [] in
  List.iter
    (fun site ->
      let k = World.kernel w site in
      let handle (type a) ~src (req : a Proto.req) : a =
        (match req with
        | Proto.Merge_announce _ -> announced := site :: !announced
        | _ -> ());
        Dispatch.handle k ~src req
      in
      K.Transport.set_handler (World.net w) site { handle })
    (World.sites w);
  World.crash_site w 1;
  let r = Merge.run_initiator (World.kernel w 0) ~all_sites:(World.sites w) in
  check Alcotest.(list int) "site 1 left" [ 0; 2; 3; 4 ] r.Merge.members;
  check Alcotest.(list int) "the new CSS is announced first" [ 3; 2; 4 ]
    (List.rev !announced);
  check Alcotest.int "no read open lost" 0
    (Sim.Stats.get (World.stats w) "cleanup.us.read_lost");
  check Alcotest.bool "still open" false o.K.o_closed;
  check Alcotest.bool "reopened at a copy of the merged partition" true
    (List.mem o.K.o_ss [ 3; 4 ]);
  let data, _ = Us.read_page k2 o 0 in
  check Alcotest.string "reads" "three copies" (String.sub data 0 12);
  Us.close k2 o

(* Many read opens at one site, all served by the SS that fails. Each
   reopen adds an entry to the site's open-file table and removes it
   again, and the table grows past 128 entries from its 64 initial
   buckets: at 128 opens the first reopen's entry grows it, at 256 it
   grows once more. Every open is reopened exactly once, elsewhere. *)
let test_cleanup_reopens_many_opens_once () =
  List.iter
    (fun n ->
      let w = make_world ~n:4 () in
      let k0 = World.kernel w 0 and p0 = World.proc w 0 in
      Kernel.set_ncopies p0 2;
      ignore (Kernel.creat k0 p0 "/multi");
      Kernel.write_file k0 p0 "/multi" "replicated";
      ignore (World.settle w);
      let k3 = World.kernel w 3 in
      let gf =
        Locus_core.Pathname.resolve_from k3 ~cwd:(Catalog.Mount.root k3.K.mount)
          ~context:[] "/multi"
      in
      let opens = List.init n (fun _ -> Us.open_gf k3 gf Proto.Mode_read) in
      let ss = (List.hd opens).K.o_ss in
      check Alcotest.bool "one SS serves every open" true
        (List.for_all (fun o -> Net.Site.equal o.K.o_ss ss) opens);
      check Alcotest.int "open-file entries" n (Hashtbl.length k3.K.open_files);
      let before = Sim.Stats.get (World.stats w) "cleanup.us.reopened" in
      World.crash_site w ss;
      ignore (World.detect_failures w ~initiator:3);
      let label what = Printf.sprintf "%d opens: %s" n what in
      check Alcotest.int (label "each reopened once") n
        (Sim.Stats.get (World.stats w) "cleanup.us.reopened" - before);
      check Alcotest.int (label "open-file entries") n (Hashtbl.length k3.K.open_files);
      check Alcotest.bool (label "all served elsewhere, still open") true
        (List.for_all
           (fun o -> (not o.K.o_closed) && not (Net.Site.equal o.K.o_ss ss))
           opens);
      List.iter (Us.close k3) opens)
    [ 128; 256 ]

let test_cleanup_writer_loses_update () =
  let w = make_world ~n:4 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  ignore (Kernel.creat k1 p1 "/only_at_1");
  Kernel.write_file k1 p1 "/only_at_1" "committed";
  ignore (World.settle w);
  ignore p0;
  let gf =
    Locus_core.Pathname.resolve_from k0 ~cwd:(Catalog.Mount.root k0.K.mount)
      ~context:[] "/only_at_1"
  in
  let o = Us.open_gf k0 gf Proto.Mode_modify in
  Us.write k0 o ~off:0 "uncommitted";
  World.crash_site w 1;
  ignore (World.detect_failures w ~initiator:0);
  (* Update open on a lost SS: pages discarded, error in the descriptor. *)
  check Alcotest.bool "descriptor errored" true o.K.o_closed;
  check Alcotest.bool "cleanup counted" true
    (Sim.Stats.get (World.stats w) "cleanup.us.update_lost" >= 1);
  (* After restart, the committed version survives (shadow pages). *)
  World.restart_site w 1;
  ignore (World.heal_and_merge w);
  check Alcotest.string "previous commit intact" "committed"
    (Kernel.read_file k1 p1 "/only_at_1")

let test_cleanup_ss_aborts_orphan_session () =
  let w = make_world ~n:3 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  ignore (Kernel.creat k0 p0 "/victim");
  Kernel.write_file k0 p0 "/victim" "stable";
  ignore (World.settle w);
  (* Site 1 opens for modification, writes, then site 1 dies. *)
  let k1 = World.kernel w 1 in
  let gf =
    Locus_core.Pathname.resolve_from k1 ~cwd:(Catalog.Mount.root k1.K.mount)
      ~context:[] "/victim"
  in
  let o = Us.open_gf k1 gf Proto.Mode_modify in
  Us.write k1 o ~off:0 "doomed";
  (* Push the write-behind run out so the SS has an open shadow session to
     orphan when the site dies. *)
  Us.flush_wb k1 o;
  World.crash_site w 1;
  ignore (World.detect_failures w ~initiator:0);
  check Alcotest.bool "ss aborted the session" true
    (Sim.Stats.get (World.stats w) "ss.orphan_abort" >= 1);
  (* The committed version is what remains. *)
  check Alcotest.string "old version intact" "stable" (Kernel.read_file k0 p0 "/victim")

(* Four sites, packs at 0 and 1 (CSS at 0). *)
let two_pack_world () =
  let base = World.default_config ~n_sites:4 () in
  World.create
    ~config:
      {
        base with
        World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1 ]; mount_path = None } ];
      }
    ()

(* A writer that crashes and is seen gone only by the next merge leaves
   its shadow session at its storage site: the merge runs the cleanup
   procedure too, so the next writer's session starts from the committed
   version. *)
let test_merge_cleans_departed_writer () =
  let w = two_pack_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/f");
  Kernel.write_file k0 p0 "/f" "v1";
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  let fd = Kernel.open_path k3 p3 "/f" Proto.Mode_modify in
  Kernel.write_fd k3 p3 fd "dirty";
  World.crash_site w 3;
  ignore (World.heal_and_merge w);
  let fd0 = Kernel.open_path k0 p0 "/f" Proto.Mode_modify in
  Kernel.write_fd k0 p0 fd0 "Z";
  Kernel.close_fd k0 p0 fd0;
  ignore (World.settle w);
  check Alcotest.string "dead writer's pages gone" "Z1" (Kernel.read_file k0 p0 "/f")

(* The same writer, flushed and then down for good, seen gone first by a
   merge: the merge runs the cleanup procedure for it, as a partition
   would, and its storage site aborts the session. *)
let test_merge_cleans_writer_that_stays_down () =
  let w = two_pack_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/f");
  Kernel.write_file k0 p0 "/f" "v1";
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let gf =
    Locus_core.Pathname.resolve_from k3 ~cwd:(Catalog.Mount.root k3.K.mount) ~context:[] "/f"
  in
  let o = Us.open_gf k3 gf Proto.Mode_modify in
  Us.write k3 o ~off:0 "dirty";
  Us.flush_wb k3 o;
  World.crash_site w 3;
  let r = Merge.run_initiator (World.kernel w 0) ~all_sites:(World.sites w) in
  check Alcotest.(list int) "site 3 left" [ 0; 1; 2 ] r.Merge.members;
  ignore (World.settle w);
  let fd0 = Kernel.open_path k0 p0 "/f" Proto.Mode_modify in
  Kernel.write_fd k0 p0 fd0 "Z";
  Kernel.close_fd k0 p0 fd0;
  ignore (World.settle w);
  check Alcotest.string "dead writer's pages gone" "Z1" (Kernel.read_file k0 p0 "/f")

(* A site that crashes mid-write at its own pack leaves the session's
   shadow pages allocated on disk and reachable from no inode. The heal
   that brings it back restarts it, and the restart scavenges them. *)
let test_heal_restarts_crashed_site () =
  let w = two_pack_world () in
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  Kernel.set_ncopies p1 1;
  ignore (Kernel.creat k1 p1 "/mine");
  Kernel.write_file k1 p1 "/mine" "committed";
  ignore (World.settle w);
  let o = Us.open_gf k1 (Kernel.resolve k1 p1 "/mine") Proto.Mode_modify in
  check Alcotest.bool "served by its own pack" true (Net.Site.equal o.K.o_ss 1);
  Us.write k1 o ~off:0 (String.make (4 * Storage.Page.size) 'x');
  Us.flush_wb k1 o;
  let pack = Hashtbl.find k1.K.packs 0 in
  check Alcotest.bool "shadow pages on disk" true (Storage.Pack.fsck pack <> []);
  World.crash_site w 1;
  ignore (World.heal_and_merge w);
  check Alcotest.bool "orphan pages reclaimed" true (Storage.Pack.fsck pack = []);
  check Alcotest.string "the commit survives" "committed"
    (Kernel.read_file (World.kernel w 0) (World.proc w 0) "/mine")

(* A partition that keeps no pack of a filegroup elects no CSS for it:
   its files are unreachable (ENET), not absent (ENOENT). *)
let test_partition_without_pack_answers_enet () =
  let base = World.default_config ~n_sites:4 () in
  let w =
    World.create
      ~config:
        {
          base with
          World.filegroups =
            [
              { World.fg = 0; pack_sites = [ 0; 1; 2; 3 ]; mount_path = None };
              { World.fg = 1; pack_sites = [ 2; 3 ]; mount_path = Some "/usr" };
              { World.fg = 2; pack_sites = [ 1 ]; mount_path = Some "/scratch" };
            ];
        }
      ()
  in
  World.mount_filegroups w;
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/scratch/only_on_1");
  Kernel.write_file k0 p0 "/scratch/only_on_1" "fg2";
  ignore (World.settle w);
  World.crash_site w 1;
  ignore (World.detect_failures w ~initiator:0);
  match Kernel.read_file k0 p0 "/scratch/only_on_1" with
  | _ -> Alcotest.fail "read of an unreachable filegroup succeeded"
  | exception K.Error (e, _) ->
    check Alcotest.string "unreachable" (Proto.errno_to_string Proto.Enet)
      (Proto.errno_to_string e)

(* The cleanup procedure ends a failed using site's serving registrations
   whole: no open and no incore slot stays behind at its storage site. *)
let test_site_failure_frees_slots () =
  let w = two_pack_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  let paths = List.init 10 (Printf.sprintf "/r%d") in
  List.iter
    (fun path ->
      ignore (Kernel.creat k0 p0 path);
      Kernel.write_file k0 p0 path path)
    paths;
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  List.iter
    (fun path ->
      let gf =
        Locus_core.Pathname.resolve_from k3 ~cwd:(Catalog.Mount.root k3.K.mount)
          ~context:[] path
      in
      ignore (Us.open_gf k3 gf Proto.Mode_read))
    paths;
  check Alcotest.int "SS 0 serves site 3" 10 (K.Gfile.Tbl.length k0.K.ss_opens);
  World.crash_site w 3;
  ignore (World.detect_failures w ~initiator:0);
  check Alcotest.int "no serving state" 0 (K.Gfile.Tbl.length k0.K.ss_opens)

(* ---- reconciliation (section 4) ---- *)

let conflict_world () =
  let w = make_world ~n:4 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.mkdir k0 p0 "/mail");
  (w, k0, p0)

let total f recon = List.fold_left (fun acc (_, r) -> acc + f r) 0 recon

let test_stale_copy_propagates_on_merge () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.creat k0 p0 "/doc");
  Kernel.write_file k0 p0 "/doc" "v1";
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  (* Update on the left only: the right side is merely stale. *)
  Kernel.write_file k0 p0 "/doc" "v2";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  check Alcotest.int "no conflicts" 0 (total (fun r -> r.Reconcile.conflicts_marked) recon);
  check Alcotest.bool "propagations scheduled" true
    (total (fun r -> r.Reconcile.propagations) recon >= 1);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  check Alcotest.string "right side caught up" "v2" (Kernel.read_file k3 p3 "/doc")

let test_mailbox_merge_on_partition () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/alice");
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  Kernel.mailbox_deliver k0 ~path:"/mail/alice" ~from:"bob" ~body:"left mail";
  Kernel.mailbox_deliver (World.kernel w 2) ~path:"/mail/alice" ~from:"carol"
    ~body:"right mail";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  check Alcotest.bool "mailbox merged automatically" true
    (total (fun r -> r.Reconcile.mail_merges) recon >= 1);
  check Alcotest.int "no conflicts" 0 (total (fun r -> r.Reconcile.conflicts_marked) recon);
  let msgs = Kernel.mailbox_read k0 p0 "/mail/alice" in
  check Alcotest.int "both messages present" 2 (List.length msgs)

(* A mailbox with mail on both sides of a [0; 1] | [2; 3] split, whose
   copies at [corrupt] are then overwritten with bytes that are no
   mailbox, every buffered copy dropped. *)
let diverged_mailbox ~corrupt =
  let w, k0, p0 = conflict_world () in
  let gf = Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/alice" in
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  Kernel.mailbox_deliver k0 ~path:"/mail/alice" ~from:"bob" ~body:"left mail";
  Kernel.mailbox_deliver (World.kernel w 2) ~path:"/mail/alice" ~from:"carol"
    ~body:"right mail";
  ignore (World.settle w);
  List.iter
    (fun site ->
      let k = World.kernel w site in
      let pack = Hashtbl.find k.K.packs gf.Catalog.Gfile.fg in
      (match Storage.Pack.page_addr pack (Storage.Pack.get_inode pack gf.Catalog.Gfile.ino) 0 with
      | Some addr ->
        Storage.Disk.write (Storage.Pack.disk pack) addr (Storage.Page.of_string "\255garbage")
      | None -> Alcotest.fail "mailbox has no first page");
      K.Ss_cache.clear k.K.ss_cache;
      K.Us_cache.clear k.K.us_cache)
    corrupt;
  (w, k0, p0, gf)

let mailbox_vvs w (gf : Catalog.Gfile.t) =
  List.map
    (fun site ->
      let pack = Hashtbl.find (World.kernel w site).K.packs gf.Catalog.Gfile.fg in
      Vv.Version_vector.to_string (Storage.Pack.get_inode pack gf.Catalog.Gfile.ino).Inode.vv)
    [ 0; 1; 2; 3 ]

let mail_undecodable w = Sim.Stats.get (World.stats w) "recon.mail.undecodable"

(* A mailbox copy that does not decode is left out of the merge and
   counted, and the mail of the copies that decode survives. *)
let test_mailbox_merge_skips_undecodable_copy () =
  let w, k0, p0, _ = diverged_mailbox ~corrupt:[ 2; 3 ] in
  let _, recon = World.heal_and_merge w in
  ignore (World.settle w);
  check Alcotest.bool "undecodable copy counted" true (mail_undecodable w >= 1);
  check Alcotest.int "no conflicts" 0 (total (fun r -> r.Reconcile.conflicts_marked) recon);
  let bodies = List.map (fun (m : Catalog.Mailbox.msg) -> m.Catalog.Mailbox.body)
      (Kernel.mailbox_read k0 p0 "/mail/alice") in
  check Alcotest.(list string) "the left mail survives" [ "left mail" ] bodies

(* No copy decodes: nothing is merged, so no version — least of all an
   empty mailbox — is committed, and the file is marked like an untyped
   conflict for its owner to resolve. *)
let test_mailbox_all_undecodable_marks_conflict () =
  let w, _, _, gf = diverged_mailbox ~corrupt:[ 0; 1; 2; 3 ] in
  let before = mailbox_vvs w gf in
  let _, recon = World.heal_and_merge w in
  check Alcotest.bool "undecodable copies counted" true (mail_undecodable w >= 2);
  check Alcotest.int "no mailbox merged" 0 (total (fun r -> r.Reconcile.mail_merges) recon);
  check Alcotest.bool "conflict marked" true
    (total (fun r -> r.Reconcile.conflicts_marked) recon >= 1);
  check Alcotest.(list string) "no version committed" before (mailbox_vvs w gf)

let test_delete_vs_update_saves_file () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.creat k0 p0 "/precious");
  Kernel.write_file k0 p0 "/precious" "original";
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  (* Left deletes; right modifies. The file wants to be saved (4.4). *)
  Kernel.unlink k0 p0 "/precious";
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  Kernel.write_file k2 p2 "/precious" "updated while deleted elsewhere";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  check Alcotest.bool "save counted" true
    (total (fun r -> r.Reconcile.saved_from_delete + r.Reconcile.deletes_undone) recon
     >= 1);
  check Alcotest.string "modified data saved" "updated while deleted elsewhere"
    (Kernel.read_file k2 p2 "/precious")

let test_name_conflict_renames_both () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/root");
  ignore (Kernel.mkdir k0 p0 "/dir");
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  (* The same fresh name bound to different files in each partition. *)
  ignore (Kernel.creat k0 p0 "/dir/report");
  Kernel.write_file k0 p0 "/dir/report" "left report";
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  ignore (Kernel.creat k2 p2 "/dir/report");
  Kernel.write_file k2 p2 "/dir/report" "right report";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  check Alcotest.bool "name conflict detected" true
    (total (fun r -> r.Reconcile.name_conflicts) recon >= 1);
  let entries =
    Kernel.readdir k0 p0 "/dir"
    |> List.map (fun (e : Catalog.Dir.entry) -> e.Catalog.Dir.name)
    |> List.filter (fun n -> String.length n >= 6 && String.sub n 0 6 = "report")
  in
  check Alcotest.int "both versions kept under altered names" 2 (List.length entries);
  (* The owner was notified by mail. *)
  check Alcotest.bool "owner notified" true
    (List.length (Kernel.mailbox_read k0 p0 "/mail/root") >= 1)

let test_untyped_conflict_marked_and_resolvable () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/root");
  ignore (Kernel.creat k0 p0 "/binary");
  Kernel.write_file k0 p0 "/binary" "base";
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  Kernel.write_file k0 p0 "/binary" "left";
  Kernel.write_file (World.kernel w 2) (World.proc w 2) "/binary" "right";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  check Alcotest.int "conflict marked" 1
    (total (fun r -> r.Reconcile.conflicts_marked) recon);
  check Alcotest.bool "owner mailed" true
    (total (fun r -> r.Reconcile.mails_sent) recon >= 1);
  (* Access fails until resolved. *)
  (match Kernel.read_file k0 p0 "/binary" with
  | _ -> Alcotest.fail "conflicted file should refuse access"
  | exception K.Error (Proto.Econflict, _) -> ());
  (* Interactive resolution keeps one version. *)
  let gf =
    Locus_core.Pathname.resolve_from k0 ~cwd:(Catalog.Mount.root k0.K.mount)
      ~context:[] "/binary"
  in
  check Alcotest.bool "resolution succeeds" true
    (Reconcile.resolve_manual (World.kernel w 0) gf ~winner:0);
  ignore (World.settle w);
  check Alcotest.string "winner readable" "left" (Kernel.read_file k0 p0 "/binary")

(* A database file written differently in two partitions, merged by a
   registered type manager after the heal: reconciliation reads both
   copies and writes the merged one in runs of at most a window of pages,
   as a propagation pull does. Returns the read and write requests the
   reconciling CSS (site 0) sent. Site 0's own copy is the stale base, so
   both copies it reads and the one it writes are remote. *)
let reconcile_requests ~window =
  let base = World.default_config ~n_sites:5 () in
  let config =
    { base with
      World.kernel_config = { base.World.kernel_config with K.bulk_window = window } }
  in
  let w = World.create ~config () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let body c = String.make (20 * Storage.Page.size) c in
  Kernel.set_ncopies p0 5;
  let gf = Kernel.creat ~ftype:Inode.Database k0 p0 "/db" in
  Kernel.write_file k0 p0 "/db" (body 'a');
  ignore (World.settle w);
  ignore (World.partition w [ [ 0 ]; [ 1; 2 ]; [ 3; 4 ] ]);
  Kernel.write_file (World.kernel w 1) (World.proc w 1) "/db" (body 'l');
  Kernel.write_file (World.kernel w 3) (World.proc w 3) "/db" (body 'r');
  ignore (World.settle w);
  (* No manager yet: the heal marks the conflict and reads no content. *)
  ignore (World.heal_and_merge w);
  let reads = ref 0 and writes = ref 0 in
  List.iter
    (fun site ->
      let k = World.kernel w site in
      let handle ~src req =
        if src = 0 then begin
          match Proto.tag_name req with
          | "read" -> incr reads
          | "write" -> incr writes
          | _ -> ()
        end;
        Dispatch.handle k ~src req
      in
      K.Transport.set_handler (World.net w) site { handle })
    [ 1; 2; 3; 4 ];
  Reconcile.register_merge_manager Inode.Database (List.fold_left max "");
  let report = Reconcile.empty_report () in
  Fun.protect
    ~finally:(fun () -> Reconcile.unregister_merge_manager Inode.Database)
    (fun () -> Reconcile.reconcile_file k0 gf report);
  check Alcotest.int "merged by the manager" 1 report.Reconcile.manager_merges;
  (!reads, !writes)

let test_reconcile_moves_windows () =
  check Alcotest.(pair int int) "window 8: 3 reads per copy, 3 writes" (6, 3)
    (reconcile_requests ~window:8);
  check Alcotest.(pair int int) "window 1: one request per page" (40, 20)
    (reconcile_requests ~window:1)

(* A copy that stops answering fails its read at the first failed
   request. Each failed request pays the transport's retries and backoff,
   so reading on after it would only multiply that cost. A reply with
   fewer pages than the copy's inode says it has fails the copy too,
   never passing for a short body. *)
let test_failed_copy_read_stops () =
  let w = make_world ~n:4 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  let body = String.make (16 * Storage.Page.size) 'b' in
  let gf = Kernel.creat k0 p0 "/big" in
  Kernel.write_file k0 p0 "/big" body;
  ignore (World.settle w);
  check Alcotest.(option string) "the copy reads whole" (Some body)
    (Reconcile.fetch_content k0 3 gf);
  Topology.set_link (World.topology w) 0 3 false;
  let snap = Sim.Stats.snapshot (World.stats w) in
  check Alcotest.(option string) "the copy fails" None (Reconcile.fetch_content k0 3 gf);
  check Alcotest.int "one failed request" 1
    (Sim.Stats.delta_of (World.stats w) snap "rpc.fail");
  let k2 = World.kernel w 2 and asked = ref 0 in
  let handle (type a) ~src (req : a Proto.req) : a =
    let resp = Dispatch.handle k2 ~src req in
    match req with
    | Proto.Read_pages _ -> (
      match resp with
      | { pages = _ :: rest; _ } ->
        incr asked;
        { resp with pages = rest }
      | _ -> resp)
    | _ -> resp
  in
  K.Transport.set_handler (World.net w) 2 { handle };
  check Alcotest.(option string) "a short reply fails the copy" None
    (Reconcile.fetch_content k0 2 gf);
  check Alcotest.int "no request after the short reply" 1 !asked

(* The whole reconfiguration: a partition protocol per group, then, once
   the network heals, merge and recovery. *)
let test_full_reconfigure_entry () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 6;
  ignore (Kernel.creat k0 p0 "/o");
  Kernel.write_file k0 p0 "/o" "v1";
  ignore (World.settle w);
  let reports = World.partition w [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] in
  check Alcotest.int "two partition reports" 2 (List.length reports);
  let m, _ = World.heal_and_merge w in
  check Alcotest.int "all merged" 6 (List.length m.Merge.members);
  check Alcotest.string "file intact" "v1" (Kernel.read_file k0 p0 "/o")

(* Hidden directories reconcile by the same rules as ordinary ones: load
   modules installed for different machine types in different partitions
   both survive the merge. *)
let test_hidden_directory_merge () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.mkdir ~hidden:true k0 p0 "/cmd");
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  ignore (Kernel.creat k0 p0 "/cmd/@vax");
  Kernel.write_file k0 p0 "/cmd/@vax" "vax module";
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  ignore (Kernel.creat k2 p2 "/cmd/@pdp11");
  Kernel.write_file k2 p2 "/cmd/@pdp11" "pdp11 module";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  check Alcotest.int "no conflicts" 0 (total (fun r -> r.Reconcile.conflicts_marked) recon);
  check Alcotest.string "vax entry merged" "vax module"
    (Kernel.read_file k2 p2 "/cmd/@vax");
  check Alcotest.string "pdp11 entry merged" "pdp11 module"
    (Kernel.read_file k0 p0 "/cmd/@pdp11")

(* Count the [Stat_req]s every site receives from here on. *)
let count_stats w =
  let stats = ref 0 in
  List.iter
    (fun site ->
      let k = World.kernel w site in
      let handle ~src req =
        if Proto.tag_name req = "stat" then incr stats;
        Dispatch.handle k ~src req
      in
      K.Transport.set_handler (World.net w) site { handle })
    (World.sites w);
  stats

(* Reconciliation takes each file's type from the pack inventories of the
   lock-table rebuild that runs just before it, so a heal asks no copy
   for its type: a dominated regular file and a diverged directory
   reconcile with no [Stat_req] anywhere. *)
let test_heal_sends_no_type_probe () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.creat k0 p0 "/doc");
  Kernel.write_file k0 p0 "/doc" "v1";
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  Kernel.write_file k0 p0 "/doc" "v2";
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  ignore (Kernel.creat k0 p0 "/mail/left");
  ignore (Kernel.creat k2 p2 "/mail/right");
  ignore (World.settle w);
  let stats = count_stats w in
  let _, recon = World.heal_and_merge w in
  check Alcotest.int "directory merged" 1 (total (fun r -> r.Reconcile.dir_merges) recon);
  check Alcotest.bool "stale file propagated" true
    (total (fun r -> r.Reconcile.propagations) recon >= 1);
  check Alcotest.int "no stat sent" 0 !stats;
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  check Alcotest.string "stale copy caught up" "v2" (Kernel.read_file k3 p3 "/doc");
  check Alcotest.(list string) "both entries" [ "."; ".."; "left"; "right" ]
    (List.sort String.compare
       (List.map (fun (e : Catalog.Dir.entry) -> e.Catalog.Dir.name) (Kernel.readdir k3 p3 "/mail")))

(* The CSS learns the type of a file it does not store from the pack
   inventories, not from its copies: a directory stored at sites 2 and 3
   only, with a dominated copy at 3, still goes through the directory
   merge, as rule 2b needs, rather than plain propagation, and no copy is
   asked its type. *)
let test_unstored_directory_merges_by_type () =
  let w = make_world ~n:4 () in
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  Kernel.set_ncopies p2 2;
  ignore (Kernel.mkdir k2 p2 "/d");
  ignore (World.settle w);
  ignore (World.heal_and_merge w);
  let gf =
    Locus_core.Pathname.resolve_from k2 ~cwd:(Catalog.Mount.root k2.K.mount) ~context:[] "/d"
  in
  let k0 = World.kernel w 0 in
  check Alcotest.bool "CSS 0 stores no copy" false
    (Storage.Pack.stores (Hashtbl.find k0.K.packs 0) gf.Catalog.Gfile.ino);
  ignore (World.partition w [ [ 0; 1; 2 ]; [ 3 ] ]);
  Kernel.set_ncopies p2 1;
  ignore (Kernel.creat k2 p2 "/d/x");
  ignore (World.settle w);
  let stats = count_stats w in
  let _, recon = World.heal_and_merge w in
  check Alcotest.int "no stat sent" 0 !stats;
  check Alcotest.int "directory merged" 1 (total (fun r -> r.Reconcile.dir_merges) recon);
  check Alcotest.int "nothing propagated as a plain file" 0
    (total (fun r -> r.Reconcile.propagations) recon);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  check Alcotest.(list string) "entry reached the dominated copy" [ "."; ".."; "x" ]
    (List.sort String.compare
       (List.map (fun (e : Catalog.Dir.entry) -> e.Catalog.Dir.name) (Kernel.readdir k3 p3 "/d")))

let test_demand_recovery_single_file () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.creat k0 p0 "/hot");
  Kernel.write_file k0 p0 "/hot" "v1";
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  Kernel.write_file k0 p0 "/hot" "v2-left";
  ignore (World.settle w);
  (* Heal and merge membership, but reconcile just the one file on demand. *)
  Topology.heal (World.topology w);
  let r = Merge.run_initiator (World.kernel w 0) ~all_sites:(World.sites w) in
  check Alcotest.int "merged" 6 (List.length r.Merge.members + 2);
  let gf =
    Locus_core.Pathname.resolve_from k0 ~cwd:(Catalog.Mount.root k0.K.mount)
      ~context:[] "/hot"
  in
  let report = Reconcile.empty_report () in
  Reconcile.reconcile_file (World.kernel w 0) gf report;
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  check Alcotest.string "demand-reconciled" "v2-left" (Kernel.read_file k3 p3 "/hot")

let () =
  Alcotest.run "recovery"
    [
      ( "partition-protocol",
        [
          Alcotest.test_case "membership agreement" `Quick
            test_partition_membership_agreement;
          Alcotest.test_case "maximal partitions" `Quick
            test_partition_maximal_on_single_link_failure;
          Alcotest.test_case "single site" `Quick test_partition_single_site;
          Alcotest.test_case "active failover" `Quick test_partition_active_failover;
          Alcotest.test_case "css re-election" `Quick test_partition_css_reelection;
        ] );
      ( "merge-protocol",
        [
          Alcotest.test_case "rejoins all" `Quick test_merge_rejoins_all;
          Alcotest.test_case "adaptive timeout" `Quick test_merge_adaptive_timeout_cheaper;
          Alcotest.test_case "long timeout for expected sites" `Quick
            test_merge_expected_site_missing_uses_long_timeout;
          Alcotest.test_case "busy arbitration" `Quick test_merge_busy_arbitration;
          Alcotest.test_case "gateway optimization" `Quick
            test_merge_gateway_optimization;
          Alcotest.test_case "partition + merge" `Quick test_partition_merge_open_file;
        ] );
      ( "cleanup",
        [
          Alcotest.test_case "reader reopens" `Quick test_cleanup_reader_reopens_other_copy;
          Alcotest.test_case "a reopen finds the new CSS installed" `Quick
            test_cleanup_reopen_finds_installed_css;
          Alcotest.test_case "a merge's reopen finds the new CSS installed" `Quick
            test_merge_reopen_finds_installed_css;
          Alcotest.test_case "many reader opens reopen once each" `Quick
            test_cleanup_reopens_many_opens_once;
          Alcotest.test_case "writer loses update" `Quick test_cleanup_writer_loses_update;
          Alcotest.test_case "ss aborts orphan" `Quick test_cleanup_ss_aborts_orphan_session;
          Alcotest.test_case "a merge cleans up a departed writer" `Quick
            test_merge_cleans_departed_writer;
          Alcotest.test_case "a merge cleans up a writer that stays down" `Quick
            test_merge_cleans_writer_that_stays_down;
          Alcotest.test_case "a partition with no pack holder answers ENET" `Quick
            test_partition_without_pack_answers_enet;
          Alcotest.test_case "site failure frees incore slots" `Quick
            test_site_failure_frees_slots;
          Alcotest.test_case "a heal restarts a crashed site" `Quick
            test_heal_restarts_crashed_site;
        ] );
      ( "reconciliation",
        [
          Alcotest.test_case "stale copy propagates" `Quick
            test_stale_copy_propagates_on_merge;
          Alcotest.test_case "mailbox merge" `Quick test_mailbox_merge_on_partition;
          Alcotest.test_case "undecodable mailbox left out" `Quick
            test_mailbox_merge_skips_undecodable_copy;
          Alcotest.test_case "no mailbox decodes: conflict" `Quick
            test_mailbox_all_undecodable_marks_conflict;
          Alcotest.test_case "delete vs update saves" `Quick
            test_delete_vs_update_saves_file;
          Alcotest.test_case "name conflict renames" `Quick test_name_conflict_renames_both;
          Alcotest.test_case "untyped conflict" `Quick
            test_untyped_conflict_marked_and_resolvable;
          Alcotest.test_case "demand recovery" `Quick test_demand_recovery_single_file;
          Alcotest.test_case "heal sends no type probe" `Quick test_heal_sends_no_type_probe;
          Alcotest.test_case "unstored directory merges by type" `Quick
            test_unstored_directory_merges_by_type;
          Alcotest.test_case "full reconfigure entry" `Quick test_full_reconfigure_entry;
          Alcotest.test_case "hidden directory merge" `Quick test_hidden_directory_merge;
          Alcotest.test_case "reconciliation moves windows" `Quick test_reconcile_moves_windows;
          Alcotest.test_case "failed copy read stops" `Quick test_failed_copy_read_stops;
        ] );
    ]
