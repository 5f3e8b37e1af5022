(* File striping across storage sites (scale-out storage).

   A file whose latest version lives at several packs can be opened with a
   stripe map: logical page p is served by stripes.(p mod width). These
   tests pin the load-bearing properties: stripe_width = 1 (and any world
   where striping cannot engage) is byte-identical to the classic
   protocol; striped reads move the right bytes; a modify open is never
   striped; and failures degrade a striped open back to the classic
   single-SS protocol instead of failing it. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module K = Locus_core.Ktypes
module Us = Locus_core.Us
module Stats = Sim.Stats

let check = Alcotest.check

let page = 1024

(* Distinct, page-aligned content: page p of [body tag pages] is a run of
   one letter, so a misrouted stripe read shows up as a content diff. *)
let body tag pages =
  String.init (pages * page) (fun i ->
      Char.chr (Char.code 'a' + ((i / page) + tag) mod 26))

let make_world ?(n_sites = 5) ?(width = 3) ~packs () =
  let base = World.default_config ~n_sites () in
  let config =
    {
      base with
      World.kernel_config =
        { base.World.kernel_config with K.stripe_width = width };
      filegroups = [ { World.fg = 0; pack_sites = packs; mount_path = None } ];
    }
  in
  let w = World.create ~config () in
  World.mount_filegroups w;
  w

(* Replicate the file's latest version at every pack site so the CSS sees
   several latest-copy holders (the precondition for a stripe grant). *)
let seed_file w ~from ~path ~contents =
  let k = World.kernel w from and p = World.proc w from in
  Kernel.set_ncopies p 3;
  ignore (Kernel.creat k p path);
  Kernel.write_file k p path contents;
  ignore (World.settle w)

(* ---- ablation: the stripe machinery is free when it cannot engage ---- *)

(* With a single pack there is never more than one latest-copy holder, so
   no stripe map is ever granted; a width-4 world must then produce
   exactly the same message count and byte count as a width-1 world.
   Together with the width-1 guards in the CSS/US (stripe paths are never
   entered at width 1), this pins "stripe_width = 1 reproduces the classic
   protocol exactly" — the tier-1 message-count pins all run at width 1. *)
let run_classic_workload width =
  let w = make_world ~n_sites:4 ~width ~packs:[ 0 ] () in
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  ignore (Kernel.creat k2 p2 "/data");
  Kernel.write_file k2 p2 "/data" (body 1 8);
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  check Alcotest.string "workload content" (body 1 8)
    (Kernel.read_file k3 p3 "/data");
  Kernel.append_file k3 p3 "/data" "tail";
  ignore (World.settle w);
  let s = World.stats w in
  (Stats.get s "net.msg", Stats.get s "net.bytes")

let test_width_is_free_when_not_engaged () =
  let m1, b1 = run_classic_workload 1 in
  let m4, b4 = run_classic_workload 4 in
  check Alcotest.int "identical message count" m1 m4;
  check Alcotest.int "identical byte count" b1 b4;
  check Alcotest.bool "workload did use the network" true (m1 > 0)

(* ---- striped reads ---- *)

let test_striped_read () =
  let w = make_world ~packs:[ 0; 1; 2 ] () in
  let contents = body 3 24 in
  seed_file w ~from:3 ~path:"/big" ~contents;
  (* Site 4 stores no pack, so its open cannot be served locally and the
     CSS hands out a stripe map over the three latest-copy holders. *)
  let k4 = World.kernel w 4 and p4 = World.proc w 4 in
  let gf = Kernel.resolve k4 p4 "/big" in
  let o = Us.open_gf k4 gf Proto.Mode_read in
  check Alcotest.int "stripe map spans the latest holders" 3
    (List.length o.K.o_stripes);
  check Alcotest.bool "primary heads the map" true
    (K.Site.equal o.K.o_ss (List.hd o.K.o_stripes));
  let got = Us.read_all k4 o in
  Us.close k4 o;
  check Alcotest.string "striped read content" contents got;
  check Alcotest.bool "pages fetched via the stripe fan-out" true
    (Stats.get (World.stats w) "us.stripe.read" > 0)

(* ---- writers: one storage site per writer ---- *)

(* While a writer is active only one storage site may be involved
   (section 2.3.6 footnote), so a modify open gets no stripe map even
   where a read open would get one. The writer then reads its own bytes
   after a commit, other opens are served while it writes, and the commit
   reaches every copy. *)
let test_modify_never_striped () =
  let w = make_world ~packs:[ 0; 1; 2 ] () in
  seed_file w ~from:3 ~path:"/big" ~contents:(body 3 12);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  let gf = Kernel.resolve k3 p3 "/big" in
  let o = Us.open_gf k3 gf Proto.Mode_modify in
  check Alcotest.bool "no stripe map" true (o.K.o_stripes = []);
  let v2 = body 7 12 and patch = body 11 3 in
  Us.write k3 o ~off:0 v2;
  Us.commit k3 o;
  Us.write k3 o ~off:(5 * page) patch;
  let final = String.sub v2 0 (5 * page) ^ patch ^ String.sub v2 (8 * page) (4 * page) in
  check Alcotest.string "the writer reads its own bytes after a commit" final
    (Us.read_bytes k3 o ~off:0 ~len:(12 * page));
  (* A reader is served by the writer's SS meanwhile, and sees what the
     writer has pushed there. *)
  Us.flush_wb k3 o;
  let k4 = World.kernel w 4 in
  let r = Us.open_gf k4 gf Proto.Mode_read in
  check Alcotest.string "a read open while the writer is open" final (Us.read_all k4 r);
  Us.close k4 r;
  Us.close k3 o;
  ignore (World.settle w);
  List.iter
    (fun site ->
      let pack = Hashtbl.find (World.kernel w site).K.packs 0 in
      check Alcotest.string
        (Printf.sprintf "copy at pack %d" site)
        final
        (Storage.Pack.read_string pack (Storage.Pack.get_inode pack gf.Catalog.Gfile.ino)))
    [ 0; 1; 2 ]

(* ---- failure of a stripe peer degrades the open, mid-read ---- *)

let test_peer_crash_degrades_read () =
  let w = make_world ~packs:[ 0; 1; 2 ] () in
  let contents = body 5 64 in
  seed_file w ~from:3 ~path:"/big" ~contents;
  let k4 = World.kernel w 4 and p4 = World.proc w 4 in
  let gf = Kernel.resolve k4 p4 "/big" in
  let o = Us.open_gf k4 gf Proto.Mode_read in
  check Alcotest.int "striped" 3 (List.length o.K.o_stripes);
  (* Crash a stripe peer that is not the primary, without running failure
     detection: the US discovers the death mid-read, drops the map and
     retries through the classic single-SS protocol. *)
  let victim =
    List.find (fun st -> not (K.Site.equal st o.K.o_ss)) o.K.o_stripes
  in
  World.crash_site w victim;
  let got = Us.read_all k4 o in
  Us.close k4 o;
  check Alcotest.string "read survives peer crash" contents got;
  check Alcotest.bool "open degraded to classic" true
    (o.K.o_stripes = []);
  check Alcotest.bool "degrade counted" true
    (Stats.get (World.stats w) "us.stripe.degrade" > 0)

(* ---- partition and merge with a striped file ---- *)

let test_partition_merge_striped () =
  let w = make_world ~packs:[ 0; 1; 2 ] () in
  let v1 = body 5 24 in
  seed_file w ~from:3 ~path:"/big" ~contents:v1;
  let k4 = World.kernel w 4 and p4 = World.proc w 4 in
  let gf = Kernel.resolve k4 p4 "/big" in
  let o = Us.open_gf k4 gf Proto.Mode_read in
  check Alcotest.int "striped before partition" 3 (List.length o.K.o_stripes);
  (* Stripe holder 2 leaves; the partition sweep degrades or reopens the
     striped open, and the read still answers v1. *)
  ignore (World.partition w [ [ 0; 1; 3; 4 ]; [ 2 ] ]);
  let got = Us.read_all k4 o in
  Us.close k4 o;
  check Alcotest.string "read in partition" v1 got;
  (* Update in the majority partition, then merge. *)
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  let v2 = body 9 24 in
  Kernel.write_file k0 p0 "/big" v2;
  ignore (World.settle w);
  ignore (World.heal_and_merge w);
  ignore (World.settle w);
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  check Alcotest.string "merge converged at the isolated pack" v2
    (Kernel.read_file k2 p2 "/big");
  (* After the merge the holders are plural again: a fresh open from the
     packless site stripes once more. *)
  let s = World.stats w in
  let before = Stats.snapshot s in
  check Alcotest.string "fresh striped read after merge" v2
    (Kernel.read_file k4 p4 "/big");
  check Alcotest.bool "striping re-engaged" true
    (Stats.delta_of s before "us.stripe.read" > 0)

let () =
  Alcotest.run "stripe"
    [
      ( "ablation",
        [
          Alcotest.test_case "width flag free when not engaged" `Quick
            test_width_is_free_when_not_engaged;
        ] );
      ( "striped-io",
        [
          Alcotest.test_case "striped read" `Quick test_striped_read;
          Alcotest.test_case "a modify open is never striped" `Quick
            test_modify_never_striped;
        ] );
      ( "failure",
        [
          Alcotest.test_case "peer crash degrades read" `Quick
            test_peer_crash_degrades_read;
          Alcotest.test_case "partition + merge" `Quick
            test_partition_merge_striped;
        ] );
    ]
