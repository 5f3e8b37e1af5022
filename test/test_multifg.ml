(* Multiple logical filegroups glued by the mount table (section 2.1):
   cross-boundary pathname traversal, per-filegroup CSS, replication and
   recovery within each filegroup. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module K = Locus_core.Ktypes
module Topology = Net.Topology

let check = Alcotest.check

let make_world () =
  let base = World.default_config ~n_sites:4 () in
  let config =
    { base with
      World.filegroups =
        [
          { World.fg = 0; pack_sites = [ 0; 1; 2; 3 ]; mount_path = None };
          { World.fg = 1; pack_sites = [ 2; 3 ]; mount_path = Some "/usr" };
          { World.fg = 2; pack_sites = [ 1 ]; mount_path = Some "/scratch" };
        ]
    }
  in
  let w = World.create ~config () in
  World.mount_filegroups w;
  w

let test_cross_fg_paths () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/usr/readme");
  Kernel.write_file k0 p0 "/usr/readme" "fg1";
  ignore (Kernel.mkdir k0 p0 "/usr/sub");
  ignore (Kernel.creat k0 p0 "/usr/sub/deep");
  Kernel.write_file k0 p0 "/usr/sub/deep" "deep";
  ignore (Kernel.creat k0 p0 "/scratch/tmp");
  Kernel.write_file k0 p0 "/scratch/tmp" "fg2";
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  check Alcotest.string "fg1 file" "fg1" (Kernel.read_file k3 p3 "/usr/readme");
  check Alcotest.string "fg1 nested" "deep" (Kernel.read_file k3 p3 "/usr/sub/deep");
  check Alcotest.string "fg2 file" "fg2" (Kernel.read_file k3 p3 "/scratch/tmp")

let test_gfile_filegroups () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/usr/x");
  ignore (Kernel.creat k0 p0 "/rootfile");
  ignore (World.settle w);
  let gx = Kernel.resolve k0 p0 "/usr/x" in
  let gr = Kernel.resolve k0 p0 "/rootfile" in
  check Alcotest.int "in fg 1" 1 gx.Catalog.Gfile.fg;
  check Alcotest.int "in fg 0" 0 gr.Catalog.Gfile.fg

let test_dotdot_crosses_mount () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/usr/sub");
  ignore (Kernel.creat k0 p0 "/scratch/target");
  Kernel.write_file k0 p0 "/scratch/target" "found";
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  Kernel.chdir k3 p3 "/usr/sub";
  check Alcotest.string "relative cross-fg path" "found"
    (Kernel.read_file k3 p3 "../../scratch/target");
  (* "/usr/.." is "/". *)
  check Alcotest.bool "mount root dotdot" true
    (Catalog.Gfile.equal
       (Kernel.resolve k3 p3 "/usr/..")
       (Catalog.Mount.root k3.K.mount))

let test_no_cross_fg_links () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/usr/orig");
  ignore (World.settle w);
  match Kernel.link k0 p0 ~target:"/usr/orig" ~path:"/alias" with
  | () -> Alcotest.fail "cross-filegroup hard link should fail"
  | exception K.Error (Proto.Einval, _) -> ()

let test_per_fg_css () =
  let w = make_world () in
  let k0 = World.kernel w 0 in
  check Alcotest.int "fg0 css" 0 (K.fg_info k0 0).K.css_site;
  check Alcotest.int "fg1 css = placed pack holder" 3 (K.fg_info k0 1).K.css_site;
  check Alcotest.int "fg2 css" 1 (K.fg_info k0 2).K.css_site

(* The placement function must spread CSS roles: filegroups sharing the
   same candidate set land on different sites, deterministically. *)
let test_css_placement_spreads () =
  let candidates = [ 4; 7; 9; 12 ] in
  let placed =
    List.init 16 (fun fg ->
        match K.place_css ~fg candidates with
        | Some s -> s
        | None -> Alcotest.fail "no placement")
  in
  List.iter
    (fun s -> check Alcotest.bool "placed on a candidate" true (List.mem s candidates))
    placed;
  let distinct = List.sort_uniq Int.compare placed in
  check Alcotest.bool "roles spread over several sites" true (List.length distinct >= 3);
  (* Deterministic: replicated state computed identically everywhere. *)
  List.iteri
    (fun fg s ->
      check Alcotest.(option int) "stable" (Some s) (K.place_css ~fg candidates))
    placed;
  (* Filegroup 0 keeps the classic seat (the lowest candidate), so existing
     single-filegroup worlds are unchanged. *)
  check Alcotest.(option int) "fg0 classic seat" (Some 4) (K.place_css ~fg:0 candidates)

let test_fg_availability_is_independent () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/scratch/only_on_1");
  Kernel.write_file k0 p0 "/scratch/only_on_1" "x";
  ignore (Kernel.creat k0 p0 "/usr/on_2_3");
  Kernel.write_file k0 p0 "/usr/on_2_3" "y";
  ignore (World.settle w);
  (* Crash site 1 (the only pack of fg 2): fg 2 is gone, fg 1 unaffected. *)
  World.crash_site w 1;
  ignore (World.detect_failures w ~initiator:0);
  (match Kernel.read_file k0 p0 "/scratch/only_on_1" with
  | _ -> Alcotest.fail "fg2 should be unavailable"
  | exception K.Error _ -> ());
  check Alcotest.string "fg1 still fine" "y" (Kernel.read_file k0 p0 "/usr/on_2_3")

let test_partition_and_merge_multifg () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/usr/doc");
  Kernel.write_file k0 p0 "/usr/doc" "v1";
  ignore (World.settle w);
  (* Partition so that both fg-1 packs (sites 2,3) are on one side. *)
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  Kernel.write_file k2 p2 "/usr/doc" "v2 from the pack side";
  ignore (World.settle w);
  let _, _recon = World.heal_and_merge w in
  check Alcotest.string "update visible across the mount" "v2 from the pack side"
    (Kernel.read_file k0 p0 "/usr/doc");
  ignore (Topology.fully_connected (World.topology w) (World.sites w))

let () =
  Alcotest.run "multifg"
    [
      ( "mounts",
        [
          Alcotest.test_case "cross-fg paths" `Quick test_cross_fg_paths;
          Alcotest.test_case "gfile filegroups" `Quick test_gfile_filegroups;
          Alcotest.test_case "dotdot crosses mount" `Quick test_dotdot_crosses_mount;
          Alcotest.test_case "no cross-fg links" `Quick test_no_cross_fg_links;
        ] );
      ( "per-fg-roles",
        [
          Alcotest.test_case "css per filegroup" `Quick test_per_fg_css;
          Alcotest.test_case "placement spreads" `Quick test_css_placement_spreads;
          Alcotest.test_case "independent availability" `Quick
            test_fg_availability_is_independent;
          Alcotest.test_case "partition+merge" `Quick test_partition_and_merge_multifg;
        ] );
    ]
