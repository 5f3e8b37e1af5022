(* Exhaustive unit coverage of the directory reconciliation rules of
   section 4.4, driven directly through Recovery.Reconcile.merge_two_dirs
   on a live world (the rules interrogate inodes for the modified-since-
   delete decisions). *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module K = Locus_core.Ktypes
module Dir = Catalog.Dir
module Inode = Storage.Inode
module Reconcile = Recovery.Reconcile

let check = Alcotest.check

(* A world with one real file whose mtime we control, for rules 2b/2d. *)
let make_env () =
  let w = World.create ~config:(World.default_config ~n_sites:2 ()) () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/real");
  Kernel.write_file k0 p0 "/real" "data";
  ignore (World.settle w);
  let gf = Kernel.resolve k0 p0 "/real" in
  (w, k0, gf.Catalog.Gfile.ino)

let merge w a b =
  let k0 = World.kernel w 0 in
  let report = Reconcile.empty_report () in
  let merged = Reconcile.merge_two_dirs k0 0 a b report in
  (merged, report)

let dir ?(ftype = Inode.Regular) entries =
  let d = Dir.empty () in
  List.iter
    (fun (name, ino, stamp, dead) ->
      Dir.insert d ~name ~ino ~ftype ~stamp ~origin:0;
      if dead then ignore (Dir.remove d ~name ~stamp:(stamp +. 0.1) ~origin:0))
    entries;
  d

(* Rule 2a: entry in one directory only -> propagate. *)
let test_rule_2a_propagate_entry () =
  let w, _, ino = make_env () in
  let a = dir [ ("only_a", ino, 1.0, false) ] in
  let b = dir [] in
  let m, _ = merge w a b in
  check Alcotest.(option int) "propagated" (Some ino) (Dir.lookup m "only_a");
  (* Symmetric. *)
  let m2, _ = merge w b a in
  check Alcotest.(option int) "propagated (sym)" (Some ino) (Dir.lookup m2 "only_a")

(* Rule 2b: tombstone in one, absent in the other -> propagate the delete
   (the file was NOT modified since). *)
let test_rule_2b_propagate_delete () =
  let w, k0, ino = make_env () in
  let file_mtime =
    (Storage.Pack.get_inode (Hashtbl.find k0.K.packs 0) ino).Storage.Inode.mtime
  in
  let a = dir [ ("gone", ino, file_mtime +. 10.0, true) ] in
  let b = dir [] in
  let m, _ = merge w a b in
  check Alcotest.(option int) "still deleted" None (Dir.lookup m "gone");
  match Dir.find_entry m "gone" with
  | Some e -> check Alcotest.bool "tombstone kept" true (e.Dir.status = Dir.Tombstone)
  | None -> Alcotest.fail "tombstone lost"

(* Rule 2b exception: data modified since the delete -> undo the delete. *)
let test_rule_2b_undo_delete_if_modified () =
  let w, k0, ino = make_env () in
  (* Tombstone older than the file's last modification. *)
  let file_mtime =
    (Storage.Pack.get_inode (Hashtbl.find k0.K.packs 0) ino).Storage.Inode.mtime
  in
  let a = dir [ ("precious", ino, file_mtime -. 5.0, true) ] in
  let b = dir [] in
  let m, report = merge w a b in
  check Alcotest.(option int) "delete undone" (Some ino) (Dir.lookup m "precious");
  check Alcotest.bool "counted" true (report.Reconcile.deletes_undone >= 1)

(* Rule 2c: entry in both, neither deleted -> no action needed. *)
let test_rule_2c_both_live () =
  let w, _, ino = make_env () in
  let a = dir [ ("same", ino, 1.0, false) ] in
  let b = dir [ ("same", ino, 2.0, false) ] in
  let m, report = merge w a b in
  check Alcotest.(option int) "kept" (Some ino) (Dir.lookup m "same");
  check Alcotest.int "no conflicts" 0 report.Reconcile.name_conflicts

(* Rule 2d: live in one, tombstone in the other. Newest wins unless the
   inode was modified since the delete. *)
let test_rule_2d_delete_newer_propagates () =
  let w, k0, ino = make_env () in
  let file_mtime =
    (Storage.Pack.get_inode (Hashtbl.find k0.K.packs 0) ino).Storage.Inode.mtime
  in
  let a = dir [ ("f", ino, 1.0, false) ] in
  let b = dir [ ("f", ino, file_mtime +. 100.0, true) ] in
  let m, _ = merge w a b in
  check Alcotest.(option int) "delete wins" None (Dir.lookup m "f")

let test_rule_2d_modification_saves () =
  let w, k0, ino = make_env () in
  let file_mtime =
    (Storage.Pack.get_inode (Hashtbl.find k0.K.packs 0) ino).Storage.Inode.mtime
  in
  (* Tombstone precedes the modification; live entry even older. *)
  let a = dir [ ("f", ino, 0.5, false) ] in
  let b =
    let d = Dir.empty () in
    Dir.insert d ~name:"f" ~ino ~ftype:Inode.Regular ~stamp:0.5 ~origin:1;
    ignore (Dir.remove d ~name:"f" ~stamp:(file_mtime -. 1.0) ~origin:1);
    d
  in
  let m, report = merge w a b in
  check Alcotest.(option int) "file saved" (Some ino) (Dir.lookup m "f");
  check Alcotest.bool "undo counted" true (report.Reconcile.deletes_undone >= 1)

(* Rule 1: same name bound to different inodes, both live -> both names
   slightly altered, owners notified. *)
let test_rule_1_name_conflict () =
  let w, _, ino = make_env () in
  let a = dir [ ("clash", ino, 1.0, false) ] in
  let b = dir [ ("clash", ino + 1, 1.0, false) ] in
  let m, report = merge w a b in
  check Alcotest.(option int) "original name gone" None (Dir.lookup m "clash");
  check Alcotest.int "one name conflict" 1 report.Reconcile.name_conflicts;
  let live = Dir.live_entries m in
  check Alcotest.int "both versions kept" 2 (List.length live);
  List.iter
    (fun (e : Dir.entry) ->
      if not (String.length e.Dir.name > 5 && String.sub e.Dir.name 0 5 = "clash")
      then Alcotest.failf "altered name %s should derive from 'clash'" e.Dir.name)
    live

(* Every entry the merge writes keeps the type of the entry it came
   from: a kept entry, a propagated tombstone, and both names a conflict
   alters. *)
let test_types_survive_merge () =
  let w, _, ino = make_env () in
  let a = dir ~ftype:Inode.Directory [ ("clash", ino, 1.0, false); ("sub", ino, 1.0, false) ] in
  let b =
    dir ~ftype:Inode.Hidden_directory [ ("clash", ino + 1, 1.0, false); ("gone", ino, 0.5, true) ]
  in
  let m, _ = merge w a b in
  let type_of name =
    match Dir.find_entry m name with
    | Some e -> e.Dir.ftype
    | None -> Alcotest.failf "%s missing from the merge" name
  in
  check Alcotest.bool "kept entry" true (type_of "sub" = Inode.Directory);
  check Alcotest.bool "propagated tombstone" true (type_of "gone" = Inode.Hidden_directory);
  check Alcotest.bool "altered name, left" true
    (type_of (Dir.conflict_name "clash" ~ino) = Inode.Directory);
  check Alcotest.bool "altered name, right" true
    (type_of (Dir.conflict_name "clash" ~ino:(ino + 1)) = Inode.Hidden_directory)

(* Both tombstoned -> newest tombstone kept, still deleted. *)
let test_both_tombstones () =
  let w, _, ino = make_env () in
  let a = dir [ ("dead", ino, 1.0, true) ] in
  let b = dir [ ("dead", ino, 5.0, true) ] in
  let m, _ = merge w a b in
  check Alcotest.(option int) "still dead" None (Dir.lookup m "dead");
  match Dir.find_entry m "dead" with
  | Some e -> check (Alcotest.float 0.01) "newest stamp" 5.1 e.Dir.stamp
  | None -> Alcotest.fail "tombstone lost"

(* Hard links: two names for one inode in different partitions both
   survive (the link handling of 4.4). *)
let test_links_survive () =
  let w, _, ino = make_env () in
  let a = dir [ ("name1", ino, 1.0, false) ] in
  let b = dir [ ("name2", ino, 1.0, false) ] in
  let m, _ = merge w a b in
  check Alcotest.(option int) "name1" (Some ino) (Dir.lookup m "name1");
  check Alcotest.(option int) "name2" (Some ino) (Dir.lookup m "name2");
  check Alcotest.(list string) "both names bind the inode" [ "name1"; "name2" ]
    (Dir.names_of_ino m ino)

(* Merge is commutative on non-conflicting directories. *)
let test_merge_commutative () =
  let w, _, ino = make_env () in
  let a = dir [ ("x", ino, 1.0, false); ("y", ino + 5, 2.0, true) ] in
  let b = dir [ ("z", ino + 9, 3.0, false) ] in
  let m1, _ = merge w a b in
  let m2, _ = merge w b a in
  check Alcotest.bool "commutative" true (Dir.equal m1 m2)

(* Idempotence: merging a directory with itself is the identity. *)
let test_merge_idempotent () =
  let w, _, ino = make_env () in
  let a = dir [ ("x", ino, 1.0, false); ("y", ino + 5, 2.0, true) ] in
  let m, _ = merge w a a in
  check Alcotest.bool "idempotent" true (Dir.equal m a)

(* ---- copies that do not decode ---- *)

(* /d on all four sites, diverged across a [0; 1] | [2; 3] split: the left
   side entered "left", the right side "right". *)
let diverged_dir () =
  let w = World.create ~config:(World.default_config ~n_sites:4 ()) () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.mkdir k0 p0 "/mail");
  let gf = Kernel.mkdir k0 p0 "/d" in
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  ignore (Kernel.creat k0 p0 "/d/left");
  ignore (Kernel.creat (World.kernel w 2) (World.proc w 2) "/d/right");
  ignore (World.settle w);
  (w, gf)

(* Overwrite the first page of [site]'s copy of [gf] with bytes that are
   no record log, and drop every buffered copy of it. *)
let corrupt_copy w site (gf : Catalog.Gfile.t) =
  let k = World.kernel w site in
  let pack = Hashtbl.find k.K.packs gf.Catalog.Gfile.fg in
  (match Storage.Pack.page_addr pack (Storage.Pack.get_inode pack gf.Catalog.Gfile.ino) 0 with
  | Some addr ->
    Storage.Disk.write (Storage.Pack.disk pack) addr (Storage.Page.of_string "\255garbage")
  | None -> Alcotest.fail "directory has no first page");
  K.Ss_cache.clear k.K.ss_cache;
  K.Us_cache.clear k.K.us_cache;
  Locus_core.Namecache.clear k.K.name_cache

let dir_vv w site (gf : Catalog.Gfile.t) =
  let pack = Hashtbl.find (World.kernel w site).K.packs gf.Catalog.Gfile.fg in
  Vv.Version_vector.to_string (Storage.Pack.get_inode pack gf.Catalog.Gfile.ino).Storage.Inode.vv

let css_file w (gf : Catalog.Gfile.t) =
  let k0 = World.kernel w 0 in
  let css = World.kernel w (K.fg_info k0 gf.Catalog.Gfile.fg).K.css_site in
  match Locus_core.Css.find_file css gf.Catalog.Gfile.fg gf.Catalog.Gfile.ino with
  | Some f -> f
  | None -> Alcotest.fail "CSS has no record of the directory"

let undecodable w = Sim.Stats.get (World.stats w) "recon.dir.undecodable"

(* A garbage copy is left out of the merge, not merged as an empty
   directory: the entries of the copy that decodes survive. *)
let test_merge_skips_undecodable_copy () =
  let w, gf = diverged_dir () in
  List.iter (fun site -> corrupt_copy w site gf) [ 2; 3 ];
  ignore (World.heal_and_merge w);
  ignore (World.settle w);
  check Alcotest.bool "undecodable copy counted" true (undecodable w >= 1);
  check Alcotest.bool "no conflict marked" false (css_file w gf).K.css_conflict;
  List.iter
    (fun site ->
      let names =
        Kernel.readdir (World.kernel w site) (World.proc w site) "/d"
        |> List.map (fun (e : Dir.entry) -> e.Dir.name)
      in
      check Alcotest.bool (Printf.sprintf "site %d keeps left" site) true (List.mem "left" names))
    [ 0; 3 ]

(* No copy decodes: nothing to merge, so the directory is marked like an
   untyped conflict and no (empty) version is committed. *)
let test_all_copies_undecodable_marks_conflict () =
  let w, gf = diverged_dir () in
  List.iter (fun site -> corrupt_copy w site gf) [ 0; 1; 2; 3 ];
  let before = List.map (fun site -> dir_vv w site gf) [ 0; 1; 2; 3 ] in
  ignore (World.heal_and_merge w);
  check Alcotest.bool "undecodable copies counted" true (undecodable w >= 2);
  check Alcotest.bool "conflict marked" true (css_file w gf).K.css_conflict;
  check Alcotest.(list string) "no version committed" before
    (List.map (fun site -> dir_vv w site gf) [ 0; 1; 2; 3 ])

let () =
  Alcotest.run "dirmerge"
    [
      ( "rules",
        [
          Alcotest.test_case "2a propagate entry" `Quick test_rule_2a_propagate_entry;
          Alcotest.test_case "2b propagate delete" `Quick test_rule_2b_propagate_delete;
          Alcotest.test_case "2b undo if modified" `Quick test_rule_2b_undo_delete_if_modified;
          Alcotest.test_case "2c both live" `Quick test_rule_2c_both_live;
          Alcotest.test_case "2d delete newer" `Quick test_rule_2d_delete_newer_propagates;
          Alcotest.test_case "2d modification saves" `Quick test_rule_2d_modification_saves;
          Alcotest.test_case "1 name conflict" `Quick test_rule_1_name_conflict;
          Alcotest.test_case "tombstone vs tombstone" `Quick test_both_tombstones;
          Alcotest.test_case "links survive" `Quick test_links_survive;
          Alcotest.test_case "entry types survive" `Quick test_types_survive_merge;
        ] );
      ( "laws",
        [
          Alcotest.test_case "commutative" `Quick test_merge_commutative;
          Alcotest.test_case "idempotent" `Quick test_merge_idempotent;
        ] );
      ( "undecodable",
        [
          Alcotest.test_case "garbage copy left out" `Quick test_merge_skips_undecodable_copy;
          Alcotest.test_case "all garbage marks conflict" `Quick
            test_all_copies_undecodable_marks_conflict;
        ] );
    ]
