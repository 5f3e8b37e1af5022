(* Edge cases across the kernel: offset I/O, pipes, rename corner cases,
   hidden directories as path intermediates, delayed inode reclamation,
   page-boundary reads, and nested mounts. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Us = Locus_core.Us
module K = Locus_core.Ktypes
module Page = Storage.Page
module Pack = Storage.Pack

let check = Alcotest.check

let make_world ?(n = 4) () = World.create ~config:(World.default_config ~n_sites:n ()) ()

(* ---- descriptor offset I/O ---- *)

let test_lseek_read_write () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/f");
  Kernel.write_file k0 p0 "/f" "0123456789";
  ignore (World.settle w);
  let fd = Kernel.open_path k0 p0 "/f" Proto.Mode_modify in
  Kernel.lseek k0 p0 fd 4;
  check Alcotest.string "read from offset" "456" (Kernel.read_fd k0 p0 fd ~len:3);
  Kernel.lseek k0 p0 fd 2;
  Kernel.write_fd k0 p0 fd "XY";
  Kernel.commit_fd k0 p0 fd;
  Kernel.close_fd k0 p0 fd;
  ignore (World.settle w);
  check Alcotest.string "patched at offset" "01XY456789" (Kernel.read_file k0 p0 "/f")

let test_read_past_eof () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/short");
  Kernel.write_file k0 p0 "/short" "abc";
  ignore (World.settle w);
  let fd = Kernel.open_path k0 p0 "/short" Proto.Mode_read in
  check Alcotest.string "short read" "abc" (Kernel.read_fd k0 p0 fd ~len:100);
  check Alcotest.string "at eof" "" (Kernel.read_fd k0 p0 fd ~len:10);
  Kernel.close_fd k0 p0 fd

let test_read_bytes_across_pages () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/big");
  let body = String.init (3 * Page.size) (fun i -> Char.chr (33 + (i mod 90))) in
  Kernel.write_file k0 p0 "/big" body;
  ignore (World.settle w);
  (* Read a range straddling two page boundaries, from a remote site. *)
  let k2 = World.kernel w 2 in
  let gf = Kernel.resolve k2 (World.proc w 2) "/big" in
  let o = Us.open_gf k2 gf Proto.Mode_read in
  let off = Page.size - 100 in
  let len = Page.size + 200 in
  check Alcotest.string "cross-page range" (String.sub body off len)
    (Us.read_bytes k2 o ~off ~len);
  Us.close k2 o

(* ---- pipes ---- *)

let test_pipe_partial_reads () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkfifo k0 p0 "/pipe");
  ignore (World.settle w);
  Kernel.pipe_write k0 p0 "/pipe" "hello world";
  check Alcotest.string "partial" "hello" (Kernel.pipe_read k0 p0 "/pipe" ~max:5);
  check Alcotest.string "rest" " world" (Kernel.pipe_read k0 p0 "/pipe" ~max:50);
  check Alcotest.string "empty" "" (Kernel.pipe_read k0 p0 "/pipe" ~max:50)

let test_pipe_on_regular_file_rejected () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/notapipe");
  ignore (World.settle w);
  match Kernel.pipe_write k0 p0 "/notapipe" "x" with
  | () -> Alcotest.fail "pipe write on a regular file should fail"
  | exception K.Error (Proto.Einval, _) -> ()

(* ---- rename corner cases ---- *)

let test_rename_same_directory () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/old_name");
  Kernel.write_file k0 p0 "/old_name" "data";
  ignore (World.settle w);
  Kernel.rename k0 p0 ~from_path:"/old_name" ~to_path:"/new_name";
  ignore (World.settle w);
  check Alcotest.string "renamed" "data" (Kernel.read_file k0 p0 "/new_name")

let test_rename_onto_existing_fails_and_restores () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/a");
  Kernel.write_file k0 p0 "/a" "A";
  ignore (Kernel.creat k0 p0 "/b");
  Kernel.write_file k0 p0 "/b" "B";
  ignore (World.settle w);
  (match Kernel.rename k0 p0 ~from_path:"/a" ~to_path:"/b" with
  | () -> Alcotest.fail "rename onto existing should fail"
  | exception K.Error (Proto.Eexist, _) -> ());
  ignore (World.settle w);
  (* The old name was put back. *)
  check Alcotest.string "source restored" "A" (Kernel.read_file k0 p0 "/a");
  check Alcotest.string "target untouched" "B" (Kernel.read_file k0 p0 "/b")

(* ---- hidden directory as a path intermediate ---- *)

let test_hidden_dir_with_subtrees () =
  let base = World.default_config ~n_sites:2 () in
  let w =
    World.create
      ~config:{ base with World.machine_type = (fun s -> if s = 0 then "vax" else "pdp11") }
      ()
  in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  (* /lib is hidden; each machine type has a whole subtree under it. *)
  ignore (Kernel.mkdir ~hidden:true k0 p0 "/lib");
  ignore (Kernel.mkdir k0 p0 "/lib/@vax");
  ignore (Kernel.creat k0 p0 "/lib/@vax/libc");
  Kernel.write_file k0 p0 "/lib/@vax/libc" "vax libc";
  ignore (Kernel.mkdir k0 p0 "/lib/@pdp11");
  ignore (Kernel.creat k0 p0 "/lib/@pdp11/libc");
  Kernel.write_file k0 p0 "/lib/@pdp11/libc" "pdp11 libc";
  ignore (World.settle w);
  (* "/lib/libc" resolves through the context without consuming "libc". *)
  check Alcotest.string "vax site" "vax libc" (Kernel.read_file k0 p0 "/lib/libc");
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  check Alcotest.string "pdp11 site" "pdp11 libc" (Kernel.read_file k1 p1 "/lib/libc");
  (* And the escape still reaches a specific machine's copy. *)
  check Alcotest.string "escaped" "pdp11 libc" (Kernel.read_file k0 p0 "/lib/@pdp11/libc")

(* ---- inode reclamation blocked by partition (2.3.7) ---- *)

let test_reclaim_waits_for_partitioned_site () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.creat k0 p0 "/doomed");
  Kernel.write_file k0 p0 "/doomed" "x";
  ignore (World.settle w);
  let gf = Kernel.resolve k0 p0 "/doomed" in
  (* Partition site 3 away, then delete on the majority side. *)
  ignore (World.partition w [ [ 0; 1; 2 ]; [ 3 ] ]);
  Kernel.unlink k0 p0 "/doomed";
  ignore (World.settle w);
  (* Site 3 still holds its copy: the inode number must NOT be reclaimed
     there (it has not seen the delete). *)
  let pack3 = Hashtbl.find (World.kernel w 3).K.packs 0 in
  check Alcotest.bool "survivor copy intact during partition" true
    (Pack.stores pack3 gf.Catalog.Gfile.ino);
  (* After the merge, the delete propagates and the inode is reclaimed
     everywhere. *)
  ignore (World.heal_and_merge w);
  ignore (World.settle w);
  List.iter
    (fun s ->
      let pack = Hashtbl.find (World.kernel w s).K.packs 0 in
      check Alcotest.bool
        (Printf.sprintf "reclaimed at %d" s)
        false
        (Pack.stores pack gf.Catalog.Gfile.ino))
    [ 0; 1; 2; 3 ]

(* The partition moves the filegroup's CSS away from site 0: the new CSS
   knows only the members' copies, yet site 0's pack still stores the
   inode, so the delete must not reclaim it until site 0 has seen it. *)
let test_reclaim_waits_under_new_css () =
  let w = make_world () in
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  Kernel.set_ncopies p1 4;
  ignore (Kernel.creat k1 p1 "/doomed");
  Kernel.write_file k1 p1 "/doomed" "x";
  ignore (World.settle w);
  let gf = Kernel.resolve k1 p1 "/doomed" in
  check Alcotest.int "CSS starts at site 0" 0 (K.fg_info k1 0).K.css_site;
  ignore (World.partition w [ [ 1; 2; 3 ]; [ 0 ] ]);
  Kernel.unlink k1 p1 "/doomed";
  ignore (World.settle w);
  ignore (World.heal_and_merge w);
  ignore (World.settle w);
  List.iter
    (fun s ->
      let pack = Hashtbl.find (World.kernel w s).K.packs 0 in
      check Alcotest.bool
        (Printf.sprintf "reclaimed at %d" s)
        false
        (Pack.stores pack gf.Catalog.Gfile.ino))
    [ 0; 1; 2; 3 ]

(* A file whose only copy left with the partition is unavailable, not
   missing, whether the CSS stays (it rebuilds from the members) or
   moves. *)
let test_departed_copy_is_enet () =
  List.iter
    (fun split ->
      let w = make_world () in
      let k1 = World.kernel w 1 and p1 = World.proc w 1 in
      Kernel.set_ncopies p1 1;
      ignore (Kernel.creat k1 p1 "/lone");
      Kernel.write_file k1 p1 "/lone" "x";
      ignore (World.settle w);
      ignore (World.partition w split);
      let k2 = World.kernel w 2 and p2 = World.proc w 2 in
      match Kernel.read_file k2 p2 "/lone" with
      | _ -> Alcotest.fail "read a copy outside the partition"
      | exception K.Error (e, _) ->
        check Alcotest.bool "ENET" true (e = Proto.Enet))
    [ [ [ 0; 2; 3 ]; [ 1 ] ]; [ [ 2; 3 ]; [ 0; 1 ] ] ]

(* ---- nested mounts ---- *)

let test_nested_mount_points () =
  let base = World.default_config ~n_sites:3 () in
  let config =
    { base with
      World.filegroups =
        [
          { World.fg = 0; pack_sites = [ 0; 1; 2 ]; mount_path = None };
          { World.fg = 1; pack_sites = [ 1 ]; mount_path = Some "/a" };
          { World.fg = 2; pack_sites = [ 2 ]; mount_path = Some "/a/b" };
        ]
    }
  in
  let w = World.create ~config () in
  World.mount_filegroups w;
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/a/b/leaf");
  Kernel.write_file k0 p0 "/a/b/leaf" "two mounts deep";
  ignore (World.settle w);
  let gf = Kernel.resolve k0 p0 "/a/b/leaf" in
  check Alcotest.int "innermost filegroup" 2 gf.Catalog.Gfile.fg;
  check Alcotest.string "readable" "two mounts deep" (Kernel.read_file k0 p0 "/a/b/leaf");
  (* ".." climbs back through both boundaries. *)
  Kernel.chdir k0 p0 "/a/b";
  ignore (Kernel.creat k0 p0 "/marker");
  ignore (World.settle w);
  check Alcotest.bool "double dotdot reaches root" true
    (Catalog.Gfile.equal (Kernel.resolve k0 p0 "../..") (Catalog.Mount.root k0.K.mount))

(* ---- concurrent opens bookkeeping ---- *)

let test_many_opens_same_file () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/popular");
  Kernel.write_file k0 p0 "/popular" "p";
  ignore (World.settle w);
  let fds = List.init 10 (fun _ -> Kernel.open_path k0 p0 "/popular" Proto.Mode_read) in
  List.iter (fun fd -> ignore (Kernel.read_fd k0 p0 fd ~len:1)) fds;
  List.iter (fun fd -> Kernel.close_fd k0 p0 fd) fds;
  ignore (World.settle w);
  (* All CSS reader counts drained — except the one cold open the retained
     read lease legitimately keeps registered (its close is deferred). *)
  let ino = (Kernel.resolve k0 p0 "/popular").Catalog.Gfile.ino in
  (match Locus_core.Css.find_file k0 0 ino with
  | Some f -> check Alcotest.int "one retained reader" 1 (K.Site.Map.cardinal f.K.readers)
  | None -> Alcotest.fail "css record missing");
  (* And a writer can open immediately: its open breaks the lease, whose
     deferred close drains the last reader registration. *)
  let fd = Kernel.open_path k0 p0 "/popular" Proto.Mode_modify in
  Kernel.close_fd k0 p0 fd;
  ignore (World.settle w);
  match Locus_core.Css.find_file k0 0 ino with
  | Some f -> check Alcotest.int "no leaked readers" 0 (K.Site.Map.cardinal f.K.readers)
  | None -> Alcotest.fail "css record missing"

let () =
  Alcotest.run "edge"
    [
      ( "fd-io",
        [
          Alcotest.test_case "lseek read/write" `Quick test_lseek_read_write;
          Alcotest.test_case "read past eof" `Quick test_read_past_eof;
          Alcotest.test_case "cross-page range" `Quick test_read_bytes_across_pages;
        ] );
      ( "pipes",
        [
          Alcotest.test_case "partial reads" `Quick test_pipe_partial_reads;
          Alcotest.test_case "regular file rejected" `Quick
            test_pipe_on_regular_file_rejected;
        ] );
      ( "rename",
        [
          Alcotest.test_case "same directory" `Quick test_rename_same_directory;
          Alcotest.test_case "onto existing restores" `Quick
            test_rename_onto_existing_fails_and_restores;
        ] );
      ( "hidden-subtrees",
        [ Alcotest.test_case "machine-specific subtrees" `Quick test_hidden_dir_with_subtrees ] );
      ( "reclaim",
        [ Alcotest.test_case "waits for partitioned site" `Quick
            test_reclaim_waits_for_partitioned_site;
          Alcotest.test_case "a CSS elected in a partition waits" `Quick
            test_reclaim_waits_under_new_css ] );
      ( "availability",
        [ Alcotest.test_case "a departed copy is ENET" `Quick
            test_departed_copy_is_enet ] );
      ( "mounts",
        [ Alcotest.test_case "nested mount points" `Quick test_nested_mount_points ] );
      ( "bookkeeping",
        [ Alcotest.test_case "many opens drained" `Quick test_many_opens_same_file ] );
    ]
