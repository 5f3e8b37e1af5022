(* Unit tests of the Current Synchronization Site logic (section 2.3.1):
   synchronization policy, storage-site selection, version bookkeeping,
   reclamation, and lock-table scrubbing. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Css = Locus_core.Css
module Us = Locus_core.Us
module K = Locus_core.Ktypes
module Vvec = Vv.Version_vector
module Site = Net.Site

let check = Alcotest.check

let make_world ?(n = 4) () = World.create ~config:(World.default_config ~n_sites:n ()) ()

let setup_file ?(ncopies = 4) w path body =
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 ncopies;
  ignore (Kernel.creat k0 p0 path);
  Kernel.write_file k0 p0 path body;
  ignore (World.settle w);
  Kernel.resolve k0 p0 path

let test_open_deleted_file_refused () =
  let w = make_world () in
  let gf = setup_file w "/f" "x" in
  let k0 = World.kernel w 0 in
  let f = Css.get_file k0 0 gf.Catalog.Gfile.ino in
  f.K.css_deleted <- true;
  match Css.handle_open k0 ~src:1 gf Proto.Mode_read ~shared:false None with
  | Proto.R_err Proto.Enoent -> ()
  | _ -> Alcotest.fail "deleted file should refuse opens"

let test_conflicted_file_internal_only () =
  let w = make_world () in
  let gf = setup_file w "/f" "x" in
  let k0 = World.kernel w 0 in
  Css.mark_conflict k0 gf;
  (match Css.handle_open k0 ~src:1 gf Proto.Mode_read ~shared:false None with
  | Proto.R_err Proto.Econflict -> ()
  | _ -> Alcotest.fail "conflicted file should refuse normal opens");
  (* Internal (pathname-search) opens still work: directories above a
     conflicted file must stay traversable. *)
  (match Css.handle_open k0 ~src:1 gf Proto.Mode_internal ~shared:false None with
  | Proto.R_open _ -> ()
  | _ -> Alcotest.fail "internal open should pass");
  Css.clear_conflict k0 gf

let test_writer_bookkeeping () =
  let w = make_world () in
  let gf = setup_file w "/f" "x" in
  let k0 = World.kernel w 0 in
  let f = Css.get_file k0 0 gf.Catalog.Gfile.ino in
  (match Css.handle_open k0 ~src:2 gf Proto.Mode_modify ~shared:false None with
  | Proto.R_open _ -> ()
  | _ -> Alcotest.fail "first writer should open");
  check Alcotest.(option int) "writer recorded" (Some 2) f.K.writer;
  check Alcotest.bool "writer_ss set" true (f.K.writer_ss <> None);
  (* Close clears it. *)
  (match Css.handle_ss_close k0 gf ~us:2 ~mode:Proto.Mode_modify ~grant:0 with
  | Proto.R_ok -> ()
  | _ -> Alcotest.fail "close failed");
  check Alcotest.(option int) "writer cleared" None f.K.writer

let test_readers_counted_per_site () =
  let w = make_world () in
  let gf = setup_file w "/f" "x" in
  let k0 = World.kernel w 0 in
  let f = Css.get_file k0 0 gf.Catalog.Gfile.ino in
  ignore (Css.handle_open k0 ~src:2 gf Proto.Mode_read ~shared:false None);
  ignore (Css.handle_open k0 ~src:2 gf Proto.Mode_read ~shared:false None);
  ignore (Css.handle_open k0 ~src:3 gf Proto.Mode_read ~shared:false None);
  check Alcotest.(option int) "site 2 count" (Some 2) (Site.Map.find_opt 2 f.K.readers);
  check Alcotest.(option int) "site 3 count" (Some 1) (Site.Map.find_opt 3 f.K.readers);
  ignore (Css.handle_ss_close k0 gf ~us:2 ~mode:Proto.Mode_read ~grant:0);
  check Alcotest.(option int) "decremented" (Some 1) (Site.Map.find_opt 2 f.K.readers)

let test_sites_with_latest_excludes_stale_and_unreachable () =
  let w = make_world () in
  let gf = setup_file w "/f" "x" in
  let k0 = World.kernel w 0 in
  let f = Css.get_file k0 0 gf.Catalog.Gfile.ino in
  (* Forge: site 3 stale, site 2 unreachable. *)
  f.K.site_vv <- Site.Map.add 3 Vvec.zero f.K.site_vv;
  K.set_sites k0 [ 0; 1; 3 ];
  let latest = Css.sites_with_latest k0 f in
  check Alcotest.bool "stale excluded" false (List.mem 3 latest);
  check Alcotest.bool "unreachable excluded" false (List.mem 2 latest);
  check Alcotest.bool "current reachable included" true (List.mem 0 latest);
  K.set_sites k0 [ 0; 1; 2; 3 ]

let test_update_site_vv_monotone () =
  let w = make_world () in
  let gf = setup_file w "/f" "base" in
  let k0 = World.kernel w 0 in
  let f = Css.get_file k0 0 gf.Catalog.Gfile.ino in
  let v_new = Vvec.get f.K.latest_vv 0 in
  (* A late, stale notification must not regress the per-site record. *)
  Css.handle_commit_notify k0 gf ~origin:0 ~vv:(Vvec.of_list [ (0, 1) ]) ~deleted:false;
  check Alcotest.int "record kept newest" v_new
    (Vvec.get (Site.Map.find 0 f.K.site_vv) 0)

let test_where_distinguishes_latest_from_all () =
  let w = make_world () in
  let gf = setup_file w "/f" "x" in
  let k0 = World.kernel w 0 in
  let f = Css.get_file k0 0 gf.Catalog.Gfile.ino in
  f.K.site_vv <- Site.Map.add 3 Vvec.zero f.K.site_vv;
  match Css.handle_where k0 gf ~stat:false with
  | Proto.R_where { sites; info = _ } ->
    check Alcotest.bool "stale not in latest" false (List.mem 3 sites)
  | _ -> Alcotest.fail "expected where response"

let test_register_open_rebuild () =
  let w = make_world () in
  let gf = setup_file w "/f" "x" in
  let k0 = World.kernel w 0 in
  Css.register_open k0 0 (gf.Catalog.Gfile.ino, Proto.Mode_modify, 3);
  Css.register_open k0 0 (gf.Catalog.Gfile.ino, Proto.Mode_read, 1);
  let f = Css.get_file k0 0 gf.Catalog.Gfile.ino in
  check Alcotest.(option int) "writer rebuilt" (Some 3) f.K.writer;
  check Alcotest.(option int) "reader rebuilt" (Some 1) (Site.Map.find_opt 1 f.K.readers)

let test_shared_open_bypasses_single_writer () =
  let w = make_world () in
  let gf = setup_file w "/f" "x" in
  let k0 = World.kernel w 0 in
  ignore (Css.handle_open k0 ~src:1 gf Proto.Mode_modify ~shared:false None);
  (match Css.handle_open k0 ~src:2 gf Proto.Mode_modify ~shared:false None with
  | Proto.R_err Proto.Ebusy -> ()
  | _ -> Alcotest.fail "second writer should be busy");
  match Css.handle_open k0 ~src:2 gf Proto.Mode_modify ~shared:true None with
  | Proto.R_open { nocache = true; _ } -> ()
  | Proto.R_open _ -> Alcotest.fail "shared second writer must disable caching"
  | _ -> Alcotest.fail "shared open should be admitted"

let () =
  Alcotest.run "css"
    [
      ( "policy",
        [
          Alcotest.test_case "deleted refused" `Quick test_open_deleted_file_refused;
          Alcotest.test_case "conflict internal-only" `Quick
            test_conflicted_file_internal_only;
          Alcotest.test_case "writer bookkeeping" `Quick test_writer_bookkeeping;
          Alcotest.test_case "readers per site" `Quick test_readers_counted_per_site;
          Alcotest.test_case "shared open bypass" `Quick
            test_shared_open_bypasses_single_writer;
        ] );
      ( "versions",
        [
          Alcotest.test_case "latest excludes stale/unreachable" `Quick
            test_sites_with_latest_excludes_stale_and_unreachable;
          Alcotest.test_case "site_vv monotone" `Quick test_update_site_vv_monotone;
          Alcotest.test_case "where latest vs all" `Quick
            test_where_distinguishes_latest_from_all;
        ] );
      ( "rebuild",
        [ Alcotest.test_case "register_open + drop_site" `Quick test_register_open_rebuild ] );
    ]
