(* Tests for protection checks, attribute changes, execution advice lists,
   pluggable merge managers, inode reclamation, page invalidation, and
   crash/restart durability. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Process = Locus_core.Process
module Us = Locus_core.Us
module K = Locus_core.Ktypes
module Pack = Storage.Pack
module Inode = Storage.Inode
module Reconcile = Recovery.Reconcile

let check = Alcotest.check

let make_world ?(n = 4) () = World.create ~config:(World.default_config ~n_sites:n ()) ()

(* ---- protection ---- *)

let user_proc w site uid =
  let p = Process.create_process (World.kernel w site) ~uid in
  p

let test_permission_denied_for_other () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/secret");
  Kernel.write_file k0 p0 "/secret" "root only";
  Kernel.chmod k0 p0 "/secret" 0o600;
  ignore (World.settle w);
  let alice = user_proc w 1 "alice" in
  let k1 = World.kernel w 1 in
  (match Kernel.read_file k1 alice "/secret" with
  | _ -> Alcotest.fail "other user should be denied"
  | exception K.Error (Proto.Eaccess, _) -> ());
  (* Owner (and root) still allowed. *)
  check Alcotest.string "owner reads" "root only" (Kernel.read_file k0 p0 "/secret")

let test_owner_write_bit () =
  let w = make_world () in
  let k0 = World.kernel w 0 in
  let alice = user_proc w 0 "alice" in
  ignore (Kernel.creat k0 alice "/mine");
  Kernel.write_file k0 alice "/mine" "v1";
  Kernel.chmod k0 alice "/mine" 0o444;
  ignore (World.settle w);
  (match Kernel.write_file k0 alice "/mine" "v2" with
  | () -> Alcotest.fail "read-only file should refuse writes"
  | exception K.Error (Proto.Eaccess, _) -> ());
  Kernel.chmod k0 alice "/mine" 0o644;
  Kernel.write_file k0 alice "/mine" "v2";
  check Alcotest.string "writable again" "v2" (Kernel.read_file k0 alice "/mine")

let test_chmod_propagates () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.creat k0 p0 "/p");
  Kernel.write_file k0 p0 "/p" "x";
  ignore (World.settle w);
  Kernel.chmod k0 p0 "/p" 0o640;
  ignore (World.settle w);
  (* The metadata change reached every copy. *)
  List.iter
    (fun s ->
      let k = World.kernel w s in
      let pack = Hashtbl.find k.K.packs 0 in
      let gf = Kernel.resolve k (World.proc w s) "/p" in
      match Pack.find_inode pack gf.Catalog.Gfile.ino with
      | Some inode -> check Alcotest.int
                        (Printf.sprintf "perms at %d" s) 0o640 inode.Inode.perms
      | None -> Alcotest.fail "copy missing")
    [ 0; 1; 2; 3 ]

let test_chown_only_owner () =
  let w = make_world () in
  let k0 = World.kernel w 0 in
  let alice = user_proc w 0 "alice" and bob = user_proc w 0 "bob" in
  ignore (Kernel.creat k0 alice "/a_file");
  ignore (World.settle w);
  (match Kernel.chown k0 bob "/a_file" "bob" with
  | () -> Alcotest.fail "non-owner chown should fail"
  | exception K.Error (Proto.Eaccess, _) -> ());
  Kernel.chown k0 alice "/a_file" "bob";
  let info = Kernel.stat k0 alice "/a_file" in
  check Alcotest.string "new owner" "bob" info.Proto.i_owner

(* ---- advice lists ---- *)

let test_advice_list_fallback () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_advice_list p0 [ 3; 2 ];
  let _, site = Process.fork k0 p0 in
  check Alcotest.int "first advice wins" 3 site;
  (* Crash site 3: the next fork falls through to site 2. *)
  World.crash_site w 3;
  ignore (World.detect_failures w ~initiator:0);
  let _, site2 = Process.fork k0 p0 in
  check Alcotest.int "fallback to second advice" 2 site2;
  (* No advice reachable: execute locally. *)
  World.crash_site w 2;
  ignore (World.detect_failures w ~initiator:0);
  let _, site3 = Process.fork k0 p0 in
  check Alcotest.int "local default" 0 site3

(* ---- merge managers ---- *)

let test_database_merge_manager () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.creat ~ftype:Inode.Database k0 p0 "/db");
  Kernel.write_file k0 p0 "/db" "k1=a\n";
  ignore (World.settle w);
  (* A line-set-union manager for database files. *)
  Reconcile.register_merge_manager Inode.Database (fun contents ->
      contents
      |> List.concat_map (String.split_on_char '\n')
      |> List.filter (fun l -> l <> "")
      |> List.sort_uniq String.compare
      |> fun lines -> String.concat "\n" lines ^ "\n");
  Fun.protect ~finally:(fun () -> Reconcile.unregister_merge_manager Inode.Database)
  @@ fun () ->
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  Kernel.write_file k0 p0 "/db" "k1=a\nk2=left\n";
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  Kernel.write_file k2 p2 "/db" "k1=a\nk3=right\n";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  let managed =
    List.fold_left (fun a (_, r) -> a + r.Reconcile.manager_merges) 0 recon
  in
  let conflicts =
    List.fold_left (fun a (_, r) -> a + r.Reconcile.conflicts_marked) 0 recon
  in
  check Alcotest.int "manager resolved it" 1 managed;
  check Alcotest.int "no conflict marked" 0 conflicts;
  check Alcotest.string "merged union" "k1=a\nk2=left\nk3=right\n"
    (Kernel.read_file k0 p0 "/db")

let test_database_without_manager_conflicts () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.creat ~ftype:Inode.Database k0 p0 "/db");
  Kernel.write_file k0 p0 "/db" "base";
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  Kernel.write_file k0 p0 "/db" "left";
  Kernel.write_file (World.kernel w 2) (World.proc w 2) "/db" "right";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  check Alcotest.int "conflict marked without manager" 1
    (List.fold_left (fun a (_, r) -> a + r.Reconcile.conflicts_marked) 0 recon)

(* ---- inode reclamation after delete (2.3.7) ---- *)

let test_delete_reclaims_inode () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.creat k0 p0 "/dead");
  Kernel.write_file k0 p0 "/dead" "short life";
  ignore (World.settle w);
  let gf = Kernel.resolve k0 p0 "/dead" in
  Kernel.unlink k0 p0 "/dead";
  ignore (World.settle w);
  (* Once every storage site has seen the delete, the descriptor is
     released everywhere. *)
  List.iter
    (fun s ->
      let k = World.kernel w s in
      let pack = Hashtbl.find k.K.packs 0 in
      check Alcotest.bool
        (Printf.sprintf "inode gone at %d" s)
        false
        (Pack.stores pack gf.Catalog.Gfile.ino))
    [ 0; 1; 2; 3 ]

(* ---- page invalidation during concurrent read/write (3.2) ---- *)

let test_page_invalidation () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  ignore (Kernel.creat k0 p0 "/hot");
  Kernel.write_file k0 p0 "/hot" "aaaa";
  ignore (World.settle w);
  (* Reader at site 2 opens and caches page 0. *)
  let k2 = World.kernel w 2 in
  let o_r = Us.open_gf k2 (Kernel.resolve k2 (World.proc w 2) "/hot") Proto.Mode_read in
  ignore (Us.read_page k2 o_r 0);
  (* Writer at site 1 modifies: the SS invalidates site 2's buffer. *)
  let k1 = World.kernel w 1 in
  let o_w = Us.open_gf k1 (Kernel.resolve k1 (World.proc w 1) "/hot") Proto.Mode_modify in
  Us.write k1 o_w ~off:0 "bbbb";
  ignore (World.settle w);
  let data, _ = Us.read_page k2 o_r 0 in
  check Alcotest.string "stale buffer invalidated" "bbbb" (String.sub data 0 4);
  Us.commit k1 o_w;
  Us.close k1 o_w;
  Us.close k2 o_r;
  ignore (World.settle w)

(* The page invalidation world with a 2-page file: its one copy at site 0
   holds "a" x 1024 ^ "b" x 1024; the reader at [reader] opens it (and
   reads page 1 into its cache) before site 1's writer opens it and
   writes page 1, then a settle pushes the write to the SS. *)
let committed_body = String.make 1024 'a' ^ String.make 1024 'b'

(* A body as runs of one byte, "1024a 1024b", which a failed check
   prints in place of the bytes. *)
let runs s =
  let b = Buffer.create 16 in
  let rec go i =
    if i < String.length s then begin
      let j = ref i in
      while !j < String.length s && s.[!j] = s.[i] do incr j done;
      Printf.bprintf b "%d%c " (!j - i) s.[i];
      go !j
    end
  in
  go 0;
  Buffer.contents b

let check_body msg want got = check Alcotest.string msg (runs want) (runs got)

let session_world ~reader =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  ignore (Kernel.creat k0 p0 "/two");
  Kernel.write_file k0 p0 "/two" committed_body;
  ignore (World.settle w);
  let kr = World.kernel w reader in
  let gf = Kernel.resolve kr (World.proc w reader) "/two" in
  let o_r = Us.open_gf kr gf Proto.Mode_read in
  ignore (Us.read_page kr o_r 1);
  let k1 = World.kernel w 1 in
  let o_w = Us.open_gf k1 gf Proto.Mode_modify in
  Us.write k1 o_w ~off:1024 (String.make 1024 'W');
  ignore (World.settle w);
  (w, kr, o_r, k1, o_w)

(* A reader elsewhere reads the session's bytes while the writer is
   active (3.2), but they are the session's, not the committed
   version's: once the writer aborts, every later read at that site
   returns the committed bytes, whether the reader closed before the
   abort or after it. *)
let test_aborted_session_leaves_no_bytes ~close_first () =
  let w, k2, o_r, k1, o_w = session_world ~reader:2 in
  let data, _ = Us.read_page k2 o_r 1 in
  check_body "reader sees the session's page" (String.make 1024 'W') data;
  if close_first then Us.close k2 o_r;
  Us.abort k1 o_w;
  Us.close k1 o_w;
  if not close_first then Us.close k2 o_r;
  ignore (World.settle w);
  check_body "the aborted bytes are gone" committed_body
    (Kernel.read_file k2 (World.proc w 2) "/two");
  check_body "and stay gone" committed_body
    (Kernel.read_file k2 (World.proc w 2) "/two")

(* The SS sends no page invalidation to the writer's own site: a reader
   there must still read what the writer has pushed, not its cached
   committed page. *)
let test_writer_site_reader_sees_session () =
  let w, k1, o_r, _, o_w = session_world ~reader:1 in
  let data, _ = Us.read_page k1 o_r 1 in
  check_body "reader at the writer's site sees the session's page"
    (String.make 1024 'W') data;
  Us.commit k1 o_w;
  Us.close k1 o_w;
  Us.close k1 o_r;
  ignore (World.settle w);
  check_body "the commit reads back"
    (String.make 1024 'a' ^ String.make 1024 'W')
    (Kernel.read_file k1 (World.proc w 1) "/two")

(* A read open at the writer's site that rode a lease granted before the
   writer opened reads the session's pushed bytes too, and files none of
   them under the committed key: the writer's own modify open broke the
   grant it rides. *)
let test_lease_ride_at_writer_site () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  ignore (Kernel.creat k0 p0 "/two");
  Kernel.write_file k0 p0 "/two" committed_body;
  ignore (World.settle w);
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  check_body "a read leaves a lease" committed_body (Kernel.read_file k1 p1 "/two");
  let gf = Kernel.resolve k1 p1 "/two" in
  let o_r = Us.open_gf k1 gf Proto.Mode_read in
  check Alcotest.bool "the open rides the lease" true (o_r.K.o_lease <> None);
  let o_w = Us.open_gf k1 gf Proto.Mode_modify in
  Us.write k1 o_w ~off:1024 (String.make 1024 'W');
  Us.flush_wb k1 o_w;
  let data, _ = Us.read_page k1 o_r 1 in
  check_body "the ride reads the session's page" (String.make 1024 'W') data;
  Us.close k1 o_r;
  Us.abort k1 o_w;
  Us.close k1 o_w;
  ignore (World.settle w);
  check_body "the aborted bytes are gone" committed_body
    (Kernel.read_file k1 p1 "/two")

(* A truncate is a write too: the pages it cuts must leave the other
   using sites' buffers, or a reader that cached them keeps reading bytes
   the writer's session no longer holds. *)
let test_truncate_invalidation () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  ignore (Kernel.creat k0 p0 "/cut");
  Kernel.write_file k0 p0 "/cut" (String.make 2048 'a');
  ignore (World.settle w);
  (* Reader at site 2 caches page 1. *)
  let k2 = World.kernel w 2 in
  let o_r = Us.open_gf k2 (Kernel.resolve k2 (World.proc w 2) "/cut") Proto.Mode_read in
  ignore (Us.read_page k2 o_r 1);
  (* Writer at site 1 cuts the file to one page, uncommitted. *)
  let k1 = World.kernel w 1 in
  let o_w = Us.open_gf k1 (Kernel.resolve k1 (World.proc w 1) "/cut") Proto.Mode_modify in
  Us.truncate k1 o_w 1024;
  ignore (World.settle w);
  let data, eof = Us.read_page k2 o_r 1 in
  check Alcotest.int "cut page left the reader's buffer" 0 (String.length data);
  check Alcotest.bool "reader sees eof" true eof;
  let k3 = World.kernel w 3 in
  let o_c = Us.open_gf k3 (Kernel.resolve k3 (World.proc w 3) "/cut") Proto.Mode_read in
  let cold, cold_eof = Us.read_page k3 o_c 1 in
  check Alcotest.(pair int bool) "a cold reader agrees" (0, true) (String.length cold, cold_eof);
  Us.abort k1 o_w;
  List.iter (fun (k, o) -> Us.close k o) [ (k1, o_w); (k2, o_r); (k3, o_c) ];
  ignore (World.settle w)

(* ---- crash durability ---- *)

let test_crash_loses_uncommitted_keeps_committed () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  ignore (Kernel.creat k0 p0 "/durable");
  Kernel.write_file k0 p0 "/durable" "committed state";
  ignore (World.settle w);
  let gf = Kernel.resolve k0 p0 "/durable" in
  let o = Us.open_gf k0 gf Proto.Mode_modify in
  Us.write k0 o ~off:0 "UNCOMMITTED....";
  (* Crash before commit; restart; the committed version survives and the
     orphaned shadow pages are scavenged. *)
  World.crash_site w 0;
  World.restart_site w 0;
  ignore (World.heal_and_merge w);
  let p0' = World.proc w 0 in
  check Alcotest.string "committed state survives" "committed state"
    (Kernel.read_file (World.kernel w 0) p0' "/durable")

let test_restart_rejoins_and_catches_up () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.creat k0 p0 "/news");
  Kernel.write_file k0 p0 "/news" "v1";
  ignore (World.settle w);
  World.crash_site w 3;
  ignore (World.detect_failures w ~initiator:0);
  Kernel.write_file k0 p0 "/news" "v2 while 3 down";
  ignore (World.settle w);
  World.restart_site w 3;
  ignore (World.heal_and_merge w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  check Alcotest.string "restarted site caught up" "v2 while 3 down"
    (Kernel.read_file k3 p3 "/news")

(* ---- protocol synchronization probe (5.7) ---- *)

let test_status_check_stage () =
  let w = make_world () in
  let k0 = World.kernel w 0 in
  let k1 = World.kernel w 1 in
  k1.K.recon_stage <- 2;
  match
    Locus_core.Ktypes.rpc k0 1 Proto.Status_check
  with
  | stage, site ->
    check Alcotest.int "stage" 2 stage;
    check Alcotest.int "site" 1 site;
    k1.K.recon_stage <- 0
  | exception Locus_core.Ktypes.Error _ -> Alcotest.fail "expected status"

let () =
  Alcotest.run "features"
    [
      ( "protection",
        [
          Alcotest.test_case "deny other user" `Quick test_permission_denied_for_other;
          Alcotest.test_case "owner write bit" `Quick test_owner_write_bit;
          Alcotest.test_case "chmod propagates" `Quick test_chmod_propagates;
          Alcotest.test_case "chown owner-only" `Quick test_chown_only_owner;
        ] );
      ( "advice",
        [ Alcotest.test_case "advice list fallback" `Quick test_advice_list_fallback ] );
      ( "merge-managers",
        [
          Alcotest.test_case "database manager merges" `Quick test_database_merge_manager;
          Alcotest.test_case "no manager -> conflict" `Quick
            test_database_without_manager_conflicts;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "delete reclaims inode" `Quick test_delete_reclaims_inode;
          Alcotest.test_case "page invalidation" `Quick test_page_invalidation;
          Alcotest.test_case "aborted session, reader closed first" `Quick
            (test_aborted_session_leaves_no_bytes ~close_first:true);
          Alcotest.test_case "aborted session, reader closed after" `Quick
            (test_aborted_session_leaves_no_bytes ~close_first:false);
          Alcotest.test_case "writer's site reads the session" `Quick
            test_writer_site_reader_sees_session;
          Alcotest.test_case "lease ride at the writer's site" `Quick
            test_lease_ride_at_writer_site;
          Alcotest.test_case "truncate invalidation" `Quick test_truncate_invalidation;
        ] );
      ( "durability",
        [
          Alcotest.test_case "crash keeps committed" `Quick
            test_crash_loses_uncommitted_keeps_committed;
          Alcotest.test_case "restart catches up" `Quick test_restart_rejoins_and_catches_up;
        ] );
      ( "sync-probe",
        [
          Alcotest.test_case "status check" `Quick test_status_check_stage;
        ] );
    ]
