(* Unit tests of background update propagation (section 2.3.6). *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Propagation = Locus_core.Propagation
module Us = Locus_core.Us
module K = Locus_core.Ktypes
module Pack = Storage.Pack
module Inode = Storage.Inode
module Vvec = Vv.Version_vector

let check = Alcotest.check

let make_world ?(n = 4) () = World.create ~config:(World.default_config ~n_sites:n ()) ()

let test_one_commit_behind () =
  let base = Vvec.of_list [ (0, 2); (1, 1) ] in
  let next = Vvec.bump base 1 in
  check Alcotest.bool "direct successor" true
    (Propagation.one_commit_behind ~local:base ~target:next ~origin:1);
  check Alcotest.bool "wrong origin" false
    (Propagation.one_commit_behind ~local:base ~target:next ~origin:0);
  check Alcotest.bool "two commits behind" false
    (Propagation.one_commit_behind ~local:base ~target:(Vvec.bump next 1) ~origin:1)

let test_incremental_pull_transfers_only_modified () =
  (* A small change to a large file: the pull moves one page, not all. *)
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/large");
  Kernel.write_file k0 p0 "/large" (String.make (8 * Storage.Page.size) 'L');
  ignore (World.settle w);
  (* Patch one page in place. *)
  let gf = Kernel.resolve k0 p0 "/large" in
  let o = Us.open_gf k0 gf Proto.Mode_modify in
  Us.write k0 o ~off:(3 * Storage.Page.size) (String.make 10 'Z');
  Us.commit k0 o;
  Us.close k0 o;
  let snap = Sim.Stats.snapshot (World.stats w) in
  ignore (World.settle w);
  let read_msgs = Sim.Stats.delta_of (World.stats w) snap "net.msg.read" in
  (* The secondary copy pulled just the modified page: 2 messages, not 16. *)
  check Alcotest.int "single page pulled" 2 read_msgs;
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  let body = Kernel.read_file k1 p1 "/large" in
  check Alcotest.string "patched bytes present" (String.make 10 'Z')
    (String.sub body (3 * Storage.Page.size) 10)

let test_pull_refuses_concurrent_overwrite () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/c");
  Kernel.write_file k0 p0 "/c" "base";
  ignore (World.settle w);
  (* Forge a concurrent local version at site 1, then ask it to pull. *)
  let k1 = World.kernel w 1 in
  let gf = Kernel.resolve k0 p0 "/c" in
  let pack1 = Hashtbl.find k1.K.packs 0 in
  let inode1 = Pack.get_inode pack1 gf.Catalog.Gfile.ino in
  inode1.Inode.vv <- Vvec.bump inode1.Inode.vv 1;
  Kernel.write_file k0 p0 "/c" "newer at 0";
  ignore (World.settle w);
  (* Site 1's copy still carries its concurrent version: not clobbered. *)
  let inode1' = Pack.get_inode pack1 gf.Catalog.Gfile.ino in
  check Alcotest.bool "concurrent copy preserved" true
    (Vvec.get inode1'.Inode.vv 1 > 0)

let test_enqueue_skips_uninterested_sites () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  ignore (Kernel.creat k0 p0 "/solo");
  Kernel.write_file k0 p0 "/solo" "one copy";
  ignore (World.settle w);
  let gf = Kernel.resolve k0 p0 "/solo" in
  (* A non-designated notification at a site without a copy is ignored. *)
  let k2 = World.kernel w 2 in
  Propagation.enqueue k2 gf ~vv:(Vvec.of_list [ (0, 9) ]) ~origin:0 ~modified:[]
    ~meta_only:false ~deleted:false ~designate:false;
  check Alcotest.int "not queued" 0 (Queue.length k2.K.prop_queue);
  (* A designated one is honoured. *)
  Propagation.enqueue k2 gf ~vv:(Vvec.of_list [ (0, 9) ]) ~origin:0 ~modified:[]
    ~meta_only:false ~deleted:false ~designate:true;
  check Alcotest.int "queued when designated" 1 (Queue.length k2.K.prop_queue);
  Queue.clear k2.K.prop_queue;
  k2.K.prop_pending <- Catalog.Gfile.Set.empty

let test_retries_give_up_cleanly () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/r");
  Kernel.write_file k0 p0 "/r" "v1";
  ignore (World.settle w);
  (* Cut site 1 off, then commit at 0: site 1's pull can never reach a
     source. The queue must drain (bounded retries), not spin forever. *)
  ignore (World.partition w [ [ 0; 2; 3 ]; [ 1 ] ]);
  Kernel.write_file k0 p0 "/r" "v2";
  ignore (World.settle w);
  let k1 = World.kernel w 1 in
  check Alcotest.int "queue drained" 0 (Queue.length k1.K.prop_queue);
  (* Reconciliation at merge repairs the stale copy. *)
  ignore (World.heal_and_merge w);
  let p1 = World.proc w 1 in
  check Alcotest.string "caught up after merge" "v2" (Kernel.read_file k1 p1 "/r")

(* Every request a site receives over the network, newest first. *)
let log_requests w =
  let log = ref [] in
  List.iter
    (fun site ->
      let k = World.kernel w site in
      Net.Netsim.set_handler (World.net w) site (fun ~src req ->
          log := (src, req) :: !log;
          k.K.dispatch src req))
    (World.sites w);
  log

(* The pull traffic about [gf] in a request log: reads, stats and
   where-stored queries. *)
let pull_requests log gf =
  List.filter_map
    (fun (_, req) ->
      match req with
      | Proto.Read_pages { gf = g; _ } | Proto.Stat_req { gf = g } | Proto.Where_stored { gf = g }
        when Catalog.Gfile.equal g gf ->
        Some (Proto.req_tag req)
      | _ -> None)
    !log

(* The pages of [gf] a pull received: the page count of every read reply
   about [gf] that [site] sent. *)
let count_pulled_pages w ~site gf =
  let k = World.kernel w site and pages = ref 0 in
  Net.Netsim.set_handler (World.net w) site (fun ~src req ->
      let resp = k.K.dispatch src req in
      (match (req, resp) with
      | Proto.Read_pages { gf = g; _ }, Proto.R_pages { pages = p; _ }
        when Catalog.Gfile.equal g gf ->
        pages := !pages + List.length p
      | _ -> ());
      resp);
  pages

(* Every stored copy of [gf]: site, version and bytes. *)
let copies w (gf : Catalog.Gfile.t) =
  List.filter_map
    (fun site ->
      match Hashtbl.find_opt (World.kernel w site).K.packs gf.Catalog.Gfile.fg with
      | None -> None
      | Some pack ->
        Pack.find_inode pack gf.Catalog.Gfile.ino
        |> Option.map (fun (i : Inode.t) -> (site, i.Inode.vv, Pack.read_string pack i)))
    (World.sites w)

(* A pull reads the committed copy. A writer that opens the file at the
   committing site before the pull runs must not have its uncommitted
   bytes copied under the committed version. *)
let test_pull_ignores_open_session () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/u");
  Kernel.write_file k0 p0 "/u" "v0";
  ignore (World.settle w);
  Kernel.write_file k0 p0 "/u" "committed-v1";
  let gf = Kernel.resolve k0 p0 "/u" in
  let o = Us.open_gf k0 gf Proto.Mode_modify in
  Us.write k0 o ~off:0 "DIRTYDIRTY!!";
  ignore (World.settle w);
  Us.abort k0 o;
  Us.close k0 o;
  ignore (World.settle w);
  let stored = copies w gf in
  check Alcotest.int "two copies" 2 (List.length stored);
  List.iter
    (fun (site, vv, body) ->
      List.iter
        (fun (site', vv', body') ->
          if Vvec.equal vv vv' then
            check Alcotest.string
              (Printf.sprintf "equal bytes at equal vv, sites %d and %d" site site')
              body body')
        stored;
      check Alcotest.string (Printf.sprintf "committed bytes at site %d" site) "committed-v1"
        body)
    stored;
  List.iter
    (fun site ->
      check Alcotest.string
        (Printf.sprintf "read at site %d" site)
        "committed-v1"
        (Kernel.read_file (World.kernel w site) (World.proc w site) "/u"))
    (World.sites w)

(* A commit that changed only the inode — a chmod, a link-count change —
   moves no page: the pull is one read of count 0 that brings back the
   inode. *)
let test_meta_only_commit_moves_no_page () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  let gf = Kernel.creat k0 p0 "/meta" in
  Kernel.write_file k0 p0 "/meta" (String.make (8 * Storage.Page.size) 'm');
  ignore (World.settle w);
  let pulled = count_pulled_pages w ~site:0 gf in
  let snap = Sim.Stats.snapshot (World.stats w) in
  Kernel.chmod k0 p0 "/meta" 0o600;
  ignore (World.settle w);
  let delta = Sim.Stats.delta_of (World.stats w) snap in
  check Alcotest.int "chmod: no page pulled" 0 !pulled;
  check Alcotest.int "chmod: no bulk page" 0 (delta "prop.bulk.pages");
  check Alcotest.int "chmod: one read round trip" 2 (delta "net.msg.read");
  (match copies w gf with
  | [ (_, vv, body); (_, vv', body') ] ->
    check Alcotest.bool "chmod: copies at one version" true (Vvec.equal vv vv');
    check Alcotest.string "chmod: bodies equal" body body'
  | l -> Alcotest.failf "expected two copies, found %d" (List.length l));
  let perms site =
    (Pack.get_inode (Hashtbl.find (World.kernel w site).K.packs 0) gf.Catalog.Gfile.ino)
      .Inode.perms
  in
  check Alcotest.int "chmod reached the copy" (perms 0) (perms 1);
  Kernel.link k0 p0 ~target:"/meta" ~path:"/meta2";
  ignore (World.settle w);
  check Alcotest.int "link: no page pulled" 0 !pulled;
  let nlink site =
    (Pack.get_inode (Hashtbl.find (World.kernel w site).K.packs 0) gf.Catalog.Gfile.ino)
      .Inode.nlink
  in
  check Alcotest.int "link count at the committing copy" 2 (nlink 0);
  check Alcotest.int "link count reached the copy" 2 (nlink 1)

(* A pull of one window is one round trip to the committing site: no
   where-stored query and no stat. *)
let test_one_round_trip_pull () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  let gf = Kernel.creat k0 p0 "/two" in
  Kernel.write_file k0 p0 "/two" "seed";
  ignore (World.settle w);
  let log = log_requests w in
  Kernel.write_file k0 p0 "/two" (String.make (2 * Storage.Page.size) 't');
  ignore (World.settle w);
  check Alcotest.(list string) "one read, no where or stat" [ "read" ] (pull_requests log gf);
  match copies w gf with
  | [ (_, vv, body); (_, vv', body') ] ->
    check Alcotest.bool "converged" true (Vvec.equal vv vv');
    check Alcotest.string "equal bytes" body body'
  | l -> Alcotest.failf "expected two copies, found %d" (List.length l)

(* A propagated delete needs no message at all: the notification says
   the file is gone and at which version. *)
let test_delete_pull_sends_nothing () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  let gf = Kernel.creat k0 p0 "/gone" in
  Kernel.write_file k0 p0 "/gone" "bytes";
  ignore (World.settle w);
  let log = log_requests w in
  Kernel.unlink k0 p0 "/gone";
  ignore (World.settle w);
  check Alcotest.(list string) "no read, stat or where" [] (pull_requests log gf);
  let deleted site =
    match Pack.find_inode (Hashtbl.find (World.kernel w site).K.packs 0) gf.Catalog.Gfile.ino with
    | Some i -> i.Inode.deleted
    | None -> true
  in
  check Alcotest.bool "deleted at the committing site" true (deleted 0);
  check Alcotest.bool "deleted at the copy" true (deleted 1)

(* With the committing site partitioned away, a pull asks the CSS where
   the version is stored, and it still reads only the modified page. *)
let test_pull_without_origin_uses_css () =
  let config = World.default_config ~n_sites:4 () in
  let config =
    {
      config with
      World.kernel_config = { config.World.kernel_config with K.propagation_delay = 50.0 };
    }
  in
  let w = World.create ~config () in
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  Kernel.set_ncopies p1 3;
  let gf = Kernel.creat k1 p1 "/far" in
  Kernel.write_file k1 p1 "/far" (String.make (8 * Storage.Page.size) 'f');
  ignore (World.settle w);
  let holders = List.map (fun (s, _, _) -> s) (copies w gf) in
  check Alcotest.(list int) "copies at 0, 1 and 2" [ 0; 1; 2 ] holders;
  (* Site 1 patches page 3. Deliver the notifications; site 0 pulls at
     once, site 2's pull is still queued when site 1 is cut off. *)
  let o = Us.open_gf k1 gf Proto.Mode_modify in
  Us.write k1 o ~off:(3 * Storage.Page.size) "patch";
  Us.commit k1 o;
  Us.close k1 o;
  ignore (Sim.Engine.run_for (World.engine w) 5.0);
  Propagation.drain (World.kernel w 0);
  ignore (World.partition w [ [ 1 ]; [ 0; 2; 3 ] ]);
  let log = log_requests w in
  ignore (World.settle w);
  let reads =
    List.filter_map
      (fun (src, req) ->
        match req with
        | Proto.Read_pages { gf = g; first; count; _ } when src = 2 && Catalog.Gfile.equal g gf ->
          Some (first, count)
        | _ -> None)
      !log
  in
  check Alcotest.(list string) "where, then one read" [ "read"; "where" ] (pull_requests log gf);
  check Alcotest.(list (pair int int)) "only the modified page" [ (3, 1) ] reads;
  let body site = Pack.read_string (Hashtbl.find (World.kernel w site).K.packs 0) in
  let inode site = Pack.get_inode (Hashtbl.find (World.kernel w site).K.packs 0) gf.Catalog.Gfile.ino in
  check Alcotest.string "site 2 caught up" (body 0 (inode 0)) (body 2 (inode 2));
  check Alcotest.bool "at the committed version" true (Vvec.equal (inode 0).Inode.vv (inode 2).Inode.vv)

let () =
  Alcotest.run "propagation"
    [
      ( "pull",
        [
          Alcotest.test_case "one_commit_behind" `Quick test_one_commit_behind;
          Alcotest.test_case "incremental pull" `Quick
            test_incremental_pull_transfers_only_modified;
          Alcotest.test_case "concurrent not overwritten" `Quick
            test_pull_refuses_concurrent_overwrite;
          Alcotest.test_case "designate semantics" `Quick
            test_enqueue_skips_uninterested_sites;
          Alcotest.test_case "bounded retries" `Quick test_retries_give_up_cleanly;
          Alcotest.test_case "pull ignores an open session" `Quick
            test_pull_ignores_open_session;
          Alcotest.test_case "metadata-only commit moves no page" `Quick
            test_meta_only_commit_moves_no_page;
          Alcotest.test_case "one round trip" `Quick test_one_round_trip_pull;
          Alcotest.test_case "delete sends nothing" `Quick test_delete_pull_sends_nothing;
          Alcotest.test_case "origin away: CSS list" `Quick test_pull_without_origin_uses_css;
        ] );
    ]
