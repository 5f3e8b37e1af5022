(* Unit tests of background update propagation (section 2.3.6). *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Propagation = Locus_core.Propagation
module Us = Locus_core.Us
module K = Locus_core.Ktypes
module Dispatch = Locus.Dispatch
module Pack = Storage.Pack
module Inode = Storage.Inode
module Vvec = Vv.Version_vector

let check = Alcotest.check

(* The change of each counter since [snap], read now: later traffic does
   not move the result. *)
let deltas w snap =
  let counts =
    List.map
      (fun key -> (key, Sim.Stats.delta_of (World.stats w) snap key))
      [ "net.msg.read"; "net.msg.stat"; "prop.carried"; "prop.carried.pages"; "prop.bulk.pages" ]
  in
  fun key -> List.assoc key counts

(* Propagation above a window of 1 carries the change in the commit
   notification; a window of 1 is the paper's pull protocol. *)
let make_world ?(n = 4) ?window () =
  let config = World.default_config ~n_sites:n () in
  let config =
    match window with
    | None -> config
    | Some w ->
      { config with World.kernel_config = { config.World.kernel_config with K.bulk_window = w } }
  in
  World.create ~config ()

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
  let patch_one_page ~window =
    let w = make_world ~window () in
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
    let delta = deltas w snap in
    let k1 = World.kernel w 1 and p1 = World.proc w 1 in
    let body = Kernel.read_file k1 p1 "/large" in
    check Alcotest.string "patched bytes present" (String.make 10 'Z')
      (String.sub body (3 * Storage.Page.size) 10);
    delta
  in
  let delta = patch_one_page ~window:1 in
  (* The secondary copy pulled just the modified page: 2 messages, not 16. *)
  check Alcotest.int "single page pulled" 2 (delta "net.msg.read");
  (* Above a window of 1 the notification carried that page. *)
  let delta = patch_one_page ~window:8 in
  check Alcotest.int "window 8: no read" 0 (delta "net.msg.read");
  check Alcotest.int "window 8: one notification carried the commit" 1 (delta "prop.carried");
  check Alcotest.int "window 8: it carried the one page" 1 (delta "prop.carried.pages")

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
          Dispatch.handle k ~src req))
    (World.sites w);
  log

(* The pull traffic about [gf] in a request log: reads, stats and
   where-stored queries. *)
let pull_requests log gf =
  List.filter_map
    (fun (_, req) ->
      match req with
      | Proto.Read_pages { gf = g; _ } | Proto.Where_stored { gf = g; _ }
        when Catalog.Gfile.equal g gf ->
        Some (Proto.req_tag req)
      | _ -> None)
    !log

(* The pages of [gf] a pull received: the page count of every read reply
   about [gf] that [site] sent. *)
let count_pulled_pages w ~site gf =
  let k = World.kernel w site and pages = ref 0 in
  Net.Netsim.set_handler (World.net w) site (fun ~src req ->
      let resp = Dispatch.handle k ~src req in
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
   moves no page. At a window of 1 the pull is one read of count 0 that
   brings back the inode; above it the notification carries the inode. *)
let meta_only_commit ~window =
  let w = make_world ~window () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  let gf = Kernel.creat k0 p0 "/meta" in
  Kernel.write_file k0 p0 "/meta" (String.make (8 * Storage.Page.size) 'm');
  ignore (World.settle w);
  let pulled = count_pulled_pages w ~site:0 gf in
  let snap = Sim.Stats.snapshot (World.stats w) in
  Kernel.chmod k0 p0 "/meta" 0o600;
  ignore (World.settle w);
  let chmod = deltas w snap in
  check Alcotest.int "chmod: no page pulled" 0 !pulled;
  check Alcotest.int "chmod: no bulk page" 0 (chmod "prop.bulk.pages");
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
  let snap = Sim.Stats.snapshot (World.stats w) in
  Kernel.link k0 p0 ~target:"/meta" ~path:"/meta2";
  ignore (World.settle w);
  let link = deltas w snap in
  check Alcotest.int "link: no page pulled" 0 !pulled;
  let nlink site =
    (Pack.get_inode (Hashtbl.find (World.kernel w site).K.packs 0) gf.Catalog.Gfile.ino)
      .Inode.nlink
  in
  check Alcotest.int "link count at the committing copy" 2 (nlink 0);
  check Alcotest.int "link count reached the copy" 2 (nlink 1);
  (chmod, link)

let test_meta_only_commit_moves_no_page () =
  let chmod, _ = meta_only_commit ~window:1 in
  check Alcotest.int "chmod: one stat round trip" 2 (chmod "net.msg.stat");
  check Alcotest.int "chmod: no read" 0 (chmod "net.msg.read");
  let chmod, link = meta_only_commit ~window:8 in
  check Alcotest.int "window 8, chmod: no read" 0 (chmod "net.msg.read");
  check Alcotest.int "window 8, chmod: the inode was carried" 1 (chmod "prop.carried");
  check Alcotest.int "window 8, chmod: no page carried" 0 (chmod "prop.carried.pages");
  (* The link changes the root directory too: its record page travels to
     the directory's three other copies, the file's inode to its one. *)
  check Alcotest.int "window 8, link: no read" 0 (link "net.msg.read");
  check Alcotest.int "window 8, link: four copies updated by notification" 4
    (link "prop.carried");
  check Alcotest.int "window 8, link: one directory page each" 3 (link "prop.carried.pages")

(* A pull of one window is one round trip to the committing site: no
   where-stored query and no stat. Above a window of 1, the notification
   of a two-page rewrite carries both pages and the copy sends no request
   at all. *)
let test_one_round_trip_pull () =
  let rewrite ~window ~pages =
    let w = make_world ~window () in
    let k0 = World.kernel w 0 and p0 = World.proc w 0 in
    Kernel.set_ncopies p0 2;
    let gf = Kernel.creat k0 p0 "/two" in
    Kernel.write_file k0 p0 "/two" "seed";
    ignore (World.settle w);
    let log = log_requests w in
    let snap = Sim.Stats.snapshot (World.stats w) in
    Kernel.write_file k0 p0 "/two" (String.make (pages * Storage.Page.size) 't');
    ignore (World.settle w);
    let delta = deltas w snap in
    (match copies w gf with
    | [ (_, vv, body); (_, vv', body') ] ->
      check Alcotest.bool "converged" true (Vvec.equal vv vv');
      check Alcotest.string "equal bytes" body body'
    | l -> Alcotest.failf "expected two copies, found %d" (List.length l));
    (pull_requests log gf, delta)
  in
  let requests, _ = rewrite ~window:1 ~pages:1 in
  check Alcotest.(list string) "one read, no where or stat" [ "read" ] requests;
  let requests, delta = rewrite ~window:8 ~pages:2 in
  check Alcotest.(list string) "window 8: no read, where or stat" [] requests;
  check Alcotest.int "window 8: one notification carried the commit" 1 (delta "prop.carried");
  check Alcotest.int "window 8: it carried both pages" 2 (delta "prop.carried.pages")

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
   the version is stored, and it still reads only the modified pages. At a
   window of 1 the commit patches page 3 of 8. Above it, a commit of one
   page would travel in its notification, so the commit patches 9 of 10
   pages, more than a window: the notification carries nothing and the
   pull reads the 9 pages in two runs. *)
let pull_without_origin ~window ~npages ~patched =
  let config = World.default_config ~n_sites:4 () in
  let config =
    {
      config with
      World.kernel_config =
        { config.World.kernel_config with K.propagation_delay = 50.0; K.bulk_window = window };
    }
  in
  let w = World.create ~config () in
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  Kernel.set_ncopies p1 3;
  let gf = Kernel.creat k1 p1 "/far" in
  Kernel.write_file k1 p1 "/far" (String.make (npages * Storage.Page.size) 'f');
  ignore (World.settle w);
  let holders = List.map (fun (s, _, _) -> s) (copies w gf) in
  check Alcotest.(list int) "copies at 0, 1 and 2" [ 0; 1; 2 ] holders;
  (* Site 1 patches the pages. Deliver the notifications; site 0 pulls
     at once, site 2's pull is still queued when site 1 is cut off. *)
  let o = Us.open_gf k1 gf Proto.Mode_modify in
  List.iter (fun pg -> Us.write k1 o ~off:(pg * Storage.Page.size) "patch") patched;
  Us.commit k1 o;
  Us.close k1 o;
  ignore (Sim.Engine.run_for (World.engine w) 5.0);
  Propagation.drain (World.kernel w 0);
  ignore (World.partition w [ [ 1 ]; [ 0; 2; 3 ] ]);
  let log = log_requests w in
  let snap = Sim.Stats.snapshot (World.stats w) in
  ignore (World.settle w);
  let carried = Sim.Stats.delta_of (World.stats w) snap "prop.carried" in
  let reads =
    List.filter_map
      (fun (src, req) ->
        match req with
        | Proto.Read_pages { gf = g; first; count; _ } when src = 2 && Catalog.Gfile.equal g gf ->
          Some (first, count)
        | _ -> None)
      !log
  in
  check Alcotest.int "nothing carried" 0 carried;
  let body site = Pack.read_string (Hashtbl.find (World.kernel w site).K.packs 0) in
  let inode site = Pack.get_inode (Hashtbl.find (World.kernel w site).K.packs 0) gf.Catalog.Gfile.ino in
  check Alcotest.string "site 2 caught up" (body 0 (inode 0)) (body 2 (inode 2));
  check Alcotest.bool "at the committed version" true (Vvec.equal (inode 0).Inode.vv (inode 2).Inode.vv);
  (pull_requests log gf, List.rev reads)

let test_pull_without_origin_uses_css () =
  let requests, reads = pull_without_origin ~window:1 ~npages:8 ~patched:[ 3 ] in
  check Alcotest.(list string) "where, then one read" [ "read"; "where" ] requests;
  check Alcotest.(list (pair int int)) "only the modified page" [ (3, 1) ] reads;
  let requests, reads =
    pull_without_origin ~window:8 ~npages:10 ~patched:(List.init 9 Fun.id)
  in
  check Alcotest.(list string) "window 8: where, then two reads" [ "read"; "read"; "where" ]
    requests;
  check Alcotest.(list (pair int int)) "window 8: only the modified pages" [ (0, 8); (8, 1) ] reads

(* A copy that missed a notification is not at the base of the next one:
   it ignores the pages that one carries and pulls the whole file. The
   writer commits twice in one session, so the copy is notified of both
   commits; the first notification is lost. *)
let test_lost_notify_pulls_whole () =
  let w = make_world ~window:8 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  let gf = Kernel.creat k0 p0 "/lost" in
  Kernel.write_file k0 p0 "/lost" (String.make (4 * Storage.Page.size) 'a');
  ignore (World.settle w);
  let o = Us.open_gf k0 gf Proto.Mode_modify in
  Us.write k0 o ~off:0 "first";
  Net.Netsim.fail_next_message (World.net w) ~src:0 ~dst:1;
  Us.commit k0 o;
  ignore (World.settle w);
  let vv_at site = List.find_map (fun (s, vv, _) -> if s = site then Some vv else None) (copies w gf) in
  check Alcotest.bool "the copy missed the first commit" false
    (Option.equal Vvec.equal (vv_at 0) (vv_at 1));
  let snap = Sim.Stats.snapshot (World.stats w) in
  Us.write k0 o ~off:Storage.Page.size "second";
  Us.commit k0 o;
  Us.close k0 o;
  ignore (World.settle w);
  let delta = deltas w snap in
  check Alcotest.int "carried pages ignored" 0 (delta "prop.carried");
  check Alcotest.bool "the copy pulled" true (delta "net.msg.read" > 0);
  match copies w gf with
  | [ (_, vv, body); (_, vv', body') ] ->
    check Alcotest.bool "at the latest version" true (Vvec.equal vv vv');
    check Alcotest.string "equal bytes" body body';
    check Alcotest.string "both commits present" "first" (String.sub body' 0 5)
  | l -> Alcotest.failf "expected two copies, found %d" (List.length l)

(* The carried pages are the committed ones: a writer that opens the file
   at the committing site after the commit, before its notification is
   sent, does not have its uncommitted bytes shipped under the committed
   version. *)
let test_carried_ignores_open_session () =
  let w = make_world ~window:8 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  let gf = Kernel.creat k0 p0 "/u" in
  Kernel.write_file k0 p0 "/u" "v0";
  ignore (World.settle w);
  let snap = Sim.Stats.snapshot (World.stats w) in
  Kernel.write_file k0 p0 "/u" "committed-v1";
  let o = Us.open_gf k0 gf Proto.Mode_modify in
  Us.write k0 o ~off:0 "DIRTYDIRTY!!";
  ignore (World.settle w);
  check Alcotest.int "the commit was carried" 1
    (Sim.Stats.delta_of (World.stats w) snap "prop.carried");
  Us.abort k0 o;
  Us.close k0 o;
  ignore (World.settle w);
  let stored = copies w gf in
  check Alcotest.int "two copies" 2 (List.length stored);
  List.iter
    (fun (site, _, body) ->
      check Alcotest.string (Printf.sprintf "committed bytes at site %d" site) "committed-v1" body)
    stored

(* A commit that modified more than a window of pages carries nothing:
   the copy pulls as at a window of 1, a window per round trip. *)
let test_wide_commit_pulls () =
  let w = make_world ~window:8 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  let gf = Kernel.creat k0 p0 "/wide" in
  Kernel.write_file k0 p0 "/wide" (String.make (10 * Storage.Page.size) 'x');
  ignore (World.settle w);
  let snap = Sim.Stats.snapshot (World.stats w) in
  Kernel.write_file k0 p0 "/wide" (String.make (10 * Storage.Page.size) 'y');
  ignore (World.settle w);
  let delta = deltas w snap in
  check Alcotest.int "nothing carried" 0 (delta "prop.carried");
  check Alcotest.int "two read round trips" 4 (delta "net.msg.read");
  match copies w gf with
  | [ (_, vv, body); (_, vv', body') ] ->
    check Alcotest.bool "converged" true (Vvec.equal vv vv');
    check Alcotest.string "equal bytes" body body'
  | l -> Alcotest.failf "expected two copies, found %d" (List.length l)

(* While a writer is active only one storage site may be involved
   (section 2.3.6 footnote). A writer on a file with copies at three
   packs reads its own bytes after a commit, a read open while it writes
   is served by the writer's SS and sees what the writer pushed there, and
   the commit reaches every copy. *)
let test_modify_open_one_ss () =
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
  let page = Storage.Page.size in
  let body tag pages =
    String.init (pages * page) (fun i -> Char.chr (Char.code 'a' + (((i / page) + tag) mod 26)))
  in
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  Kernel.set_ncopies p3 3;
  ignore (Kernel.creat k3 p3 "/big");
  Kernel.write_file k3 p3 "/big" (body 3 12);
  ignore (World.settle w);
  let gf = Kernel.resolve k3 p3 "/big" in
  let o = Us.open_gf k3 gf Proto.Mode_modify in
  let v2 = body 7 12 and patch = body 11 3 in
  Us.write k3 o ~off:0 v2;
  Us.commit k3 o;
  Us.write k3 o ~off:(5 * page) patch;
  let final = String.sub v2 0 (5 * page) ^ patch ^ String.sub v2 (8 * page) (4 * page) in
  check Alcotest.string "the writer reads its own bytes after a commit" final
    (Us.read_bytes k3 o ~off:0 ~len:(12 * page));
  Us.flush_wb k3 o;
  let k4 = World.kernel w 4 in
  let r = Us.open_gf k4 gf Proto.Mode_read in
  check Alcotest.bool "the reader shares the writer's SS" true (Net.Site.equal r.K.o_ss o.K.o_ss);
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
        (Pack.read_string pack (Pack.get_inode pack gf.Catalog.Gfile.ino)))
    [ 0; 1; 2 ]

(* ---- a create's designated copies ---- *)

(* Inode information equal field by field, the version by [Vvec.equal]. *)
let same_info (a : Proto.inode_info) (b : Proto.inode_info) =
  Vvec.equal a.Proto.i_vv b.Proto.i_vv && { a with Proto.i_vv = b.Proto.i_vv } = b

let css_of w = World.kernel w (K.fg_info (World.kernel w 0) 0).K.css_site

(* Create [path] at [site] with [ncopies] copies and settle. Returns the
   file, the pull traffic about it, the change of every counter over the
   create, and the sites that hold a copy. *)
let create_settled w ~site ~ncopies path =
  let k = World.kernel w site and p = World.proc w site in
  Kernel.set_ncopies p ncopies;
  let log = log_requests w in
  let snap = Sim.Stats.snapshot (World.stats w) in
  let gf = Kernel.creat k p path in
  ignore (World.settle w);
  let delta key = Sim.Stats.delta_of (World.stats w) snap key in
  (gf, pull_requests log gf, delta, List.map (fun (s, _, _) -> s) (copies w gf))

(* Above a window of 1 a create's designation carries the new inode, and
   each designated site installs it on arrival: no read, each copy's
   inode exactly the origin's, and the CSS lists every copy at the new
   version. The directory /d is stored at sites 0, 1 and 2. Site 0 numbers
   /d/a's inode itself; /d/b is created from site 3, which does not store
   /d, so the storage site that enters the name numbers it. *)
let test_designation_installs_inode () =
  let w = make_world ~window:8 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 3;
  let dir = Kernel.mkdir k0 p0 "/d" in
  ignore (World.settle w);
  check Alcotest.(list int) "/d at sites 0, 1 and 2" [ 0; 1; 2 ]
    (List.map (fun (s, _, _) -> s) (copies w dir));
  List.iter
    (fun (site, path) ->
      let gf, requests, delta, holders = create_settled w ~site ~ncopies:3 path in
      check Alcotest.(list int) (path ^ ": three copies") [ 0; 1; 2 ] holders;
      check Alcotest.(list string) (path ^ ": no read, stat or where") [] requests;
      check Alcotest.int (path ^ ": no read message at all") 0 (delta "net.msg.read");
      (* Two designations, and the directory commit at /d's two other copies. *)
      check Alcotest.int (path ^ ": four notifications installed") 4 (delta "prop.carried");
      let info site =
        Proto.info_of_inode
          (Pack.get_inode (Hashtbl.find (World.kernel w site).K.packs 0) gf.Catalog.Gfile.ino)
      in
      List.iter
        (fun site ->
          check Alcotest.bool
            (Printf.sprintf "%s: the inode at site %d is the origin's, mtime included" path site)
            true
            (same_info (info 0) (info site)))
        holders;
      let css = css_of w in
      let f = Locus_core.Css.get_file css 0 gf.Catalog.Gfile.ino in
      check Alcotest.bool (path ^ ": a version exists") false (Vvec.equal f.K.latest_vv Vvec.zero);
      check Alcotest.(list int) (path ^ ": the CSS lists every copy at the new version") holders
        (Locus_core.Css.sites_with_latest css f))
    [ (0, "/d/a"); (3, "/d/b") ]

(* At a window of 1 the designation stays bare: each designated copy
   pulls, one read round trip of the empty body. *)
let test_designation_pulls_at_window_1 () =
  let w = make_world ~window:1 () in
  let _, requests, delta, holders = create_settled w ~site:0 ~ncopies:3 "/w1" in
  check Alcotest.(list int) "three copies" [ 0; 1; 2 ] holders;
  check Alcotest.(list string) "one read per designated copy" [ "read"; "read" ] requests;
  check Alcotest.int "nothing carried" 0 (delta "prop.carried")

(* A file written straight after its create, before any designation has
   arrived, reaches every copy: the designated copies that have not yet
   reported are on the write's notify list. *)
let test_created_then_written_reaches_every_copy () =
  let w = make_world ~window:8 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 3;
  let gf = Kernel.creat k0 p0 "/fresh" in
  Kernel.write_file k0 p0 "/fresh" "written at once";
  ignore (World.settle w);
  let stored = copies w gf in
  check Alcotest.int "three copies" 3 (List.length stored);
  let latest = (Locus_core.Css.get_file (css_of w) 0 gf.Catalog.Gfile.ino).K.latest_vv in
  List.iter
    (fun (site, vv, body) ->
      check Alcotest.bool (Printf.sprintf "site %d at the latest version" site) true
        (Vvec.equal vv latest);
      check Alcotest.string (Printf.sprintf "site %d holds the written bytes" site)
        "written at once" body)
    stored

(* A designated copy reports the empty version it installed after the
   creator's first write has committed. At the CSS, whose own copy is
   newer, that report retires nothing: the buffered page the write's
   notification read stays, so a read open the CSS serves costs no disk
   read. *)
let test_older_report_retires_nothing () =
  let w = make_world ~window:8 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  check Alcotest.int "site 0 is the CSS" 0 (css_of w).K.site;
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/first");
  Kernel.write_file k0 p0 "/first" "written at once";
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  let gf = Kernel.resolve k3 p3 "/first" in
  let snap = Sim.Stats.snapshot (World.stats w) in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  check Alcotest.bool "the CSS serves" true (Net.Site.equal o.K.o_ss 0);
  check Alcotest.string "a read from a site with no copy" "written at once" (Us.read_all k3 o);
  Us.close k3 o;
  check Alcotest.int "served from the CSS's buffer cache" 0
    (Sim.Stats.delta_of (World.stats w) snap "cache.ss.miss")

(* A designation that is lost leaves the designated site without a copy.
   The CSS still counts that site as an unreported copy, but never offers
   it as a storage site: every read is served elsewhere and returns the
   written bytes. A heal and merge rebuilds the CSS's record from the
   packs' inventories and designates the site again: it pulls the
   latest version, and the file has its three copies. *)
let test_lost_designation () =
  let w = make_world ~window:8 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let css = css_of w in
  Kernel.set_ncopies p0 3;
  Net.Netsim.fail_next_message (World.net w) ~src:css.K.site ~dst:2;
  let gf = Kernel.creat k0 p0 "/lostdes" in
  Kernel.write_file k0 p0 "/lostdes" "body";
  ignore (World.settle w);
  check Alcotest.(list int) "no copy at site 2" [ 0; 1 ]
    (List.map (fun (s, _, _) -> s) (copies w gf));
  let polled = ref 0 in
  let k2 = World.kernel w 2 in
  Net.Netsim.set_handler (World.net w) 2 (fun ~src req ->
      (match req with
      | Proto.Storage_req { gf = g; _ } when Catalog.Gfile.equal g gf -> incr polled
      | _ -> ());
      Dispatch.handle k2 ~src req);
  List.iter
    (fun site ->
      let k = World.kernel w site in
      let o = Us.open_gf k gf Proto.Mode_read in
      check Alcotest.bool (Printf.sprintf "site %d: not served by site 2" site) false
        (Net.Site.equal o.K.o_ss 2);
      check Alcotest.string (Printf.sprintf "site %d reads the written bytes" site) "body"
        (Us.read_all k o);
      Us.close k o)
    (World.sites w);
  check Alcotest.int "site 2 never polled" 0 !polled;
  let listed () =
    let f = Locus_core.Css.get_file (css_of w) 0 gf.Catalog.Gfile.ino in
    List.map fst (Net.Site.Map.bindings f.K.site_vv)
  in
  check Alcotest.(list int) "before the merge: site 2 counted, unreported" [ 0; 1; 2 ] (listed ());
  ignore (World.heal_and_merge w);
  check Alcotest.(list int) "after the merge: three copies" [ 0; 1; 2 ] (listed ());
  let f = Locus_core.Css.get_file (css_of w) 0 gf.Catalog.Gfile.ino in
  check Alcotest.(list int) "all at the latest version" [ 0; 1; 2 ]
    (Locus_core.Css.sites_with_latest (css_of w) f);
  check Alcotest.(list int) "site 2 holds a copy" [ 0; 1; 2 ]
    (List.map (fun (s, _, _) -> s) (copies w gf));
  List.iter
    (fun (site, _, body) ->
      check Alcotest.string (Printf.sprintf "site %d holds the written bytes" site) "body" body)
    (copies w gf);
  check Alcotest.string "a read after the merge" "body"
    (Kernel.read_file (World.kernel w 3) (World.proc w 3) "/lostdes")

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
          Alcotest.test_case "lost notify: carried pages ignored" `Quick
            test_lost_notify_pulls_whole;
          Alcotest.test_case "carried pages ignore an open session" `Quick
            test_carried_ignores_open_session;
          Alcotest.test_case "wide commit carries nothing" `Quick test_wide_commit_pulls;
          Alcotest.test_case "a modify open uses one storage site" `Quick test_modify_open_one_ss;
        ] );
      ( "designation",
        [
          Alcotest.test_case "a designated copy installs from its designation" `Quick
            test_designation_installs_inode;
          Alcotest.test_case "window 1: a designated copy pulls" `Quick
            test_designation_pulls_at_window_1;
          Alcotest.test_case "a created file written at once reaches every copy" `Quick
            test_created_then_written_reaches_every_copy;
          Alcotest.test_case "a lost designation" `Quick test_lost_designation;
          Alcotest.test_case "an older report retires nothing" `Quick
            test_older_report_retires_nothing;
        ] );
    ]
