(* The §2.3.4 pathname-resolution fast path: the per-site name cache and
   server-side partial-pathname lookup — coherence after cross-site
   directory changes, stop conditions of the server walk, message counts,
   and both ablations. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Pathname = Locus_core.Pathname
module Namecache = Locus_core.Namecache
module K = Locus_core.Ktypes
module Dispatch = Locus.Dispatch
module Mount = Catalog.Mount
module Gfile = Catalog.Gfile
module Stats = Sim.Stats

let check = Alcotest.check

(* All sites store the root filegroup: commit notifications reach every
   cache. *)
let full_world ?kconfig () =
  let base = World.default_config ~n_sites:4 () in
  let kernel_config = Option.value kconfig ~default:base.World.kernel_config in
  World.create ~config:{ base with World.kernel_config } ()

(* Only site 0 stores anything: sites 1..2 resolve fully remotely and are
   never notified of commits — the cache must stay safe without that. *)
let asym_world ?kconfig ?(machine_type = fun _ -> "vax") () =
  let base = World.default_config ~n_sites:3 () in
  let kernel_config = Option.value kconfig ~default:base.World.kernel_config in
  World.create
    ~config:
      { base with
        World.filegroups = [ { World.fg = 0; pack_sites = [ 0 ]; mount_path = None } ];
        kernel_config;
        machine_type;
      }
    ()

let msgs w snap = Stats.delta_of (World.stats w) snap "net.msg"

(* ---- coherence ---- *)

(* A rename at one site must kill the cached link at every other site
   storing the directory: the commit notification carries the new version
   vector, and links recorded under the old one are dropped. *)
let test_rename_invalidates_remote_cache () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.mkdir k0 p0 "/d");
  ignore (Kernel.creat k0 p0 "/d/old");
  Kernel.write_file k0 p0 "/d/old" "payload";
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  (* Warm site 3's cache through a real resolution. *)
  check Alcotest.string "before rename" "payload" (Kernel.read_file k3 p3 "/d/old");
  Kernel.rename k0 p0 ~from_path:"/d/old" ~to_path:"/d/new";
  ignore (World.settle w);
  (match Kernel.read_file k3 p3 "/d/old" with
  | _ -> Alcotest.fail "stale cached link resolved a renamed-away name"
  | exception K.Error (Proto.Enoent, _) -> ());
  check Alcotest.string "new name resolves" "payload" (Kernel.read_file k3 p3 "/d/new")

let test_unlink_invalidates_remote_cache () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.mkdir k0 p0 "/d");
  ignore (Kernel.creat k0 p0 "/d/f");
  Kernel.write_file k0 p0 "/d/f" "x";
  ignore (World.settle w);
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  check Alcotest.string "cached" "x" (Kernel.read_file k2 p2 "/d/f");
  Kernel.unlink k0 p0 "/d/f";
  ignore (World.settle w);
  match Kernel.read_file k2 p2 "/d/f" with
  | _ -> Alcotest.fail "unlinked file still resolved through the cache"
  | exception K.Error (Proto.Enoent, _) -> ()

(* A site that stores nothing gets no commit notification, so its cached
   link MAY go stale — but a stale link must never reach a deleted inode's
   data: the CSS open check is the backstop. *)
let test_stale_entry_never_serves_deleted_inode () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/d");
  ignore (Kernel.creat k0 p0 "/d/doomed");
  Kernel.write_file k0 p0 "/d/doomed" "secret";
  ignore (World.settle w);
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  check Alcotest.string "resolves while alive" "secret"
    (Kernel.read_file k2 p2 "/d/doomed");
  Kernel.unlink k0 p0 "/d/doomed";
  ignore (World.settle w);
  (* Site 2 still holds the (now stale) link; opening through it must
     fail, not serve the dead inode. *)
  match Kernel.read_file k2 p2 "/d/doomed" with
  | _ -> Alcotest.fail "deleted inode served through a stale cached link"
  | exception K.Error (Proto.Enoent, _) -> ()

(* The unlinking site itself drops its links immediately (its own commit
   notification never loops back). *)
let test_local_unlink_drops_link () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/d");
  ignore (Kernel.creat k0 p0 "/d/f");
  Kernel.write_file k0 p0 "/d/f" "x";
  ignore (World.settle w);
  check Alcotest.string "warm" "x" (Kernel.read_file k0 p0 "/d/f");
  Kernel.unlink k0 p0 "/d/f";
  match Kernel.read_file k0 p0 "/d/f" with
  | _ -> Alcotest.fail "expected ENOENT after local unlink"
  | exception K.Error (Proto.Enoent, _) -> ()

(* ---- the server-side walk's stop conditions ---- *)

let multifg_world () =
  let base = World.default_config ~n_sites:4 () in
  let config =
    { base with
      World.filegroups =
        [
          { World.fg = 0; pack_sites = [ 0; 1; 2; 3 ]; mount_path = None };
          { World.fg = 1; pack_sites = [ 2; 3 ]; mount_path = Some "/usr" };
        ]
    }
  in
  let w = World.create ~config () in
  World.mount_filegroups w;
  w

(* The server walk consumes the component naming a mount point but never
   crosses it: crossing through the replicated mount table is the using
   site's job, and the returned gfile is the uncrossed mount point. *)
let test_lookup_stops_at_mount_point () =
  let w = multifg_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/usr/sub");
  ignore (World.settle w);
  let root = Mount.root k0.K.mount in
  match Pathname.handle_lookup k0 root [ "usr"; "sub" ] ~near:false with
  | { Proto.gf; consumed; trail } ->
    check Alcotest.int "consumed only the mount-point component" 1 consumed;
    check Alcotest.int "one trail step" 1 (List.length trail);
    check Alcotest.int "stopped in the covering filegroup" 0 gf.Gfile.fg;
    check Alcotest.bool "on the mount point itself" true
      (Mount.mounted_at k0.K.mount gf = Some 1)
  | exception K.Error _ -> Alcotest.fail "expected a lookup reply"

(* The walk consumes the component naming a hidden directory and stops on
   it: the '@' escape and context expansion are per-process, using-site
   business. *)
let test_lookup_stops_at_hidden_directory () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/bin");
  ignore (Kernel.mkdir ~hidden:true k0 p0 "/bin/who");
  ignore (Kernel.creat k0 p0 "/bin/who/@vax");
  Kernel.write_file k0 p0 "/bin/who/@vax" "vax load module";
  ignore (World.settle w);
  let root = Mount.root k0.K.mount in
  match Pathname.handle_lookup k0 root [ "bin"; "who"; "@vax" ] ~near:false with
  | { Proto.gf; consumed; trail } ->
    check Alcotest.int "stopped on the hidden directory" 2 consumed;
    let last = List.nth trail (List.length trail - 1) in
    check Alcotest.bool "trail marks it hidden" true
      (last.Proto.l_ftype = Storage.Inode.Hidden_directory);
    check Alcotest.bool "returned the hidden directory" true
      (Gfile.equal gf last.Proto.l_child)
  | exception K.Error _ -> Alcotest.fail "expected a lookup reply"

(* A dangling entry (live link, deleted inode — transiently possible under
   unsynchronized reads) must stop the walk unconsumed, so no trail step
   ever advertises a deleted inode to remote caches. *)
let test_lookup_never_returns_deleted_inode () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/d");
  ignore (Kernel.creat k0 p0 "/d/f");
  ignore (World.settle w);
  let gf = Kernel.resolve k0 p0 "/d/f" in
  (* Delete the inode behind the directory's back. *)
  let pack = Hashtbl.find k0.K.packs 0 in
  (Storage.Pack.get_inode pack gf.Gfile.ino).Storage.Inode.deleted <- true;
  let root = Mount.root k0.K.mount in
  match Pathname.handle_lookup k0 root [ "d"; "f" ] ~near:false with
  | { Proto.consumed; trail; _ } ->
    check Alcotest.int "stopped before the dead inode" 1 consumed;
    List.iter
      (fun (s : Proto.lookup_step) ->
        check Alcotest.bool "no trail step names the dead inode" false
          (Gfile.equal s.Proto.l_child gf))
      trail
  | exception K.Error _ -> Alcotest.fail "expected a lookup reply"

(* End-to-end: a packless site resolves through a hidden directory, both
   by context and by escape, with the fast path on. *)
let test_remote_resolution_through_hidden_dir () =
  let w = asym_world ~machine_type:(fun s -> if s = 2 then "pdp11" else "vax") () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/bin");
  ignore (Kernel.mkdir ~hidden:true k0 p0 "/bin/who");
  ignore (Kernel.creat k0 p0 "/bin/who/@vax");
  Kernel.write_file k0 p0 "/bin/who/@vax" "vax load module";
  ignore (Kernel.creat k0 p0 "/bin/who/@pdp11");
  Kernel.write_file k0 p0 "/bin/who/@pdp11" "pdp11 load module";
  ignore (World.settle w);
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  check Alcotest.string "context selects the pdp11 module" "pdp11 load module"
    (Kernel.read_file k2 p2 "/bin/who");
  check Alcotest.string "escape overrides the context" "vax load module"
    (Kernel.read_file k2 p2 "/bin/who/@vax");
  (* Warm repeats, exercising the cached links. *)
  check Alcotest.string "warm context" "pdp11 load module"
    (Kernel.read_file k2 p2 "/bin/who");
  check Alcotest.string "warm escape" "vax load module"
    (Kernel.read_file k2 p2 "/bin/who/@vax")

(* ---- message counts and ablations ---- *)

let deep_tree w depth =
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let rec mk prefix i =
    if i > depth then begin
      ignore (Kernel.creat k0 p0 (prefix ^ "/leaf"));
      Kernel.write_file k0 p0 (prefix ^ "/leaf") "x"
    end
    else begin
      let dir = prefix ^ "/d" ^ string_of_int i in
      ignore (Kernel.mkdir k0 p0 dir);
      mk dir (i + 1)
    end
  in
  mk "" 1;
  ignore (World.settle w);
  let rec path acc i =
    if i > depth then acc ^ "/leaf" else path (acc ^ "/d" ^ string_of_int i) (i + 1)
  in
  path "" 1

let resolve_msgs w site path =
  let k = World.kernel w site and p = World.proc w site in
  let snap = Stats.snapshot (World.stats w) in
  ignore (Kernel.resolve k p path);
  msgs w snap

(* The headline numbers: one round trip cold at depth 6 (the E13 slow
   path needs 46 messages), nothing at all warm. *)
let test_remote_depth6_message_counts () =
  let w = asym_world () in
  let path = deep_tree w 6 in
  let cold = resolve_msgs w 2 path in
  let warm = resolve_msgs w 2 path in
  check Alcotest.bool "cold resolution within one round trip budget" true (cold <= 10);
  check Alcotest.int "warm resolution is free" 0 warm;
  check Alcotest.bool "cache actually holds the trail" true
    (Namecache.length (World.kernel w 2).K.name_cache >= 7)

let test_ablation_no_remote_lookup () =
  let kconfig = { K.default_config with K.remote_lookup = false } in
  let w = asym_world ~kconfig () in
  let path = deep_tree w 3 in
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  check Alcotest.string "resolves without the server walk" "x"
    (Kernel.read_file k2 p2 path);
  let warm = resolve_msgs w 2 path in
  check Alcotest.int "cache alone still makes warm walks free" 0 warm;
  check Alcotest.int "no server-side walks ran" 0
    (Stats.get (World.stats w) "name.remote_walks")

let test_ablation_no_cache () =
  let kconfig = { K.default_config with K.name_cache_entries = 0 } in
  let w = asym_world ~kconfig () in
  let path = deep_tree w 3 in
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  check Alcotest.string "resolves with the cache off" "x" (Kernel.read_file k2 p2 path);
  check Alcotest.int "nothing was cached" 0
    (Namecache.length k2.K.name_cache);
  (* Still one round trip per walk thanks to the server-side half. *)
  let again = resolve_msgs w 2 path in
  check Alcotest.bool "each walk pays one round trip" true (again >= 2 && again <= 10)

let test_ablation_neither () =
  let kconfig =
    { K.default_config with K.name_cache_entries = 0; remote_lookup = false }
  in
  let w = asym_world ~kconfig () in
  let path = deep_tree w 3 in
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  check Alcotest.string "slow path still correct" "x" (Kernel.read_file k2 p2 path)

(* ---- entry types: no stat of the leaf ---- *)

(* Packs at sites 0 (the CSS, which a remote lookup asks) and 1; sites 2
   and 3 store nothing. *)
let split_world ?(machine_type = fun _ -> "vax") () =
  let base = World.default_config ~n_sites:4 () in
  World.create
    ~config:
      { base with
        World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1 ]; mount_path = None } ];
        machine_type;
      }
    ()

let stored_at w site gf =
  Storage.Pack.find_inode (Hashtbl.find (World.kernel w site).K.packs 0) gf.Gfile.ino <> None

(* Creates [dir] on both packs, then runs [make] at site 1 with one copy
   per file, so what it makes is stored at site 1 only. *)
let split_tree w ~dir make =
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.mkdir k0 p0 dir);
  ignore (World.settle w);
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  Kernel.set_ncopies p1 1;
  make k1 p1;
  ignore (World.settle w)

let no_where_or_stat w snap =
  check Alcotest.int "no where message" 0 (Stats.delta_of (World.stats w) snap "net.msg.where");
  check Alcotest.int "no stat message" 0 (Stats.delta_of (World.stats w) snap "net.msg.stat")

(* The lookup site (0) stores the directory but not the leaf, which lives
   at site 1 only: the trail's last step still carries the leaf's type,
   read from its directory entry, so the packless site sends no
   [Where_stored] and no stat after the lookup. *)
let test_leaf_stored_away_needs_no_stat () =
  let w = split_world () in
  split_tree w ~dir:"/d" (fun k p ->
      ignore (Kernel.creat k p "/d/f");
      Kernel.write_file k p "/d/f" "away");
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  let snap = Stats.snapshot (World.stats w) in
  let cold = resolve_msgs w 3 "/d/f" in
  let warm = resolve_msgs w 3 "/d/f" in
  check Alcotest.int "cold: one lookup round trip" 2 cold;
  check Alcotest.int "warm: nothing" 0 warm;
  no_where_or_stat w snap;
  let gf = Kernel.resolve k3 p3 "/d/f" in
  check Alcotest.bool "the lookup site does not store the leaf" false (stored_at w 0 gf);
  check Alcotest.string "and it reads" "away" (Kernel.read_file k3 p3 "/d/f")

(* A hidden directory stored away from the lookup site: its entry tells
   the packless site it is hidden, so the walk expands it by context, or
   takes the '@' escape, without asking anyone its type. *)
let test_hidden_dir_stored_away_expands () =
  let w = split_world ~machine_type:(fun s -> if s = 3 then "pdp11" else "vax") () in
  split_tree w ~dir:"/bin" (fun k p ->
      ignore (Kernel.mkdir ~hidden:true k p "/bin/who");
      List.iter
        (fun m ->
          ignore (Kernel.creat k p ("/bin/who/@" ^ m));
          Kernel.write_file k p ("/bin/who/@" ^ m) (m ^ " load module"))
        [ "vax"; "pdp11" ]);
  let k1 = World.kernel w 1 in
  let who =
    Pathname.resolve_from k1 ~cwd:(Mount.root k1.K.mount) ~context:[] ~follow_hidden:false
      "/bin/who"
  in
  check Alcotest.bool "the lookup site does not store the hidden directory" false
    (stored_at w 0 who);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  let snap = Stats.snapshot (World.stats w) in
  for _ = 1 to 2 do
    check Alcotest.string "context selects the pdp11 module" "pdp11 load module"
      (Kernel.read_file k3 p3 "/bin/who");
    check Alcotest.string "escape overrides the context" "vax load module"
      (Kernel.read_file k3 p3 "/bin/who/@vax")
  done;
  no_where_or_stat w snap

(* Each writer of an entry records the child's type: a create its own, a
   rename's link half the type its unlink half removed, a hard link the
   type its target resolved to; mkdir's "." and ".." are directories. *)
let test_writers_record_types () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/d");
  ignore (Kernel.mkdir ~hidden:true k0 p0 "/d/h");
  ignore (Kernel.creat ~ftype:Storage.Inode.Mailbox k0 p0 "/d/box");
  Kernel.rename k0 p0 ~from_path:"/d/box" ~to_path:"/d/moved";
  Kernel.rename k0 p0 ~from_path:"/d/h" ~to_path:"/d/hidden";
  Kernel.link k0 p0 ~target:"/d/moved" ~path:"/d/again";
  ignore (World.settle w);
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  let types =
    List.map
      (fun (e : Catalog.Dir.entry) -> (e.Catalog.Dir.name, e.Catalog.Dir.ftype))
      (Kernel.readdir k2 p2 "/d")
  in
  check Alcotest.bool "entry types" true
    (types
    = Storage.Inode.
        [ (".", Directory); ("..", Directory); ("again", Mailbox);
          ("hidden", Hidden_directory); ("moved", Mailbox) ])

(* A walk that ends on ".." takes no type from the ".." entry, which
   mkdir writes as a directory even under a hidden one: the hidden
   parent still expands under the context. *)
let test_dotdot_into_hidden_dir_expands () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/bin");
  ignore (Kernel.mkdir ~hidden:true k0 p0 "/bin/who");
  ignore (Kernel.mkdir k0 p0 "/bin/who/@vax");
  ignore (World.settle w);
  check Alcotest.bool "expanded like the hidden directory itself" true
    (Gfile.equal (Kernel.resolve k0 p0 "/bin/who") (Kernel.resolve k0 p0 "/bin/who/@vax/.."))

(* ---- name lookups through the SS buffer cache ---- *)

(* A storing site (2, not the CSS) with the name cache off: each walk
   searches its local directories through the SS index, whose pages come
   through the buffer cache. A second name of the same directory version
   costs nothing. Then site 1 creates a name, which the CSS enters, and
   site 2's copy installs the commit: the page it pulled is buffered and
   the index follows the new version, so the next lookup reads no disk. *)
let test_lookup_reads_through_buffer_cache () =
  let kconfig = { K.default_config with K.name_cache_entries = 0 } in
  let w = full_world ~kconfig () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.mkdir k0 p0 "/d");
  ignore (Kernel.creat k0 p0 "/d/a");
  ignore (Kernel.creat k0 p0 "/d/b");
  ignore (World.settle w);
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  let timed path =
    let snap = Stats.snapshot (World.stats w) in
    let t0 = World.now w in
    let gf = Kernel.resolve k2 p2 path in
    (gf, World.now w -. t0, msgs w snap)
  in
  ignore (timed "/d/a");
  let _, t, m = timed "/d/b" in
  check Alcotest.int "a local walk sends nothing" 0 m;
  check (Alcotest.float 0.0) "the second name reads no page from disk" 0.0 t;
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  let created = Kernel.creat k1 p1 "/d/c" in
  ignore (World.settle w);
  let gf, t, m = timed "/d/c" in
  check Alcotest.bool "the installed version's name is found" true (Gfile.equal gf created);
  check Alcotest.int "still no message" 0 m;
  check (Alcotest.float 0.0) "the replaced page is read from its buffer" 0.0 t

(* ---- re-warming after a merge ---- *)

(* Packs at site 0 only: site 2 resolves everything remotely. /d holds
   a, b and c. *)
let rewarm_world ?kconfig () =
  let w = asym_world ?kconfig () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/d");
  List.iter (fun n -> ignore (Kernel.creat k0 p0 ("/d/" ^ n))) [ "a"; "b"; "c" ];
  ignore (World.settle w);
  w

(* Every lookup [site] serves from now on, with its reply, newest first. *)
let tap_lookups w site =
  let log = ref [] in
  let net = World.net w in
  let k = World.kernel w site in
  let handle (type a) ~src (req : a Proto.req) : a =
    let resp = Dispatch.handle k ~src req in
    (match req with
    | Proto.Lookup_req { near; _ } -> log := (near, resp.Proto.trail) :: !log
    | _ -> ());
    resp
  in
  K.Transport.set_handler net site { handle };
  log

let nears log = List.rev_map fst !log

let neighbours (trail : Proto.lookup_step list) =
  List.concat_map (fun (s : Proto.lookup_step) -> s.Proto.l_near) trail

let root_of w site = Mount.root (World.kernel w site).K.mount

(* The headline: site 2 used /d/a, /d/b and /d/c, and a merge dropped
   its whole name cache. The first walk after it asks for the page's
   other links and files them, so the next two names cost nothing, where
   each used to cost a round trip of its own. *)
let test_merge_rewarms_directory () =
  let w = rewarm_world () in
  List.iter (fun n -> ignore (resolve_msgs w 2 ("/d/" ^ n))) [ "a"; "b"; "c" ];
  ignore (World.heal_and_merge w);
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  check Alcotest.int "the merge dropped every link" 0 (Namecache.length k2.K.name_cache);
  let log = tap_lookups w 0 in
  let snap = Stats.snapshot (World.stats w) in
  check Alcotest.int "/d/a: one round trip" 2 (resolve_msgs w 2 "/d/a");
  check Alcotest.(list bool) "one lookup, asking for the neighbours" [ true ] (nears log);
  check Alcotest.int "/d/b: nothing" 0 (resolve_msgs w 2 "/d/b");
  check Alcotest.int "/d/c: nothing" 0 (resolve_msgs w 2 "/d/c");
  check Alcotest.int "counted once" 1 (Stats.delta_of (World.stats w) snap "name.rewarm");
  check Alcotest.int "two neighbours filed" 2
    (Stats.delta_of (World.stats w) snap "name.rewarm.filed");
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  List.iter
    (fun n ->
      let path = "/d/" ^ n in
      check Alcotest.bool (path ^ " names the storing site's gfile") true
        (Gfile.equal (Kernel.resolve k2 p2 path) (Kernel.resolve k0 p0 path)))
    [ "a"; "b"; "c" ]

(* Without a merge nothing changes: a fresh site's first walk asks for
   no neighbour, gets none, and costs the bytes it always did. *)
let test_no_merge_no_neighbours () =
  let w = rewarm_world () in
  let log = tap_lookups w 0 in
  let snap = Stats.snapshot (World.stats w) in
  check Alcotest.int "one round trip" 2 (resolve_msgs w 2 "/d/a");
  check Alcotest.(list bool) "no neighbours asked for" [ false ] (nears log);
  List.iter
    (fun (_, trail) -> check Alcotest.int "none sent" 0 (List.length (neighbours trail)))
    !log;
  check Alcotest.int "request and reply bytes, as before" 122
    (Stats.delta_of (World.stats w) snap "net.bytes")

(* A neighbour is a live link a trail could have carried: never a
   tombstone, ".", "..", an inode the pack marks deleted, or a record an
   open session appended past the committed size. *)
let test_what_a_neighbour_never_is () =
  let w = rewarm_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.unlink k0 p0 "/d/b";
  ignore (World.settle w);
  let c = Kernel.resolve k0 p0 "/d/c" in
  let pack = Hashtbl.find k0.K.packs 0 in
  (Storage.Pack.get_inode pack c.Gfile.ino).Storage.Inode.deleted <- true;
  let d = Kernel.resolve k0 p0 "/d" in
  let o = Locus_core.Us.open_gf k0 d Proto.Mode_modify in
  let size = o.K.o_info.Proto.i_size in
  Locus_core.Us.write k0 o ~off:size
    (Catalog.Dir.record
       { Catalog.Dir.name = "pending"; ino = c.Gfile.ino; ftype = Storage.Inode.Regular;
         status = Catalog.Dir.Live; stamp = 0.0; origin = 0 });
  Locus_core.Us.flush_wb k0 o;
  (match Pathname.handle_lookup k0 (root_of w 0) [ "d"; "a" ] ~near:true with
  | { Proto.consumed = 2; trail = [ _; in_d ]; _ } ->
    check Alcotest.(list string) "no neighbour in /d" []
      (List.map (fun (n : Proto.near_link) -> n.Proto.n_name) in_d.Proto.l_near)
  | _ -> Alcotest.fail "expected a two-step trail");
  Locus_core.Us.abort k0 o;
  Locus_core.Us.close k0 o;
  ignore (Kernel.creat k0 p0 "/d/e");
  ignore (World.settle w);
  match Pathname.handle_lookup k0 (root_of w 0) [ "d"; "a" ] ~near:true with
  | { Proto.trail = [ _; in_d ]; _ } ->
    check Alcotest.(list string) "a live link is one" [ "e" ]
      (List.map (fun (n : Proto.near_link) -> n.Proto.n_name) in_d.Proto.l_near)
  | _ -> Alcotest.fail "expected a two-step trail"

(* A neighbour only takes a free slot: with the cache full, a re-warming
   walk changes the recency list by the trail's own links alone. *)
let test_neighbour_never_evicts () =
  let kconfig = { K.default_config with K.name_cache_entries = 6 } in
  let w = rewarm_world ~kconfig () in
  ignore (resolve_msgs w 2 "/d/a");
  ignore (World.heal_and_merge w);
  let k2 = World.kernel w 2 in
  let nc = k2.K.name_cache in
  let other i = Gfile.make ~fg:0 ~ino:(1000 + i) in
  for i = 1 to 6 do
    Namecache.insert nc ~dir:(other i) ~comp:"x"
      { Namecache.nc_child = other (i + 10); nc_vv = Vv.Version_vector.zero;
        nc_ftype = Storage.Inode.Regular }
  done;
  let before = Namecache.keys_mru nc in
  let log = tap_lookups w 0 in
  ignore (resolve_msgs w 2 "/d/a");
  check Alcotest.(list bool) "a re-warming walk" [ true ] (nears log);
  let root = root_of w 2 and d = Kernel.resolve (World.kernel w 0) (World.proc w 0) "/d" in
  let expected =
    [ (d, "a"); (root, "d") ] @ List.filteri (fun i _ -> i < List.length before - 2) before
  in
  check Alcotest.bool "the trail's two links in, the two oldest out" true
    (List.equal
       (fun (g, c) (g', c') -> Gfile.equal g g' && String.equal c c')
       expected (Namecache.keys_mru nc))

(* A crash loses the memory of what the cache held, so the first walk
   after the site rejoins asks for no neighbour. *)
let test_crash_forgets () =
  let w = rewarm_world () in
  ignore (resolve_msgs w 2 "/d/a");
  ignore (World.heal_and_merge w);
  let root = root_of w 2 in
  check Alcotest.bool "the merge noted the root" true
    (Namecache.wants_rewarm (World.kernel w 2).K.name_cache root);
  World.crash_site w 2;
  check Alcotest.bool "the crash forgot it" false
    (Namecache.wants_rewarm (World.kernel w 2).K.name_cache root);
  ignore (World.heal_and_merge w);
  let log = tap_lookups w 0 in
  check Alcotest.int "one round trip" 2 (resolve_msgs w 2 "/d/a");
  check Alcotest.(list bool) "no neighbours asked for" [ false ] (nears log)

(* ---- the generic LRU core ---- *)

(* Integer keys; a key's tens digit is its file. *)
module Slru =
  Storage.Lru.Make
    (struct
      type t = int

      let equal = Int.equal

      let hash x = x

      let file x = x / 10
    end)
    (struct
      type t = int
    end)

let test_lru_filter_out () =
  let c = Slru.create ~capacity:8 () in
  List.iter (fun i -> Slru.insert c i (i * 10)) [ 1; 2; 3; 4; 5 ];
  let dropped = Slru.filter_out c (fun k v -> k mod 2 = 0 && v >= 20) in
  check Alcotest.int "dropped the matching entries" 2 dropped;
  check Alcotest.int "rest survive" 3 (Slru.length c);
  check Alcotest.bool "odd keys intact" true
    (Slru.find c 3 = Some 30 && Slru.find c 5 = Some 50 && Slru.find c 1 = Some 10);
  check Alcotest.bool "dropped keys gone" true
    (Slru.find c 2 = None && Slru.find c 4 = None)

(* Dropping a file with no entries drops nothing; dropping the most and
   the least recently used entries keeps the recency order of the rest,
   and the next eviction takes the right victim. *)
let test_lru_drop_file_ends () =
  let evicted = ref [] in
  let c = Slru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:4 () in
  check Alcotest.int "empty cache" 0 (Slru.drop_file c 1);
  List.iter (fun k -> Slru.insert c k k) [ 10; 20; 21; 30 ];
  check Alcotest.int "file with no entries" 0 (Slru.drop_file c 4);
  check Alcotest.int "the MRU entry's file" 1 (Slru.drop_file c 3);
  check Alcotest.(list int) "MRU gone" [ 21; 20; 10 ] (Slru.keys_mru c);
  check Alcotest.int "the LRU entry's file" 1 (Slru.drop_file c 1);
  check Alcotest.(list int) "LRU gone" [ 21; 20 ] (Slru.keys_mru c);
  List.iter (fun k -> Slru.insert c k k) [ 40; 41; 42 ];
  check Alcotest.(list int) "new LRU evicted, no dropped entry reported" [ 20 ] !evicted

(* A clear empties the per-file index with the table: a drop afterwards
   finds nothing, and refilled entries drop as before. *)
let test_lru_drop_after_clear () =
  let c = Slru.create ~capacity:8 () in
  List.iter (fun k -> Slru.insert c k k) [ 10; 11; 20 ];
  Slru.clear c;
  check Alcotest.int "nothing to drop" 0 (Slru.drop_file c 1);
  Slru.insert c 12 12;
  Slru.insert c 21 21;
  check Alcotest.int "refilled file dropped" 1 (Slru.drop_file c 1);
  check Alcotest.(list int) "other file kept" [ 21 ] (Slru.keys_mru c)

(* A child hard-linked from two directories: deleting it drops both
   links, whichever directory holds them, and no other link. *)
let test_invalidate_child_two_dirs () =
  let stats = Sim.Stats.create () in
  let nc = Namecache.create ~stats ~capacity:8 () in
  let gf ino = Gfile.make ~fg:0 ~ino in
  let link dir comp child =
    Namecache.insert nc ~dir:(gf dir) ~comp
      { Namecache.nc_child = gf child; nc_vv = Vv.Version_vector.zero;
        nc_ftype = Storage.Inode.Regular }
  in
  link 2 "a" 7;
  link 3 "b" 7;
  link 2 "c" 8;
  Namecache.invalidate_child nc (gf 7);
  let cached dir comp =
    Namecache.find nc ~dir:(gf dir) ~comp ~current_vv:None <> None
  in
  check Alcotest.bool "first link gone" false (cached 2 "a");
  check Alcotest.bool "second link gone" false (cached 3 "b");
  check Alcotest.bool "other child kept" true (cached 2 "c");
  check Alcotest.int "two invalidations" 2 (Sim.Stats.get stats "name.cache.invalidate")

let test_lru_eviction_order () =
  let evicted = ref [] in
  let c = Slru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:2 () in
  Slru.insert c 1 1;
  Slru.insert c 2 2;
  ignore (Slru.find c 1); (* 1 becomes MRU *)
  Slru.insert c 3 3;      (* 2 is LRU: out *)
  check Alcotest.(list int) "LRU evicted" [ 2 ] !evicted;
  check Alcotest.(list int) "recency order" [ 3; 1 ] (Slru.keys_mru c)

let () =
  Alcotest.run "namecache"
    [
      ( "coherence",
        [
          Alcotest.test_case "rename invalidates remote caches" `Quick
            test_rename_invalidates_remote_cache;
          Alcotest.test_case "unlink invalidates remote caches" `Quick
            test_unlink_invalidates_remote_cache;
          Alcotest.test_case "stale entry never serves a deleted inode" `Quick
            test_stale_entry_never_serves_deleted_inode;
          Alcotest.test_case "local unlink drops the link" `Quick
            test_local_unlink_drops_link;
        ] );
      ( "server walk",
        [
          Alcotest.test_case "stops at a mount point" `Quick
            test_lookup_stops_at_mount_point;
          Alcotest.test_case "stops at a hidden directory" `Quick
            test_lookup_stops_at_hidden_directory;
          Alcotest.test_case "never returns a deleted inode" `Quick
            test_lookup_never_returns_deleted_inode;
          Alcotest.test_case "remote resolution through a hidden directory" `Quick
            test_remote_resolution_through_hidden_dir;
        ] );
      ( "messages and ablations",
        [
          Alcotest.test_case "depth-6 cold/warm message counts" `Quick
            test_remote_depth6_message_counts;
          Alcotest.test_case "ablation: remote lookup off" `Quick
            test_ablation_no_remote_lookup;
          Alcotest.test_case "ablation: cache off" `Quick test_ablation_no_cache;
          Alcotest.test_case "ablation: both off" `Quick test_ablation_neither;
        ] );
      ( "entry types",
        [
          Alcotest.test_case "a leaf stored away needs no stat" `Quick
            test_leaf_stored_away_needs_no_stat;
          Alcotest.test_case "a hidden directory stored away expands" `Quick
            test_hidden_dir_stored_away_expands;
          Alcotest.test_case "every writer records the type" `Quick test_writers_record_types;
          Alcotest.test_case "a walk ending on .. into a hidden directory expands" `Quick
            test_dotdot_into_hidden_dir_expands;
        ] );
      ( "re-warm after a merge",
        [
          Alcotest.test_case "a merge re-warms a directory" `Quick
            test_merge_rewarms_directory;
          Alcotest.test_case "no merge, no neighbours" `Quick test_no_merge_no_neighbours;
          Alcotest.test_case "what a neighbour never is" `Quick
            test_what_a_neighbour_never_is;
          Alcotest.test_case "a neighbour never evicts" `Quick test_neighbour_never_evicts;
          Alcotest.test_case "a crash forgets" `Quick test_crash_forgets;
        ] );
      ( "buffer cache",
        [
          Alcotest.test_case "lookups read through the SS buffer cache" `Quick
            test_lookup_reads_through_buffer_cache;
        ] );
      ( "lru core",
        [
          Alcotest.test_case "filter_out" `Quick test_lru_filter_out;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "drop a file at either end" `Quick test_lru_drop_file_ends;
          Alcotest.test_case "drop after clear" `Quick test_lru_drop_after_clear;
          Alcotest.test_case "invalidate_child across two directories" `Quick
            test_invalidate_child_two_dirs;
        ] );
    ]
