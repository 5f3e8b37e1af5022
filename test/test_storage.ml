(* Unit tests for the storage substrate: disk, inodes/packs with indirect
   page tables, LRU cache, and the shadow-page commit engine — including
   crash-injection atomicity. *)

module Page = Storage.Page
module Disk = Storage.Disk
module Inode = Storage.Inode
module Pack = Storage.Pack
module Shadow = Storage.Shadow

(* Buffer caches for the tests. A name's first letter is its file. *)
module Cache =
  Storage.Lru.Make
    (struct
      type t = string

      let equal = String.equal

      let hash = Hashtbl.hash

      let file name = Char.code name.[0]
    end)
    (Page)

module Pcache =
  Storage.Lru.Make
    (struct
      type t = string * int (* file name, page *)

      let equal (f, p) (f', p') = String.equal f f' && p = p'

      let hash = Hashtbl.hash

      let file (name, _) = Char.code name.[0]
    end)
    (Page)

module Icache =
  Storage.Lru.Make
    (struct
      type t = int

      let equal = Int.equal

      let hash x = x

      let file x = x
    end)
    (Page)

module Vvec = Vv.Version_vector

let check = Alcotest.check

(* ---- pages ---- *)

let test_page_codec () =
  let p = Page.of_u32s [| 0; 123456789; 0xFFFFFFFF |] in
  check Alcotest.int "page size" Page.size (String.length p);
  check Alcotest.int "zero" 0 (Page.get_u32 p 0);
  check Alcotest.int "value" 123456789 (Page.get_u32 p 4);
  check Alcotest.int "max" 0xFFFFFFFF (Page.get_u32 p 8);
  check Alcotest.int "zero past the words" 0 (Page.get_u32 p 12)

let test_page_patch () =
  let p = Page.of_string "hello" in
  let q = Page.patch p 1 "ip" in
  check Alcotest.string "patched" "hiplo" (Page.sub q 0 5);
  check Alcotest.string "original kept" "hello" (Page.sub p 0 5);
  check Alcotest.int "page size" Page.size (String.length q);
  match Page.patch p (Page.size - 1) "xy" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a patch past the page must raise"

let test_page_of_string () =
  let p = Page.of_string "hello" in
  check Alcotest.string "prefix" "hello" (Page.sub p 0 5);
  check Alcotest.int "padded to size" Page.size (String.length p);
  let long = String.make (Page.size + 100) 'x' in
  let p2 = Page.of_string long in
  check Alcotest.int "truncated" Page.size (String.length p2)

(* ---- disk ---- *)

let test_disk_alloc_free () =
  let d = Disk.create ~pages:16 () in
  let a = Disk.alloc d in
  check Alcotest.bool "address nonzero" true (a > 0);
  check Alcotest.int "used" 1 (Disk.used d);
  Disk.free d a;
  check Alcotest.int "freed" 0 (Disk.used d);
  (match Disk.free d a with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double free should raise");
  let b = Disk.alloc d in
  check Alcotest.int "address reused" a b

let test_disk_full () =
  let d = Disk.create ~pages:4 () in
  (* Page 0 reserved: capacity is 3. *)
  let _ = Disk.alloc d and _ = Disk.alloc d and _ = Disk.alloc d in
  match Disk.alloc d with
  | exception Disk.Disk_full -> ()
  | _ -> Alcotest.fail "expected Disk_full"

let test_disk_rw () =
  let d = Disk.create () in
  let a = Disk.alloc d in
  Disk.write d a (Page.of_string "data!");
  check Alcotest.string "read back" "data!" (Page.sub (Disk.read d a) 0 5);
  check Alcotest.bool "read counted" true (Disk.reads d >= 1);
  check Alcotest.bool "write counted" true (Disk.writes d >= 1)

(* ---- pack + inode page tables ---- *)

let make_pack () = Pack.create ~fg:0 ~pack_id:0 ~ino_lo:2 ~ino_hi:1000 ()

let install pack ~ino content =
  let inode = Inode.create ~ino ~ftype:Inode.Regular ~owner:"t" in
  Pack.install_inode pack inode;
  if String.length content > 0 then begin
    let s = Shadow.begin_modify pack ino in
    Shadow.set_contents s content;
    Shadow.commit s ~vv:(Vvec.bump Vvec.zero 0) ~mtime:1.0
  end;
  Pack.get_inode pack ino

let test_pack_alloc_ino_partitioned () =
  let a = Pack.create ~fg:0 ~pack_id:0 ~ino_lo:2 ~ino_hi:100 () in
  let b = Pack.create ~fg:0 ~pack_id:1 ~ino_lo:101 ~ino_hi:200 () in
  let ia = Pack.alloc_ino a and ib = Pack.alloc_ino b in
  check Alcotest.bool "disjoint ranges" true (ia >= 2 && ia <= 100 && ib >= 101)

let test_pack_small_file_roundtrip () =
  let pack = make_pack () in
  let inode = install pack ~ino:2 "hello storage" in
  check Alcotest.string "contents" "hello storage" (Pack.read_string pack inode);
  check Alcotest.int "size" 13 inode.Inode.size

let test_pack_large_file_indirect () =
  let pack = make_pack () in
  (* 20 pages: beyond the 8 direct slots, into the indirect page. *)
  let body = String.init (20 * Page.size) (fun i -> Char.chr (65 + (i mod 26))) in
  let inode = install pack ~ino:2 body in
  check Alcotest.bool "indirect allocated" true (inode.Inode.indirect <> 0);
  check Alcotest.string "large roundtrip" body (Pack.read_string pack inode);
  (* Shrink back below the direct threshold: indirect page released. *)
  let s = Shadow.begin_modify pack 2 in
  Shadow.set_contents s "tiny";
  Shadow.commit s ~vv:(Vvec.bump Vvec.zero 0) ~mtime:2.0;
  let inode = Pack.get_inode pack 2 in
  check Alcotest.int "no indirect" 0 inode.Inode.indirect;
  check Alcotest.string "shrunk" "tiny" (Pack.read_string pack inode)

(* A file past the direct slots maps its pages through the indirect page.
   One reader, or one SS request, reads that page once: a whole read of a
   16-page file costs its 16 data pages and one indirect read, where a
   reader per page pays it again for each of the 8 pages past the direct
   slots. *)
let test_pack_one_indirect_read_per_request () =
  let pack = make_pack () in
  let pages = 16 in
  let body = String.init (pages * Page.size) (fun i -> Char.chr (65 + (i / Page.size))) in
  let inode = install pack ~ino:2 body in
  let disk = Pack.disk pack in
  let reads f =
    let before = Disk.reads disk in
    f ();
    Disk.reads disk - before
  in
  let read_with read = for lpage = 0 to pages - 1 do ignore (read lpage) done in
  check Alcotest.int "read_string: 16 data pages, 1 indirect" (pages + 1)
    (reads (fun () -> check Alcotest.string "contents" body (Pack.read_string pack inode)));
  check Alcotest.int "one reader: 16 data pages, 1 indirect" (pages + 1)
    (reads (fun () -> read_with (Pack.reader pack inode)));
  check Alcotest.int "the direct pages need no indirect read" Inode.n_direct
    (reads (fun () ->
         let read = Pack.reader pack inode in
         for lpage = 0 to Inode.n_direct - 1 do ignore (read lpage) done));
  check Alcotest.int "a reader per page pays it per page" (pages + (pages - Inode.n_direct))
    (reads (fun () -> read_with (fun lpage -> Pack.reader pack inode lpage)));
  (* The same file read whole by one [Read_pages] at its storage site,
     with the SS buffer cache off so every page comes from the disk. *)
  let base = Locus.World.default_config ~n_sites:2 () in
  let config =
    { base with
      Locus.World.kernel_config =
        { base.Locus.World.kernel_config with Locus_core.Ktypes.ss_cache_pages = 0 } }
  in
  let w = Locus.World.create ~config () in
  let k0 = Locus.World.kernel w 0 and p0 = Locus.World.proc w 0 in
  let gf = Locus_core.Kernel.creat k0 p0 "/sixteen" in
  Locus_core.Kernel.write_file k0 p0 "/sixteen" body;
  ignore (Locus.World.settle w);
  let disk = Pack.disk (Hashtbl.find k0.Locus_core.Ktypes.packs gf.Catalog.Gfile.fg) in
  let before = Disk.reads disk in
  (match
     Locus_core.Ss.handle_read_pages ~committed:true k0 gf ~first:0 ~count:pages
   with
  | { pages = got; _ } ->
    check Alcotest.string "the request reads the file" body (String.concat "" got)
  | exception Locus_core.Ktypes.Error _ -> Alcotest.fail "the read request failed");
  check Alcotest.int "one request: 16 data pages, 1 indirect" (pages + 1)
    (Disk.reads disk - before)

let test_pack_remove_frees_pages () =
  let pack = make_pack () in
  let _ = install pack ~ino:2 (String.make 5000 'z') in
  let used = Disk.used (Pack.disk pack) in
  check Alcotest.bool "pages in use" true (used > 0);
  Pack.remove_inode pack 2;
  check Alcotest.int "all pages freed" 0 (Disk.used (Pack.disk pack))

(* ---- shadow-page commit ---- *)

let test_shadow_commit_replaces () =
  let pack = make_pack () in
  let _ = install pack ~ino:2 "version one" in
  let s = Shadow.begin_modify pack 2 in
  Shadow.set_contents s "version two!";
  (* Before commit, the disk inode still shows the old version. *)
  check Alcotest.string "old visible before commit" "version one"
    (Pack.read_string pack (Pack.get_inode pack 2));
  Shadow.commit s ~vv:(Vvec.bump (Vvec.bump Vvec.zero 0) 0) ~mtime:2.0;
  check Alcotest.string "new after commit" "version two!"
    (Pack.read_string pack (Pack.get_inode pack 2))

let test_shadow_abort_restores () =
  let pack = make_pack () in
  let _ = install pack ~ino:2 "keep me" in
  let used_before = Disk.used (Pack.disk pack) in
  let s = Shadow.begin_modify pack 2 in
  Shadow.write_page s ~lpage:0 (Page.of_string "discard");
  Shadow.patch_page s ~lpage:1 ~off:0 "more";
  Shadow.abort s;
  check Alcotest.string "unchanged" "keep me"
    (Pack.read_string pack (Pack.get_inode pack 2));
  check Alcotest.int "no leaked pages" used_before (Disk.used (Pack.disk pack))

let test_shadow_partial_page_patch () =
  let pack = make_pack () in
  let _ = install pack ~ino:2 "abcdefghij" in
  let s = Shadow.begin_modify pack 2 in
  Shadow.patch_page s ~lpage:0 ~off:3 "XYZ";
  Shadow.commit s ~vv:(Vvec.bump Vvec.zero 0) ~mtime:2.0;
  check Alcotest.string "patched" "abcXYZghij"
    (Pack.read_string pack (Pack.get_inode pack 2))

let test_shadow_page_reused_in_place () =
  let pack = make_pack () in
  let _ = install pack ~ino:2 "start" in
  let s = Shadow.begin_modify pack 2 in
  Shadow.write_page s ~lpage:0 (Page.of_string "first");
  let used_after_first = Disk.used (Pack.disk pack) in
  (* Section 2.3.6: later writes to the same logical page reuse the shadow
     page in place. *)
  Shadow.write_page s ~lpage:0 (Page.of_string "second");
  Shadow.write_page s ~lpage:0 (Page.of_string "third");
  check Alcotest.int "no extra pages allocated" used_after_first
    (Disk.used (Pack.disk pack));
  Shadow.commit s ~vv:(Vvec.bump Vvec.zero 0) ~mtime:2.0;
  check Alcotest.string "last write wins" "third"
    (Pack.read_string pack (Pack.get_inode pack 2) |> fun s -> String.sub s 0 5)

let test_shadow_crash_before_switch () =
  let pack = make_pack () in
  let _ = install pack ~ino:2 "stable version" in
  let s = Shadow.begin_modify pack 2 in
  Shadow.set_contents s "doomed version that never commits";
  Shadow.crash_before_switch s;
  (* The old version is fully intact. *)
  check Alcotest.string "old version intact" "stable version"
    (Pack.read_string pack (Pack.get_inode pack 2));
  (* Orphaned shadow pages are reclaimed by scavenging. *)
  let freed = Pack.scavenge pack in
  check Alcotest.bool "orphans reclaimed" true (freed > 0);
  check Alcotest.string "still intact after scavenge" "stable version"
    (Pack.read_string pack (Pack.get_inode pack 2))

let test_shadow_delete_mark () =
  let pack = make_pack () in
  let _ = install pack ~ino:2 "to be deleted" in
  let s = Shadow.begin_modify pack 2 in
  Shadow.set_contents s "";
  Shadow.mark_deleted s ~time:9.0;
  Shadow.commit s ~vv:(Vvec.bump Vvec.zero 0) ~mtime:9.0;
  let inode = Pack.get_inode pack 2 in
  check Alcotest.bool "deleted" true inode.Inode.deleted;
  check Alcotest.int "empty" 0 inode.Inode.size

let test_shadow_modified_lpages () =
  let pack = make_pack () in
  let _ = install pack ~ino:2 (String.make 4000 'a') in
  let s = Shadow.begin_modify pack 2 in
  Shadow.patch_page s ~lpage:2 ~off:0 "x";
  Shadow.patch_page s ~lpage:0 ~off:0 "y";
  check Alcotest.(list int) "modified pages sorted" [ 0; 2 ] (Shadow.modified_lpages s);
  Shadow.abort s

(* A file with no indirect page grown past its direct slots in one
   session maps every page through a new indirect page. *)
let test_shadow_grow_past_direct () =
  let pack = make_pack () in
  let page i = String.make Page.size (Char.chr (65 + i)) in
  let _ = install pack ~ino:2 (String.concat "" (List.init 8 page)) in
  check Alcotest.int "no indirect yet" 0 (Pack.get_inode pack 2).Inode.indirect;
  let s = Shadow.begin_modify pack 2 in
  for lpage = 8 to 19 do
    Shadow.write_page s ~lpage (page lpage)
  done;
  Shadow.patch_page s ~lpage:3 ~off:1 "x";
  Shadow.commit s ~vv:(Vvec.bump Vvec.zero 0) ~mtime:2.0;
  let inode = Pack.get_inode pack 2 in
  check Alcotest.bool "indirect allocated" true (inode.Inode.indirect <> 0);
  let want = Bytes.of_string (String.concat "" (List.init 20 page)) in
  Bytes.set want ((3 * Page.size) + 1) 'x';
  check Alcotest.string "20 pages read back" (Bytes.to_string want)
    (Pack.read_string pack inode);
  check Alcotest.int "fsck clean" 0 (List.length (Pack.fsck pack))

let test_shadow_truncate_to_direct () =
  let pack = make_pack () in
  let body = String.init (20 * Page.size) (fun i -> Char.chr (65 + (i / Page.size))) in
  let _ = install pack ~ino:2 body in
  let size = (4 * Page.size) - 100 in
  let s = Shadow.begin_modify pack 2 in
  Shadow.truncate s size;
  Shadow.commit s ~vv:(Vvec.bump Vvec.zero 0) ~mtime:2.0;
  let inode = Pack.get_inode pack 2 in
  check Alcotest.int "indirect released" 0 inode.Inode.indirect;
  check Alcotest.string "4 pages read back" (String.sub body 0 size) (Pack.read_string pack inode);
  check Alcotest.int "fsck clean" 0 (List.length (Pack.fsck pack));
  (* The cut tail of the last page reads as zeroes once the file grows. *)
  let s = Shadow.begin_modify pack 2 in
  Shadow.set_size s (4 * Page.size);
  Shadow.commit s ~vv:(Vvec.bump Vvec.zero 0) ~mtime:3.0;
  check Alcotest.string "zeroed tail" (String.sub body 0 size ^ String.make 100 '\000')
    (Pack.read_string pack (Pack.get_inode pack 2));
  check Alcotest.int "fsck clean after growing" 0 (List.length (Pack.fsck pack))

(* ---- shared pages ---- *)

(* Pages are immutable values: the disk stores the page it is given and a
   cache hit returns the page inserted, so no tier copies one. *)
let test_pages_shared () =
  let d = Disk.create ~pages:4 () in
  let a = Disk.alloc d in
  let p = Page.of_string (String.make Page.size 'p') in
  check Alcotest.bool "a whole page is not copied in" true (Page.of_string p == p);
  Disk.write d a p;
  check Alcotest.bool "disk read returns the page written" true (Disk.read d a == p);
  check Alcotest.bool "a whole-page sub is the page" true (Page.sub p 0 Page.size == p);
  let c = Pcache.create ~capacity:4 () in
  Pcache.insert c ("f", 0) p;
  match Pcache.find c ("f", 0) with
  | Some q -> check Alcotest.bool "cache find returns the page inserted" true (q == p)
  | None -> Alcotest.fail "expected a hit"

(* A patch makes a new shadow page: a committed page a reader already
   holds keeps its bytes, and readers of the committed inode see the old
   bytes until the commit. *)
let test_patch_keeps_committed_page () =
  let pack = make_pack () in
  let inode = install pack ~ino:2 "abcdefghij" in
  let held = Pack.reader pack inode 0 in
  let s = Shadow.begin_modify pack 2 in
  Shadow.patch_page s ~lpage:0 ~off:3 "XYZ";
  check Alcotest.string "session sees the patch" "abcXYZghij"
    (Page.sub (Shadow.read_page s 0) 0 10);
  check Alcotest.string "the held page keeps its bytes" "abcdefghij" (Page.sub held 0 10);
  check Alcotest.string "readers see the old bytes before the commit" "abcdefghij"
    (Pack.read_string pack (Pack.get_inode pack 2));
  Shadow.commit s ~vv:(Vvec.bump Vvec.zero 0) ~mtime:2.0;
  check Alcotest.string "readers see the patch after it" "abcXYZghij"
    (Pack.read_string pack (Pack.get_inode pack 2));
  check Alcotest.string "the held page still keeps its bytes" "abcdefghij"
    (Page.sub held 0 10)

(* ---- cache ---- *)

let test_fsck_clean_pack () =
  let pack = make_pack () in
  let _ = install pack ~ino:2 (String.make 5000 'f') in
  let _ = install pack ~ino:3 "small" in
  Alcotest.(check int) "clean" 0 (List.length (Pack.fsck pack))

let test_fsck_detects_orphans () =
  let pack = make_pack () in
  let _ = install pack ~ino:2 "x" in
  (* Crash mid-commit leaves orphans. *)
  let s = Shadow.begin_modify pack 2 in
  Shadow.set_contents s (String.make 3000 'o');
  Shadow.crash_before_switch s;
  (match Pack.fsck pack with
  | [ Pack.Orphan_pages n ] -> Alcotest.(check bool) "orphans found" true (n > 0)
  | other ->
    Alcotest.failf "expected orphans, got %d errors" (List.length other));
  ignore (Pack.scavenge pack);
  Alcotest.(check int) "clean after scavenge" 0 (List.length (Pack.fsck pack))

let test_fsck_detects_double_allocation () =
  let pack = make_pack () in
  let _ = install pack ~ino:2 "abc" in
  let i2 = Pack.get_inode pack 2 in
  (* Forge a second inode pointing at inode 2's page. *)
  let forged = Inode.create ~ino:9 ~ftype:Inode.Regular ~owner:"evil" in
  forged.Inode.direct.(0) <- i2.Inode.direct.(0);
  forged.Inode.size <- 3;
  Pack.install_inode pack forged;
  let errs = Pack.fsck pack in
  Alcotest.(check bool) "double allocation caught" true
    (List.exists (function Pack.Double_allocated _ -> true | _ -> false) errs)

let test_cache_hit_miss () =
  let c = Cache.create ~capacity:4 () in
  check Alcotest.bool "initial miss" true (Cache.find c "a" = None);
  let page = Page.of_string "A" in
  Cache.insert c "a" page;
  (match Cache.find c "a" with
  | Some p ->
    check Alcotest.string "hit value" "A" (Page.sub p 0 1);
    check Alcotest.bool "the page inserted" true (p == page)
  | None -> Alcotest.fail "expected hit");
  Cache.invalidate c "a";
  check Alcotest.bool "miss after invalidate" true (Cache.find c "a" = None)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.insert c "a" (Page.of_string "A");
  Cache.insert c "b" (Page.of_string "B");
  ignore (Cache.find c "a");
  (* "b" is now least recently used; inserting "c" evicts it. *)
  Cache.insert c "c" (Page.of_string "C");
  check Alcotest.bool "a kept" true (Cache.find c "a" <> None);
  check Alcotest.bool "b evicted" true (Cache.find c "b" = None);
  check Alcotest.bool "c kept" true (Cache.find c "c" <> None)

let test_cache_drop_file () =
  let c = Pcache.create ~capacity:8 () in
  Pcache.insert c ("f", 0) (Page.of_string "x");
  Pcache.insert c ("g", 0) (Page.of_string "z");
  Pcache.insert c ("f", 1) (Page.of_string "y");
  Pcache.insert c ("f", 2) (Page.of_string "w");
  check Alcotest.int "one page of f dropped" 1
    (Pcache.drop_file c (Char.code 'f') ~only:(fun (_, p) _ -> p = 1));
  check Alcotest.int "the rest of f dropped" 2 (Pcache.drop_file c (Char.code 'f'));
  check Alcotest.int "nothing left of f" 0 (Pcache.drop_file c (Char.code 'f'));
  check Alcotest.int "only g left" 1 (Pcache.length c);
  check Alcotest.bool "g survives" true (Pcache.find c ("g", 0) <> None)

let test_cache_lru_order () =
  let c = Cache.create ~capacity:3 () in
  Cache.insert c "a" (Page.of_string "A");
  Cache.insert c "b" (Page.of_string "B");
  Cache.insert c "c" (Page.of_string "C");
  check Alcotest.(list string) "insertion order" [ "c"; "b"; "a" ] (Cache.keys_mru c);
  ignore (Cache.find c "a");
  check Alcotest.(list string) "hit moves to front" [ "a"; "c"; "b" ] (Cache.keys_mru c);
  Cache.insert c "b" (Page.of_string "B2");
  check Alcotest.(list string) "re-insert touches" [ "b"; "a"; "c" ] (Cache.keys_mru c);
  check Alcotest.int "no eviction on refresh" 3 (Cache.length c);
  Cache.invalidate c "a";
  check Alcotest.(list string) "invalidate unlinks" [ "b"; "c" ] (Cache.keys_mru c)

(* Capacity 0 is an empty table, not an error: each insert is reported
   evicted at once. Only a negative capacity is refused. *)
let test_cache_capacity_zero () =
  let evicted = ref [] in
  let c = Cache.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:0 () in
  Cache.insert c "a" (Page.of_string "A");
  Cache.insert c "b" (Page.of_string "B");
  check Alcotest.(list string) "every insert evicted" [ "b"; "a" ] !evicted;
  check Alcotest.int "nothing held" 0 (Cache.length c);
  check Alcotest.bool "nothing found" true (Cache.find c "a" = None);
  check Alcotest.int "capacity" 0 (Cache.capacity c);
  match Cache.create ~capacity:(-1) () with
  | _ -> Alcotest.fail "a negative capacity was accepted"
  | exception Invalid_argument _ -> ()

let test_cache_eviction_counters () =
  let evicted = ref [] in
  let c = Cache.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:2 () in
  Cache.insert c "a" (Page.of_string "A");
  Cache.insert c "b" (Page.of_string "B");
  Cache.insert c "c" (Page.of_string "C");
  (* "a" was the LRU tail and is the capacity victim. *)
  check Alcotest.(list string) "victim reported" [ "a" ] !evicted;
  Cache.invalidate c "b";
  check Alcotest.(list string) "invalidation is not an eviction" [ "a" ] !evicted;
  Cache.insert c "d" (Page.of_string "D");
  check Alcotest.bool "mem hit" true (Cache.mem c "c");
  check Alcotest.bool "mem miss" false (Cache.mem c "zz");
  check Alcotest.(list string) "mem leaves the recency order" [ "d"; "c" ] (Cache.keys_mru c);
  Cache.insert c "e" (Page.of_string "E");
  check Alcotest.(list string) "the least recent goes next" [ "c"; "a" ] !evicted

(* Bulk removal is silent: [on_evict] reports capacity pressure only, so
   neither an invalidation nor a clear fires it, and neither counts as a
   capacity eviction. *)
let test_cache_notify_policy () =
  let evicted = ref [] in
  let c = Cache.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:8 () in
  List.iter (fun k -> Cache.insert c k (Page.of_string k)) [ "a"; "b"; "c" ];
  check Alcotest.int "one dropped" 1 (Cache.drop_file c (Char.code 'a'));
  check Alcotest.int "one filtered" 1 (Cache.filter_out c (fun k _ -> k = "b"));
  check Alcotest.int "silently dropped" 1 (Cache.length c);
  check Alcotest.(list string) "silent drop fires nothing" [] !evicted;
  Cache.insert c "d" (Page.of_string "D");
  Cache.clear c;
  check Alcotest.int "cleared" 0 (Cache.length c);
  check Alcotest.(list string) "silent clear fires nothing" [] !evicted

(* The list/table structure must stay consistent over a long mixed
   workload (and complete fast: every operation here is O(1)). *)
let test_cache_churn () =
  let c = Icache.create ~capacity:64 () in
  let hits = ref 0 and wrong = ref 0 in
  for i = 0 to 9_999 do
    (* A cyclic sweep of 200 keys, which alone never hits a 64-entry LRU,
       interleaved with 16 hot keys. *)
    let key = if i mod 2 = 0 then i mod 200 else i mod 16 in
    (match Icache.find c key with
    | Some p ->
      incr hits;
      if Page.sub p 0 4 <> Page.sub (Page.of_string (string_of_int key)) 0 4 then incr wrong
    | None -> Icache.insert c key (Page.of_string (string_of_int key)));
    if i mod 17 = 0 then Icache.invalidate c ((i * 7) mod 200)
  done;
  check Alcotest.bool "bounded" true (Icache.length c <= 64);
  check Alcotest.int "list mirrors table" (Icache.length c)
    (List.length (Icache.keys_mru c));
  check Alcotest.bool "some hits" true (!hits > 0);
  check Alcotest.int "every hit returns its key's page" 0 !wrong

let () =
  Alcotest.run "storage"
    [
      ( "page",
        [
          Alcotest.test_case "u32 codec" `Quick test_page_codec;
          Alcotest.test_case "of_string" `Quick test_page_of_string;
          Alcotest.test_case "patch" `Quick test_page_patch;
          Alcotest.test_case "pages are shared, not copied" `Quick test_pages_shared;
          Alcotest.test_case "a patch leaves the committed page as it was" `Quick
            test_patch_keeps_committed_page;
        ] );
      ( "disk",
        [
          Alcotest.test_case "alloc/free" `Quick test_disk_alloc_free;
          Alcotest.test_case "full" `Quick test_disk_full;
          Alcotest.test_case "read/write" `Quick test_disk_rw;
        ] );
      ( "pack",
        [
          Alcotest.test_case "inode space partition" `Quick test_pack_alloc_ino_partitioned;
          Alcotest.test_case "small file" `Quick test_pack_small_file_roundtrip;
          Alcotest.test_case "indirect pages" `Quick test_pack_large_file_indirect;
          Alcotest.test_case "one indirect read per request" `Quick
            test_pack_one_indirect_read_per_request;
          Alcotest.test_case "remove frees" `Quick test_pack_remove_frees_pages;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "commit replaces" `Quick test_shadow_commit_replaces;
          Alcotest.test_case "abort restores" `Quick test_shadow_abort_restores;
          Alcotest.test_case "partial patch" `Quick test_shadow_partial_page_patch;
          Alcotest.test_case "shadow reuse in place" `Quick test_shadow_page_reused_in_place;
          Alcotest.test_case "crash before switch" `Quick test_shadow_crash_before_switch;
          Alcotest.test_case "delete mark" `Quick test_shadow_delete_mark;
          Alcotest.test_case "modified pages" `Quick test_shadow_modified_lpages;
          Alcotest.test_case "grow 8 pages to 20" `Quick test_shadow_grow_past_direct;
          Alcotest.test_case "truncate 20 pages to 4" `Quick test_shadow_truncate_to_direct;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "clean pack" `Quick test_fsck_clean_pack;
          Alcotest.test_case "orphans" `Quick test_fsck_detects_orphans;
          Alcotest.test_case "double allocation" `Quick test_fsck_detects_double_allocation;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "drop_file" `Quick test_cache_drop_file;
          Alcotest.test_case "lru order" `Quick test_cache_lru_order;
          Alcotest.test_case "lru capacity 0 holds nothing" `Quick test_cache_capacity_zero;
          Alcotest.test_case "eviction counters" `Quick test_cache_eviction_counters;
          Alcotest.test_case "notify policy" `Quick test_cache_notify_policy;
          Alcotest.test_case "churn consistency" `Quick test_cache_churn;
        ] );
    ]
