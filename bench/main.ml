(* Benchmark harness entry point.

   dune exec bench/main.exe            -- run every experiment (E1..E12)
   dune exec bench/main.exe -- e5 e6   -- run selected experiments
   dune exec bench/main.exe -- micro   -- Bechamel micro-benchmarks of the
                                          hot paths (host CPU time)
   dune exec bench/main.exe -- micro-counts
                                       -- micro's counted rows (words
                                          allocated) alone, no banner
   dune exec bench/main.exe -- soak [--seeds K] [--seed N] [--ops M]
                                    [--drop i,j,...]
                                       -- deterministic fault soak; failing
                                          seeds shrink to a minimal repro
                                          command and exit non-zero *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Us = Locus_core.Us
module K = Locus_core.Ktypes
module Page = Storage.Page
module Inode = Storage.Inode
module Pack = Storage.Pack
module Shadow = Storage.Shadow
module Vvec = Vv.Version_vector

(* ---- Bechamel micro-benchmarks ---- *)

let micro_tests () =
  let open Bechamel in
  (* Persistent worlds reused across iterations (the benchmarks measure
     steady-state kernel paths, not world construction). *)
  let w = World.create ~config:(World.default_config ~n_sites:5 ()) () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/bench");
  Kernel.write_file k0 p0 "/bench" (String.make 4096 'b');
  Experiments.settle_ok w;
  let gf0 = Locus_core.Pathname.resolve_from k0 ~cwd:(Catalog.Mount.root k0.K.mount)
      ~context:[] "/bench" in
  let k3 = World.kernel w 3 in

  let local_open =
    Test.make ~name:"open+close local"
      (Staged.stage (fun () ->
           let o = Us.open_gf k0 gf0 Proto.Mode_read in
           Us.close k0 o))
  in
  let remote_open =
    Test.make ~name:"open+close remote"
      (Staged.stage (fun () ->
           let o = Us.open_gf k3 gf0 Proto.Mode_read in
           Us.close k3 o))
  in
  let o_local = Us.open_gf k0 gf0 Proto.Mode_read in
  let o_remote = Us.open_gf k3 gf0 Proto.Mode_read in
  let read_local =
    Test.make ~name:"page read local"
      (Staged.stage (fun () -> ignore (Us.read_page k0 o_local 0)))
  in
  let read_remote =
    Test.make ~name:"page read remote (cached)"
      (Staged.stage (fun () -> ignore (Us.read_page k3 o_remote 0)))
  in
  let pack = Pack.create ~fg:9 ~pack_id:0 ~ino_lo:2 ~ino_hi:10_000 () in
  let inode = Inode.create ~ino:2 ~ftype:Inode.Regular ~owner:"b" in
  Pack.install_inode pack inode;
  let body = String.make 2048 's' in
  let shadow_commit =
    Test.make ~name:"shadow commit 2 pages"
      (Staged.stage (fun () ->
           let s = Shadow.begin_modify pack 2 in
           Shadow.set_contents s body;
           Shadow.commit s ~vv:Vvec.zero ~mtime:0.0))
  in
  let a = Vvec.of_list [ (0, 3); (1, 2); (4, 9) ] in
  let b = Vvec.of_list [ (0, 3); (2, 7) ] in
  let vv_compare =
    Test.make ~name:"version-vector compare"
      (Staged.stage (fun () -> ignore (Vvec.compare_vv a b)))
  in
  let dir_codec n =
    let dir = Catalog.Dir.empty () in
    for i = 0 to n - 1 do
      Catalog.Dir.insert dir ~name:(Printf.sprintf "entry%d" i) ~ino:(i + 2)
        ~ftype:Storage.Inode.Regular ~stamp:0.0 ~origin:0
    done;
    Test.make ~name:(Printf.sprintf "directory encode+decode (%d entries)" n)
      (Staged.stage (fun () ->
           ignore (Catalog.Dir.decode (Catalog.Dir.encode dir))))
  in
  (* One dirop pair from a packless site on a directory with two copies,
     E16's remote create+unlink. Re-using one name keeps the directory at
     a fixed size: the create re-enters the unlink's tombstone in place. *)
  let wd = Experiments.make_world ~n:4 ~packs:[ 0; 1 ] () in
  let kd0 = World.kernel wd 0 and pd0 = World.proc wd 0 in
  Kernel.set_ncopies pd0 2;
  ignore (Kernel.mkdir kd0 pd0 "/dops");
  Experiments.settle_ok wd;
  let kd2 = World.kernel wd 2 and pd2 = World.proc wd 2 in
  let remote_dirop =
    Test.make ~name:"remote create+unlink"
      (Staged.stage (fun () ->
           ignore (Kernel.creat kd2 pd2 "/dops/f");
           Kernel.unlink kd2 pd2 "/dops/f"))
  in
  (* One directory intent at the SS, its record change and commit, on a
     directory of [n] entries stored only at the using site: the host
     cost the SS pays per dirop. Runs alternate an enter and a remove of
     one name, so the directory keeps its size (the enter re-enters the
     tombstone). *)
  let ss_dirop n =
    let w = Experiments.make_world ~n:2 ~packs:[ 0 ] () in
    Sim.Trace.set_recording (Sim.Engine.trace (World.engine w)) false;
    let k = World.kernel w 0 and p = World.proc w 0 in
    let gf = Kernel.mkdir k p "/d" in
    let o = Us.open_gf k gf Proto.Mode_modify in
    let dir = Catalog.Dir.decode (Us.read_all k o) in
    for i = 0 to n - 1 do
      Catalog.Dir.insert dir ~name:(Printf.sprintf "%05d" i) ~ino:(100 + i)
        ~ftype:Storage.Inode.Regular ~stamp:0.0 ~origin:0
    done;
    Us.set_contents k o (Catalog.Dir.encode dir);
    Us.commit k o;
    Us.close k o;
    Experiments.settle_ok w;
    let present = ref false in
    Test.make ~name:(Printf.sprintf "SS dirop (%d entries)" n)
      (Staged.stage (fun () ->
           let op =
             if !present then Proto.Unlink { name = "x"; links = false }
             else Proto.Link { name = "x"; ino = 7; ftype = Storage.Inode.Regular; links = false }
           in
           ignore
             (Locus_core.Ss.apply_intent k ~us:0 gf op ~others:[]
                ~guard:(fun _ -> Ok ())
                ~links_here:(fun _ -> false));
           present := not !present))
  in
  (* The next two run with trace recording off, as locus-bench runs: a
     writer at a packless site overwriting one page of a 2-copy file and
     committing it, and one bare round trip through [Netsim] to an echo
     handler. *)
  let ww = Experiments.make_world ~n:4 ~packs:[ 0; 1 ] () in
  Sim.Trace.set_recording (Sim.Engine.trace (World.engine ww)) false;
  let kw0 = World.kernel ww 0 and pw0 = World.proc ww 0 in
  Kernel.set_ncopies pw0 2;
  let page = String.make Storage.Page.size 'w' in
  let wgf = Kernel.creat kw0 pw0 "/wc" in
  Kernel.write_file kw0 pw0 "/wc" page;
  Experiments.settle_ok ww;
  let kw2 = World.kernel ww 2 in
  let ow = Us.open_gf kw2 wgf Proto.Mode_modify in
  let remote_write_commit =
    Test.make ~name:"remote write+commit"
      (Staged.stage (fun () ->
           Us.write kw2 ow ~off:0 page;
           Us.commit kw2 ow))
  in
  let engine = Sim.Engine.create () in
  Sim.Trace.set_recording (Sim.Engine.trace engine) false;
  let net =
    Net.Netsim.create engine (Net.Topology.create ~n:2) Net.Latency.default
      {
        Net.Netsim.tag = (fun _ -> "read");
        req_bytes = (fun _ -> 40);
        resp_bytes = (fun _ -> 40);
        idempotent = (fun _ -> false);
        is_error = (fun _ -> false);
        policy = (fun _ -> Net.Netsim.default_policy);
      }
  in
  Net.Netsim.set_handler net 1 (fun ~src:_ req -> req);
  let rpc_round_trip =
    Test.make ~name:"rpc round trip"
      (Staged.stage (fun () -> ignore (Net.Netsim.call net ~src:0 ~dst:1 0)))
  in
  (* Pathname resolution at a packless site, trace recording off: a walk
     of three components served by the name cache, and the same walk
     after the cache is emptied, which ships the components to a storage
     site in one lookup and refills the cache. *)
  let wn = Experiments.make_world ~n:4 ~packs:[ 0; 1 ] () in
  Sim.Trace.set_recording (Sim.Engine.trace (World.engine wn)) false;
  let kn0 = World.kernel wn 0 and pn0 = World.proc wn 0 in
  ignore (Kernel.mkdir kn0 pn0 "/nc");
  ignore (Kernel.mkdir kn0 pn0 "/nc/deep");
  let ngf = Kernel.creat kn0 pn0 "/nc/deep/f" in
  Experiments.settle_ok wn;
  let kn3 = World.kernel wn 3 in
  let resolve () =
    Locus_core.Pathname.resolve_from kn3 ~cwd:(Catalog.Mount.root kn3.K.mount) ~context:[]
      "/nc/deep/f"
  in
  ignore (resolve ());
  let name_hit =
    Test.make ~name:"resolve, name-cache hit"
      (Staged.stage (fun () -> ignore (resolve ())))
  in
  let name_miss =
    Test.make ~name:"resolve, name-cache miss"
      (Staged.stage (fun () ->
           Locus_core.Namecache.clear kn3.K.name_cache;
           ignore (resolve ())))
  in
  (* A re-open riding a retained lease grant: no message, no CSS. *)
  let o = Us.open_gf kn3 ngf Proto.Mode_read in
  Us.close kn3 o;
  let leased_reopen =
    Test.make ~name:"leased re-open+close"
      (Staged.stage (fun () ->
           let o = Us.open_gf kn3 ngf Proto.Mode_read in
           Us.close kn3 o))
  in
  (* The recovery merge of two concurrent copies of a directory of [n]
     entries: half the names in both copies, a quarter in each alone. No
     tombstone meets a live entry, so the merge asks no storage site. *)
  let dir_merge n =
    let copy lo hi =
      let d = Catalog.Dir.empty () in
      for i = lo to hi - 1 do
        Catalog.Dir.insert d ~name:(Printf.sprintf "entry%d" i) ~ino:(i + 2)
          ~ftype:Storage.Inode.Regular ~stamp:(float_of_int i) ~origin:0
      done;
      d
    in
    let a = copy 0 (3 * n / 4) and b = copy (n / 4) n in
    Test.make ~name:(Printf.sprintf "directory merge (%d entries)" n)
      (Staged.stage (fun () ->
           ignore
             (Recovery.Reconcile.merge_two_dirs kn0 0 a b
                (Recovery.Reconcile.empty_report ()))))
  in
  (* A commit notification's drop of one file's pages from a US cache that
     also holds [others] pages of 16-page files: the file's two pages are
     filed, then dropped as a newer version's notification drops them.
     The per-file index makes the cost independent of [others]; a scan
     of the whole cache grows with it ([drop_flatness] checks). *)
  let drop_file others =
    let c = K.Us_cache.create ~capacity:(others + 2) () in
    let page = Page.of_string "p" and old = K.Committed (Vvec.of_list [ (1, 1) ]) in
    let current = K.Committed (Vvec.of_list [ (1, 2) ]) in
    for i = 0 to others - 1 do
      K.Us_cache.insert c (Catalog.Gfile.make ~fg:1 ~ino:(100 + (i / 16)), i mod 16, old) page
    done;
    let gf = Catalog.Gfile.make ~fg:1 ~ino:2 in
    Test.make ~name:(Printf.sprintf "drop one file's pages (%d others)" others)
      (Staged.stage (fun () ->
           K.Us_cache.insert c (gf, 0, old) page;
           K.Us_cache.insert c (gf, 1, old) page;
           ignore
             (K.Us_cache.drop_file c (Catalog.Gfile.id gf) ~only:(fun (_, _, v) _ ->
                  not (K.vkey_equal v current)))))
  in
  [
    ("drop_file_256", drop_file 256); ("drop_file_4096", drop_file 4096);
    ("open_close_local", local_open); ("open_close_remote", remote_open);
    ("resolve_name_cache_hit", name_hit); ("resolve_name_cache_miss", name_miss);
    ("leased_reopen", leased_reopen);
    ("dir_merge_100", dir_merge 100); ("dir_merge_1000", dir_merge 1000);
    ("page_read_local", read_local); ("page_read_remote_cached", read_remote);
    ("shadow_commit_2p", shadow_commit); ("vv_compare", vv_compare);
    ("dir_codec_100", dir_codec 100); ("dir_codec_1000", dir_codec 1000);
    ("dirop_remote_create_unlink", remote_dirop);
    ("ss_dirop_100", ss_dirop 100); ("ss_dirop_1000", ss_dirop 1000);
    ("ss_dirop_10000", ss_dirop 10_000);
    ("write_commit_remote", remote_write_commit); ("rpc_round_trip", rpc_round_trip);
  ]

(* ---- event-core micro suite (BENCH_micro.json) ---- *)

(* Steady-state scheduler churn: preload the heap to a fixed depth, then
   pop-one/push-one for [iters] events, the hold pattern a running
   simulation keeps the queue in. Time increments come from a precomputed
   float array so the measured loop allocates nothing beyond what the
   heap under test allocates (plus the one boxed float the non-flambda
   call boundary charges both heaps equally). Reports host events/sec
   and minor words per event. *)
let n_incs = 4096

let make_incs () =
  let rng = Sim.Rng.create 0x10adL in
  Array.init n_incs (fun _ -> Sim.Rng.float rng 10.0)

let churn_old ~preload ~iters =
  let h = Oldheap.create () in
  let incs = make_incs () in
  for i = 0 to preload - 1 do
    Oldheap.push h ~time:incs.(i land (n_incs - 1)) ()
  done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to iters - 1 do
    let time =
      match Oldheap.pop h with Some (time, ()) -> time | None -> assert false
    in
    Oldheap.push h ~time:(time +. incs.(i land (n_incs - 1))) ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (float_of_int iters /. dt, words /. float_of_int iters)

let churn_new ~preload ~iters =
  let h = Sim.Eheap.create () in
  let incs = make_incs () in
  let scratch = [| 0.0 |] in
  for i = 0 to preload - 1 do
    Sim.Eheap.push h ~time:incs.(i land (n_incs - 1)) ()
  done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to iters - 1 do
    Sim.Eheap.pop_into h ~time:scratch;
    Sim.Eheap.push h ~time:(scratch.(0) +. incs.(i land (n_incs - 1))) ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (float_of_int iters /. dt, words /. float_of_int iters)

(* Whole-engine churn: a self-rescheduling thunk, i.e. schedule + step +
   dispatch per event. There is no old engine to race it against; the
   metric pins the end-to-end cost of one simulated event. *)
let churn_engine ~iters =
  let e = Sim.Engine.create ~seed:7L () in
  let n = ref 0 in
  let rec tick () =
    if !n < iters then begin
      incr n;
      Sim.Engine.schedule e ~delay:1.0 tick
    end
  in
  Sim.Engine.schedule e ~delay:1.0 tick;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  ignore (Sim.Engine.run_until_idle ~limit:(iters + 8) e);
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (float_of_int iters /. dt, words /. float_of_int iters)

let run_heap_micro () =
  let metric = Report.metric ~experiment:"micro" in
  Printf.printf "\n== event-core micro suite ==\n%!";
  let iters = 400_000 in
  Printf.printf "  %-34s %12s %12s\n" "scheduler churn (pop+push)"
    "events/sec" "words/event";
  let speedups =
    List.map
      (fun preload ->
        (* one throwaway round to warm the code paths, then measure *)
        ignore (churn_old ~preload ~iters:(iters / 8));
        ignore (churn_new ~preload ~iters:(iters / 8));
        let old_eps, old_wpe = churn_old ~preload ~iters in
        let new_eps, new_wpe = churn_new ~preload ~iters in
        metric (Printf.sprintf "heap.old.events_per_sec.d%d" preload) old_eps;
        metric (Printf.sprintf "heap.old.words_per_event.d%d" preload) old_wpe;
        metric (Printf.sprintf "heap.new.events_per_sec.d%d" preload) new_eps;
        metric (Printf.sprintf "heap.new.words_per_event.d%d" preload) new_wpe;
        Printf.printf "  old heap, depth %-6d %25.0f %12.1f\n%!" preload old_eps
          old_wpe;
        Printf.printf "  new heap, depth %-6d %25.0f %12.1f\n%!" preload new_eps
          new_wpe;
        new_eps /. old_eps)
      [ 1_024; 65_536 ]
  in
  let speedup = List.fold_left max 0.0 speedups in
  metric "heap.speedup" speedup;
  Printf.printf "  heap speedup (best depth): %.1fx (need >= 3x): %s\n" speedup
    (Report.check (speedup >= 3.0));
  let eng_eps, eng_wpe = churn_engine ~iters:200_000 in
  metric "engine.events_per_sec" eng_eps;
  metric "engine.words_per_event" eng_wpe;
  Printf.printf "  engine step+dispatch: %.0f events/sec, %.1f words/event\n%!"
    eng_eps eng_wpe

(* ---- allocation on the remote read path (BENCH_micro.json) ---- *)

(* Words the program has allocated, in the minor heap and directly in the
   major one. The minor collection first brings the counters up to date
   (OCaml 5 updates them at collections). *)
let allocated_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Words allocated per page on the remote read path, trace recording off:
   a reader at a packless site reads each page of a 128-page file that
   neither cache holds, a window of 8 per [Read_pages] (an SS cache miss
   and a disk read, the reply, the US cache fill, and a US hit for the
   window's other pages), then reads every page again from the US cache.
   A page is one value from the disk to the reader, so what remains is
   the bookkeeping of the two cache entries, the reply and the transport;
   a copy of the page at any tier adds 129 words. *)
let read_path_words () =
  let pages = 128 in
  let w = Experiments.make_world ~n:2 ~packs:[ 0 ] () in
  Sim.Trace.set_recording (Sim.Engine.trace (World.engine w)) false;
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let gf = Kernel.creat k0 p0 "/pages" in
  Kernel.write_file k0 p0 "/pages"
    (String.init (pages * Page.size) (fun i -> Char.chr (65 + (i / Page.size mod 26))));
  Experiments.settle_ok w;
  let k1 = World.kernel w 1 in
  let o = Us.open_gf k1 gf Proto.Mode_read in
  let count k name = Sim.Stats.get (K.stats k) name in
  let round () =
    K.Ss_cache.clear k0.K.ss_cache;
    K.Us_cache.clear k1.K.us_cache;
    let ss_miss = count k0 "cache.ss.miss" and us_hit = count k1 "cache.us.hit" in
    let before = allocated_words () in
    for _ = 1 to 2 do
      for lpage = 0 to pages - 1 do
        ignore (Us.read_page ~want:(pages - lpage) k1 o lpage)
      done
    done;
    let words = allocated_words () -. before in
    (* Every page missed the SS cache once; all reads but the first of
       each window hit the US cache. *)
    if count k0 "cache.ss.miss" - ss_miss <> pages
       || count k1 "cache.us.hit" - us_hit <> (2 * pages) - (pages / 8)
    then failwith "micro: the read path row did not miss and hit the caches as planned";
    words /. float_of_int pages
  in
  ignore (round ());
  let words = round () in
  Us.close k1 o;
  words

(* A page copied anywhere on the read path again fails the micro suite,
   and so bench-smoke: the path costs about 130 words per page without a
   copy, and each copy adds 129. *)
let read_path_bound = 192.0

let check_read_path () =
  let words = read_path_words () in
  Report.metric ~experiment:"micro" "read_path.words_per_page" words;
  Printf.printf "  remote read path: %.1f words per page (need <= %.0f; a page copy is 129)\n%!"
    words read_path_bound;
  if words > read_path_bound then
    failwith (Printf.sprintf "micro: the remote read path allocates %.1f words per page" words)

(* Words allocated per insert into a full US cache, each evicting the
   least recent page. The keys are built before the loop, so what the
   loop allocates is the cache's own: a slot of the slab is reused in
   place, while a pointer node and a hashtable bucket cell per entry are
   at least 12 words. Over 4 aborts the micro suite, and so bench-smoke. *)
let insert_evict_bound = 4.0

let insert_evict_words () =
  let capacity = 1024 and n = 4096 and rounds = 8 in
  let evicted = ref 0 in
  let c = K.Us_cache.create ~on_evict:(fun _ _ -> incr evicted) ~capacity () in
  let page = Page.of_string "p" and old = K.Committed (Vvec.of_list [ (1, 1) ]) in
  let keys =
    Array.init n (fun i -> (Catalog.Gfile.make ~fg:1 ~ino:(100 + (i / 16)), i mod 16, old))
  in
  (* Fill the cache: every later insert finds it full and its key gone. *)
  Array.iter (fun key -> K.Us_cache.insert c key page) keys;
  let evictions = !evicted in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    for i = 0 to n - 1 do
      K.Us_cache.insert c keys.(i) page
    done
  done;
  let words = Gc.minor_words () -. w0 in
  if !evicted - evictions <> rounds * n then
    failwith "micro: the insert row did not evict on every insert";
  words /. float_of_int (rounds * n)

let check_insert_evict () =
  let words = insert_evict_words () in
  Report.metric ~experiment:"micro" "lru.insert_evict.words" words;
  Printf.printf "  US cache insert that evicts: %.1f words (need <= %.0f)\n%!" words
    insert_evict_bound;
  if words > insert_evict_bound then
    failwith (Printf.sprintf "micro: a cache insert that evicts allocates %.1f words" words)

(* Words a directory index allocates to follow a new version of a
   16-page directory that replaced one page (an unlink's tombstone), and
   a full build of the same body: both read the pages from an array, so
   what is counted is the index's own, the slot array a build allocates
   included. A re-index that allocates as much as the build is no longer
   partial: it aborts the micro suite, and so bench-smoke. *)
let reindex_words () =
  let module Dir = Catalog.Dir in
  let d = Dir.empty () in
  let names = List.init 544 (Printf.sprintf "entry%04d") in
  List.iteri
    (fun i name -> Dir.insert d ~name ~ino:(i + 2) ~ftype:Inode.Regular ~stamp:0.0 ~origin:0)
    names;
  let pages_of body =
    let size = String.length body in
    ( Array.init ((size + Page.size - 1) / Page.size) (fun p ->
          Page.of_string (String.sub body (p * Page.size) (min Page.size (size - (p * Page.size))))),
      size )
  in
  let old, size = pages_of (Dir.encode d) in
  if Array.length old <> 16 then failwith "micro: the directory row is not 16 pages";
  ignore (Dir.remove d ~name:(List.nth names 250) ~stamp:1.0 ~origin:0);
  let fresh, _ = pages_of (Dir.encode d) in
  let replaced =
    List.filter (fun p -> not (String.equal old.(p) fresh.(p))) (List.init 16 Fun.id)
  in
  if List.length replaced <> 1 then failwith "micro: the unlink did not replace one page";
  let pages = List.map (fun p -> (p, fresh.(p))) replaced in
  let measure f =
    let before = allocated_words () in
    let r = Sys.opaque_identity (f ()) in
    (allocated_words () -. before, r)
  in
  let build_words, index = measure (fun () -> Dir.Index.build ~read:(Array.get old) ~size) in
  let reindex_words, () =
    measure (fun () -> Dir.Index.reindex index ~read:(Array.get fresh) ~pages ~size)
  in
  (reindex_words, build_words)

let check_reindex () =
  let reindex, build = reindex_words () in
  Report.metric ~experiment:"micro" "dir.reindex.words" reindex;
  Report.metric ~experiment:"micro" "dir.build.words" build;
  Printf.printf "  dir index, 1 of 16 pages replaced: %.0f words to re-index, %.0f to build (need less)\n%!"
    reindex build;
  if reindex >= build then
    failwith (Printf.sprintf "micro: a one-page re-index allocates %.0f words, a build %.0f" reindex build)

(* micro's counted rows, one "name value" line each and nothing else:
   words allocated, which the same program allocates alike on every run,
   so `make baseline` compares them with bench/baseline/counts.txt
   exactly. The timed rows and the bounds stay with `micro`. *)
let run_micro_counts () =
  let read_path = read_path_words () in
  let insert_evict = insert_evict_words () in
  let reindex, build = reindex_words () in
  List.iter
    (fun (name, v) -> Printf.printf "%s %.4f\n" name v)
    [ ("read_path.words_per_page", read_path); ("lru.insert_evict.words", insert_evict);
      ("dir.reindex.words", reindex); ("dir.build.words", build) ]

(* Dropping a file's pages must not grow with the rest of the cache: 16
   times the other entries may cost at most 4 times as much (a scan of
   the whole cache costs about 16 times). Aborts the micro suite, and so
   bench-smoke, otherwise. *)
let drop_flatness estimates =
  match (Hashtbl.find_opt estimates "drop_file_256", Hashtbl.find_opt estimates "drop_file_4096") with
  | Some small, Some large ->
    let ratio = large /. small in
    Report.metric ~experiment:"micro" "drop_file.ratio_4096_to_256" ratio;
    Printf.printf "  drop one file's pages, 4096 vs 256 others: %.2fx (need <= 4x)\n%!" ratio;
    if ratio > 4.0 then
      failwith (Printf.sprintf "micro: dropping one file's pages grows with the cache (%.2fx)" ratio)
  | _ -> failwith "micro: the drop-one-file rows were not measured"

let run_micro () =
  run_heap_micro ();
  check_read_path ();
  check_insert_evict ();
  check_reindex ();
  let open Bechamel in
  Printf.printf "\n== Bechamel micro-benchmarks (host CPU) ==\n%!";
  let tests = micro_tests () in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let metric = Report.metric ~experiment:"micro" in
  let estimates = Hashtbl.create 32 in
  List.iter
    (fun (key, test) ->
      let results = Benchmark.all cfg [ instance ] test in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Hashtbl.replace estimates key est;
            metric (Printf.sprintf "host.ns_per_op.%s" key) est;
            Printf.printf "  %-40s %10.0f ns/op\n%!" name est
          | Some _ | None -> Printf.printf "  %-40s (no estimate)\n%!" name)
        stats)
    tests;
  drop_flatness estimates

(* ---- fault soak ---- *)

(* `soak --seed N --ops M [--drop i,j]` replays one scenario (this is the
   shape of the shrunken repro commands the harness prints); `soak --seeds
   K --ops M` sweeps seeds 1..K, shrinking any failure. Exit 1 on any
   invariant violation. *)
let run_soak args =
  let seeds = ref 0 and seed = ref 1 and ops = ref 2000 and drop = ref [] in
  let rec parse = function
    | [] -> ()
    | "--seeds" :: v :: rest -> seeds := int_of_string v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--ops" :: v :: rest -> ops := int_of_string v; parse rest
    | "--drop" :: v :: rest ->
      drop := List.map int_of_string (String.split_on_char ',' v);
      parse rest
    | a :: _ -> failwith (Printf.sprintf "soak: unknown argument %S" a)
  in
  parse args;
  let scenarios =
    if !seeds > 0 then
      List.init !seeds (fun i ->
          { Soak.Shrink.sc_seed = i + 1; sc_ops = !ops; sc_drop = [] })
    else [ { Soak.Shrink.sc_seed = !seed; sc_ops = !ops; sc_drop = !drop } ]
  in
  let fails sc =
    Soak.Driver.failed
      (Soak.Driver.run ~drop:sc.Soak.Shrink.sc_drop ~seed:sc.Soak.Shrink.sc_seed
         ~ops:sc.Soak.Shrink.sc_ops ())
  in
  let failures = ref 0 in
  List.iter
    (fun sc ->
      let oc =
        Soak.Driver.run ~drop:sc.Soak.Shrink.sc_drop ~seed:sc.Soak.Shrink.sc_seed
          ~ops:sc.Soak.Shrink.sc_ops ()
      in
      let faults =
        List.fold_left (fun a (_, c) -> a + c) 0 oc.Soak.Driver.oc_injected
      in
      if Soak.Driver.failed oc then begin
        incr failures;
        let labels =
          String.concat ", "
            (List.map
               (fun (l, c) -> if c = 1 then l else Printf.sprintf "%s x%d" l c)
               oc.Soak.Driver.oc_injected)
        in
        Printf.printf "seed %d: FAIL (%d ops, %d faults: %s)\n%!"
          sc.Soak.Shrink.sc_seed oc.Soak.Driver.oc_report.Locus.Opstream.ops
          faults labels;
        List.iter
          (fun v -> Printf.printf "  %s\n" (Format.asprintf "%a" Soak.Invariant.pp_violation v))
          oc.Soak.Driver.oc_violations;
        let small, runs = Soak.Shrink.shrink ~fails sc in
        Printf.printf "  shrunk in %d replays; minimal repro:\n  %s\n%!" runs
          (Soak.Shrink.repro_command small)
      end
      else
        Printf.printf "seed %d: ok (%d ops, %d faults, %d events)\n%!"
          sc.Soak.Shrink.sc_seed oc.Soak.Driver.oc_report.Locus.Opstream.ops
          faults oc.Soak.Driver.oc_events)
    scenarios;
  if !failures > 0 then begin
    Printf.printf "soak: %d/%d scenarios FAILED\n" !failures
      (List.length scenarios);
    exit 1
  end
  else Printf.printf "soak: all %d scenarios passed\n" (List.length scenarios)

(* ---- entry point ---- *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "micro-counts" ] -> run_micro_counts ()
  | args ->
    Printf.printf
      "LOCUS reproduction benchmark harness (see EXPERIMENTS.md for the index)\n";
    (match args with
    | [] ->
      List.iter (fun e -> e ()) Experiments.all;
      run_micro ()
    | [ "micro" ] -> run_micro ()
    | "soak" :: rest -> run_soak rest
    | names ->
      List.iter
        (fun name ->
          match List.assoc_opt (String.lowercase_ascii name) Experiments.by_name with
          | Some e -> e ()
          | None ->
            if name = "micro" then run_micro ()
            else
              Printf.eprintf "unknown experiment %S (e1..e%d, micro)\n" name
                (List.length Experiments.all))
        names);
    (* Experiments that recorded metrics get a BENCH_<n>.json for CI. *)
    Report.write_metrics ()
