(* The experiment harness: one function per table/figure/claim of the paper
   (see DESIGN.md section 4 and EXPERIMENTS.md for the index). Each prints
   a paper-style table; absolute numbers come from the simulated cost
   model, the *shape* is what reproduces the paper. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Us = Locus_core.Us
module Process = Locus_core.Process
module Pathname = Locus_core.Pathname
module K = Locus_core.Ktypes
module Dispatch = Locus.Dispatch
module Stats = Sim.Stats
module Engine = Sim.Engine
module Page = Storage.Page
module Inode = Storage.Inode
module Pack = Storage.Pack
module Shadow = Storage.Shadow
module Disk = Storage.Disk
module Vvec = Vv.Version_vector
module Topology = Net.Topology
module Partition = Recovery.Partition
module Merge = Recovery.Merge
module Reconcile = Recovery.Reconcile
module Dir = Catalog.Dir
module Mbox = Catalog.Mailbox
module Opstream = Locus.Opstream
module Trace = Sim.Trace

let make_world ?(n = 5) ?packs ?(machine_type = fun _ -> "vax") ?kconfig () =
  let base = World.default_config ~n_sites:n () in
  let filegroups =
    match packs with
    | None -> base.World.filegroups
    | Some sites -> [ { World.fg = 0; pack_sites = sites; mount_path = None } ]
  in
  let kernel_config = Option.value kconfig ~default:base.World.kernel_config in
  World.create ~config:{ base with World.filegroups; machine_type; kernel_config } ()

let gf_of k path =
  Pathname.resolve_from k ~cwd:(Catalog.Mount.root k.K.mount) ~context:[] path

let msgs w snap = Stats.delta_of (World.stats w) snap "net.msg"

(* Bench runs must distinguish a drained engine from a livelocked one:
   exhausting the event budget is a harness failure, not quiesce. *)
let settle_ok w =
  match World.settle w with
  | _, `Idle -> ()
  | _, `Limit -> failwith "World.settle exhausted its event budget (livelock?)"

let drain w =
  match Engine.run_until_idle (World.engine w) with
  | _, `Idle -> ()
  | _, `Limit ->
    failwith "Engine.run_until_idle exhausted its event budget (livelock?)"

(* The baseline-protocol experiments (E3, E11, E16) pin the open-lease
   layer off: they reproduce the paper's classic open/close exchanges,
   which the lease layer (E21) deliberately short-circuits. *)
let no_lease = { K.default_config with K.open_lease_entries = 0 }

(* With [cold], the file's pages then leave site [at]'s buffers, where
   the write left them, so a first read of each costs its disk read. *)
let mk_file ?(cold = false) w ~at ~ncopies ~path ~body =
  let k = World.kernel w at and p = World.proc w at in
  let saved = Kernel.get_ncopies p in
  Kernel.set_ncopies p ncopies;
  let gf = Kernel.creat k p path in
  if String.length body > 0 then Kernel.write_file k p path body;
  Kernel.set_ncopies p saved;
  settle_ok w;
  if cold then ignore (K.Ss_cache.drop_file k.K.ss_cache (Catalog.Gfile.id gf))

(* ---------------------------------------------------------------- E1 *)
(* Figure 2 / section 2.3.3: the open protocol across the eight
   US/CSS/SS collocation modes, counting kernel messages. *)
let e1 () =
  Report.section "E1  Open protocol message counts (Figure 2)"
    "messages needed to open a file, by collocation of US / CSS / SS";
  let run ~label ~file_at ~open_at ~paper =
    (* packs at 0 and 1; CSS for the filegroup is site 0. *)
    let w = make_world ~n:5 ~packs:[ 0; 1 ] () in
    mk_file w ~at:file_at ~ncopies:1 ~path:"/f" ~body:"x";
    let k = World.kernel w open_at in
    let gf = gf_of k "/f" in
    let t0 = World.now w in
    let snap = Stats.snapshot (World.stats w) in
    let o = Us.open_gf k gf Proto.Mode_read in
    let m = msgs w snap in
    let dt = World.now w -. t0 in
    Us.close k o;
    settle_ok w;
    (m = paper, [ label; Report.i m; Report.i paper; Report.f2 dt; Report.check (m = paper) ])
  in
  let rows =
    [
      (* file stored at 0 => CSS(0) = SS(0). *)
      run ~label:"US = CSS = SS (all local)" ~file_at:0 ~open_at:0 ~paper:0;
      (* file stored at 1, opened at 1: US = SS, CSS remote. *)
      run ~label:"US = SS, CSS remote" ~file_at:1 ~open_at:1 ~paper:2;
      (* file stored at 1, opened at 0 (the CSS): US = CSS, SS remote. *)
      run ~label:"US = CSS, SS remote" ~file_at:1 ~open_at:0 ~paper:2;
      (* file stored at 0 (the CSS), opened at 3: CSS = SS, US remote. *)
      run ~label:"CSS = SS, US remote" ~file_at:0 ~open_at:3 ~paper:2;
      (* file stored at 1, opened at 3: all three distinct. *)
      run ~label:"US, CSS, SS all distinct" ~file_at:1 ~open_at:3 ~paper:4;
    ]
  in
  Report.table ~title:"open(2) cost by role collocation"
    ~header:[ "mode"; "messages"; "paper"; "sim ms"; "ok" ]
    (List.map snd rows);
  (* Open plus whole read of a 2-page file the CSS stores, from a remote
     US: at window 1 the paper's open and two one-page reads; at window 8
     the CSS serves the open itself and carries both pages in its reply. *)
  let read_run window ~expected =
    let kconfig = { K.default_config with K.bulk_window = window } in
    let w = make_world ~n:5 ~packs:[ 0; 1 ] ~kconfig () in
    let body = String.make (Page.size + 100) 'r' in
    mk_file w ~at:0 ~ncopies:1 ~path:"/f" ~body;
    let k = World.kernel w 3 in
    let gf = gf_of k "/f" in
    let t0 = World.now w in
    let snap = Stats.snapshot (World.stats w) in
    let o = Us.open_gf k gf Proto.Mode_read in
    let ok = String.equal (Us.read_all k o) body in
    let m = msgs w snap in
    let dt = World.now w -. t0 in
    Us.close k o;
    settle_ok w;
    let ok = ok && m = expected in
    (ok, [ Report.i window; Report.i m; Report.i expected; Report.f2 dt; Report.check ok ])
  in
  let read_rows = [ read_run 1 ~expected:6; read_run 8 ~expected:2 ] in
  Report.table ~title:"open + whole read of a 2-page file, CSS = SS, US remote"
    ~header:[ "window"; "messages"; "expected"; "sim ms"; "ok" ]
    (List.map snd read_rows);
  (* A gate, not just a cell: bench-smoke fails when any count moves. *)
  if not (List.for_all fst (rows @ read_rows)) then
    failwith "E1: a message count differs from the expected one"

(* ---------------------------------------------------------------- E2 *)
(* Section 2.2.1 footnote: "the cpu overhead of accessing a remote page
   is twice local access". Sequential whole-file reads, local vs remote,
   with and without the US cache. *)
let e2 () =
  Report.section "E2  Local vs remote page access cost"
    "paper: remote page ~= 2x local page; US cache ablation included";
  let pages = 32 in
  let body = String.make (pages * Page.size) 'd' in
  let read_seq ~cache ~open_at =
    let base = World.default_config ~n_sites:3 () in
    let config =
      {
        base with
        World.filegroups = [ { World.fg = 0; pack_sites = [ 0 ]; mount_path = None } ];
        kernel_config =
          {
            K.default_config with
            K.us_cache_pages = (if cache then K.default_config.K.us_cache_pages else 0);
          };
      }
    in
    let w = World.create ~config () in
    mk_file ~cold:true w ~at:0 ~ncopies:1 ~path:"/seq" ~body;
    let k = World.kernel w open_at in
    let snap = Stats.snapshot (World.stats w) in
    (* Measure only the caller's synchronous stall, the open's included: a
       remote read open may carry the first window of pages. The engine
       drains between reads, modelling readahead I/O overlapped with the
       application's processing of the previous page. *)
    let t0 = World.now w in
    let o = Us.open_gf k (gf_of k "/seq") Proto.Mode_read in
    let stall = ref (World.now w -. t0) in
    for lpage = 0 to pages - 1 do
      let t0 = World.now w in
      ignore (Us.read_page k o lpage);
      stall := !stall +. (World.now w -. t0);
      drain w
    done;
    let per_page = !stall /. float_of_int pages in
    let m = msgs w snap in
    Us.close k o;
    (per_page, m)
  in
  let local, _ = read_seq ~cache:true ~open_at:0 in
  let remote, m_remote = read_seq ~cache:true ~open_at:2 in
  let remote_nocache, m_nc = read_seq ~cache:false ~open_at:2 in
  let row label v m =
    [ label; Report.f2 v; Report.f2 (v /. local); Report.i m ]
  in
  Report.table
    ~title:(Printf.sprintf "sequential read of %d pages (ms per page)" pages)
    ~header:[ "configuration"; "ms/page"; "vs local"; "messages" ]
    [
      row "local (US = SS)" local 0;
      row "remote, readahead" remote m_remote;
      row "remote, no cache at US" remote_nocache m_nc;
    ];
  Printf.printf
    "paper's claim: remote/local ~ 2.0; measured %.2f (raw remote access);\n\
    \ readahead hides the round trip on sequential reads (%.2fx local)\n"
    (remote_nocache /. local) (remote /. local)

(* ---------------------------------------------------------------- E3 *)
(* Section 2.2.1: "the cost of a remote open is significantly more than
   the case when the entire open can be done locally". *)
let e3 () =
  Report.section "E3  Open/close latency, local vs remote"
    "simulated ms per open+close pair, by role placement";
  let run ~label ~file_at ~open_at =
    let w = make_world ~n:5 ~packs:[ 0; 1 ] ~kconfig:no_lease () in
    mk_file w ~at:file_at ~ncopies:1 ~path:"/f" ~body:"x";
    let k = World.kernel w open_at in
    let gf = gf_of k "/f" in
    let iters = 50 in
    let t0 = World.now w in
    for _ = 1 to iters do
      let o = Us.open_gf k gf Proto.Mode_read in
      Us.close k o
    done;
    (label, (World.now w -. t0) /. float_of_int iters)
  in
  let local = run ~label:"all local" ~file_at:0 ~open_at:0 in
  let rows =
    [
      local;
      run ~label:"US = SS, CSS remote" ~file_at:1 ~open_at:1;
      run ~label:"CSS = SS, US remote" ~file_at:0 ~open_at:3;
      run ~label:"all distinct" ~file_at:1 ~open_at:3;
    ]
  in
  Report.table ~title:"open+close latency"
    ~header:[ "placement"; "ms/open"; "vs local" ]
    (List.map (fun (l, v) -> [ l; Report.f2 v; Report.f1 (v /. snd local) ]) rows)

(* ---------------------------------------------------------------- E4 *)
(* The failure-action table of section 5.6, exercised one row at a time. *)
let e4 () =
  Report.section "E4  Cleanup procedure (the failure-action table of 5.6)"
    "inject each failure; verify the prescribed action happens";
  let rows = ref [] in
  let add name action ok = rows := [ name; action; Report.check ok ] :: !rows in

  (* Row: local resource (file open for update) in use remotely. *)
  let () =
    let w = make_world ~n:3 ~packs:[ 0 ] () in
    mk_file w ~at:0 ~ncopies:1 ~path:"/f" ~body:"stable";
    let k1 = World.kernel w 1 in
    let o = Us.open_gf k1 (gf_of k1 "/f") Proto.Mode_modify in
    Us.write k1 o ~off:0 "doomed";
    (* Push the bytes out of the write-behind buffer: the row verifies the
       SS aborts an *active* shadow session when the using site dies. *)
    Us.flush_wb k1 o;
    World.crash_site w 1;
    ignore (World.detect_failures w ~initiator:0);
    let aborted = Stats.get (World.stats w) "ss.orphan_abort" >= 1 in
    let intact =
      Kernel.read_file (World.kernel w 0) (World.proc w 0) "/f" = "stable"
    in
    add "local file, remote update" "discard pages, close and abort" (aborted && intact)
  in
  (* Row: local resource open remotely for read -> close. *)
  let () =
    let w = make_world ~n:3 ~packs:[ 0 ] () in
    mk_file w ~at:0 ~ncopies:1 ~path:"/f" ~body:"x";
    let k1 = World.kernel w 1 in
    let _o = Us.open_gf k1 (gf_of k1 "/f") Proto.Mode_read in
    World.crash_site w 1;
    ignore (World.detect_failures w ~initiator:0);
    let k0 = World.kernel w 0 in
    add "local file, remote read" "close file" (K.Gfile.Tbl.length k0.K.ss_opens = 0)
  in
  (* Row: remote resource open for update locally -> discard, error fd. *)
  let () =
    let w = make_world ~n:3 ~packs:[ 1 ] () in
    mk_file w ~at:1 ~ncopies:1 ~path:"/f" ~body:"x";
    let k0 = World.kernel w 0 in
    let o = Us.open_gf k0 (gf_of k0 "/f") Proto.Mode_modify in
    Us.write k0 o ~off:0 "lost";
    World.crash_site w 1;
    ignore (World.detect_failures w ~initiator:0);
    add "remote file, local update" "discard pages, error in descriptor" o.K.o_closed
  in
  (* Row: remote resource open for read -> reopen at another site. *)
  let () =
    let w = make_world ~n:4 ~packs:[ 1; 2 ] () in
    mk_file w ~at:1 ~ncopies:2 ~path:"/f" ~body:"replicated!";
    let k0 = World.kernel w 0 in
    let o = Us.open_gf k0 (gf_of k0 "/f") Proto.Mode_read in
    let old_ss = o.K.o_ss in
    World.crash_site w old_ss;
    ignore (World.detect_failures w ~initiator:0);
    let ok = (not o.K.o_closed) && not (Net.Site.equal o.K.o_ss old_ss) in
    add "remote file, local read" "internal close, reopen at other site" ok
  in
  (* Row: remote fork/exec, remote site fails -> error to caller. *)
  let () =
    let w = make_world ~n:3 () in
    let k0 = World.kernel w 0 and p0 = World.proc w 0 in
    Kernel.set_advice p0 (Some 2);
    ignore (Process.fork k0 p0);
    World.crash_site w 2;
    ignore (World.detect_failures w ~initiator:0);
    add "fork/exec, remote site fails" "return error to caller"
      (List.mem Process.sigerr p0.K.p_signals && Process.read_error_info k0 p0 <> None)
  in
  (* Row: fork/exec, calling site fails -> notify process. *)
  let () =
    let w = make_world ~n:3 () in
    let k0 = World.kernel w 0 and p0 = World.proc w 0 in
    Kernel.set_advice p0 (Some 2);
    let pid, _ = Process.fork k0 p0 in
    World.crash_site w 0;
    ignore (World.detect_failures w ~initiator:2);
    let child = Process.get_proc (World.kernel w 2) pid in
    add "fork/exec, calling site fails" "notify process"
      (List.mem Process.sigerr child.K.p_signals)
  in
  (* Row: distributed transaction -> abort subtransactions in partition. *)
  let () =
    let w = make_world ~n:3 () in
    let k0 = World.kernel w 0 and p0 = World.proc w 0 in
    Kernel.set_ncopies p0 1;
    let k2 = World.kernel w 2 and p2 = World.proc w 2 in
    ignore (Kernel.creat k2 p2 "/leg");
    Kernel.write_file k2 p2 "/leg" "l";
    settle_ok w;
    let t = Txn.begin_top k0 p0 in
    Txn.write t "/leg" "txn";
    World.crash_site w 2;
    ignore (World.detect_failures w ~initiator:0);
    add "distributed transaction" "abort all related subtransactions"
      (Txn.status t = Txn.Aborted)
  in
  Report.table ~title:"failure actions"
    ~header:[ "failure"; "prescribed action (paper)"; "verified" ]
    (List.rev !rows)

(* ---------------------------------------------------------------- E5 *)
(* Section 5.4: partition protocol cost and correctness vs network size. *)
let e5 () =
  Report.section "E5  Partition protocol (iterative intersection)"
    "polls/rounds/messages to re-establish consensus vs network size";
  let rows =
    List.map
      (fun n ->
        let w = make_world ~n ~packs:[ 0; 1 ] () in
        (* Cut the net in half. *)
        let left = List.init (n / 2) Fun.id in
        let right = List.init (n - (n / 2)) (fun i -> (n / 2) + i) in
        Topology.partition (World.topology w) [ left; right ];
        let snap = Stats.snapshot (World.stats w) in
        let t0 = World.now w in
        let r = Partition.run_active (World.kernel w 0) in
        let dt = World.now w -. t0 in
        let consensus =
          List.for_all
            (fun m -> (World.kernel w m).K.site_table = r.Partition.members)
            r.Partition.members
        in
        [
          Report.i n;
          Report.i (List.length r.Partition.members);
          Report.i r.Partition.polls;
          Report.i r.Partition.rounds;
          Report.i (msgs w snap);
          Report.f2 dt;
          Report.check (consensus && List.length r.Partition.members = n / 2);
        ])
      [ 4; 8; 16; 32 ]
  in
  Report.table ~title:"half-split of an n-site network, initiator = site 0"
    ~header:[ "n"; "members"; "polls"; "rounds"; "messages"; "sim ms"; "consensus" ]
    rows;
  (* Random sub-splits: maximality check. *)
  let rng = Sim.Rng.create 77L in
  let trials = 20 in
  let ok = ref 0 in
  for _ = 1 to trials do
    let w = make_world ~n:8 ~packs:[ 0 ] () in
    let topo = World.topology w in
    for _ = 1 to 6 do
      let a = Sim.Rng.int rng 8 and b = Sim.Rng.int rng 8 in
      if a <> b then Topology.set_link topo a b false
    done;
    let r = Partition.run_active (World.kernel w 0) in
    if Topology.fully_connected topo r.Partition.members then incr ok
  done;
  Printf.printf
    "random link failures (8 sites, 6 cuts, %d trials): %d/%d fully-connected partitions\n"
    trials !ok trials

(* ---------------------------------------------------------------- E6 *)
(* Section 5.5: the two-level merge timeout vs a fixed timeout. *)
let e6 () =
  Report.section "E6  Merge protocol timeout strategy"
    "merge delay: fixed long timeout vs the paper's two-level timeout";
  let n = 24 in
  let run ~alive ~policy ~surprise =
    let w = make_world ~n ~packs:[ 0; 1 ] () in
    let alive_sites = List.init alive Fun.id in
    let dead = List.filteri (fun i _ -> i >= alive) (World.sites w) in
    ignore (World.partition w [ alive_sites; dead ]);
    List.iter (fun s -> World.crash_site w s) dead;
    if surprise then begin
      (* One member crashes without the others noticing: it is still
         believed up, forcing the long timeout. *)
      World.crash_site w (alive - 1)
    end;
    Topology.heal (World.topology w);
    List.iter
      (fun s -> if not surprise || s <> alive - 1 then Topology.set_site_up (World.topology w) s true)
      alive_sites;
    List.iter (fun s -> Topology.set_site_up (World.topology w) s false) dead;
    if surprise then Topology.set_site_up (World.topology w) (alive - 1) false;
    let r = Merge.run_initiator ~policy (World.kernel w 0) ~all_sites:(World.sites w) in
    r.Merge.wait_charged
  in
  let fixed = Merge.Fixed_timeout 150.0 in
  let adaptive = Merge.Adaptive_timeout { long = 150.0; short = 15.0 } in
  let rows =
    List.concat_map
      (fun alive ->
        let f = run ~alive ~policy:fixed ~surprise:false in
        let a = run ~alive ~policy:adaptive ~surprise:false in
        [
          [
            Printf.sprintf "%d of %d sites up (known)" alive n;
            Report.f1 f;
            Report.f1 a;
            Report.f1 (f /. Float.max a 0.001);
          ];
        ])
      [ 4; 12; 24 ]
  in
  let f_s = run ~alive:12 ~policy:fixed ~surprise:true in
  let a_s = run ~alive:12 ~policy:adaptive ~surprise:true in
  Report.table ~title:"timeout wait charged during merge (ms)"
    ~header:[ "scenario"; "fixed"; "adaptive"; "speedup" ]
    (rows
    @ [
        [
          "12 of 24, one surprise crash";
          Report.f1 f_s;
          Report.f1 a_s;
          Report.f1 (f_s /. Float.max a_s 0.001);
        ];
      ]);
  Printf.printf
    "shape check: adaptive ~= fixed only when a believed-up site is missing\n";
  (* Gateway ablation (the 5.5 footnote): merging a small partition of a
     large gatewayed network without polling every dead remote site. *)
  let gateway_run ~gateways =
    let w = make_world ~n ~packs:[ 0; 1 ] () in
    let local = [ 0; 1; 2; 3; 4; 5 ] in
    let remote = List.filter (fun s -> s >= 6) (World.sites w) in
    ignore (World.partition w [ local; remote ]);
    List.iter (fun s -> if s > 6 then World.crash_site w s) remote;
    ignore (World.detect_failures w ~initiator:6);
    Topology.heal (World.topology w);
    List.iter
      (fun s -> if s > 6 then Topology.set_site_up (World.topology w) s false)
      remote;
    let snap = Stats.snapshot (World.stats w) in
    let r = Merge.run_initiator ~gateways (World.kernel w 0) ~all_sites:(World.sites w) in
    (r.Merge.polled, r.Merge.skipped, msgs w snap)
  in
  let p_flat, s_flat, m_flat = gateway_run ~gateways:[] in
  let p_gw, s_gw, m_gw = gateway_run ~gateways:[ 6 ] in
  Report.table
    ~title:
      (Printf.sprintf
         "gateway ablation: %d-site net, remote subnet (behind gateway 6) mostly down"
         n)
    ~header:[ "strategy"; "polled"; "skipped"; "messages" ]
    [
      [ "poll everyone"; Report.i p_flat; Report.i s_flat; Report.i m_flat ];
      [ "poll gateways first"; Report.i p_gw; Report.i s_gw; Report.i m_gw ];
    ]

(* ---------------------------------------------------------------- E7 *)
(* Section 4.4: directory reconciliation throughput and rule coverage. *)
let e7 () =
  Report.section "E7  Directory reconciliation"
    "divergent directories merged per the rules of 4.4";
  let rows =
    List.map
      (fun entries ->
        let w = make_world ~n:4 () in
        let k0 = World.kernel w 0 and p0 = World.proc w 0 in
        Kernel.set_ncopies p0 4;
        ignore (Kernel.mkdir k0 p0 "/d");
        settle_ok w;
        ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
        let k2 = World.kernel w 2 and p2 = World.proc w 2 in
        for i = 1 to entries do
          ignore (Kernel.creat k0 p0 (Printf.sprintf "/d/left%d" i));
          ignore (Kernel.creat k2 p2 (Printf.sprintf "/d/right%d" i))
        done;
        settle_ok w;
        let host_t0 = Unix.gettimeofday () in
        let t0 = World.now w in
        let _, recon = World.heal_and_merge w in
        let host_dt = Unix.gettimeofday () -. host_t0 in
        let dt = World.now w -. t0 in
        let listing = Kernel.readdir k0 p0 "/d" in
        let merged_ok = List.length listing = (2 * entries) + 2 in
        let dirm =
          List.fold_left (fun a (_, r) -> a + r.Reconcile.dir_merges) 0 recon
        in
        [
          Report.i (2 * entries);
          Report.i dirm;
          Report.f1 dt;
          Report.f1 (host_dt *. 1000.0);
          Report.check merged_ok;
        ])
      [ 5; 20; 50 ]
  in
  Report.table ~title:"divergent inserts merged (per side = half of column 1)"
    ~header:[ "entries"; "dir merges"; "sim ms"; "host ms"; "all present" ]
    rows

(* ---------------------------------------------------------------- E8 *)
(* Section 3.2: the token mechanism's worst case — the file position
   token flipping between machines on every access. *)
let e8 () =
  Report.section "E8  Shared-descriptor token traffic"
    "worst case: 1-byte reads alternating between two machines";
  let bytes = 4096 in
  let body = String.make bytes 'z' in
  let scenario ~chunk ~alternate =
    let w = make_world ~n:3 () in
    mk_file w ~at:0 ~ncopies:1 ~path:"/shared" ~body;
    let k0 = World.kernel w 0 and p0 = World.proc w 0 in
    let fd = Kernel.open_path k0 p0 "/shared" Proto.Mode_read in
    Kernel.set_advice p0 (Some 2);
    let pid, _ = Process.fork k0 p0 in
    let k2 = World.kernel w 2 in
    let child = Process.get_proc k2 pid in
    let snap = Stats.snapshot (World.stats w) in
    let t0 = World.now w in
    let reads = bytes / chunk in
    for i = 0 to reads - 1 do
      if alternate && i mod 2 = 1 then ignore (Kernel.read_fd k2 child fd ~len:chunk)
      else ignore (Kernel.read_fd k0 p0 fd ~len:chunk)
    done;
    let flips = Stats.delta_of (World.stats w) snap "token.flip" in
    let m = msgs w snap in
    let dt = World.now w -. t0 in
    [
      (if alternate then Printf.sprintf "alternating, %d-byte reads" chunk
       else Printf.sprintf "single site, %d-byte reads" chunk);
      Report.i reads;
      Report.i flips;
      Report.f2 (float_of_int m /. float_of_int reads);
      Report.f2 (dt /. float_of_int reads);
    ]
  in
  Report.table ~title:(Printf.sprintf "reading a %d-byte shared file" bytes)
    ~header:[ "pattern"; "reads"; "token flips"; "msgs/read"; "ms/read" ]
    [
      scenario ~chunk:1 ~alternate:true;
      scenario ~chunk:64 ~alternate:true;
      scenario ~chunk:1024 ~alternate:true;
      scenario ~chunk:1 ~alternate:false;
      scenario ~chunk:1024 ~alternate:false;
    ];
  Printf.printf
    "paper: worst-case flipping is possible but rare; bulk reads amortize it\n"

(* ---------------------------------------------------------------- E9 *)
(* Section 2.2.1: replication degree vs read cost and availability. *)
let e9 () =
  Report.section "E9  Replication degree trade-off"
    "read locality and availability vs number of copies (5 sites)";
  let n = 5 in
  let rows =
    List.map
      (fun rf ->
        let w = make_world ~n () in
        mk_file w ~at:0 ~ncopies:rf ~path:"/f" ~body:(String.make 2048 'r');
        (* Read cost: whole-file read from every site. *)
        let snap = Stats.snapshot (World.stats w) in
        List.iter
          (fun s ->
            let k = World.kernel w s and p = World.proc w s in
            ignore (Kernel.read_file k p "/f"))
          (World.sites w);
        let read_msgs = float_of_int (msgs w snap) /. float_of_int n in
        (* Update fan-out: one write, then settle. *)
        let snap2 = Stats.snapshot (World.stats w) in
        Kernel.write_file (World.kernel w 0) (World.proc w 0) "/f"
          (String.make 2048 'w');
        settle_ok w;
        let write_msgs = msgs w snap2 in
        (* Availability: crash the first two sites (which hold the first
           copies, site 0 being the creator); can the others still read? *)
        World.crash_site w 0;
        World.crash_site w 1;
        ignore (World.detect_failures w ~initiator:2);
        let readable =
          List.filter
            (fun s ->
              match
                Kernel.read_file (World.kernel w s) (World.proc w s) "/f"
              with
              | _ -> true
              | exception K.Error _ -> false)
            [ 2; 3; 4 ]
        in
        [
          Report.i rf;
          Report.f1 read_msgs;
          Report.i write_msgs;
          Printf.sprintf "%d/3" (List.length readable);
        ])
      [ 1; 2; 3; 5 ]
  in
  Report.table
    ~title:"replication factor sweep (crash of sites 0,1 for availability)"
    ~header:
      [ "copies"; "read msgs/site"; "write+propagate msgs"; "readable after crash" ]
    rows;
  Printf.printf
    "shape: more copies => cheaper/closer reads and higher availability,\n\
    \       at the price of update fan-out (the trade-off of section 2.2.1)\n"

(* --------------------------------------------------------------- E10 *)
(* Section 2.3.6: shadow-page commit cost and atomicity. *)
let e10 () =
  Report.section "E10  Shadow-page commit"
    "disk traffic per commit pattern; atomicity under crash";
  let fresh () =
    let pack = Pack.create ~fg:0 ~pack_id:0 ~ino_lo:2 ~ino_hi:100 () in
    let inode = Inode.create ~ino:2 ~ftype:Inode.Regular ~owner:"b" in
    Pack.install_inode pack inode;
    let s = Shadow.begin_modify pack 2 in
    Shadow.set_contents s (String.make (8 * Page.size) 'o');
    Shadow.commit s ~vv:(Vvec.bump Vvec.zero 0) ~mtime:1.0;
    pack
  in
  let measure label f =
    let pack = fresh () in
    let d = Pack.disk pack in
    let r0 = Disk.reads d and w0 = Disk.writes d in
    let ok = f pack in
    [
      label;
      Report.i (Disk.reads d - r0);
      Report.i (Disk.writes d - w0);
      Report.check ok;
    ]
  in
  let contents pack = Pack.read_string pack (Pack.get_inode pack 2) in
  let rows =
    [
      measure "whole-page overwrite (1 page)" (fun pack ->
          let s = Shadow.begin_modify pack 2 in
          Shadow.write_page s ~lpage:0 (Page.of_string (String.make Page.size 'N'));
          Shadow.commit s ~vv:(Vvec.of_list [ (0, 2) ]) ~mtime:2.0;
          String.sub (contents pack) 0 1 = "N");
      measure "partial-page patch (reads old page)" (fun pack ->
          let s = Shadow.begin_modify pack 2 in
          Shadow.patch_page s ~lpage:0 ~off:10 "xx";
          Shadow.commit s ~vv:(Vvec.of_list [ (0, 2) ]) ~mtime:2.0;
          String.sub (contents pack) 10 2 = "xx");
      measure "whole-file overwrite (8 pages)" (fun pack ->
          let s = Shadow.begin_modify pack 2 in
          Shadow.set_contents s (String.make (8 * Page.size) 'W');
          Shadow.commit s ~vv:(Vvec.of_list [ (0, 2) ]) ~mtime:2.0;
          String.sub (contents pack) 0 1 = "W");
      measure "same page written 10x (shadow reused)" (fun pack ->
          let s = Shadow.begin_modify pack 2 in
          for i = 1 to 10 do
            Shadow.write_page s ~lpage:0
              (Page.of_string (String.make Page.size (Char.chr (64 + i))))
          done;
          Shadow.commit s ~vv:(Vvec.of_list [ (0, 2) ]) ~mtime:2.0;
          String.sub (contents pack) 0 1 = "J");
      measure "abort after 4 page writes" (fun pack ->
          let before = contents pack in
          let s = Shadow.begin_modify pack 2 in
          for p = 0 to 3 do
            Shadow.write_page s ~lpage:p (Page.of_string "doomed")
          done;
          Shadow.abort s;
          String.equal (contents pack) before);
      measure "crash before inode switch" (fun pack ->
          let before = contents pack in
          let s = Shadow.begin_modify pack 2 in
          for p = 0 to 3 do
            Shadow.write_page s ~lpage:p (Page.of_string "doomed")
          done;
          Shadow.crash_before_switch s;
          let intact = String.equal (contents pack) before in
          let freed = Pack.scavenge pack in
          intact && freed > 0);
    ]
  in
  Report.table ~title:"commit patterns on an 8-page file"
    ~header:[ "pattern"; "disk reads"; "disk writes"; "correct" ]
    rows

(* --------------------------------------------------------------- E11 *)
(* Figure 1 / section 2.3.2-2.3.3: the remote-service flow has exactly
   one request and one response per exchange — no acks underneath. *)
let e11 () =
  Report.section "E11  Remote system call flow (Figure 1)"
    "message count per remote operation: one request + one response each";
  (* Window 1 too: above it the CSS = SS open carries the file's first
     pages, and the read of page 0 would send nothing. *)
  let w = make_world ~n:3 ~packs:[ 0 ] ~kconfig:{ no_lease with K.bulk_window = 1 } () in
  mk_file w ~at:0 ~ncopies:1 ~path:"/f" ~body:(String.make 2100 'p');
  let k2 = World.kernel w 2 in
  let gf = gf_of k2 "/f" in
  let step label f expected =
    let snap = Stats.snapshot (World.stats w) in
    let r = f () in
    let m = msgs w snap in
    ([ label; Report.i m; Report.i expected; Report.check (m = expected) ], r)
  in
  let row1, o =
    step "open (US remote, CSS=SS)" (fun () -> Us.open_gf k2 gf Proto.Mode_read) 2
  in
  let row2, _ = step "read page 0" (fun () -> Us.read_page k2 o 0) 2 in
  (* Sequential readahead makes page 1 free later; count the synchronous
     exchange only. *)
  let row3, _ =
    step "close (US->SS, SS->CSS local)" (fun () -> Us.close k2 o) 2
  in
  settle_ok w;
  Report.table ~title:"message count per step of a remote file access"
    ~header:[ "step"; "messages"; "expected"; "ok" ]
    [ row1; row2; row3 ];
  Printf.printf
    "note: close is two messages here because the SS is also the CSS\n\
     (the SS->CSS close leg is a procedure call); with distinct sites it is 4.\n";
  (* Now the fully distinct close. *)
  let w2 = make_world ~n:5 ~packs:[ 0; 1 ] ~kconfig:no_lease () in
  mk_file w2 ~at:1 ~ncopies:1 ~path:"/g" ~body:"q";
  let k3 = World.kernel w2 3 in
  let o2 = Us.open_gf k3 (gf_of k3 "/g") Proto.Mode_read in
  let snap = Stats.snapshot (World.stats w2) in
  Us.close k3 o2;
  Printf.printf "fully distinct close protocol: %d messages (paper: 4 -- \n\
                 US->SS, SS->CSS, CSS->SS, SS->US)\n"
    (msgs w2 snap)

(* --------------------------------------------------------------- E12 *)
(* Section 4.5: mailbox reconciliation — always automatic. *)
let e12 () =
  Report.section "E12  Mailbox reconciliation"
    "divergent mailboxes merge with no conflicts, honouring deletions";
  let rows =
    List.map
      (fun per_side ->
        let w = make_world ~n:4 () in
        let k0 = World.kernel w 0 and p0 = World.proc w 0 in
        Kernel.set_ncopies p0 4;
        ignore (Kernel.mkdir k0 p0 "/mail");
        ignore (Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/u");
        Kernel.mailbox_deliver k0 ~path:"/mail/u" ~from:"pre" ~body:"shared";
        settle_ok w;
        ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
        for i = 1 to per_side do
          Kernel.mailbox_deliver k0 ~path:"/mail/u" ~from:"left"
            ~body:(Printf.sprintf "L%d" i);
          Kernel.mailbox_deliver (World.kernel w 2) ~path:"/mail/u" ~from:"right"
            ~body:(Printf.sprintf "R%d" i)
        done;
        (* The left side also deletes the shared pre-partition message. *)
        let box = Mbox.decode (Kernel.read_file k0 p0 "/mail/u") in
        (match Mbox.live box with
        | m :: _ when m.Mbox.from = "pre" ->
          ignore (Mbox.delete box ~id:m.Mbox.id ~stamp:(World.now w));
          Kernel.write_file k0 p0 "/mail/u" (Mbox.encode box)
        | _ -> ());
        settle_ok w;
        let _, recon = World.heal_and_merge w in
        let conflicts =
          List.fold_left (fun a (_, r) -> a + r.Reconcile.conflicts_marked) 0 recon
        in
        let merges =
          List.fold_left (fun a (_, r) -> a + r.Reconcile.mail_merges) 0 recon
        in
        let live = Kernel.mailbox_read k0 p0 "/mail/u" in
        let expected = 2 * per_side in
        [
          Report.i per_side;
          Report.i merges;
          Report.i conflicts;
          Printf.sprintf "%d/%d" (List.length live) expected;
          Report.check (List.length live = expected && conflicts = 0);
        ])
      [ 2; 10; 40 ]
  in
  Report.table ~title:"messages per side inserted during partition (+1 delete)"
    ~header:[ "per side"; "mail merges"; "conflicts"; "live/expected"; "ok" ]
    rows

(* --------------------------------------------------------------- E13 *)
(* Section 2.3.4: pathname searching cost by depth, local vs remote, and
   the value of the unsynchronized local fast path. *)

(* Build /d1/d2/.../dN/leaf at site 0, numbered from the root downward.
   Shared with E19, which measures the same trees under the fast paths. *)
let deep_tree_prepare w depth =
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
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
  settle_ok w

let deep_tree_path depth =
  let rec fix acc i =
    if i > depth then acc ^ "/leaf" else fix (acc ^ "/d" ^ string_of_int i) (i + 1)
  in
  fix "" 1

let e13 () =
  Report.section "E13  Pathname searching"
    "per-component internal opens; the local fast path avoids the CSS";
  let prepare = deep_tree_prepare in
  let path_of = deep_tree_path in
  let resolve_cost w site path =
    let k = World.kernel w site in
    let snap = Stats.snapshot (World.stats w) in
    let t0 = World.now w in
    ignore (gf_of k path);
    (World.now w -. t0, msgs w snap)
  in
  let rows =
    List.map
      (fun depth ->
        (* Packs at site 0 only: site 2 resolves fully remotely. The §2.3.4
           fast paths (name cache, server-side lookup) are pinned off —
           this experiment is the per-component baseline E19 measures
           those against. *)
        let slow =
          { K.default_config with K.name_cache_entries = 0; remote_lookup = false }
        in
        let w = make_world ~n:3 ~packs:[ 0 ] ~kconfig:slow () in
        prepare w depth;
        let path = path_of depth in
        let t_local, m_local = resolve_cost w 0 path in
        let t_remote, m_remote = resolve_cost w 2 path in
        [
          Report.i depth;
          Report.f2 t_local;
          Report.i m_local;
          Report.f2 t_remote;
          Report.i m_remote;
        ])
      [ 1; 3; 6 ]
  in
  Report.table
    ~title:"resolve /d1/.../dN/leaf (local = fast path, no CSS contact)"
    ~header:[ "depth"; "local ms"; "local msgs"; "remote ms"; "remote msgs" ]
    rows;
  Printf.printf
    "local resolution costs zero messages at any depth: the unsynchronized\n\
     local directory search of section 2.3.4; remote pays per component.\n"

(* --------------------------------------------------------------- E14 *)
(* Section 2.3.6: propagation convergence — how long until every copy of
   an updated file is current, vs replication factor. At a window of 1
   each extra copy pulls the commit, a page per read round trip, so that
   table commits one page: notify, read round trip, report. Above it the
   notification carries the 2-page commit, and the copy only reports.
   Section 2.3.7's create rows count a new file's initial copies the same
   way: at a window of 1 each designated site pulls the empty file
   (designation, read round trip, report); above it the designation
   carries the new inode, and the site only reports. Each create row also
   counts the root directory's commit reaching its other copies. *)
let e14 () =
  Report.section "E14  Update propagation convergence"
    "time and messages until all copies are current after one commit";
  let n = 8 in
  let default = (World.default_config ~n_sites:n ()).World.kernel_config in
  let sweep ~window ~bytes =
    List.map
      (fun rf ->
        let w = make_world ~n ~kconfig:{ default with K.bulk_window = window } () in
        mk_file w ~at:0 ~ncopies:rf ~path:"/hot" ~body:(String.make bytes 'a');
        let snap = Stats.snapshot (World.stats w) in
        let t0 = World.now w in
        Kernel.write_file (World.kernel w 0) (World.proc w 0) "/hot"
          (String.make bytes 'b');
        let t_commit = World.now w -. t0 in
        settle_ok w;
        let t_converged = World.now w -. t0 in
        let m = msgs w snap in
        (* Verify convergence: every copy carries the same version vector
           and the same bytes, the committed ones. *)
        let k0 = World.kernel w 0 in
        let gf = gf_of k0 "/hot" in
        let stored =
          List.filter_map
            (fun s ->
              match Hashtbl.find_opt (World.kernel w s).K.packs 0 with
              | Some pack ->
                Pack.find_inode pack gf.Catalog.Gfile.ino
                |> Option.map (fun (i : Inode.t) -> (i.Inode.vv, Pack.read_string pack i))
              | None -> None)
            (World.sites w)
        in
        (match stored with
        | (vv, _) :: _ ->
          assert (List.length stored = rf);
          List.iter
            (fun (vv', body) ->
              assert (Vvec.equal vv' vv);
              assert (String.equal body (String.make bytes 'b')))
            stored
        | [] -> assert false);
        (rf, t_commit, t_converged, m))
      [ 1; 2; 4; 8 ]
  in
  let table ?(op = "commit") ~title rows =
    Report.table ~title
      ~header:[ "copies"; op ^ " ms (caller)"; "all-copies ms"; "messages" ]
      (List.map
         (fun (rf, t_op, t_converged, m) ->
           [ Report.i rf; Report.f2 t_op; Report.f2 t_converged; Report.i m ])
         rows)
  in
  (* Whether each row costs [base] messages plus [cost] per additional
     copy. *)
  let per_copy ?(base = 0) rows cost =
    List.for_all (fun (rf, _, _, m) -> m = base + (cost * (rf - 1))) rows
  in
  let pulled = sweep ~window:1 ~bytes:1024 in
  table ~title:"window 1: one 1-page commit at site 0; background pulls to the other copies"
    pulled;
  let pull_ok = per_copy pulled 4 in
  Printf.printf "window 1: 4 messages per additional copy (notify, one read round trip, report): %s\n"
    (Report.check pull_ok);
  let carried = sweep ~window:default.K.bulk_window ~bytes:2048 in
  table
    ~title:
      (Printf.sprintf
         "window %d: one 2-page commit at site 0; its notification carries both pages"
         default.K.bulk_window)
    carried;
  let carried_ok = per_copy carried 2 in
  Printf.printf "window %d: 2 messages per additional copy (notify carrying the pages, report): %s\n"
    default.K.bulk_window (Report.check carried_ok);
  let create_sweep ~window =
    List.map
      (fun rf ->
        let w = make_world ~n ~kconfig:{ default with K.bulk_window = window } () in
        let k0 = World.kernel w 0 and p0 = World.proc w 0 in
        Kernel.set_ncopies p0 rf;
        let snap = Stats.snapshot (World.stats w) in
        let t0 = World.now w in
        let gf = Kernel.creat k0 p0 "/new" in
        let t_create = World.now w -. t0 in
        settle_ok w;
        let t_converged = World.now w -. t0 in
        let m = msgs w snap in
        (* Every initial copy exists, at the origin's version, and empty. *)
        let stored =
          List.filter_map
            (fun s ->
              Option.bind (Hashtbl.find_opt (World.kernel w s).K.packs 0) (fun pack ->
                  Pack.find_inode pack gf.Catalog.Gfile.ino))
            (World.sites w)
        in
        assert (List.length stored = rf);
        List.iter
          (fun (i : Inode.t) ->
            assert (Vvec.equal i.Inode.vv (List.hd stored).Inode.vv);
            assert (i.Inode.size = 0))
          stored;
        (rf, t_create, t_converged, m))
      [ 1; 2; 4; 8 ]
  in
  let created_pull = create_sweep ~window:1 in
  table ~op:"create" ~title:"create, window 1: each designated site pulls the new file"
    created_pull;
  (* A create at site 0, the CSS, sends nothing itself; the root
     directory's commit reaches its [n - 1] other copies at the same cost
     per copy as the new file's. *)
  let create_pull_ok = per_copy ~base:(4 * (n - 1)) created_pull 4 in
  Printf.printf
    "create, window 1: 4 more messages per additional copy (designation, one read round trip, \
     report): %s\n"
    (Report.check create_pull_ok);
  let created_carried = create_sweep ~window:default.K.bulk_window in
  table ~op:"create"
    ~title:
      (Printf.sprintf "create, window %d: each designation carries the new inode"
         default.K.bulk_window)
    created_carried;
  let create_carried_ok = per_copy ~base:(2 * (n - 1)) created_carried 2 in
  Printf.printf "create, window %d: 2 more messages per additional copy (designation, report): %s\n"
    default.K.bulk_window (Report.check create_carried_ok);
  Printf.printf
    "the committing caller pays a constant cost; replication happens in\n\
     the background (section 2.3.6's asynchronous propagation)\n";
  if not (pull_ok && carried_ok) then
    failwith "E14: an additional copy does not cost the expected messages";
  if not (create_pull_ok && create_carried_ok) then
    failwith "E14: an additional initial copy of a new file does not cost the expected messages"

(* --------------------------------------------------------------- E15 *)
(* Section 6: a production-like software-development workload mix, driven
   by the op stream's development spec, as a whole-system shakeout. *)
let e15 () =
  Report.section "E15  Mixed workload (the section 6 experience setting)"
    "edits, builds, mail and remote execution on a 6-site net";
  let w = make_world ~n:6 () in
  let g = Opstream.setup w Opstream.dev_spec in
  let snap = Stats.snapshot (World.stats w) in
  let t0 = World.now w in
  let ops = 200 in
  let r = Opstream.run g ~ops in
  let dt = World.now w -. t0 in
  let m = msgs w snap in
  Report.table ~title:(Printf.sprintf "%d operations from random sites" ops)
    ~header:[ "metric"; "value" ]
    [
      [ "reads"; Report.i r.Opstream.reads ];
      [ "edits (commit+propagate)"; Report.i r.Opstream.edits ];
      [ "remote execs"; Report.i r.Opstream.execs ];
      [ "mail deliveries"; Report.i r.Opstream.mails ];
      [ "namespace churn"; Report.i r.Opstream.dirops ];
      [ "refused (partition/busy)"; Report.i r.Opstream.errors ];
      [ "kernel messages"; Report.i m ];
      [ "messages / operation"; Report.f2 (float_of_int m /. float_of_int ops) ];
      [ "simulated ms"; Report.f1 dt ];
      [ "ms / operation"; Report.f2 (dt /. float_of_int ops) ];
    ];
  Printf.printf "reads: %d wrong, %d stale: %s\n" r.Opstream.wrong r.Opstream.stale
    (Report.check (r.Opstream.wrong = 0 && r.Opstream.stale = 0));
  Printf.printf
    "with 3x replication most reads are local: transparency without\n\
     performance loss, the headline experience of section 6\n"

(* --------------------------------------------------------------- E16 *)
(* The per-system-call latency table a measurement study in the style of
   [GOLD 83] would report: each call, local vs remote, simulated ms. *)
let e16 () =
  Report.section "E16  System-call latency table ([GOLD 83]-style)"
    "simulated ms per call, all-local vs remote file";
  let measure ~open_at f =
    let w = make_world ~n:4 ~packs:[ 0 ] ~kconfig:no_lease () in
    mk_file w ~at:0 ~ncopies:1 ~path:"/subject" ~body:(String.make 1500 's');
    let k = World.kernel w open_at and p = World.proc w open_at in
    let t0 = World.now w in
    let iters = 20 in
    for i = 1 to iters do
      f w k p i
    done;
    (World.now w -. t0) /. float_of_int iters
  in
  let both name f =
    let local = measure ~open_at:0 f in
    let remote = measure ~open_at:2 f in
    [ name; Report.f2 local; Report.f2 remote;
      Report.f1 (remote /. Float.max local 0.0001) ]
  in
  let rows =
    [
      both "stat" (fun _w k p _ -> ignore (Kernel.stat k p "/subject"));
      both "open+close (read)" (fun _w k p _ ->
          let fd = Kernel.open_path k p "/subject" Proto.Mode_read in
          Kernel.close_fd k p fd);
      both "read 1 KB" (fun _w k p _ ->
          let fd = Kernel.open_path k p "/subject" Proto.Mode_read in
          ignore (Kernel.read_fd k p fd ~len:1024);
          Kernel.close_fd k p fd);
      both "whole-file write (commit)" (fun _w k p i ->
          Kernel.write_file k p "/subject" (String.make 1500 (Char.chr (97 + (i mod 26)))));
      both "create+unlink" (fun _w k p i ->
          let path = Printf.sprintf "/tmp%d" i in
          ignore (Kernel.creat k p path);
          Kernel.unlink k p path);
      both "readdir /" (fun _w k p _ -> ignore (Kernel.readdir k p "/"));
    ]
  in
  Report.table ~title:"per-call latency (simulated ms), site 0 stores everything"
    ~header:[ "system call"; "local"; "remote"; "ratio" ]
    rows;
  Printf.printf
    "the paper's measured result: local == conventional Unix; remote\n\
     noticeably slower but close enough that nobody thinks about location\n"


(* --------------------------------------------------------------- E17 *)
(* The transport layer under message loss: requests are retried with
   simulated-time backoff and the call still succeeds; a state-changing
   request whose reply is lost is answered from the receiver's kept reply,
   so its handler runs once; per-tag latency percentiles show the retry
   tail (section 2.3.3: recovery from loss is the requesting kernel's
   job). *)
let e17 () =
  Report.section "E17  RPC transport: retry, backoff, latency percentiles"
    "injected message loss on stat, open and commit traffic; the transport recovers every call";
  let w = make_world ~n:5 ~packs:[ 0; 1 ] () in
  let nfiles = 8 in
  for i = 1 to nfiles do
    mk_file w ~at:0 ~ncopies:2 ~path:(Printf.sprintf "/data%d" i)
      ~body:(String.make (200 * i) 'd')
  done;
  let k0 = World.kernel w 0 in
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  (* Remote reads from a diskless site: open/read/close traffic feeding the
     per-tag histograms. *)
  for i = 1 to nfiles do
    ignore (Kernel.read_file k3 p3 (Printf.sprintf "/data%d" i))
  done;
  let stats = World.stats w in
  let snap = Stats.snapshot stats in
  (* Every fourth stat has its request forced lost. A stat is a read, which
     is idempotent, so the transport resends after backoff and the caller
     never notices. *)
  let losses = ref 0 in
  for i = 1 to nfiles do
    let gf = gf_of k0 (Printf.sprintf "/data%d" i) in
    if i mod 4 = 0 then begin
      incr losses;
      Net.Netsim.fail_next_message (World.net w) ~src:3 ~dst:0
    end;
    ignore (Locus_core.Ss.read_committed k3 0 gf ~first:0 ~count:0 ~stat:true)
  done;
  let d name = Stats.delta_of stats snap name in
  Report.table ~title:"transport counters over the stat run"
    ~header:[ "counter"; "value" ]
    [
      [ "stats issued"; Report.i nfiles ];
      [ "losses injected"; Report.i !losses ];
      [ "rpc.call"; Report.i (d "rpc.call") ];
      [ "rpc.retry"; Report.i (d "rpc.retry") ];
      [ "rpc.recovered"; Report.i (d "rpc.recovered") ];
      [ "rpc.fail"; Report.i (d "rpc.fail") ];
    ];
  let stat_ok = d "rpc.recovered" = !losses && d "rpc.fail" = 0 in
  (* A whole-file write from site 3 loses the first reply to its open and
     to its commit, wherever the CSS and the SS run. *)
  let net = World.net w in
  let runs = Hashtbl.create 2 in
  List.iter
    (fun site ->
      let k = World.kernel w site in
      Net.Netsim.set_handler net site (fun ~src req ->
          (match req with
          | Proto.Open_req _ | Proto.Commit_req _ ->
            let tag = Proto.req_tag req in
            let n = 1 + Option.value ~default:0 (Hashtbl.find_opt runs tag) in
            Hashtbl.replace runs tag n;
            if n = 1 then Net.Netsim.fail_next_message net ~src:site ~dst:src
          | _ -> ());
          Dispatch.handle k ~src req))
    [ 0; 1 ];
  let snap = Stats.snapshot stats in
  let d name = Stats.delta_of stats snap name in
  let body = String.make 300 'n' in
  let written =
    match Kernel.write_file k3 p3 "/data1" body with
    | () -> true
    | exception K.Error _ -> false
  in
  List.iter
    (fun site ->
      let k = World.kernel w site in
      Net.Netsim.set_handler net site (fun ~src req -> Dispatch.handle k ~src req))
    [ 0; 1 ];
  (* Settle first: site 3's read lease dies only when the CSS's one-way
     break arrives. *)
  settle_ok w;
  let wrote = written && String.equal (Kernel.read_file k3 p3 "/data1") body in
  let ran tag = Option.value ~default:0 (Hashtbl.find_opt runs tag) in
  (* The 300-byte body rides the commit (window 8), so the commit whose
     reply is lost carries the write: no write message goes out, and the
     resend must not write the run a second time. *)
  Report.table ~title:"one lost reply to a state-changing request (write from site 3)"
    ~header:
      [ "request"; "handler runs"; "rpc.replay"; "rpc.fail"; "commits with a run"; "write msgs" ]
    [
      [ "open + commit"; Printf.sprintf "%d + %d" (ran "open") (ran "commit");
        Report.i (d "rpc.replay"); Report.i (d "rpc.fail"); Report.i (d "us.commit.run");
        Report.i (d "net.msg.write") ];
    ];
  let state_ok =
    wrote && ran "open" = 1 && ran "commit" = 1 && d "rpc.replay" = 2 && d "rpc.fail" = 0
    && d "us.commit.run" = 1 && d "net.msg.write" = 0
  in
  Report.rpc_latency_table stats;
  let pct p = Stats.hist_percentile stats "rpc.latency.stat" p in
  Printf.printf "recovered every injected stat loss: %s\n" (Report.check stat_ok);
  Printf.printf
    "lost open and commit replies recovered, each handler ran once, the commit carrying \
     the write: %s\n"
    (Report.check state_ok);
  if not (stat_ok && state_ok) then
    failwith "E17: a lost message was not recovered exactly once";
  Printf.printf "stat percentiles monotone (p50 <= p95 <= p99): %s\n"
    (Report.check (pct 50.0 <= pct 95.0 && pct 95.0 <= pct 99.0));
  Printf.printf
    "retried stats pay the backoff: the loss shows in the p95/p99 tail,\n\
     not in the median\n"

(* --------------------------------------------------------------- E18 *)
(* Section 2.3.3: kernel buffers at both the US and the SS. The two-level
   buffer cache: the US tier absorbs repeat reads entirely (version-keyed,
   so it survives close/re-open of an unchanged file), the SS tier turns
   repeat remote reads of a hot file from disk reads into memory serves. *)
let e18 () =
  Report.section "E18  Two-level buffer cache (US + SS tiers)"
    "sequential read + re-read of a hot remote file, cache tiers toggled";
  let pages = 16 in
  let body = String.make (pages * Page.size) 'h' in
  let run ~label ~us ~ss =
    let base = World.default_config ~n_sites:3 () in
    let config =
      {
        base with
        World.filegroups = [ { World.fg = 0; pack_sites = [ 0 ]; mount_path = None } ];
        kernel_config =
          {
            K.default_config with
            K.us_cache_pages = (if us then K.default_config.K.us_cache_pages else 0);
            ss_cache_pages = (if ss then K.default_config.K.ss_cache_pages else 0);
            (* This experiment ablates the cache tiers under the classic
               one-page protocol; its per-page readahead count assumes an
               unbatched read path (E20 sweeps the bulk window). *)
            bulk_window = 1;
          };
      }
    in
    let w = World.create ~config () in
    mk_file ~cold:true w ~at:0 ~ncopies:1 ~path:"/hot" ~body;
    let k2 = World.kernel w 2 in
    let gf = gf_of k2 "/hot" in
    (* Pass 1: first sequential read; the engine drains between reads so
       readahead overlaps with the application (as in E2). *)
    let read_pass () =
      let o = Us.open_gf k2 gf Proto.Mode_read in
      let stall = ref 0.0 in
      for lpage = 0 to pages - 1 do
        let t0 = World.now w in
        ignore (Us.read_page k2 o lpage);
        stall := !stall +. (World.now w -. t0);
        drain w
      done;
      Us.close k2 o;
      settle_ok w;
      !stall /. float_of_int pages
    in
    let snap = Stats.snapshot (World.stats w) in
    let first = read_pass () in
    (* Pass 2: close/re-open, read the same (unchanged) version again. *)
    let reread = read_pass () in
    let m = msgs w snap in
    let ra = Stats.get (World.stats w) "us.readahead" in
    ((label, first, reread, m, ra), World.stats w)
  in
  let results =
    [
      run ~label:"no cache at all" ~us:false ~ss:false;
      run ~label:"SS tier only" ~us:false ~ss:true;
      run ~label:"US tier only" ~us:true ~ss:false;
      run ~label:"US + SS, retention" ~us:true ~ss:true;
    ]
  in
  let rows =
    List.map
      (fun ((label, first, reread, m, ra), _) ->
        [ label; Report.f2 first; Report.f2 reread; Report.i m; Report.i ra ])
      results
  in
  Report.table
    ~title:
      (Printf.sprintf "site 2 reads a %d-page file stored only at site 0, twice"
         pages)
    ~header:[ "configuration"; "1st pass ms/pg"; "re-read ms/pg"; "messages"; "readaheads" ]
    rows;
  let nth n = let (r, _) = List.nth results n in r in
  let _, off_first, off_reread, _, _ = nth 0 in
  let _, _, ss_reread, _, _ = nth 1 in
  let _, _, ret_reread, _, ret_ra = nth 3 in
  (* Readahead fires on every sequential page of both passes except after
     the last: pass 1 readaheads pages 1..15, pass 2 re-reads hit warm
     (already cached => no refetch), so the count stays pages-1. *)
  Printf.printf "readahead fired on every sequential first-pass page: %s\n"
    (Report.check (ret_ra = pages - 1));
  Printf.printf "warm US tier absorbs the re-read (0 msgs beyond close): %s\n"
    (Report.check (ret_reread < 0.25 *. off_reread));
  Printf.printf "SS tier alone beats no-cache on the re-read (skips disk): %s\n"
    (Report.check (ss_reread < off_reread));
  Printf.printf "re-read improved vs cache-off: %.2f -> %.2f ms/page\n"
    off_first ret_reread;
  let _, stats_full = List.nth results 3 in
  Report.cache_table ~title:"cache counters, US + SS with retention" stats_full;
  (* With the US tier on, repeats never reach the SS; the SS-only run shows
     the second tier absorbing the disk traffic of re-reads on its own. *)
  let _, stats_ss = List.nth results 1 in
  Report.cache_table ~title:"cache counters, SS tier only" stats_ss

(* --------------------------------------------------------------- E19 *)
(* Section 2.3.4's unimplemented remedy, implemented: server-side
   partial-pathname lookup plus the per-site name cache. Same trees and
   sites as E13; cold is the first remote resolution, warm the second.
   Each half is ablated independently. *)
let e19 () =
  Report.section "E19  Fast pathname resolution"
    "name cache + partial-pathname lookup vs the E13 per-component walk";
  let variants =
    [
      ("cache + remote lookup", 512, true);
      ("remote lookup only", 0, true);
      ("name cache only", 512, false);
      ("neither (E13 baseline)", 0, false);
    ]
  in
  let kconfig entries remote =
    { K.default_config with K.name_cache_entries = entries; remote_lookup = remote }
  in
  (* Resolve [path] at [site]: its messages and simulated ms. *)
  let resolve w site path =
    let snap = Stats.snapshot (World.stats w) in
    let t0 = World.now w in
    ignore (gf_of (World.kernel w site) path);
    (msgs w snap, World.now w -. t0)
  in
  (* Resolve [path] at [site] twice: a cold name cache, then a warm one. *)
  let resolve_twice w site path =
    let cold = resolve w site path in
    (cold, resolve w site path)
  in
  let full_stats = ref None in
  let checks = ref [] in
  let row label depth ((m_cold, t_cold), (m_warm, t_warm)) =
    [ label; depth; Report.i m_cold; Report.f2 t_cold; Report.i m_warm; Report.f2 t_warm ]
  in
  let rows =
    List.concat_map
      (fun (label, entries, remote) ->
        List.map
          (fun depth ->
            (* Packs at site 0 only (also the CSS); site 2 resolves fully
               remotely, as in E13. *)
            let w = make_world ~n:3 ~packs:[ 0 ] ~kconfig:(kconfig entries remote) () in
            deep_tree_prepare w depth;
            let ((m_cold, _), (m_warm, _)) as costs =
              resolve_twice w 2 (deep_tree_path depth)
            in
            if entries > 0 && remote then begin
              (* The headline claim: one round trip cold, free warm. *)
              checks := (Printf.sprintf "depth %d" depth, m_cold, m_warm) :: !checks;
              if depth = 6 then full_stats := Some (World.stats w)
            end;
            row label (Report.i depth) costs)
          [ 1; 3; 6 ])
      variants
  in
  (* The leaf stored away from the lookup site: packs at 0 (the CSS, which
     the lookup asks) and 1, /d on both, /d/leaf created at site 1 with one
     copy, resolved from site 3. The trail's last step carries the leaf's
     type from its directory entry, so no stat of the leaf follows. *)
  let away =
    let w = make_world ~n:4 ~packs:[ 0; 1 ] ~kconfig:(kconfig 512 true) () in
    let k0 = World.kernel w 0 and p0 = World.proc w 0 in
    let k1 = World.kernel w 1 and p1 = World.proc w 1 in
    Kernel.set_ncopies p0 2;
    ignore (Kernel.mkdir k0 p0 "/d");
    settle_ok w;
    Kernel.set_ncopies p1 1;
    ignore (Kernel.creat k1 p1 "/d/leaf");
    Kernel.write_file k1 p1 "/d/leaf" "x";
    settle_ok w;
    let ((m_cold, _), (m_warm, _)) as costs = resolve_twice w 3 "/d/leaf" in
    checks := ("leaf stored away", m_cold, m_warm) :: !checks;
    row "cache + remote lookup, leaf at site 1" "1" costs
  in
  (* After a merge: site 2 used /d/a, /d/b and /d/c, stored at site 0
     only, and the merge cleared its name cache. The first name re-warms
     /d's page in its one round trip, so a second name costs nothing. *)
  let merged =
    let w = make_world ~n:3 ~packs:[ 0 ] ~kconfig:(kconfig 512 true) () in
    let k0 = World.kernel w 0 and p0 = World.proc w 0 in
    ignore (Kernel.mkdir k0 p0 "/d");
    let names = [ "/d/a"; "/d/b"; "/d/c" ] in
    List.iter (fun path -> ignore (Kernel.creat k0 p0 path)) names;
    settle_ok w;
    List.iter (fun path -> ignore (resolve w 2 path)) names;
    ignore (World.heal_and_merge w);
    let ((m_first, _), (m_second, _)) as costs =
      let first = resolve w 2 "/d/a" in
      (first, resolve w 2 "/d/b")
    in
    checks := ("after a merge", m_first, m_second) :: !checks;
    row "cache + remote lookup, after a merge" "1" costs
  in
  Report.table
    ~title:"site 2 resolves /d1/.../dN/leaf stored only at site 0, twice (last rows: see below)"
    ~header:[ "configuration"; "depth"; "cold msgs"; "cold ms"; "warm msgs"; "warm ms" ]
    (rows @ [ away; merged ]);
  let checks = List.rev !checks in
  List.iter
    (fun (what, m_cold, m_warm) ->
      Printf.printf "%s with both halves on: cold %d msgs (= 2), warm %d (= 0): %s\n" what
        m_cold m_warm
        (Report.check (m_cold = 2 && m_warm = 0)))
    checks;
  (match !full_stats with
  | Some stats ->
    Report.name_cache_table ~title:"name-cache counters, both halves, depth 6" stats
  | None -> ());
  Printf.printf
    "one Lookup_req round trip replaces the per-component internal opens\n\
     (E13: 8/16/28 msgs at depth 1/3/6); the trail it returns fills the\n\
     name cache, so the warm walk sends nothing at all. In the \"leaf at\n\
     site 1\" row site 3 resolves /d/leaf of a 4-site world with packs at sites 0 and 1,\n\
     /d on both and the leaf on site 1 only: the lookup at site 0 (the CSS)\n\
     reads the leaf's type from its directory entry, so no stat follows.\n\
     In the \"after a merge\" row site 2 had used /d/a, /d/b and /d/c before\n\
     a merge cleared its name cache: \"cold\" is /d/a, whose lookup re-warms\n\
     /d's page, and \"warm\" is /d/b, a name it has not asked for since.\n\
     \"cold\" is a cold name cache; the storing site's buffer cache is warm.\n";
  if List.exists (fun (_, m_cold, m_warm) -> m_cold <> 2 || m_warm <> 0) checks then
    failwith "E19: a cached remote-lookup resolution is not one round trip cold and free warm"

(* ---------------------------------------------------------------- E20 *)
(* The bulk-transfer layer: windowed streaming reads, write-behind
   batching, and batched propagation pulls, swept across window sizes. A
   window of 1 is the ablation — exactly the one-page-per-RTT protocols —
   so the w=1 rows double as the before-this-layer baseline. *)
let e20 () =
  Report.section "E20  Bulk page transfer"
    "read / write / propagation cost vs bulk window (1 = ablation)";
  let pages = 32 in
  (* Distinctive per-page contents, so equality checks catch misordered or
     misplaced pages, not just wrong lengths. *)
  let body =
    String.init (pages * Page.size) (fun i ->
        Char.chr (Char.code 'a' + (i / Page.size mod 26)))
  in
  let kconfig window = { K.default_config with K.bulk_window = window } in
  let metric = Report.metric ~experiment:"e20" in
  (* (a) site 2 reads the 32 pages sequentially from the pack at site 0.
     Drained, the engine runs between reads, modelling streamed fetches
     landing while the application processes the previous page. Inline,
     [Us.read_all] reads page after page with nothing run in between,
     which is what [Kernel.read_file] pays. *)
  let read_run ~inline window =
    let w = make_world ~n:3 ~packs:[ 0 ] ~kconfig:(kconfig window) () in
    mk_file w ~at:0 ~ncopies:1 ~path:"/big" ~body;
    let k = World.kernel w 2 in
    let o = Us.open_gf k (gf_of k "/big") Proto.Mode_read in
    let snap = Stats.snapshot (World.stats w) in
    let t0 = World.now w in
    let got =
      if inline then Us.read_all k o
      else begin
        let buf = Buffer.create (pages * Page.size) in
        for lpage = 0 to pages - 1 do
          let data, _ = Us.read_page k o lpage in
          Buffer.add_string buf data;
          drain w
        done;
        Buffer.contents buf
      end
    in
    let m = Stats.delta_of (World.stats w) snap "net.msg.read" in
    let b = Stats.delta_of (World.stats w) snap "net.bytes" in
    let dt = World.now w -. t0 in
    Us.close k o;
    settle_ok w;
    (m, b, dt, String.equal got body, World.stats w)
  in
  (* (b) site 2 writes the same 32 pages through the write protocol. *)
  let write_run window =
    let w = make_world ~n:3 ~packs:[ 0 ] ~kconfig:(kconfig window) () in
    mk_file w ~at:0 ~ncopies:1 ~path:"/out" ~body:"";
    let k = World.kernel w 2 and p = World.proc w 2 in
    let snap = Stats.snapshot (World.stats w) in
    let t0 = World.now w in
    Kernel.write_file k p "/out" body;
    let m = Stats.delta_of (World.stats w) snap "net.msg.write" in
    let b = Stats.delta_of (World.stats w) snap "net.bytes" in
    let dt = World.now w -. t0 in
    settle_ok w;
    let k0 = World.kernel w 0 and p0 = World.proc w 0 in
    (m, b, dt, String.equal (Kernel.read_file k0 p0 "/out") body, World.stats w)
  in
  (* (c) a big-file commit at site 0 propagates to the replica at site 1:
     the background pull fetches the modified pages in window batches. *)
  let prop_run window =
    let w = make_world ~n:3 ~packs:[ 0; 1 ] ~kconfig:(kconfig window) () in
    mk_file w ~at:0 ~ncopies:2 ~path:"/repl" ~body:"seed";
    let k0 = World.kernel w 0 and p0 = World.proc w 0 in
    let snap = Stats.snapshot (World.stats w) in
    let t0 = World.now w in
    Kernel.write_file k0 p0 "/repl" body;
    settle_ok w;
    let m = Stats.delta_of (World.stats w) snap "net.msg.read" in
    let b = Stats.delta_of (World.stats w) snap "net.bytes" in
    let dt = World.now w -. t0 in
    let k1 = World.kernel w 1 and p1 = World.proc w 1 in
    (m, b, dt, String.equal (Kernel.read_file k1 p1 "/repl") body, World.stats w)
  in
  let windows = [ 1; 2; 4; 8; 16 ] in
  let results =
    List.map
      (fun wnd ->
        ( wnd,
          (read_run ~inline:false wnd, read_run ~inline:true wnd),
          write_run wnd,
          prop_run wnd ))
      windows
  in
  let rows =
    List.map
      (fun ( wnd,
             ((rm, rb, rt, rok, _), (im, ib, it, iok, _)),
             (wm, wb, wt, wok, _),
             (pm, pb, pt, pok, _) ) ->
        List.iter
          (fun (what, m, b, t) ->
            metric (Printf.sprintf "%s.msgs.w%d" what wnd) (float_of_int m);
            metric (Printf.sprintf "%s.bytes.w%d" what wnd) (float_of_int b);
            metric (Printf.sprintf "%s.ms.w%d" what wnd) t)
          [ ("read", rm, rb, rt); ("inline", im, ib, it); ("write", wm, wb, wt);
            ("prop", pm, pb, pt) ];
        [ Report.i wnd; Report.i rm; Report.f2 rt; Report.i im; Report.f2 it;
          Report.i wm; Report.f2 wt; Report.i pm; Report.f2 pt;
          Report.check (rok && iok && wok && pok) ])
      results
  in
  Report.table
    ~title:
      (Printf.sprintf
         "sequential %d-page remote read (drained / inline) / write / 2-copy propagation"
         pages)
    ~header:
      [ "window"; "read msgs"; "read ms"; "inline msgs"; "inline ms"; "write msgs";
        "write ms"; "prop msgs"; "prop ms"; "contents" ]
    rows;
  let find wnd = List.find (fun (w', _, _, _) -> w' = wnd) results in
  let _, ((rm1, _, _, _, _), _), (wm1, _, _, _, _), (pm1, _, _, _, _) = find 1 in
  let ( _,
        ((rm8, _, _, rok8, rstats8), _),
        (wm8, _, _, _, wstats8),
        (pm8, _, _, _, pstats8) ) =
    find 8
  in
  Report.bulk_table ~title:"bulk counters, read world, window 8" rstats8;
  Report.bulk_table ~title:"bulk counters, write world, window 8" wstats8;
  Report.bulk_table ~title:"bulk counters, propagation world, window 8" pstats8;
  Printf.printf
    "read-class messages, window 8 vs 1: %d vs %d (%.1fx, need >= 4x): %s\n"
    rm8 rm1
    (float_of_int rm1 /. float_of_int (max 1 rm8))
    (Report.check (rok8 && rm1 >= 4 * rm8));
  (* A read call tells the fetcher its extent, so an inline read moves a
     full window per round trip from the first page, and above window 1
     the open (served by the CSS at site 0 itself) already carried the
     first window, as the write's commit carried its last: the write
     column's message count, at every window. A gate, like (d) below. *)
  let inline_ok =
    List.for_all
      (fun (_, (_, (im, _, _, iok, _)), (wm, _, _, _, _), _) -> iok && im = wm)
      results
  in
  metric "inline.gate" (if inline_ok then 1. else 0.);
  Printf.printf
    "inline read-class messages after the open = write-class messages before the commit \
     (%s vs %s): %s\n"
    (String.concat "/"
       (List.map (fun (_, (_, (im, _, _, _, _)), _, _) -> string_of_int im) results))
    (String.concat "/"
       (List.map (fun (_, _, (wm, _, _, _, _), _) -> string_of_int wm) results))
    (Report.check inline_ok);
  if not inline_ok then failwith "E20: an inline read does not move a window per round trip";
  Printf.printf "write-class messages, window 8 vs 1: %d vs %d (%.1fx): %s\n" wm8 wm1
    (float_of_int wm1 /. float_of_int (max 1 wm8))
    (Report.check (wm1 >= 4 * wm8));
  Printf.printf
    "propagation round trips drop by the window factor: %d vs %d msgs: %s\n"
    pm8 pm1
    (Report.check (pm1 >= 4 * pm8));
  (* (d) a whole-file overwrite and its commit from site 2. At window 8 an
     8-page body rides the commit with its truncate, so the write and the
     commit are one round trip; a 12-page body sends its first window in
     one write round trip and the commit carries the 4-page tail. At
     window 1 every page is a write round trip of its own. *)
  let whole_run window pages =
    let w = make_world ~n:3 ~packs:[ 0 ] ~kconfig:(kconfig window) () in
    mk_file w ~at:0 ~ncopies:1 ~path:"/whole" ~body:"";
    let k = World.kernel w 2 and p = World.proc w 2 in
    let snap = Stats.snapshot (World.stats w) in
    let written = String.sub body 0 (pages * Page.size) in
    Kernel.write_file k p "/whole" written;
    settle_ok w;
    let delta tag = Stats.delta_of (World.stats w) snap tag in
    let k0 = World.kernel w 0 and p0 = World.proc w 0 in
    ( delta "net.msg.write",
      delta "net.msg.commit",
      delta "net.msg.truncate",
      delta "us.commit.run.pages",
      String.equal (Kernel.read_file k0 p0 "/whole") written )
  in
  (* window, pages, then the exact write, commit, truncate and carried
     page counts *)
  let whole_rows = [ (8, 8, (0, 2, 0, 8)); (1, 8, (16, 2, 0, 0)); (8, 12, (2, 2, 0, 4)) ] in
  let whole =
    List.map
      (fun (window, pages, want) ->
        let wm, cm, tm, carried, ok = whole_run window pages in
        metric (Printf.sprintf "whole.%dp.write.msgs.w%d" pages window) (float_of_int wm);
        metric (Printf.sprintf "whole.%dp.commit.msgs.w%d" pages window) (float_of_int cm);
        metric (Printf.sprintf "whole.%dp.truncate.msgs.w%d" pages window) (float_of_int tm);
        (window, pages, (wm, cm, tm, carried), ok && (wm, cm, tm, carried) = want))
      whole_rows
  in
  Report.table ~title:"remote whole-file write plus its commit"
    ~header:
      [ "window"; "pages"; "write msgs"; "commit msgs"; "truncate msgs"; "pages in commit";
        "exact" ]
    (List.map
       (fun (window, pages, (wm, cm, tm, carried), ok) ->
         [ Report.i window; Report.i pages; Report.i wm; Report.i cm; Report.i tm;
           Report.i carried; Report.check ok ])
       whole);
  let whole_ok = List.for_all (fun (_, _, _, ok) -> ok) whole in
  Printf.printf
    "8-page whole-file write plus commit at window 8 is one round trip (0 write, 2 commit, \
     0 truncate msgs); 16 write + 2 commit at window 1; a 12-page one is one write round \
     trip and a commit carrying 4 pages: %s\n"
    (Report.check whole_ok);
  (* A gate, not just a cell: bench-smoke fails when this does. *)
  if not whole_ok then failwith "E20: a whole-file write plus its commit is not one round trip";
  Printf.printf
    "a window of 1 reproduces the unbatched protocols exactly; the window\n\
     sweep shows the per-page round trips collapsing into streamed batches.\n"

(* --------------------------------------------------------------- E21 *)
(* Cached opens: CSS-granted read leases with callback invalidation and
   deferred close. Sweep the E1 placements cold vs leased re-open, show a
   writer open breaking the lease before the next read can observe stale
   data, and verify both ablations reproduce E1's message counts. *)
let e21 () =
  Report.section "E21  Open leases: zero-message re-opens"
    "cold vs leased re-open cost; callback break on writer open; ablations";
  let metric = Report.metric ~experiment:"e21" in
  (* The five collocation modes of E1, with the paper's cold-open counts. *)
  let placements =
    [
      ("US = CSS = SS (all local)", "local", 0, 0, 0);
      ("US = SS, CSS remote", "us_ss", 1, 1, 2);
      ("US = CSS, SS remote", "us_css", 1, 0, 2);
      ("CSS = SS, US remote", "css_ss", 0, 3, 2);
      ("US, CSS, SS all distinct", "distinct", 1, 3, 4);
    ]
  in
  (* One cold open+close, then a re-open of the unchanged file: with the
     lease layer on the second open rides the retained grant for zero
     messages; with it off it repeats the cold exchange. *)
  let run kconfig (label, slug, file_at, open_at, paper) =
    let w = make_world ~n:5 ~packs:[ 0; 1 ] ~kconfig () in
    mk_file w ~at:file_at ~ncopies:1 ~path:"/f" ~body:"x";
    let k = World.kernel w open_at in
    let gf = gf_of k "/f" in
    let snap = Stats.snapshot (World.stats w) in
    let o = Us.open_gf k gf Proto.Mode_read in
    let cold = msgs w snap in
    Us.close k o;
    settle_ok w;
    let snap = Stats.snapshot (World.stats w) in
    let t0 = World.now w in
    let o2 = Us.open_gf k gf Proto.Mode_read in
    let warm = msgs w snap in
    let warm_ms = World.now w -. t0 in
    Us.close k o2;
    settle_ok w;
    (label, slug, cold, warm, warm_ms, paper)
  in
  let leased = List.map (run K.default_config) placements in
  List.iter
    (fun (_, slug, cold, warm, warm_ms, _) ->
      metric (Printf.sprintf "cold.msgs.%s" slug) (float_of_int cold);
      metric (Printf.sprintf "warm.msgs.%s" slug) (float_of_int warm);
      metric (Printf.sprintf "warm.ms.%s" slug) warm_ms)
    leased;
  Report.table ~title:"open cost by role collocation, lease layer on"
    ~header:[ "mode"; "cold msgs"; "paper"; "warm msgs"; "warm ms"; "ok" ]
    (List.map
       (fun (label, _, cold, warm, warm_ms, paper) ->
         [ label; Report.i cold; Report.i paper; Report.i warm; Report.f2 warm_ms;
           Report.check (cold = paper && warm = 0) ])
       leased);
  (* Writer interference: a reader's retained grant is broken by callback
     when a writer opens, and the re-open after the writer's commit sees
     the new data — never the leased version. *)
  let w = make_world ~n:5 ~packs:[ 0; 1 ] () in
  mk_file w ~at:1 ~ncopies:1 ~path:"/shared" ~body:"old";
  let k3 = World.kernel w 3 and k2 = World.kernel w 2 in
  let gf = gf_of k3 "/shared" in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  ignore (Us.read_all k3 o);
  Us.close k3 o;
  settle_ok w;
  let held = Locus_core.Openlease.find_entry k3.K.open_leases gf <> None in
  let t0 = World.now w in
  let ow = Us.open_gf k2 gf Proto.Mode_modify in
  (* Drain the engine in small slices until the break callback lands at
     the holder, timing its delivery. *)
  let slices = ref 0 in
  while
    Locus_core.Openlease.find_entry k3.K.open_leases gf <> None && !slices < 100
  do
    incr slices;
    ignore (Engine.run_for (World.engine w) 0.05)
  done;
  let break_ms = World.now w -. t0 in
  let broken = Locus_core.Openlease.find_entry k3.K.open_leases gf = None in
  Us.set_contents k2 ow "fresh";
  Us.commit k2 ow;
  Us.close k2 ow;
  settle_ok w;
  let snap = Stats.snapshot (World.stats w) in
  let o2 = Us.open_gf k3 gf Proto.Mode_read in
  let reopen_msgs = msgs w snap in
  let seen = Us.read_all k3 o2 in
  Us.close k3 o2;
  settle_ok w;
  metric "break.ms" break_ms;
  metric "break.reopen.msgs" (float_of_int reopen_msgs);
  Report.table ~title:"writer interference on a leased file"
    ~header:[ "step"; "value"; "ok" ]
    [
      [ "lease held across close"; "-"; Report.check held ];
      [ "broken by writer open (ms)"; Report.f2 break_ms; Report.check broken ];
      [ "re-open after commit (msgs)"; Report.i reopen_msgs;
        Report.check (reopen_msgs > 0) ];
      [ "data seen"; seen; Report.check (String.equal seen "fresh") ];
    ];
  Report.lease_table (World.stats w);
  (* A membership change drops every lease silently, as a crash does: the
     merge's section 5.6 rebuild restores the lock tables the deferred
     closes would have updated. Site 2 holds leases on three files across
     a partition, takes them again inside it and holds them into the
     merge; neither event may send a close, and a re-open after the merge
     must read the committed bytes. *)
  let w = make_world ~n:5 ~packs:[ 0; 1 ] () in
  let files = [ "/p"; "/q"; "/r" ] in
  List.iter (fun path -> mk_file w ~at:1 ~ncopies:1 ~path ~body:path) files;
  let k2 = World.kernel w 2 in
  let gfs = List.map (gf_of k2) files in
  let hold () =
    List.iter (fun gf -> Us.close k2 (Us.open_gf k2 gf Proto.Mode_read)) gfs;
    settle_ok w
  in
  let closes f =
    let snap = Stats.snapshot (World.stats w) in
    f ();
    settle_ok w;
    Stats.delta_of (World.stats w) snap "net.msg.close.us"
    + Stats.delta_of (World.stats w) snap "net.msg.close.ss"
  in
  hold ();
  let part_closes = closes (fun () -> ignore (World.partition w [ [ 0; 1; 2 ]; [ 3; 4 ] ])) in
  hold ();
  let merge_closes = closes (fun () -> ignore (World.heal_and_merge w)) in
  let o = Us.open_gf k2 (List.hd gfs) Proto.Mode_read in
  let reread = Us.read_all k2 o in
  Us.close k2 o;
  settle_ok w;
  metric "membership.partition.close.msgs" (float_of_int part_closes);
  metric "membership.merge.close.msgs" (float_of_int merge_closes);
  let membership_ok = part_closes = 0 && merge_closes = 0 && String.equal reread "/p" in
  Report.table ~title:"leases held across a membership change (3 files at site 2)"
    ~header:[ "event"; "partition close msgs"; "merge close msgs"; "re-open reads"; "ok" ]
    [
      [ "partition + merge"; Report.i part_closes; Report.i merge_closes; reread;
        Report.check membership_ok ];
    ];
  (* A gate, not just a cell: bench-smoke fails when this does. *)
  if not membership_ok then
    failwith "E21: a membership change sent lease closes or lost the committed bytes";
  (* Eviction at capacity: site 3 opens and closes twice as many files as
     its lease table holds, every one stored at the CSS alone. Each open
     past the capacity evicts an idle grant the CSS serves, and that
     grant's close rides the open: the open is its one round trip. *)
  let capacity = 8 in
  let w =
    make_world ~n:5 ~packs:[ 0; 1 ]
      ~kconfig:{ K.default_config with K.open_lease_entries = capacity } ()
  in
  let files = List.init (2 * capacity) (Printf.sprintf "/e%d") in
  List.iter (fun path -> mk_file w ~at:0 ~ncopies:1 ~path ~body:path) files;
  let k3 = World.kernel w 3 in
  let costs =
    List.map
      (fun path ->
        let gf = gf_of k3 path in
        let snap = Stats.snapshot (World.stats w) in
        Us.close k3 (Us.open_gf k3 gf Proto.Mode_read);
        let delta = Stats.delta_of (World.stats w) snap in
        (delta "open.lease.evict", delta "net.msg", delta "net.msg.close.us"))
      files
  in
  settle_ok w;
  let evicting = List.filter (fun (evict, _, _) -> evict > 0) costs in
  let max_msgs = List.fold_left (fun a (_, m, _) -> max a m) 0 evicting in
  let closes = List.fold_left (fun a (_, _, c) -> a + c) 0 evicting in
  metric "evict.opens" (float_of_int (List.length evicting));
  metric "evict.open.max_msgs" (float_of_int max_msgs);
  metric "evict.close.msgs" (float_of_int closes);
  let evict_ok = List.length evicting = capacity && max_msgs <= 2 && closes = 0 in
  Report.table ~title:"eviction at capacity (site 3, CSS-stored files)"
    ~header:[ "event"; "opens"; "evicting"; "max msgs/open"; "close.us msgs"; "ok" ]
    [
      [ "eviction at capacity"; Report.i (List.length files); Report.i (List.length evicting);
        Report.i max_msgs; Report.i closes; Report.check evict_ok ];
    ];
  if not evict_ok then
    failwith "E21: an evicting cold open sent a close of its own or more than one round trip";
  (* The break is the close: a write from site 2 to a file site 3 holds a
     lease on, against the same write with no lease held. The difference
     is what breaking the grant costs. Served by the CSS (file at 0), the
     CSS releases the grant whole: the acknowledged break's call and
     reply, and no close leg or page invalidation. Served by another SS
     (file at 1), the holder's close ends only that SS's registration. *)
  let classes = [ "lease.break"; "close.us"; "close.ss"; "page.invalidate" ] in
  let write_cost ~at ~leased =
    let w = make_world ~n:5 ~packs:[ 0; 1 ] () in
    mk_file w ~at ~ncopies:1 ~path:"/b" ~body:"old";
    let k3 = World.kernel w 3 in
    if leased then begin
      Us.close k3 (Us.open_gf k3 (gf_of k3 "/b") Proto.Mode_read);
      settle_ok w
    end;
    let snap = Stats.snapshot (World.stats w) in
    Kernel.write_file (World.kernel w 2) (World.proc w 2) "/b" "new";
    settle_ok w;
    let delta = Stats.delta_of (World.stats w) snap in
    (delta "net.msg", List.map (fun c -> delta ("net.msg." ^ c)) classes)
  in
  let break_cost ~at =
    let total, per = write_cost ~at ~leased:true in
    let total0, per0 = write_cost ~at ~leased:false in
    (total - total0, List.map2 ( - ) per per0)
  in
  let css_total, css_per = break_cost ~at:0 in
  let ss_total, ss_per = break_cost ~at:1 in
  metric "break.css.msgs" (float_of_int css_total);
  metric "break.ss.msgs" (float_of_int ss_total);
  let break_ok = css_total = 2 && css_per = [ 2; 0; 0; 0 ] in
  Report.table ~title:"what breaking a lease adds to a write (site 3 holds it, site 2 writes)"
    ~header:([ "grant served by"; "msgs" ] @ classes @ [ "ok" ])
    [
      [ "the CSS (file at 0)"; Report.i css_total ] @ List.map Report.i css_per
      @ [ Report.check break_ok ];
      [ "another SS (file at 1)"; Report.i ss_total ] @ List.map Report.i ss_per @ [ "-" ];
    ];
  if not break_ok then
    failwith "E21: breaking a grant the CSS serves cost more than the break's call and reply";
  (* Ablation: with the layer off every open repeats the cold exchange,
     reproducing E1's counts exactly. *)
  let ablation name kconfig =
    let rows = List.map (run kconfig) placements in
    let ok =
      List.for_all (fun (_, _, cold, warm, _, paper) -> cold = paper && warm = paper) rows
    in
    List.iter
      (fun (_, slug, cold, warm, _, _) ->
        metric (Printf.sprintf "%s.cold.msgs.%s" name slug) (float_of_int cold);
        metric (Printf.sprintf "%s.warm.msgs.%s" name slug) (float_of_int warm))
      rows;
    [ name; Report.check ok ]
  in
  Report.table ~title:"ablations reproduce the unleased protocol (cold = warm = E1)"
    ~header:[ "ablation"; "ok" ]
    [
      ablation "open_lease_entries=0" { K.default_config with K.open_lease_entries = 0 };
    ];
  Printf.printf
    "a warm re-open of an unchanged remote file costs 0 messages (cold: 4\n\
     with all roles distinct); the first writer open breaks the lease by\n\
     callback before the next read can observe stale data.\n"

(* --------------------------------------------------------------- E22 *)
(* Scale-out storage: opens at growing site counts. The same open and
   64-page read of a file with copies at 4 packs, at 8..512 installed
   sites, with the per-kernel tables pre-sized from the site count: the
   protocol cost stays flat as the installation grows, because an open
   talks to its CSS and the one SS the CSS chose (section 2.3.3), never
   to the whole site table. *)
let e22 () =
  Report.section "E22  Scale-out storage: growing site counts"
    "open/read cost vs n_sites";
  let metric = Report.metric ~experiment:"e22" in
  let pages = 64 in
  let body =
    String.init (pages * Page.size) (fun i ->
        Char.chr (Char.code 'a' + (i / Page.size mod 26)))
  in
  let bytes = float_of_int (pages * Page.size) in
  let scale_run n =
    let w = make_world ~n ~packs:[ 0; 1; 2; 3 ] () in
    mk_file w ~at:0 ~ncopies:4 ~path:"/wide" ~body;
    let clients =
      List.sort_uniq Int.compare [ 4; n / 2; n - 2; n - 1 ]
      |> List.filter (fun s -> s >= 4)
    in
    let per_client =
      List.map
        (fun site ->
          let k = World.kernel w site in
          let snap = Stats.snapshot (World.stats w) in
          let t0 = World.now w in
          let o = Us.open_gf k (gf_of k "/wide") Proto.Mode_read in
          let open_ms = World.now w -. t0 in
          let t1 = World.now w in
          let buf = Buffer.create (pages * Page.size) in
          for lpage = 0 to pages - 1 do
            let data, _ = Us.read_page k o lpage in
            Buffer.add_string buf data;
            drain w
          done;
          let read_ms = World.now w -. t1 in
          let m = msgs w snap in
          Us.close k o;
          (open_ms, read_ms, m, String.equal (Buffer.contents buf) body))
        clients
    in
    settle_ok w;
    let nc = float_of_int (List.length per_client) in
    let mean f = List.fold_left (fun a x -> a +. f x) 0.0 per_client /. nc in
    let open_ms = mean (fun (o, _, _, _) -> o) in
    let read_ms = mean (fun (_, r, _, _) -> r) in
    let m = mean (fun (_, _, m, _) -> float_of_int m) in
    let ok = List.for_all (fun (_, _, _, ok) -> ok) per_client in
    (n, List.length per_client, open_ms, read_ms, bytes /. read_ms, m, ok)
  in
  let ns = [ 8; 32; 128; 512 ] in
  let scale = List.map scale_run ns in
  List.iter
    (fun (n, _, open_ms, read_ms, tput, m, _) ->
      metric (Printf.sprintf "scale.open.ms.n%d" n) open_ms;
      metric (Printf.sprintf "scale.read.ms.n%d" n) read_ms;
      metric (Printf.sprintf "scale.tput.n%d" n) tput;
      metric (Printf.sprintf "scale.msgs.n%d" n) m)
    scale;
  Report.table
    ~title:"open + 64-page read vs installed sites"
    ~header:
      [ "sites"; "clients"; "open ms"; "read ms"; "KB/ms"; "msgs/client";
        "contents" ]
    (List.map
       (fun (n, nc, open_ms, read_ms, tput, m, ok) ->
         [ Report.i n; Report.i nc; Report.f2 open_ms; Report.f2 read_ms;
           Report.f2 (tput /. 1024.); Report.f2 m; Report.check ok ])
       scale);
  let ms_of n =
    let _, _, _, read_ms, _, _, _ =
      List.find (fun (n', _, _, _, _, _, _) -> n' = n) scale
    in
    read_ms
  in
  Printf.printf
    "per-client read cost, 512 vs 8 sites: %.2f vs %.2f ms (flat): %s\n"
    (ms_of 512) (ms_of 8)
    (Report.check (ms_of 512 <= ms_of 8 *. 1.25));
  Printf.printf
    "one SS serves every page of an open, and cost per open does not grow\n\
     with the size of the installation.\n";
  (* A gate, not just a cell: bench-smoke fails when any check fails. *)
  if not (List.for_all (fun (_, _, _, _, _, _, ok) -> ok) scale) then
    failwith "E22: a read returned the wrong bytes";
  if ms_of 512 > ms_of 8 *. 1.25 then failwith "E22: read cost grows with the site count"

(* ---------------------------------------------------------------- E23 *)
(* Fault-soak smoke: a handful of seeded runs of the deterministic soak
   harness (lib/soak) — randomized fault schedules over a live replicated
   tree, then global invariant checks at quiesce. The full sweep (50+
   seeds x 2000+ ops) runs via `make soak`; this keeps the bench suite
   fast while still exercising every fault class. *)
let e23 () =
  Report.section "E23  Deterministic fault soak (smoke)"
    "seeded fault schedules vs global invariants at quiesce";
  let metric = Report.metric ~experiment:"e23" in
  let seeds = List.init 6 (fun i -> i + 1) in
  let ops = 400 in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    List.map (fun seed -> Soak.Driver.run ~seed ~ops ()) seeds
  in
  let wall = Unix.gettimeofday () -. t0 in
  let injected =
    List.fold_left
      (fun acc oc ->
        List.fold_left
          (fun acc (l, c) ->
            (l, c + Option.value ~default:0 (List.assoc_opt l acc))
            :: List.remove_assoc l acc)
          acc oc.Soak.Driver.oc_injected)
      [] outcomes
    |> List.sort compare
  in
  Report.table ~title:(Printf.sprintf "%d seeds x %d ops" (List.length seeds) ops)
    ~header:[ "seed"; "ops"; "errors"; "faults"; "skipped"; "events"; "invariants" ]
    (List.map
       (fun oc ->
         [ Report.i oc.Soak.Driver.oc_seed;
           Report.i oc.Soak.Driver.oc_report.Locus.Opstream.ops;
           Report.i oc.Soak.Driver.oc_report.Locus.Opstream.errors;
           Report.i
             (List.fold_left (fun a (_, c) -> a + c) 0 oc.Soak.Driver.oc_injected);
           Report.i oc.Soak.Driver.oc_skipped;
           Report.i oc.Soak.Driver.oc_events;
           Report.check (not (Soak.Driver.failed oc)) ])
       outcomes);
  Report.table ~title:"faults injected by class (all seeds)"
    ~header:[ "fault"; "count" ]
    (List.map (fun (l, c) -> [ l; Report.i c ]) injected);
  let total_faults = List.fold_left (fun a (_, c) -> a + c) 0 injected in
  metric "soak.seeds" (float_of_int (List.length seeds));
  metric "soak.ops.per.seed" (float_of_int ops);
  metric "soak.faults.injected" (float_of_int total_faults);
  metric "soak.violations"
    (float_of_int
       (List.fold_left
          (fun a oc -> a + List.length oc.Soak.Driver.oc_violations)
          0 outcomes));
  metric "soak.wall.s" wall;
  Printf.printf
    "%d seeds, %d faults injected, %d invariant violations, %.1fs wall\n"
    (List.length seeds) total_faults
    (List.fold_left (fun a oc -> a + List.length oc.Soak.Driver.oc_violations) 0 outcomes)
    wall

(* ---------------------------------------------------------------- E24 *)
(* Million-user flood: the allocation-lean event core driving Zipfian
   open/read/close, edit/commit and hot-directory traffic from 100k
   simulated users over a 64-site installation (DESIGN.md section 13).
   The dashboard is latency percentiles per op class plus the
   cache/lease/name hit rates the flood sustained; a site-count sweep
   then shows the per-op cost does not grow with installation size. *)

(* Spans are for debugging single ops; at flood scale their formatting
   would dominate the host cost, so recording is off during the run. *)
let flood_run w spec ~ops =
  let g = Opstream.setup w spec in
  let trace = Engine.trace (World.engine w) in
  Trace.set_recording trace false;
  let t0 = Unix.gettimeofday () in
  let r = Opstream.run g ~ops in
  let wall = Unix.gettimeofday () -. t0 in
  Trace.set_recording trace true;
  (r, wall)

let flood_world ~n_sites = make_world ~n:n_sites ~packs:[ 0; 1; 2; 3 ] ()

let flood_dashboard ~users (r : Opstream.report) =
  let row name (s : Stats.hist_summary) =
    [ name; Report.i s.Stats.n; Report.f2 s.Stats.p50; Report.f2 s.Stats.p95;
      Report.f2 s.Stats.p99; Report.f2 s.Stats.hmax ]
  in
  Report.table
    ~title:
      (Printf.sprintf "op latency, %d users x %d ops (simulated ms)" users
         r.Opstream.ops)
    ~header:[ "op class"; "ops"; "p50"; "p95"; "p99"; "max" ]
    [
      row "open/read/close" r.Opstream.read_lat;
      row "edit/commit" r.Opstream.edit_lat;
      row "dir create/unlink" r.Opstream.dirop_lat;
    ];
  let pct v = Printf.sprintf "%.1f%%" (100.0 *. v) in
  Report.table ~title:"hit rates over the run"
    ~header:[ "open lease"; "buffer cache"; "name cache" ]
    [ [ pct r.Opstream.lease_hit; pct r.Opstream.cache_hit; pct r.Opstream.name_hit ] ];
  Report.table ~title:"first pages with read opens"
    ~header:[ "pages delivered with opens"; "opens skipped: pages buffered" ]
    [ [ Report.i r.Opstream.open_pages; Report.i r.Opstream.open_buffered ] ];
  Printf.printf
    "(the buffer-cache hit rate counts a page delivered with an open as a hit\n\
    \ when it is read)\n";
  Printf.printf "read oracle: %d wrong, %d stale of %d reads\n" r.Opstream.wrong
    r.Opstream.stale r.Opstream.reads

let flood_metrics metric prefix ~users (r : Opstream.report) =
  let m name v = metric (prefix ^ name) v in
  m "users" (float_of_int users);
  m "ops" (float_of_int r.Opstream.ops);
  m "errors" (float_of_int r.Opstream.errors);
  m "reads.wrong" (float_of_int r.Opstream.wrong);
  m "reads.stale" (float_of_int r.Opstream.stale);
  m "migrations" (float_of_int r.Opstream.migrations);
  m "sim.ms" r.Opstream.sim_ms;
  let lat cls (s : Stats.hist_summary) =
    m (Printf.sprintf "lat.%s.p50" cls) s.Stats.p50;
    m (Printf.sprintf "lat.%s.p95" cls) s.Stats.p95;
    m (Printf.sprintf "lat.%s.p99" cls) s.Stats.p99
  in
  lat "read" r.Opstream.read_lat;
  lat "edit" r.Opstream.edit_lat;
  lat "dirop" r.Opstream.dirop_lat;
  m "hit.lease" r.Opstream.lease_hit;
  m "hit.cache" r.Opstream.cache_hit;
  m "hit.name" r.Opstream.name_hit

let e24 () =
  Report.section "E24  Million-user flood (Zipfian traffic engine)"
    "100k users over 64 sites: latency percentiles + hit-rate dashboard";
  let metric = Report.metric ~experiment:"e24" in
  let spec =
    {
      Opstream.flood_spec with
      Opstream.users = 100_000;
      files = 2_048;
      hot_dirs = 16;
      settle_every = 500;
    }
  in
  let ops = 60_000 in
  let w = flood_world ~n_sites:64 in
  let r, wall = flood_run w spec ~ops in
  flood_dashboard ~users:spec.Opstream.users r;
  flood_metrics metric "flood." ~users:spec.Opstream.users r;
  metric "flood.wall.s" wall;
  metric "flood.host.ops_per_sec" (float_of_int ops /. wall);
  Printf.printf
    "%d users, %d ops in %.1fs host (%.0f ops/sec); %d errors, %d migrations\n"
    spec.Opstream.users ops wall
    (float_of_int ops /. wall)
    r.Opstream.errors r.Opstream.migrations;
  (* site-count sweep: same per-site op pressure (users and ops scale
     with the installation, so per-site cache locality is held fixed).
     The op stream talks to the CSS and the storage sites, never to the
     whole site table, so per-op latency must stay flat. *)
  let sweep =
    List.map
      (fun n ->
        let sweep_spec = { spec with Opstream.users = 400 * n; settle_every = 400 } in
        let w = flood_world ~n_sites:n in
        let r, _ = flood_run w sweep_spec ~ops:(60 * n) in
        metric (Printf.sprintf "sweep.read.p50.n%d" n) r.Opstream.read_lat.Stats.p50;
        metric (Printf.sprintf "sweep.read.p99.n%d" n) r.Opstream.read_lat.Stats.p99;
        (n, r))
      [ 8; 64; 512 ]
  in
  Report.table ~title:"read latency vs installed sites (400 users, 60 ops per site)"
    ~header:[ "sites"; "reads"; "p50"; "p99"; "lease hit"; "cache hit"; "wrong"; "stale" ]
    (List.map
       (fun (n, (r : Opstream.report)) ->
         [ Report.i n; Report.i r.Opstream.read_lat.Stats.n;
           Report.f2 r.Opstream.read_lat.Stats.p50;
           Report.f2 r.Opstream.read_lat.Stats.p99;
           Printf.sprintf "%.1f%%" (100.0 *. r.Opstream.lease_hit);
           Printf.sprintf "%.1f%%" (100.0 *. r.Opstream.cache_hit);
           Report.i r.Opstream.wrong; Report.i r.Opstream.stale ])
       sweep);
  (* p50 tracks the hit rate, and hit rates sag a little with scale for a
     real reason: the Zipf-hot files are edited somewhere in the world at
     a rate proportional to total sites, and each edit breaks leases
     everywhere. The protocol-cost claim is the miss path: p99 must not
     grow with installation size. *)
  let p_of p n =
    let s = (List.assoc n sweep).Opstream.read_lat in
    if p = 99 then s.Stats.p99 else s.Stats.p50
  in
  Printf.printf "read p50, 512 vs 8 sites: %.2f vs %.2f ms (hit-rate drift)\n"
    (p_of 50 512) (p_of 50 8);
  Printf.printf "read p99, 512 vs 8 sites: %.2f vs %.2f ms (flat): %s\n"
    (p_of 99 512) (p_of 99 8)
    (Report.check (p_of 99 512 <= p_of 99 8 *. 1.25));
  let checked = List.for_all (fun (r : Opstream.report) ->
      r.Opstream.wrong = 0 && r.Opstream.stale = 0) (r :: List.map snd sweep) in
  Printf.printf "every read returned the last committed body: %s\n"
    (Report.check checked)

(* Small-scale flood for `make bench-smoke`: same machinery, sized to run
   in seconds, with the bookkeeping identities and the read oracle
   checked. *)
let e24smoke () =
  Report.section "E24s  Flood smoke (small world)"
    "2k users over 5 sites; bookkeeping identities + dashboard";
  let metric = Report.metric ~experiment:"e24smoke" in
  let spec = { Opstream.flood_spec with Opstream.users = 2_000; files = 128 } in
  let w = flood_world ~n_sites:5 in
  let r, _ = flood_run w spec ~ops:3_000 in
  flood_dashboard ~users:spec.Opstream.users r;
  flood_metrics metric "flood." ~users:spec.Opstream.users r;
  (* no faults are injected here, so every issued op either lands in one
     of the three classes or was refused *)
  let accounted =
    r.Opstream.reads + r.Opstream.edits + r.Opstream.dirops + r.Opstream.errors
  in
  Printf.printf "ops accounted for: %d/%d: %s\n" accounted r.Opstream.ops
    (Report.check (accounted = r.Opstream.ops));
  Printf.printf "latency ordering p50 <= p99 (reads): %s\n"
    (Report.check (r.Opstream.read_lat.Stats.p50 <= r.Opstream.read_lat.Stats.p99));
  if r.Opstream.wrong > 0 || r.Opstream.stale > 0 then
    failwith
      (Printf.sprintf "E24s: %d wrong and %d stale reads" r.Opstream.wrong
         r.Opstream.stale)

let all =
  [ e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12; e13; e14; e15; e16; e17;
    e18; e19; e20; e21; e22; e23; e24 ]

let by_name =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16); ("e17", e17);
    ("e18", e18); ("e19", e19); ("e20", e20); ("e21", e21); ("e22", e22);
    ("e23", e23); ("e24", e24); ("e24smoke", e24smoke);
  ]
