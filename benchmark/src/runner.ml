(* One workload on fresh worlds: set-up, untimed warm-up, timed phase.

   The untraced run drives every op through the system-call layer's
   convenience calls ([Kernel.read_file], [Kernel.write_file],
   [Kernel.creat], [Kernel.unlink], [Kernel.stat]). The traced run replays
   the same op stream split into the layer calls those conveniences make,
   timing each from outside; it must reproduce every simulated metric of
   the untraced run exactly, which proves the split faithful. *)

module W = Workload
module K = Locus_core.Ktypes
module Kernel = Locus_core.Kernel
module Us = Locus_core.Us
module Pathname = Locus_core.Pathname
module Dirops = Locus_core.Dirops
module World = Locus.World
module Engine = Sim.Engine
module Stats = Sim.Stats

let settle_every = 250

(* --trace-out keeps the spans of the first [trace_ops] timed ops. *)
let trace_ops = 100

(* Nearest-rank percentile of a list, read from a Sim.Stats histogram. *)
let percentile l p =
  let st = Stats.create () in
  List.iter (Stats.hist_observe st "") l;
  Stats.hist_percentile st "" p

let median l = percentile l 50.0

(* ---- host speed ---- *)

(* On a shared VM, other tenants slow this process by a tenth to nearly
   a half for seconds to minutes at a time, and whole runs move with
   them. Two fixed loops, timed before every set-up and after every
   chunk, measure that slowdown as the run goes: one multiply-adds over
   512 KiB (core speed), one sums 8 MiB (memory bandwidth). Host metrics
   are scaled by the median of the geometric mean of their times to the
   speed at which that mean is [calib_ref_us], about its value on the
   unloaded 2-vCPU Xeon VM the baseline comes from. The arrays live
   outside the OCaml heap, and the loops allocate nothing and call
   nothing of the program under test, so no change to the program moves
   them. *)
let calib_ref_us = 900.0

module A1 = Bigarray.Array1

let core_data = A1.init Bigarray.int Bigarray.c_layout 65536 (fun i -> i land 7)

let memory_data = A1.init Bigarray.int Bigarray.c_layout (1 lsl 20) (fun _ -> 1)

let time_us f =
  let h0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  (Unix.gettimeofday () -. h0) *. 1e6

let calibrate () =
  let core () =
    let s = ref 0 in
    for _ = 1 to 8 do
      for i = 0 to A1.dim core_data - 1 do
        s := !s + (A1.unsafe_get core_data i * i)
      done
    done;
    !s
  in
  let memory () =
    let s = ref 0 in
    for i = 0 to A1.dim memory_data - 1 do
      s := !s + A1.unsafe_get memory_data i
    done;
    !s
  in
  Float.sqrt (time_us core *. time_us memory)

(* ---- boundaries of the traced run ---- *)

let boundary_names =
  [| "pathname.resolve"; "us.open"; "us.read"; "us.write"; "us.commit"; "us.close";
     "dirops.create"; "dirops.unlink"; "engine.run_for"; "world.settle";
     "recovery.partition"; "recovery.heal_merge" |]

let b_resolve = 0
and b_open = 1
and b_read = 2
and b_write = 3
and b_commit = 4
and b_close = 5
and b_create = 6
and b_unlink = 7
and b_due = 8
and b_settle = 9
and b_partition = 10
and b_heal = 11

type boundary = {
  mutable calls : int;
  mutable host_s : float;
  mutable sim_ms : float;
  host_us : Stats.histogram;
}

(* One boundary call, or an op as a whole, for the trace export. Track 1
   holds ops and the boundaries inside them, track 2 settles and
   recovery; times are simulated ms. *)
type span = { sp_op : int; sp_name : string; sp_track : int; sp_start : float; sp_end : float }

type tracer = {
  bs : boundary array;
  host_us : Stats.t;  (* every boundary's host µs per call, by boundary name *)
  mutable cur_op : int;  (* measured op in progress, -1 outside *)
  mutable spans : span list;
}

let make_tracer () =
  let host_us = Stats.create () in
  {
    bs =
      Array.map
        (fun name ->
          { calls = 0; host_s = 0.0; sim_ms = 0.0; host_us = Stats.histogram host_us name })
        boundary_names;
    host_us;
    cur_op = -1;
    spans = [];
  }

let keep_span tr = tr.cur_op >= 0 && tr.cur_op < trace_ops

(* ---- a run ---- *)

type ctx = {
  w : World.t;
  spec : W.t;
  engine : Engine.t;
  stats : Stats.t;
  oracle : Oracle.t;
  inos : int array;  (* data file -> inode number, set by [populate] *)
  verify_heals : bool;
  mutable tracer : tracer option;
  mutable measuring : bool;
  mutable since_settle : int;
  (* timed-phase accounting *)
  mutable ops : int;
  mutable failed : int;
  mutable user_bytes : int;
  mutable events : int;
  samples : Stats.t;  (* the benchmark's own: simulated ms per op class, per recovery *)
  lat_read : Stats.histogram;
  lat_write : Stats.histogram;
  lat_dirop : Stats.histogram;
  lat_all : Stats.histogram;
  recover : Stats.histogram;
  mutable polls : int;
  mutable merge_wait : float;
  recon : Recovery.Reconcile.report;
  (* work kept out of every metric: what follows each heal, and the
     calibration loops' host time *)
  excluded : (string, int) Hashtbl.t;
  mutable excl_disk : int * int;
  mutable excl_host : float;
  mutable excl_words : float;
}

let timed ctx b f =
  match ctx.tracer with
  | None -> f ()
  | Some tr ->
    let bd = tr.bs.(b) in
    let s0 = Engine.now ctx.engine in
    let h0 = Unix.gettimeofday () in
    let finish () =
      let dh = Unix.gettimeofday () -. h0 in
      let s1 = Engine.now ctx.engine in
      bd.calls <- bd.calls + 1;
      bd.host_s <- bd.host_s +. dh;
      bd.sim_ms <- bd.sim_ms +. (s1 -. s0);
      Stats.hobserve bd.host_us (dh *. 1e6);
      let background = b >= b_due in
      if keep_span tr || (background && tr.cur_op >= 0 && tr.cur_op <= trace_ops) then
        tr.spans <-
          { sp_op = tr.cur_op; sp_name = boundary_names.(b);
            sp_track = (if background then 2 else 1); sp_start = s0; sp_end = s1 }
          :: tr.spans
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

let disk_totals w =
  List.fold_left
    (fun acc k ->
      Hashtbl.fold
        (fun _ pack (r, wr) ->
          let d = Storage.Pack.disk pack in
          (r + Storage.Disk.reads d, wr + Storage.Disk.writes d))
        k.K.packs acc)
    (0, 0) (World.kernels w)

let settle ctx =
  let n =
    timed ctx b_settle (fun () ->
        match World.settle ctx.w with
        | n, `Idle -> n
        | _, `Limit -> failwith "World.settle exhausted its event budget")
  in
  if ctx.measuring then ctx.events <- ctx.events + n;
  ctx.since_settle <- 0

(* ---- executing one op ---- *)

type outcome = Done | Body of string

let kp ctx site = (World.kernel ctx.w site, World.proc ctx.w site)

let plain ctx op =
  let spec = ctx.spec in
  match op with
  | W.Read { site; file } ->
    let k, p = kp ctx site in
    Body (Kernel.read_file k p (W.file_path spec file))
  | W.Write { site; file; rev } ->
    let k, p = kp ctx site in
    Kernel.write_file k p (W.file_path spec file) (W.body spec ~file ~rev);
    Done
  | W.Create { site; dir; name } ->
    let k, p = kp ctx site in
    ignore (Kernel.creat k p (W.name_path dir name));
    Done
  | W.Unlink { site; dir; name } ->
    let k, p = kp ctx site in
    Kernel.unlink k p (W.name_path dir name);
    Done
  | W.Stat { site; dir; name } ->
    let k, p = kp ctx site in
    ignore (Kernel.stat k p (W.name_path dir name));
    Done
  | W.Split | W.Heal -> invalid_arg "Runner.plain: not a file-system op"

(* The same ops, split exactly as the Kernel conveniences split them. *)
let split ctx op =
  let spec = ctx.spec in
  let t b f = timed ctx b f in
  let resolve_parent k (p : K.proc) path =
    t b_resolve (fun () ->
        Pathname.resolve_parent k ~cwd:p.K.p_cwd ~context:p.K.p_context path)
  in
  match op with
  | W.Read { site; file } -> (
    let k, p = kp ctx site in
    let gf = t b_resolve (fun () -> Kernel.resolve k p (W.file_path spec file)) in
    let o = t b_open (fun () -> Kernel.open_checked k p gf Proto.Mode_read) in
    match t b_read (fun () -> Us.read_all k o) with
    | body ->
      t b_close (fun () -> Us.close k o);
      Body body
    | exception e ->
      Us.release k o;
      raise e)
  | W.Write { site; file; rev } -> (
    let k, p = kp ctx site in
    let body = W.body spec ~file ~rev in
    let gf = t b_resolve (fun () -> Kernel.resolve k p (W.file_path spec file)) in
    let o = t b_open (fun () -> Kernel.open_checked k p gf Proto.Mode_modify) in
    match
      t b_write (fun () -> Us.set_contents k o body);
      t b_commit (fun () -> Us.commit k o)
    with
    | () ->
      t b_close (fun () -> Us.close k o);
      Done
    | exception e ->
      Us.release k o;
      raise e)
  | W.Create { site; dir; name } ->
    let k, p = kp ctx site in
    let dir_gf, name = resolve_parent k p (W.name_path dir name) in
    ignore
      (t b_create (fun () ->
           Dirops.create_in k dir_gf ~name ~ftype:Storage.Inode.Regular ~owner:p.K.p_uid
             ~perms:0o644 ~ncopies:p.K.p_ncopies));
    Done
  | W.Unlink { site; dir; name } ->
    let k, p = kp ctx site in
    let dir_gf, name = resolve_parent k p (W.name_path dir name) in
    ignore (t b_unlink (fun () -> Dirops.unlink_gf k dir_gf ~name));
    Done
  | W.Stat { site; dir; name } ->
    let k, p = kp ctx site in
    let gf = t b_resolve (fun () -> Kernel.resolve k p (W.name_path dir name)) in
    ignore (Us.stat_gf k gf);
    Done
  | W.Split | W.Heal -> invalid_arg "Runner.split: not a file-system op"

let op_label = function
  | W.Read _ -> "read"
  | W.Write _ -> "write"
  | W.Create _ -> "create"
  | W.Unlink _ -> "unlink"
  | W.Stat _ -> "stat"
  | W.Split -> "split"
  | W.Heal -> "heal"

let fs_op ctx op =
  let due = timed ctx b_due (fun () -> Engine.run_for ctx.engine 0.0) in
  if ctx.measuring then ctx.events <- ctx.events + due;
  let t0 = Engine.now ctx.engine in
  let outcome =
    match (match ctx.tracer with None -> plain ctx op | Some _ -> split ctx op) with
    | o -> Ok o
    | exception K.Error (e, _) -> Error e
  in
  let t1 = Engine.now ctx.engine in
  let ok = Result.is_ok outcome in
  let o = ctx.oracle in
  (match (op, outcome) with
  | W.Read { site; file }, Ok (Body b) -> Oracle.check_read o ~site ~file b
  | W.Write { site; file; rev }, _ -> Oracle.wrote o ~site ~file ~rev ~ok
  | W.Create { dir; name; _ }, _ -> Oracle.created o ~dir ~name ~ok
  | W.Unlink { dir; name; _ }, _ -> Oracle.unlinked o ~dir ~name ~ok
  | _ -> ());
  (match ctx.tracer with
  | Some tr when keep_span tr ->
    tr.spans <-
      { sp_op = tr.cur_op; sp_name = "op." ^ op_label op; sp_track = 1; sp_start = t0;
        sp_end = t1 }
      :: tr.spans
  | _ -> ());
  if ctx.measuring then begin
    ctx.ops <- ctx.ops + 1;
    if not ok then ctx.failed <- ctx.failed + 1
    else begin
      let dt = t1 -. t0 in
      Stats.hobserve ctx.lat_all dt;
      match op with
      | W.Read _ -> Stats.hobserve ctx.lat_read dt
      | W.Write _ ->
        Stats.hobserve ctx.lat_write dt;
        ctx.user_bytes <- ctx.user_bytes + W.body_size ctx.spec
      | W.Create _ | W.Unlink _ -> Stats.hobserve ctx.lat_dirop dt
      | W.Stat _ | W.Split | W.Heal -> ()
    end
  end;
  ctx.since_settle <- ctx.since_settle + 1;
  if ctx.since_settle = settle_every then settle ctx

(* ---- partitions ---- *)

(* Run [f] without letting its work reach any metric: counter deltas, disk
   I/O, host time and allocation are recorded and subtracted. *)
let excluded ctx f =
  let snap = Stats.snapshot ctx.stats in
  let dr, dw = disk_totals ctx.w in
  let words = Gc.minor_words () in
  let h0 = Unix.gettimeofday () in
  f ();
  ctx.excl_host <- ctx.excl_host +. (Unix.gettimeofday () -. h0);
  ctx.excl_words <- ctx.excl_words +. (Gc.minor_words () -. words);
  let dr', dw' = disk_totals ctx.w in
  let er, ew = ctx.excl_disk in
  ctx.excl_disk <- (er + dr' - dr, ew + dw' - dw);
  List.iter
    (fun (n, d) ->
      Hashtbl.replace ctx.excluded n
        (d + Option.value ~default:0 (Hashtbl.find_opt ctx.excluded n)))
    (Stats.delta ctx.stats snap)

(* The split follows a settle, so no propagation is in flight when the
   network parts (a side still reads an older version where one of its
   copies missed a propagation; see [Oracle]). *)
let split_network ctx =
  settle ctx;
  let sides = [ List.init W.half Fun.id; List.init (W.n_sites - W.half) (( + ) W.half) ] in
  let reports = timed ctx b_partition (fun () -> World.partition ctx.w sides) in
  List.iter (fun r -> ctx.polls <- ctx.polls + r.Recovery.Partition.polls) reports;
  Oracle.split ctx.oracle

let add_recon (acc : Recovery.Reconcile.report) (r : Recovery.Reconcile.report) =
  acc.files_checked <- acc.files_checked + r.files_checked;
  acc.propagations <- acc.propagations + r.propagations;
  acc.dir_merges <- acc.dir_merges + r.dir_merges;
  acc.conflicts_marked <- acc.conflicts_marked + r.conflicts_marked

let fg = 0

let css ctx = World.kernel ctx.w (K.fg_info (World.kernel ctx.w 0) fg).K.css_site

(* Every file the merge marked in conflict is resolved as its owner would,
   with the interactive tool of section 4.6: keep the copy at the lowest
   site that stores one. The marks are read from the CSS's table, so
   finding them costs nothing. *)
let resolve_conflicts ctx =
  let css = css ctx in
  let marked =
    match Hashtbl.find_opt css.K.css_state fg with
    | None -> []
    | Some st ->
      Hashtbl.fold
        (fun ino (f : K.css_file) acc ->
          if f.css_conflict && not (Net.Site.Map.is_empty f.site_vv) then
            (ino, fst (Net.Site.Map.min_binding f.site_vv)) :: acc
          else acc)
        st.K.css_files []
  in
  List.iter
    (fun (ino, winner) ->
      ignore (Recovery.Reconcile.resolve_manual css (Catalog.Gfile.make ~fg ~ino) ~winner))
    (List.sort compare marked);
  if marked <> [] then ignore (World.settle ctx.w)

(* Every copy of a data file that the CSS lists at the latest version is
   read straight off its pack. The copies are read below every cache,
   lease and message, so the check leaves nothing behind in the world
   being measured but disk reads, which [excluded] takes out. A file
   still marked in conflict is skipped: its opens fail with the conflict
   errno. *)
let verify_heal ctx =
  let css = css ctx in
  let copy ino site =
    let pack = Hashtbl.find (World.kernel ctx.w site).K.packs fg in
    Option.map (Storage.Pack.read_string pack) (Storage.Pack.find_inode pack ino)
  in
  Array.iteri
    (fun file ino ->
      match Locus_core.Css.find_file css fg ino with
      | Some f when f.K.css_conflict -> ()
      | Some f ->
        let current =
          Net.Site.Map.fold
            (fun site vv acc ->
              if K.Vvec.equal vv f.K.latest_vv then copy ino site :: acc else acc)
            f.K.site_vv []
        in
        Oracle.check_merged ctx.oracle ~file current
      | None -> Oracle.check_merged ctx.oracle ~file [])
    ctx.inos

(* Heal, merge and settle; then, outside the metrics, resolve the
   conflicts the merge marked and check every file's current copies. *)
let heal ctx =
  let t0 = Engine.now ctx.engine in
  let merge, recon = timed ctx b_heal (fun () -> World.heal_and_merge ctx.w) in
  settle ctx;
  Stats.hobserve ctx.recover (Engine.now ctx.engine -. t0);
  ctx.merge_wait <- ctx.merge_wait +. merge.Recovery.Merge.wait_charged;
  List.iter (fun (_, r) -> add_recon ctx.recon r) recon;
  Oracle.healed ctx.oracle;
  excluded ctx (fun () ->
      resolve_conflicts ctx;
      if ctx.verify_heals then verify_heal ctx)

let step ctx = function
  | W.Split -> split_network ctx
  | W.Heal -> heal ctx
  | op -> fs_op ctx op

(* ---- set-up ---- *)

let build (spec : W.t) =
  let base = World.default_config ~n_sites:W.n_sites () in
  let config =
    {
      base with
      World.filegroups = [ { World.fg = 0; pack_sites = spec.packs; mount_path = None } ];
    }
  in
  let w = World.create ~config () in
  Sim.Trace.set_recording (Engine.trace (World.engine w)) false;
  w

(* Directories go to every pack; data files and names are created from the
   pack sites in turn, so each pack is the first copy of an equal share. *)
let populate ctx =
  let spec = ctx.spec and w = ctx.w in
  let k0, p0 = kp ctx 0 in
  Kernel.set_ncopies p0 (List.length spec.packs);
  ignore (Kernel.mkdir k0 p0 W.root);
  for d = 0 to spec.dirs - 1 do
    ignore (Kernel.mkdir k0 p0 (W.dir_path d))
  done;
  List.iter (fun s -> Kernel.set_ncopies (World.proc w s) spec.ncopies) (World.sites w);
  let packs = Array.of_list spec.packs in
  let at i = kp ctx packs.(i mod Array.length packs) in
  for f = 0 to spec.files - 1 do
    let k, p = at f in
    let path = W.file_path spec f in
    ctx.inos.(f) <- (Kernel.creat k p path).Catalog.Gfile.ino;
    Kernel.write_file k p path (W.body spec ~file:f ~rev:0);
    if (f + 1) mod settle_every = 0 then settle ctx
  done;
  List.iteri
    (fun i (d, n) ->
      let k, p = at i in
      ignore (Kernel.creat k p (W.name_path d n));
      if (i + 1) mod settle_every = 0 then settle ctx)
    (W.prefill_names spec);
  settle ctx

(* World.create through the end of the warm-up. *)
let setup spec (stream : W.stream) ~verify_heals =
  let h0 = Unix.gettimeofday () in
  let w = build spec in
  let engine = World.engine w in
  let samples = Stats.create () in
  let ctx =
    {
      w;
      spec;
      engine;
      stats = Engine.stats engine;
      oracle = Oracle.create spec;
      inos = Array.make spec.files 0;
      verify_heals;
      tracer = None;
      measuring = false;
      since_settle = 0;
      ops = 0;
      failed = 0;
      user_bytes = 0;
      events = 0;
      samples;
      lat_read = Stats.histogram samples "read";
      lat_write = Stats.histogram samples "write";
      lat_dirop = Stats.histogram samples "dirop";
      lat_all = Stats.histogram samples "op";
      recover = Stats.histogram samples "recover";
      polls = 0;
      merge_wait = 0.0;
      recon = Recovery.Reconcile.empty_report ();
      excluded = Hashtbl.create 64;
      excl_disk = (0, 0);
      excl_host = 0.0;
      excl_words = 0.0;
    }
  in
  populate ctx;
  for i = 0 to stream.warm - 1 do
    step ctx stream.ops.(i)
  done;
  settle ctx;
  (ctx, Unix.gettimeofday () -. h0)

(* ---- the timed phase and its metrics ---- *)

type metric = { name : string; unit : string; value : float }

type measured = {
  attempted : int;
  failed : int;
  sim : metric list;    (* deterministic for a seed: must match across runs *)
  elapsed_s : float;    (* host seconds of the timed phase *)
  ops_per_s : float;    (* median over the timed phase's chunks *)
  calib_us : float list; (* a calibration after every chunk *)
  layers : metric list; (* traced run only: boundaries, host counters *)
  spans : span list;
}

let m name unit value = { name; unit; value }

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Message tags the per-layer split names; the rest sum into "other". *)
let msg_tags =
  [ "open"; "read"; "write"; "commit"; "close.us"; "close.ss"; "notify"; "lease.break";
    "lookup"; "stat"; "create"; "link"; "page.invalidate"; "reclaim" ]

let part_merge_tags =
  [ "part.poll"; "part.announce"; "merge.poll"; "merge.announce"; "status"; "lock.rebuild";
    "inventory" ]

(* Host throughput is taken chunk by chunk: a chunk is at least 1/32 of
   the timed ops and ends at a settle (at a heal, in a workload that
   partitions), so every chunk holds the same mix of ops, background
   work and recovery. The median chunk rate is what a burst of load from
   elsewhere on the host moves least. *)
let chunks = 32

let measure ctx (stream : W.stream) ~tracer =
  (* Every timed phase starts from a compacted heap, so the traced one does
     not inherit a heap the untraced one already grew. *)
  Gc.compact ();
  ctx.tracer <- tracer;
  ctx.measuring <- true;
  let snap = Stats.snapshot ctx.stats in
  let disk0r, disk0w = disk_totals ctx.w in
  let gc0 = Gc.quick_stat () in
  let h0 = Unix.gettimeofday () in
  let chunk_min = max 1 (stream.measured / chunks) in
  let rates = ref [] and calib = ref [] and chunk_ops = ref 0 in
  let chunk_start = ref h0 and chunk_excl = ref 0.0 in
  let end_chunk () =
    let now = Unix.gettimeofday () in
    let host = now -. !chunk_start -. (ctx.excl_host -. !chunk_excl) in
    rates := (float_of_int !chunk_ops /. host) :: !rates;
    calib := calibrate () :: !calib;
    chunk_ops := 0;
    chunk_start := Unix.gettimeofday ();
    ctx.excl_host <- ctx.excl_host +. (!chunk_start -. now);
    chunk_excl := ctx.excl_host
  in
  let n = ref 0 in
  for i = stream.warm to Array.length stream.ops - 1 do
    let op = stream.ops.(i) in
    (match (op, tracer) with
    | (W.Split | W.Heal), _ | _, None -> ()
    | _, Some tr -> tr.cur_op <- !n);
    step ctx op;
    (match op with W.Split | W.Heal -> () | _ -> incr n; incr chunk_ops);
    let chunk_done =
      match op with
      | W.Heal -> true
      | W.Split -> false
      | _ -> ctx.spec.cycle = 0 && ctx.since_settle = 0
    in
    if chunk_done && !chunk_ops >= chunk_min then end_chunk ()
  done;
  (match tracer with Some tr -> tr.cur_op <- -1 | None -> ());
  settle ctx;
  if !chunk_ops > 0 then end_chunk ();
  let host_s = Unix.gettimeofday () -. h0 -. ctx.excl_host in
  let gc1 = Gc.quick_stat () in
  ctx.measuring <- false;
  ctx.tracer <- None;
  let d name =
    Stats.delta_of ctx.stats snap name
    - Option.value ~default:0 (Hashtbl.find_opt ctx.excluded name)
  in
  let disk1r, disk1w = disk_totals ctx.w in
  let er, ew = ctx.excl_disk in
  let disk_r = disk1r - disk0r - er and disk_w = disk1w - disk0w - ew in
  let ops = ctx.ops in
  let per_op x = per x ops in
  let count = Stats.hist_count ctx.samples and pct = Stats.hist_percentile ctx.samples in
  let cycles = count "recover" in
  let per_cycle x = if cycles = 0 then 0.0 else x /. float_of_int cycles in
  let lat cls =
    (if count cls > 0 then [ m (cls ^ "_p50_ms") "ms" (pct cls 50.0) ] else [])
    @ if count cls >= 1000 then [ m (cls ^ "_p99_ms") "ms" (pct cls 99.0) ] else []
  in
  let msgs tag = d ("net.msg." ^ tag) in
  let sum_tags = List.fold_left (fun a t -> a + msgs t) 0 in
  let end_to_end =
    lat "read" @ lat "write" @ lat "dirop"
    @ (if count "op" > 0 then [ m "op_mean_ms" "ms" (Stats.hist_mean ctx.samples "op") ] else [])
    @ (if cycles > 0 then [ m "recover_p50_ms" "ms" (pct "recover" 50.0) ] else [])
    @ [ m "msgs_per_op" "msgs/op" (per_op (d "net.msg"));
        m "wire_kb_per_op" "KiB/op" (per_op (d "net.bytes") /. 1024.0) ]
    @ (if ctx.user_bytes > 0 then
         [ m "write_amp" "ratio" (per (disk_w * Storage.Page.size) ctx.user_bytes) ]
       else [])
    @ [ m "fail_ratio" "ratio" (per_op ctx.failed) ]
  in
  let counters =
    List.map (fun t -> m ("net.msgs." ^ t) "msgs/op" (per_op (msgs t))) msg_tags
    @ [ m "net.msgs.part_merge" "msgs/op" (per_op (sum_tags part_merge_tags));
        m "net.msgs.other" "msgs/op"
          (per_op (d "net.msg" - sum_tags msg_tags - sum_tags part_merge_tags));
        m "rpc.retry" "count/op" (per_op (d "rpc.retry"));
        m "rpc.fail" "count/op" (per_op (d "rpc.fail"));
        m "cache.us.hit_ratio" "ratio" (ratio (d "cache.us.hit") (d "cache.us.miss"));
        m "cache.ss.hit_ratio" "ratio" (ratio (d "cache.ss.hit") (d "cache.ss.miss"));
        m "cache.us.evict" "count/op" (per_op (d "cache.us.evict"));
        m "name.cache.hit_ratio" "ratio" (ratio (d "name.cache.hit") (d "name.cache.miss"));
        m "name.cache.invalidate" "count/op" (per_op (d "name.cache.invalidate"));
        m "name.remote_walks" "count/op" (per_op (d "name.remote_walks"));
        m "open.lease.hit_ratio" "ratio" (ratio (d "open.lease.hit") (d "open.lease.miss"));
        m "open.lease.break" "count/op" (per_op (d "open.lease.break"));
        m "open.lease.evict" "count/op" (per_op (d "open.lease.evict"));
        m "us.bulk.read.pages_per_rpc" "pages/rpc"
          (per (d "us.bulk.read.pages") (d "us.bulk.read"));
        m "us.bulk.write.pages_per_rpc" "pages/rpc"
          (per (d "us.bulk.write.pages") (d "us.bulk.write"));
        m "prop.bulk.pages_per_rpc" "pages/rpc" (per (d "prop.bulk.pages") (d "prop.bulk"));
        m "prop.bulk.pulls" "count/op" (per_op (d "prop.bulk"));
        m "us.readahead" "count/op" (per_op (d "us.readahead"));
        m "disk.reads_per_op" "pages/op" (per_op disk_r);
        m "disk.writes_per_op" "pages/op" (per_op disk_w);
        m "engine.bg_events_per_op" "events/op" (per_op ctx.events);
        m "recovery.files_checked" "count/cycle"
          (per_cycle (float_of_int ctx.recon.files_checked));
        m "recovery.propagations" "count/cycle"
          (per_cycle (float_of_int ctx.recon.propagations));
        m "recovery.dir_merges" "count/cycle" (per_cycle (float_of_int ctx.recon.dir_merges));
        m "recovery.conflicts_marked" "count/cycle"
          (per_cycle (float_of_int ctx.recon.conflicts_marked));
        m "recovery.merge_wait_ms" "ms/cycle" (per_cycle ctx.merge_wait);
        m "recovery.partition_polls" "count/cycle" (per_cycle (float_of_int ctx.polls));
        m "recovery.stale_split_reads" "count/cycle"
          (per_cycle (float_of_int (Oracle.stale_reads ctx.oracle))) ]
  in
  let layers, spans =
    match tracer with
    | None -> ([], [])
    | Some tr ->
      let bs =
        List.concat
          (Array.to_list
             (Array.mapi
                (fun i b ->
                  let name = boundary_names.(i) in
                  [ m (name ^ ".calls") "count" (float_of_int b.calls);
                    m (name ^ ".host_ms_total") "ms" (b.host_s *. 1e3);
                    m (name ^ ".host_us_p50") "us" (Stats.hist_percentile tr.host_us name 50.0);
                    m (name ^ ".sim_ms_mean") "ms"
                      (if b.calls = 0 then 0.0 else b.sim_ms /. float_of_int b.calls) ])
                tr.bs))
      in
      let inside = Array.fold_left (fun a (b : boundary) -> a +. b.host_s) 0.0 tr.bs in
      ( bs
        @ [ m "driver.host_ms_total" "ms" ((host_s -. inside) *. 1e3);
            m "host.minor_words_per_op" "words/op"
              ((gc1.Gc.minor_words -. gc0.Gc.minor_words -. ctx.excl_words)
              /. float_of_int (max 1 ops));
            m "host.major_collections" "count"
              (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) ],
        List.rev tr.spans )
  in
  {
    attempted = ops;
    failed = ctx.failed;
    sim = end_to_end @ counters;
    elapsed_s = host_s;
    ops_per_s = median !rates;
    calib_us = !calib;
    layers;
    spans;
  }

(* End-of-workload checks, after the timed phase: every hot directory's
   listing against the model. Returns the median hot-directory size and,
   when [codec], the host µs one Catalog.Dir encode+decode of all hot
   directories takes (median of 5). *)
let final_checks ctx ~codec =
  let k, p = kp ctx 0 in
  let sizes = ref [] and dirs = ref [] in
  for dir = 0 to ctx.spec.dirs - 1 do
    let path = W.dir_path dir in
    let listing = List.map (fun e -> e.Catalog.Dir.name) (Kernel.readdir k p path) in
    Oracle.check_dir ctx.oracle ~dir listing;
    sizes := float_of_int (List.length listing - 2) :: !sizes;
    if codec then dirs := Pathname.read_directory k (Kernel.resolve k p path) :: !dirs
  done;
  let codec_us =
    median
      (List.init 5 (fun _ ->
           let h0 = Unix.gettimeofday () in
           List.iter (fun d -> ignore (Catalog.Dir.decode (Catalog.Dir.encode d))) !dirs;
           (Unix.gettimeofday () -. h0) *. 1e6))
  in
  (median !sizes, codec_us)

(* ---- whole runs ---- *)

type result = {
  r_attempted : int;
  r_failed : int;
  r_mismatches : int;
  r_sim : metric list;
  r_host : metric list;
  r_layers : metric list;
      (* the calibration loop's median; traced, the boundaries and host counters *)
  r_diverged : string list;  (* simulated metrics the traced run did not reproduce *)
  r_spans : span list;
}

let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* One untraced pass: [setups] set-ups, the timed phase on the last.
   Returns the set-up times and every calibration of the pass. *)
let untraced spec stream ~setups ~verify_heals =
  let rec go i times calib =
    Gc.full_major ();
    let calib = calibrate () :: calib in
    let ctx, s = setup spec stream ~verify_heals in
    if i = setups then (ctx, s :: times, calib) else go (i + 1) (s :: times) calib
  in
  let ctx, setup_times, calib = go 1 [] [] in
  let r = measure ctx stream ~tracer:None in
  (ctx, r, setup_times, calib @ r.calib_us)

(* [verify_heals:false] skips the post-heal read-back, which must not
   change any simulated metric (the self-test checks it). *)
let run ?(setups = 3) ?(verify_heals = true) ?scale spec ~seed ~seconds ~traced =
  let stream = W.generate ?scale spec ~seed ~seconds in
  let ctx, r, setup_times, calib =
    untraced spec stream ~setups:(if traced then 1 else setups) ~verify_heals
  in
  let entries_p50, _ = final_checks ctx ~codec:false in
  let calib_us = median calib in
  let slowdown = calib_us /. calib_ref_us in
  let sim = r.sim @ [ m "catalog.dir.entries_p50" "count" entries_p50 ] in
  let base =
    {
      r_attempted = r.attempted;
      r_failed = r.failed;
      r_mismatches = Oracle.mismatches ctx.oracle;
      r_sim = sim;
      r_host =
        [ m "host_ops_per_s" "ops/s" (r.ops_per_s *. slowdown);
          m "setup_s" "s" (median setup_times /. slowdown) ];
      r_layers = [ m "host.calib_us" "us" calib_us ];
      r_diverged = [];
      r_spans = [];
    }
  in
  if not traced then { base with r_host = base.r_host @ [ m "heap_peak_mb" "MB" (heap_mb ()) ] }
  else begin
    Gc.full_major ();
    let tctx, _ = setup spec stream ~verify_heals in
    let tr = make_tracer () in
    let t = measure tctx stream ~tracer:(Some tr) in
    let t_entries, codec_us = final_checks tctx ~codec:true in
    let t_sim = t.sim @ [ m "catalog.dir.entries_p50" "count" t_entries ] in
    let diverged =
      List.filter_map
        (fun a ->
          match List.find_opt (fun b -> String.equal a.name b.name) t_sim with
          | Some b when Float.equal a.value b.value -> None
          | _ -> Some a.name)
        sim
      @ (if List.length t_sim <> List.length sim then [ "(metric set)" ] else [])
    in
    {
      base with
      r_mismatches = base.r_mismatches + Oracle.mismatches tctx.oracle;
      r_host = base.r_host @ [ m "heap_peak_mb" "MB" (heap_mb ()) ];
      r_layers =
        base.r_layers @ t.layers
        @ [ m "trace.overhead_pct" "%" (100.0 *. ((t.elapsed_s /. r.elapsed_s) -. 1.0));
            m "catalog.dir.codec_us" "us" codec_us ];
      r_diverged = diverged;
      r_spans = t.spans;
    }
  end

let correct r = r.r_mismatches = 0 && r.r_diverged = []
