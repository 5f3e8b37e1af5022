(* Flood: a production-shaped traffic engine for very large user counts.

   Where Workload models the paper's §6 software-development community at
   human scale (a dozen files, a handful of ops), Flood models the load a
   production installation serves: N simulated users — lightweight
   sessions, each just a home site that drifts under churn — multiplexed
   over the per-site kernels, running Zipfian-popularity open/read/close
   and edit/commit loops against a working set spread over hot
   directories, with create/unlink contention concentrated on the hottest
   directories. Per-operation latency lands in Sim.Stats histograms
   (p50/p95/p99 in the report) through pre-resolved handles, so the
   measurement itself stays off the allocator.

   Everything is deterministic under [spec.seed]: one Rng drives user
   choice, churn, popularity draws and op selection, so a flood run is a
   pure function of (world seed, spec). *)

module Kernel = Locus_core.Kernel
module K = Locus_core.Ktypes
module Engine = Sim.Engine
module Stats = Sim.Stats
module Rng = Sim.Rng
module Inode = Storage.Inode

type spec = {
  users : int;       (* simulated users (sessions) *)
  files : int;       (* working-set size *)
  hot_dirs : int;    (* directories the working set spreads over *)
  ops : int;         (* operations to issue *)
  zipf_s : float;    (* popularity skew of files and hot dirs *)
  edit_pct : int;    (* % of ops that edit + commit *)
  dirop_pct : int;   (* % of ops that create/unlink in a hot dir *)
  churn_pct : int;   (* % chance per op that the acting user migrates *)
  ncopies : int;     (* replication factor of the working set *)
  settle_every : int;(* drain background events every k ops *)
  seed : int64;
}

let default_spec =
  {
    users = 1_000;
    files = 256;
    hot_dirs = 8;
    ops = 5_000;
    zipf_s = 1.1;
    edit_pct = 10;
    dirop_pct = 5;
    churn_pct = 1;
    ncopies = 2;
    settle_every = 250;
    seed = 0xF100DL;
  }

type report = {
  fr_users : int;
  fr_ops : int;
  fr_reads : int;
  fr_edits : int;
  fr_dirops : int;
  fr_errors : int;
  fr_migrations : int;
  fr_events : int;   (* background events drained between op batches *)
  fr_sim_ms : float; (* simulated time the flood occupied *)
  fr_read_lat : Stats.hist_summary;
  fr_edit_lat : Stats.hist_summary;
  fr_dirop_lat : Stats.hist_summary;
  fr_lease_hit : float; (* open-lease hit ratio over the run, 0..1 *)
  fr_cache_hit : float; (* US buffer-cache hit ratio over the run *)
  fr_name_hit : float;  (* name-cache hit ratio over the run *)
  fr_open_pages : int;  (* pages delivered with read opens *)
  fr_open_buffered : int; (* read opens that asked for no pages: buffered *)
}

let pp_report ppf r =
  Format.fprintf ppf
    "users=%d ops=%d reads=%d edits=%d dirops=%d errors=%d migrations=%d \
     read.p50=%.2f read.p99=%.2f lease.hit=%.2f"
    r.fr_users r.fr_ops r.fr_reads r.fr_edits r.fr_dirops r.fr_errors
    r.fr_migrations r.fr_read_lat.Stats.p50 r.fr_read_lat.Stats.p99
    r.fr_lease_hit

(* Histogram names the run observes into; exposed for report tables. *)
let read_hist = "flood.lat.read"

let edit_hist = "flood.lat.edit"

let dirop_hist = "flood.lat.dirop"

let dir_path j = Printf.sprintf "/flood/d%d" j

(* File of popularity rank [r] lives in directory [r mod hot_dirs]: the
   hottest files spread across directories, and each directory's heat
   follows its hottest members. *)
let file_path spec r = Printf.sprintf "/flood/d%d/f%d" (r mod spec.hot_dirs) r

let setup w spec =
  if spec.hot_dirs <= 0 then invalid_arg "Flood.setup: hot_dirs must be positive";
  if spec.files <= 0 then invalid_arg "Flood.setup: files must be positive";
  if spec.users <= 0 then invalid_arg "Flood.setup: users must be positive";
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let saved = Kernel.get_ncopies p0 in
  Kernel.set_ncopies p0 (min spec.ncopies (List.length (World.sites w)));
  ignore (Kernel.mkdir k0 p0 "/flood");
  for j = 0 to spec.hot_dirs - 1 do
    ignore (Kernel.mkdir k0 p0 (dir_path j))
  done;
  let body = String.make 200 'z' in
  for r = 0 to spec.files - 1 do
    let path = file_path spec r in
    ignore (Kernel.creat k0 p0 path);
    Kernel.write_file k0 p0 path body
  done;
  Kernel.set_ncopies p0 saved;
  match World.settle w with
  | _, `Idle -> ()
  | _, `Limit -> failwith "Flood.setup: settle exhausted its event budget"

let ratio hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let run w spec =
  let engine = World.engine w in
  let stats = Engine.stats engine in
  let rng = Rng.create spec.seed in
  let n_sites = List.length (World.sites w) in
  let sites = Array.of_list (World.sites w) in
  (* A session is just a home site; churn re-homes it. *)
  let user_site = Array.init spec.users (fun u -> sites.(u mod n_sites)) in
  (* Paths are precomputed so the op loop never sprintf-allocates them. *)
  let paths = Array.init spec.files (fun r -> file_path spec r) in
  let file_zipf = Zipf.create ~n:spec.files ~s:spec.zipf_s in
  let dir_zipf = Zipf.create ~n:spec.hot_dirs ~s:spec.zipf_s in
  (* Churn-target paths for the contention op: 16 names per hot dir. *)
  let churn_paths =
    Array.init spec.hot_dirs (fun j ->
        Array.init 16 (fun i -> Printf.sprintf "%s/t%d" (dir_path j) i))
  in
  let h_read = Stats.histogram stats read_hist in
  let h_edit = Stats.histogram stats edit_hist in
  let h_dirop = Stats.histogram stats dirop_hist in
  let c_ops = Stats.counter stats "flood.ops" in
  let c_err = Stats.counter stats "flood.errors" in
  let snap = Stats.snapshot stats in
  let t_start = Engine.now engine in
  let reads = ref 0 and edits = ref 0 and dirops = ref 0 in
  let errors = ref 0 and migrations = ref 0 and events = ref 0 in
  let rev = ref 0 in
  let attempt f =
    match f () with
    | () -> true
    | exception K.Error _ ->
      incr errors;
      Stats.cincr c_err;
      false
  in
  let settle () =
    match World.settle w with
    | n, `Idle -> events := !events + n
    | _, `Limit -> failwith "Flood.run: settle exhausted its event budget"
  in
  for op = 1 to spec.ops do
    Stats.cincr c_ops;
    let u = Rng.int rng spec.users in
    if spec.churn_pct > 0 && Rng.int rng 100 < spec.churn_pct then begin
      user_site.(u) <- sites.(Rng.int rng n_sites);
      incr migrations
    end;
    let site = user_site.(u) in
    let k = World.kernel w site in
    if k.K.alive then begin
      let p = World.proc w site in
      let roll = Rng.int rng 100 in
      let t0 = Engine.now engine in
      if roll < spec.edit_pct then begin
        (* edit/commit loop: whole-file overwrite of a Zipf-hot file *)
        let r = Zipf.sample file_zipf rng in
        incr rev;
        let body = Printf.sprintf "u%d rev%d" u !rev in
        if attempt (fun () -> Kernel.write_file k p paths.(r) body) then begin
          incr edits;
          Stats.hobserve h_edit (Engine.now engine -. t0)
        end
      end
      else if roll < spec.edit_pct + spec.dirop_pct then begin
        (* hot-directory contention: create/unlink churn in a Zipf-hot dir *)
        let j = Zipf.sample dir_zipf rng in
        let name = churn_paths.(j).(Rng.int rng 16) in
        if
          attempt (fun () ->
              match Kernel.stat k p name with
              | _ -> Kernel.unlink k p name
              | exception K.Error (Proto.Enoent, _) -> ignore (Kernel.creat k p name))
        then begin
          incr dirops;
          Stats.hobserve h_dirop (Engine.now engine -. t0)
        end
      end
      else begin
        (* open/read/close of a Zipf-hot file *)
        let r = Zipf.sample file_zipf rng in
        if attempt (fun () -> ignore (Kernel.read_file k p paths.(r))) then begin
          incr reads;
          Stats.hobserve h_read (Engine.now engine -. t0)
        end
      end
    end;
    if spec.settle_every > 0 && op mod spec.settle_every = 0 then settle ()
  done;
  settle ();
  let d name = Stats.delta_of stats snap name in
  {
    fr_users = spec.users;
    fr_ops = spec.ops;
    fr_reads = !reads;
    fr_edits = !edits;
    fr_dirops = !dirops;
    fr_errors = !errors;
    fr_migrations = !migrations;
    fr_events = !events;
    fr_sim_ms = Engine.now engine -. t_start;
    fr_read_lat = Stats.hist_summary stats read_hist;
    fr_edit_lat = Stats.hist_summary stats edit_hist;
    fr_dirop_lat = Stats.hist_summary stats dirop_hist;
    fr_lease_hit = ratio (d "open.lease.hit") (d "open.lease.miss");
    fr_cache_hit = ratio (d "cache.us.hit") (d "cache.us.miss");
    fr_name_hit = ratio (d "name.cache.hit") (d "name.cache.miss");
    fr_open_pages = d "us.open.pages";
    fr_open_buffered = d "us.open.buffered";
  }
