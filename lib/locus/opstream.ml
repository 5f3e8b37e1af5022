(* One checked op stream: the synthetic traffic every driver runs.

   Users are home sites that drift under churn; files and hot directories
   are drawn by Zipf popularity. One Rng drives user choice, churn, op
   selection and the popularity draws, so a stream is a pure function of
   (world seed, spec), and a driver that steps it between faults keeps it
   independent of the fault stream.

   Each op appends one record to an append-only log; the derived views —
   per-kind tallies and latency histograms, and the read oracle — are
   updated from the record as it is appended. *)

module Kernel = Locus_core.Kernel
module Process = Locus_core.Process
module K = Locus_core.Ktypes
module Engine = Sim.Engine
module Stats = Sim.Stats
module Rng = Sim.Rng
module Inode = Storage.Inode

type kind = Read | Edit | Exec | Mail | Dirop

type mix = { read : int; edit : int; exec : int; mail : int; dirop : int }

type spec = {
  mix : mix;
  users : int;
  churn_pct : int;
  zipf_s : float;
  files : int;
  hot_dirs : int;
  ncopies : int;
  settle_every : int;
  seed : int64;
}

let dev_spec =
  {
    mix = { read = 60; edit = 20; exec = 10; mail = 5; dirop = 5 };
    users = 60;
    churn_pct = 0;
    zipf_s = 0.0;
    files = 12;
    hot_dirs = 1;
    ncopies = 3;
    settle_every = 0;
    seed = 0xBEEFL;
  }

let flood_spec =
  {
    mix = { read = 85; edit = 10; exec = 0; mail = 0; dirop = 5 };
    users = 1_000;
    churn_pct = 1;
    zipf_s = 1.1;
    files = 256;
    hot_dirs = 8;
    ncopies = 2;
    settle_every = 250;
    seed = 0xF100DL;
  }

let dir_path j = Printf.sprintf "/work/d%d" j

let file_path spec r = Printf.sprintf "/work/d%d/f%d" (r mod spec.hot_dirs) r

type record = {
  id : int;
  site : int;
  kind : kind;
  path : string;
  invoked : float;
  completed : float;
  errno : Proto.errno option;
  digest : Digest.t;
}

(* The oracle's view of one path: every body ever sent to it, the body of
   the last write that returned success, and those of later failed
   writes, newest first (each may have committed). *)
type file = {
  sent : (Digest.t, unit) Hashtbl.t;
  mutable last_ok : Digest.t;
  mutable failed : Digest.t list;
}

let kind_index = function Read -> 0 | Edit -> 1 | Exec -> 2 | Mail -> 3 | Dirop -> 4

let kind_names = [| "read"; "edit"; "exec"; "mail"; "dirop" |]

type t = {
  w : World.t;
  engine : Engine.t;
  spec : spec;
  rng : Rng.t;
  n_sites : int;
  home : int array; (* user -> site *)
  paths : string array;
  churn_paths : string array array; (* 16 create/unlink names per hot dir *)
  file_zipf : Zipf.t;
  dir_zipf : Zipf.t;
  mutable log : record list; (* newest first *)
  mutable next_id : int;
  (* derived views *)
  oracle : (string, file) Hashtbl.t; (* path -> the read oracle's view *)
  views : Stats.t; (* per-kind latency histograms, named by kind *)
  lat : Stats.histogram array;
  served : int array; (* successful stream ops per kind *)
  mutable ops : int;
  mutable errors : int;
  mutable wrong : int;
  mutable stale : int;
  mutable migrations : int;
  mutable events : int; (* background events run before ops and in settles *)
  mutable snap : Stats.snapshot; (* world counters when setup ended *)
  mutable t_start : float;
}

let oracle_file t path =
  match Hashtbl.find_opt t.oracle path with
  | Some f -> f
  | None ->
    let f = { sent = Hashtbl.create 8; last_ok = ""; failed = [] } in
    Hashtbl.add t.oracle path f;
    f

(* A read that sees a failed write's body proves that write committed:
   it becomes the body to read, and failed writes older than it go. *)
let rec newer_than d = function
  | [] -> None
  | x :: rest ->
    if String.equal x d then Some [] else Option.map (List.cons x) (newer_than d rest)

let check_read t path d =
  match Hashtbl.find_opt t.oracle path with
  | Some f when Hashtbl.mem f.sent d ->
    if not (String.equal d f.last_ok) then begin
      match newer_than d f.failed with
      | Some newer ->
        f.last_ok <- d;
        f.failed <- newer
      | None -> t.stale <- t.stale + 1
    end
  | _ -> t.wrong <- t.wrong + 1

let append t r =
  t.log <- r :: t.log;
  match r.kind, r.errno with
  | Read, None -> check_read t r.path r.digest
  | Edit, ok ->
    let f = oracle_file t r.path in
    Hashtbl.replace f.sent r.digest ();
    if ok = None then begin
      f.last_ok <- r.digest;
      f.failed <- []
    end
    else f.failed <- r.digest :: f.failed
  | _ -> ()

(* Run [op] from [site] and append its record. [op] returns the body it
   read (reads) or anything (other kinds); [sent] is a write's body. *)
let perform t ~site kind path ?(sent = "") op =
  let invoked = Engine.now t.engine in
  let errno, body =
    match op () with b -> (None, b) | exception K.Error (e, _) -> (Some e, "")
  in
  let digest =
    match kind, errno with
    | Edit, _ -> Digest.string sent
    | Read, None -> Digest.string body
    | _ -> ""
  in
  let r =
    { id = t.next_id; site; kind; path; invoked; completed = Engine.now t.engine;
      errno; digest }
  in
  t.next_id <- t.next_id + 1;
  append t r;
  r

let write t ~site path body =
  let k = World.kernel t.w site and p = World.proc t.w site in
  let r =
    perform t ~site Edit path ~sent:body (fun () ->
        Kernel.write_file k p path body;
        "")
  in
  r.errno = None

let records t = List.rev t.log

let settle t =
  match World.settle t.w with
  | n, `Idle -> t.events <- t.events + n
  | _, `Limit -> failwith "Opstream: settle exhausted its event budget"

let setup w spec =
  if spec.files <= 0 || spec.hot_dirs <= 0 || spec.users <= 0 then
    invalid_arg "Opstream.setup: files, hot_dirs and users must be positive";
  let engine = World.engine w in
  let sites = Array.of_list (World.sites w) in
  let views = Stats.create () in
  let t =
    {
      w;
      engine;
      spec;
      rng = Rng.create spec.seed;
      n_sites = Array.length sites;
      home = Array.init spec.users (fun u -> sites.(u mod Array.length sites));
      paths = Array.init spec.files (file_path spec);
      churn_paths =
        Array.init spec.hot_dirs (fun j ->
            Array.init 16 (fun i -> Printf.sprintf "%s/t%d" (dir_path j) i));
      file_zipf = Zipf.create ~n:spec.files ~s:spec.zipf_s;
      dir_zipf = Zipf.create ~n:spec.hot_dirs ~s:spec.zipf_s;
      log = [];
      next_id = 1;
      oracle = Hashtbl.create (2 * spec.files);
      views;
      lat = Array.map (Stats.histogram views) kind_names;
      served = Array.make (Array.length kind_names) 0;
      ops = 0;
      errors = 0;
      wrong = 0;
      stale = 0;
      migrations = 0;
      events = 0;
      snap = Stats.snapshot (Engine.stats engine);
      t_start = 0.0;
    }
  in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let put path body =
    ignore (Kernel.creat k0 p0 path);
    if not (write t ~site:0 path body) then failwith ("Opstream.setup: cannot write " ^ path)
  in
  let mkdir d = ignore (Kernel.mkdir k0 p0 d) in
  let saved = Kernel.get_ncopies p0 in
  Kernel.set_ncopies p0 (min spec.ncopies (Array.length sites));
  List.iter mkdir ("/work" :: List.init spec.hot_dirs dir_path);
  if spec.mix.exec > 0 then begin
    mkdir "/bin";
    put "/bin/cc" (String.make 3000 'c')
  end;
  if spec.mix.mail > 0 then begin
    mkdir "/mail";
    ignore (Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/root")
  end;
  Array.iter (fun path -> put path (String.make 200 'z')) t.paths;
  Kernel.set_ncopies p0 saved;
  settle t;
  t.events <- 0;
  t.snap <- Stats.snapshot (Engine.stats engine);
  t.t_start <- Engine.now engine;
  t

(* Weighted choice over the mix. *)
let pick rng (m : mix) =
  let v = Rng.int rng (max 1 (m.read + m.edit + m.exec + m.mail + m.dirop)) in
  if v < m.read then Read
  else if v < m.read + m.edit then Edit
  else if v < m.read + m.edit + m.exec then Exec
  else if v < m.read + m.edit + m.exec + m.mail then Mail
  else Dirop

let step t =
  let spec = t.spec and rng = t.rng in
  t.events <- t.events + Engine.run_for t.engine 0.0;
  t.ops <- t.ops + 1;
  let u = Rng.int rng spec.users in
  if spec.churn_pct > 0 && Rng.int rng 100 < spec.churn_pct then begin
    t.home.(u) <- Rng.int rng t.n_sites;
    t.migrations <- t.migrations + 1
  end;
  let site = t.home.(u) in
  let k = World.kernel t.w site in
  if k.K.alive then begin
    let p = World.proc t.w site in
    let r =
      match pick rng spec.mix with
      | Read ->
        let path = t.paths.(Zipf.sample t.file_zipf rng) in
        perform t ~site Read path (fun () -> Kernel.read_file k p path)
      | Edit ->
        let path = t.paths.(Zipf.sample t.file_zipf rng) in
        let body = Printf.sprintf "op %d at site %d" t.next_id site in
        perform t ~site Edit path ~sent:body (fun () ->
            Kernel.write_file k p path body;
            "")
      | Exec ->
        let at = Rng.int rng t.n_sites in
        perform t ~site Exec "/bin/cc" (fun () ->
            Kernel.set_advice p (Some at);
            let pid, at = Process.run k p "/bin/cc" in
            let child = Process.get_proc (World.kernel t.w at) pid in
            Process.exit_proc (World.kernel t.w at) child 0;
            "")
      | Mail ->
        perform t ~site Mail "/mail/root" (fun () ->
            Kernel.mailbox_deliver k ~path:"/mail/root" ~from:"dev"
              ~body:(Printf.sprintf "build %d done" t.next_id);
            "")
      | Dirop ->
        let name = t.churn_paths.(Zipf.sample t.dir_zipf rng).(Rng.int rng 16) in
        perform t ~site Dirop name (fun () ->
            (match Kernel.stat k p name with
            | _ -> Kernel.unlink k p name
            | exception K.Error (Proto.Enoent, _) -> ignore (Kernel.creat k p name));
            "")
    in
    match r.errno with
    | None ->
      let i = kind_index r.kind in
      t.served.(i) <- t.served.(i) + 1;
      Stats.hobserve t.lat.(i) (r.completed -. r.invoked)
    | Some _ -> t.errors <- t.errors + 1
  end;
  if spec.settle_every > 0 && t.ops mod spec.settle_every = 0 then settle t

type report = {
  ops : int;
  reads : int;
  edits : int;
  execs : int;
  mails : int;
  dirops : int;
  errors : int;
  wrong : int;
  stale : int;
  migrations : int;
  events : int;
  sim_ms : float;
  read_lat : Stats.hist_summary;
  edit_lat : Stats.hist_summary;
  dirop_lat : Stats.hist_summary;
  lease_hit : float;
  cache_hit : float;
  name_hit : float;
  open_pages : int;
  open_buffered : int;
}

let ratio hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let report (t : t) =
  let stats = Engine.stats t.engine in
  let d name = Stats.delta_of stats t.snap name in
  let served kind = t.served.(kind_index kind) in
  let lat kind = Stats.hist_summary t.views kind_names.(kind_index kind) in
  {
    ops = t.ops;
    reads = served Read;
    edits = served Edit;
    execs = served Exec;
    mails = served Mail;
    dirops = served Dirop;
    errors = t.errors;
    wrong = t.wrong;
    stale = t.stale;
    migrations = t.migrations;
    events = t.events;
    sim_ms = Engine.now t.engine -. t.t_start;
    read_lat = lat Read;
    edit_lat = lat Edit;
    dirop_lat = lat Dirop;
    lease_hit = ratio (d "open.lease.hit") (d "open.lease.miss");
    cache_hit = ratio (d "cache.us.hit") (d "cache.us.miss");
    name_hit = ratio (d "name.cache.hit") (d "name.cache.miss");
    open_pages = d "us.open.pages";
    open_buffered = d "us.open.buffered";
  }

let run t ~ops =
  for _ = 1 to ops do
    step t
  done;
  settle t;
  report t
