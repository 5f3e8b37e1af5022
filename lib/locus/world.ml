(* World: build and drive a simulated LOCUS network.

   A world is one engine, one topology, one message layer, and one kernel
   per site, whose messages [Dispatch.handle] serves, with the filegroups'
   packs distributed per configuration and the replicated state (mount
   table, site tables, CSS assignments) seeded consistently — the state a
   real installation reaches after boot. *)

module Engine = Sim.Engine
module Site = Net.Site
module Topology = Net.Topology
module Latency = Net.Latency
module Netsim = Net.Netsim
module Gfile = Catalog.Gfile
module Mount = Catalog.Mount
module Dir = Catalog.Dir
module Inode = Storage.Inode
module Pack = Storage.Pack
module Shadow = Storage.Shadow
module Vvec = Vv.Version_vector
module K = Locus_core.Ktypes
module Kernel = Locus_core.Kernel
module Css = Locus_core.Css

type fg_spec = {
  fg : int;
  pack_sites : Site.t list; (* sites holding a physical container *)
  mount_path : string option; (* None for the root filegroup *)
}

type config = {
  n_sites : int;
  seed : int64;
  latency : Latency.t;
  kernel_config : K.config;
  machine_type : int -> string;
  filegroups : fg_spec list;
}

let default_config ?(n_sites = 5) () =
  {
    n_sites;
    seed = 0x10C05L;
    latency = Latency.default;
    kernel_config = K.default_config;
    machine_type = (fun _ -> "vax");
    filegroups =
      [ { fg = 0; pack_sites = List.init n_sites Fun.id; mount_path = None } ];
  }

type t = {
  config : config;
  engine : Engine.t;
  topo : Topology.t;
  net : (Proto.req, Proto.resp) Netsim.t;
  mount : Mount.t;
  kernels : Kernel.t list;
  procs : (Site.t, K.proc) Hashtbl.t; (* one init process per site *)
}

let kernel t site =
  match List.find_opt (fun k -> Site.equal (Kernel.site k) site) t.kernels with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "World.kernel: no site %d" site)

let engine t = t.engine

let topology t = t.topo

let net t = t.net

let kernels t = t.kernels

let sites t = List.map Kernel.site t.kernels

let stats t = Engine.stats t.engine

let now t = Engine.now t.engine

(* The per-site init process; user code usually acts through it. *)
let proc t site =
  match Hashtbl.find_opt t.procs site with
  | Some p -> p
  | None ->
    let p = Locus_core.Process.create_process (kernel t site) ~uid:"root" in
    Hashtbl.add t.procs site p;
    p

(* Install a file directly into a pack at world-construction time (before
   any traffic), with a neutral version so all packs agree. *)
let preinstall_file pack ~ino ~ftype ~content =
  let inode = Inode.create ~ino ~ftype ~owner:"root" in
  Pack.install_inode pack inode;
  if String.length content > 0 then begin
    let session = Shadow.begin_modify pack ino in
    Shadow.set_contents session content;
    Shadow.commit session ~vv:Vvec.zero ~mtime:0.0
  end

let root_dir_content () =
  let dir = Dir.empty () in
  Dir.insert dir ~name:"." ~ino:Mount.root_ino ~ftype:Inode.Directory ~stamp:0.0 ~origin:0;
  Dir.insert dir ~name:".." ~ino:Mount.root_ino ~ftype:Inode.Directory ~stamp:0.0 ~origin:0;
  Dir.encode dir

let create ?(config = default_config ()) () =
  let engine = Engine.create ~seed:config.seed () in
  let topo = Topology.create ~n:config.n_sites in
  let net = Netsim.create engine topo config.latency Proto.protocol in
  let root_spec =
    match List.find_opt (fun s -> s.mount_path = None) config.filegroups with
    | Some s -> s
    | None -> invalid_arg "World.create: no root filegroup (mount_path = None)"
  in
  let mount = Mount.create ~root_fg:root_spec.fg in
  let all_sites = List.init config.n_sites Fun.id in
  let css_of spec =
    match K.place_css ~fg:spec.fg spec.pack_sites with
    | Some s -> s
    | None -> invalid_arg "World.create: filegroup with no pack sites"
  in
  let kernels =
    List.map
      (fun site ->
        let fg_table =
          List.map
            (fun spec ->
              {
                K.fg = spec.fg;
                css_site = css_of spec;
                pack_sites = List.sort Site.compare spec.pack_sites;
              })
            config.filegroups
        in
        let k =
          Kernel.create ~site ~machine_type:(config.machine_type site) ~engine ~net
            ~mount ~fg_table ~config:config.kernel_config ()
        in
        Kernel.set_site_table k all_sites;
        Netsim.set_handler net site (fun ~src req -> Dispatch.handle k ~src req);
        k)
      all_sites
  in
  let world = { config; engine; topo; net; mount; kernels; procs = Hashtbl.create 8 } in
  (* Create the physical containers; partition each filegroup's inode space
     across its packs (section 2.3.7). *)
  let ino_span = 100_000 in
  List.iter
    (fun spec ->
      List.iteri
        (fun pack_idx site ->
          let lo = 2 + (pack_idx * ino_span) in
          let hi = lo + ino_span - 1 in
          let pack = Pack.create ~fg:spec.fg ~pack_id:pack_idx ~ino_lo:lo ~ino_hi:hi () in
          preinstall_file pack ~ino:Mount.root_ino ~ftype:Inode.Directory
            ~content:(root_dir_content ());
          Kernel.add_pack (kernel world site) pack)
        (List.sort Site.compare spec.pack_sites))
    config.filegroups;
  (* Seed every CSS's version bookkeeping from the pack inventories. *)
  List.iter
    (fun spec ->
      let css = css_of spec in
      Recovery.Membership.rebuild_css (kernel world css) spec.fg ~members:all_sites)
    config.filegroups;
  world

(* Mount the non-root filegroups at their configured paths; call once after
   [create], when the mount-point directories exist (it creates them). *)
let mount_filegroups t =
  List.iter
    (fun spec ->
      match spec.mount_path with
      | None -> ()
      | Some path ->
        let k = kernel t (List.hd (List.sort Site.compare spec.pack_sites)) in
        let p = proc t (Kernel.site k) in
        let gf =
          match Kernel.stat k p path with
          | _ ->
            Locus_core.Pathname.resolve_from k ~cwd:(Mount.root t.mount) ~context:[]
              ~follow_hidden:false path
          | exception K.Error (Proto.Enoent, _) -> Kernel.mkdir k p path
        in
        Mount.add t.mount ~mount_point:gf ~child_fg:spec.fg)
    t.config.filegroups

(* Drain all background activity (propagation pulls, notifications). A round
   that exhausts the event budget aborts the drain with [`Limit] — a
   livelocked schedule (events rescheduling themselves forever) must be
   reported, not spun on. *)
let settle ?(limit = 200_000) t =
  let executed = ref 0 in
  let status = ref `Idle in
  let continue_ = ref true in
  while !continue_ do
    let n, st = Engine.run_until_idle ~limit t.engine in
    executed := !executed + n;
    if st = `Limit then begin
      status := `Limit;
      continue_ := false
    end
    else begin
      List.iter
        (fun k -> if k.K.alive then Locus_core.Propagation.drain k)
        t.kernels;
      if Engine.pending t.engine = 0 then continue_ := false
    end
  done;
  (!executed, !status)

(* ---- topology control ---- *)

(* Split the network into groups; each group runs the partition protocol
   (initiated by its lowest site) to agree on membership. *)
let partition t groups =
  Topology.partition t.topo groups;
  List.filter_map
    (fun group ->
      match List.sort Site.compare group with
      | [] -> None
      | initiator :: _ ->
        let k = kernel t initiator in
        if k.K.alive then Some (Recovery.Partition.run_active k) else None)
    groups

(* Heal the physical network, restart every crashed site (scavenging its
   packs, as [restart_site] does), and reconfigure (section 5.3): the merge
   protocol from the lowest site, then the recovery procedure, in which
   each filegroup's new CSS reconciles it, then a settle that drains the
   update propagations the reconciliation scheduled. *)
let heal_and_merge t =
  Topology.heal t.topo;
  List.iter (fun k -> if not k.K.alive then ignore (Kernel.restart k)) t.kernels;
  let initiator = kernel t (List.fold_left min max_int (sites t)) in
  let merge = Recovery.Merge.run_initiator initiator ~all_sites:(sites t) in
  let reconciled =
    List.concat_map
      (fun k ->
        if k.K.alive then
          List.filter_map
            (fun (fi : K.fg_info) ->
              if Site.equal fi.css_site (Kernel.site k) && Hashtbl.mem k.K.css_state fi.fg
              then Some (fi.fg, Recovery.Reconcile.reconcile_fg k fi.fg)
              else None)
            k.K.fg_table
        else [])
      t.kernels
  in
  ignore (settle t);
  (merge, reconciled)

let crash_site t site =
  Topology.set_site_up t.topo site false;
  Kernel.crash (kernel t site);
  Hashtbl.remove t.procs site

let restart_site t site =
  Topology.set_site_up t.topo site true;
  ignore (Kernel.restart (kernel t site))

(* Run the partition protocol from [initiator] after site failures. *)
let detect_failures t ~initiator =
  Recovery.Partition.run_active (kernel t initiator)
