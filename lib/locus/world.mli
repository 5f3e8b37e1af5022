(** World: build and drive a simulated LOCUS network.

    A world is one engine, one topology, one message layer, and one kernel
    per site, whose messages {!Dispatch.handle} serves ({!create}
    registers it), with the filegroups' physical containers distributed
    per configuration and the replicated state (mount table, site tables,
    CSS assignments) seeded consistently — the state a real installation
    reaches after boot. All runs are deterministic under the configured
    seed. *)

type fg_spec = {
  fg : int;
  pack_sites : Net.Site.t list; (** sites holding a physical container *)
  mount_path : string option;   (** [None] for the root filegroup *)
}

type config = {
  n_sites : int;
  seed : int64;
  latency : Net.Latency.t;
  kernel_config : Locus_core.Ktypes.config;
  machine_type : int -> string; (** cpu type per site (§2.4.1) *)
  filegroups : fg_spec list;
}

val default_config : ?n_sites:int -> unit -> config
(** One root filegroup replicated at every site; all sites are VAXen. *)

type t

val create : ?config:config -> unit -> t

val mount_filegroups : t -> unit
(** Mount the non-root filegroups at their configured paths (creating the
    mount-point directories). Call once after {!create}. *)

(** {1 Access} *)

val kernel : t -> Net.Site.t -> Locus_core.Kernel.t

val kernels : t -> Locus_core.Kernel.t list

val proc : t -> Net.Site.t -> Locus_core.Ktypes.proc
(** The per-site init process (created on first use, uid "root"). *)

val sites : t -> Net.Site.t list

val engine : t -> Sim.Engine.t

val topology : t -> Net.Topology.t

val net : t -> (Proto.req, Proto.resp) Net.Netsim.t

val stats : t -> Sim.Stats.t

val now : t -> float
(** Simulated time, ms. *)

(** {1 Driving the simulation} *)

val settle : ?limit:int -> t -> int * [ `Idle | `Limit ]
(** Drain all background activity (notifications, propagation pulls).
    Returns the number of events executed, paired with [`Idle] on a clean
    drain or [`Limit] if any round exhausted its event budget (livelock). *)

(** {1 Topology control} *)

val partition : t -> Net.Site.t list list -> Recovery.Partition.report list
(** Split the physical network into groups; each group runs the partition
    protocol (initiated by its lowest site). *)

val heal_and_merge : t -> Recovery.Merge.report * (int * Recovery.Reconcile.report) list
(** Repair the network, restart every crashed site (scavenging its
    orphaned pages, as {!restart_site} does), and reconfigure (§5.3): run
    the merge protocol from the lowest site with its default timeout
    policy and no gateways, then the recovery procedure, in which each
    filegroup's new CSS reconciles it ({!Recovery.Reconcile.reconcile_fg},
    whose reports come back by filegroup), then {!settle}. *)

val crash_site : t -> Net.Site.t -> unit
(** Power the site off: all volatile kernel state is lost; disks survive. *)

val restart_site : t -> Net.Site.t -> unit
(** Power the site back on (scavenges orphaned pages); run
    {!heal_and_merge} to rejoin it. *)

val detect_failures : t -> initiator:Net.Site.t -> Recovery.Partition.report
(** Run the partition protocol from [initiator] after failures. *)
