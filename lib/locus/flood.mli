(** Flood: a million-user-scale synthetic traffic engine.

    Drives N simulated users — lightweight sessions (a home site that
    drifts under churn), multiplexed over the per-site kernels — through
    Zipfian-popularity open/read/close and edit/commit loops with
    create/unlink contention in hot directories. Per-operation latency is
    recorded in {!Sim.Stats} histograms via pre-resolved handles; the
    report carries p50/p95/p99 per op class plus the cache/lease/name hit
    rates the run achieved. Deterministic under [spec.seed].

    This is the harness scale claims get measured on (experiment E24):
    the op stream is production-shaped, the per-op cost is dominated by
    the simulated protocols, and the host-side cost per op is what the
    allocation-lean event core keeps small. *)

type spec = {
  users : int;        (** simulated users (sessions) *)
  files : int;        (** working-set size *)
  hot_dirs : int;     (** directories the working set spreads over *)
  ops : int;          (** operations to issue *)
  zipf_s : float;     (** popularity skew of files and hot dirs *)
  edit_pct : int;     (** % of ops that edit + commit *)
  dirop_pct : int;    (** % of ops that create/unlink in a hot dir *)
  churn_pct : int;    (** % chance per op that the acting user migrates *)
  ncopies : int;      (** replication factor of the working set *)
  settle_every : int; (** drain background events every k ops; 0 = only at end *)
  seed : int64;
}

val default_spec : spec
(** 1k users, 256 files over 8 hot dirs, 5k ops, s = 1.1, 10% edits,
    5% dirops, 1% churn. *)

type report = {
  fr_users : int;
  fr_ops : int;
  fr_reads : int;
  fr_edits : int;
  fr_dirops : int;
  fr_errors : int;     (** operations refused (conflict, busy, partition) *)
  fr_migrations : int; (** sessions re-homed by churn *)
  fr_events : int;     (** background events drained between op batches *)
  fr_sim_ms : float;   (** simulated time the flood occupied *)
  fr_read_lat : Sim.Stats.hist_summary;
  fr_edit_lat : Sim.Stats.hist_summary;
  fr_dirop_lat : Sim.Stats.hist_summary;
  fr_lease_hit : float; (** open-lease hit ratio over the run, 0..1 *)
  fr_cache_hit : float;
      (** US buffer-cache hit ratio over the run; a page delivered with an
          open counts as a hit when it is read *)
  fr_name_hit : float;  (** name-cache hit ratio over the run *)
  fr_open_pages : int;  (** pages delivered with read opens *)
  fr_open_buffered : int;
      (** read opens that asked for no pages: page 0 was still buffered *)
}

val pp_report : Format.formatter -> report -> unit

val read_hist : string
(** Histogram names the run observes per-op latency into
    (["flood.lat.read"] etc.), for report tables. *)

val edit_hist : string

val dirop_hist : string

val file_path : spec -> int -> string
(** Path of the working-set file with popularity rank [r]
    (["/flood/d<r mod hot_dirs>/f<r>"]). *)

val setup : World.t -> spec -> unit
(** Create the working set: [hot_dirs] directories under [/flood], the
    ranked files inside them, replicated [ncopies] wide; then settle. *)

val run : World.t -> spec -> report
(** Issue [spec.ops] operations. The latency histograms accumulate in the
    world's stats under fresh [flood.*] names — call once per world for
    clean percentiles. Raises [Failure] if a settle round livelocks. *)
