(** One checked op stream: the synthetic traffic every driver runs.

    A seeded, deterministic stream of whole-file reads, edits (overwrite +
    commit), remote executions of a build tool, mailbox deliveries and
    create/unlink churn, made by simulated users. A user is a home site
    that drifts under churn; files and hot directories are drawn by Zipf
    popularity ([zipf_s = 0] is uniform). Before each op the engine runs
    the background events already due, so a lease break or commit
    notification sent during one op has arrived when the next starts.

    Every op, and every write made through {!write} or by {!setup},
    appends one {!record} to the stream's log. Everything else derives
    from the records: the report's counts, per-kind latency histograms
    and an online read oracle, and any outside model (the soak's
    durability model folds {!records}). *)

type kind = Read | Edit | Exec | Mail | Dirop

type mix = {
  read : int;   (** weight of whole-file reads *)
  edit : int;   (** weight of whole-file overwrites (commit + propagate) *)
  exec : int;   (** weight of a remote [run] of /bin/cc *)
  mail : int;   (** weight of deliveries to /mail/root *)
  dirop : int;  (** weight of create/unlink churn in a hot directory *)
}

type spec = {
  mix : mix;
  users : int;         (** simulated users; user [u] starts at site [u mod n] *)
  churn_pct : int;     (** % chance per op that the acting user migrates *)
  zipf_s : float;      (** popularity skew of files and hot dirs; 0 = uniform *)
  files : int;         (** working-set size *)
  hot_dirs : int;      (** directories the working set spreads over *)
  ncopies : int;       (** replication factor of the working-set files *)
  settle_every : int;  (** settle the world every k ops; 0 = never mid-stream *)
  seed : int64;
}

val dev_spec : spec
(** The paper's §6 software-development community: 60/20/10/5/5
    read/edit/exec/mail/dirop over 12 uniformly drawn files in one
    directory, 3 copies, 60 users, no churn, no settle mid-stream. *)

val flood_spec : spec
(** A production installation's Zipf-hot traffic: 85/10/5 read/edit/dirop
    from 1k users with 1% churn, 256 files over 8 hot dirs at s = 1.1,
    2 copies, a settle every 250 ops. *)

val file_path : spec -> int -> string
(** Path of the working-set file of popularity rank [r]
    (["/work/d<r mod hot_dirs>/f<r>"]): the hottest files spread across
    the hot directories. *)

type record = {
  id : int;           (** from 1, in the order ops start, setup writes first *)
  site : int;
  kind : kind;
  path : string;
  invoked : float;    (** simulated ms *)
  completed : float;
  errno : Proto.errno option;  (** [None]: the op succeeded *)
  digest : Digest.t;
      (** of the body a read returned or a write sent; [""] for other kinds
          and failed reads *)
}

type t
(** A stream bound to a world: spec, RNG, users, log and derived views. *)

val setup : World.t -> spec -> t
(** Create the working set [ncopies] wide — [/work] with its hot
    directories and files, and [/bin/cc] and [/mail/root] when the mix
    execs or mails — record its writes, settle, and return the stream.
    Raises [Failure] if the settle livelocks. *)

val step : t -> unit
(** Deliver the due events, then run one op from the acting user's site
    (no op if that site is down); errors are recorded, not raised. Settles
    after every [settle_every]th step. *)

val write : t -> site:int -> string -> string -> bool
(** [write t ~site path body]: a whole-file write from outside the stream
    (a fault injector's), recorded as an [Edit]; [true] if it returned
    success. *)

val records : t -> record list
(** The log, oldest first. *)

type report = {
  ops : int;          (** steps taken *)
  reads : int;        (** successful ops per kind *)
  edits : int;
  execs : int;
  mails : int;
  dirops : int;
  errors : int;       (** ops refused (partition, conflict, busy) *)
  wrong : int;
      (** reads that returned a body no write to the path (setup, op or
          outside) ever sent *)
  stale : int;
      (** reads that returned neither the body of the path's last write
          that returned success nor that of a later failed write (which
          may still have committed) *)
  migrations : int;   (** users re-homed by churn *)
  events : int;       (** background events the stream ran since setup *)
  sim_ms : float;     (** simulated time since setup *)
  read_lat : Sim.Stats.hist_summary;  (** simulated ms, successful ops *)
  edit_lat : Sim.Stats.hist_summary;
  dirop_lat : Sim.Stats.hist_summary;
  lease_hit : float;  (** open-lease hit ratio since setup, 0..1 *)
  cache_hit : float;
      (** US buffer-cache hit ratio since setup; a page delivered with an
          open counts as a hit when it is read *)
  name_hit : float;   (** name-cache hit ratio since setup *)
  open_pages : int;   (** pages delivered with read opens *)
  open_buffered : int;  (** read opens that asked for no pages: buffered *)
}

val report : t -> report

val run : t -> ops:int -> report
(** [ops] steps, then a settle. Raises [Failure] if a settle livelocks. *)
