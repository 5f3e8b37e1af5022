(** Background update propagation (§2.3.6).

    Propagation is done by *pulling*: a kernel process at each storage site
    services a queue of propagation requests. A pull internally opens the
    file at a site holding the latest version, issues standard page reads
    (just the modified pages when this copy is exactly one commit behind),
    and commits locally through the shadow-page mechanism — so a pull
    interrupted by partition leaves a coherent, complete (if stale) copy.
    Concurrent versions are never overwritten; they are left for
    reconciliation (§4). *)

val enqueue :
  Ktypes.t ->
  Catalog.Gfile.t ->
  vv:Vv.Version_vector.t ->
  modified:int list ->
  designate:bool ->
  unit
(** React to a commit notification: queue a pull if this site stores the
    file (or is a designated initial storage site) and its copy is not
    current. The kernel process runs after a small delay. *)

val attempt : Ktypes.t -> Catalog.Gfile.t -> Vv.Version_vector.t -> int list -> bool
(** One pull attempt (exposed for tests); true when no retry is needed. *)

val service_queue : Ktypes.t -> unit
(** Run one queued request; reschedules itself while work remains. *)

val drain : Ktypes.t -> unit
(** Synchronously service the whole queue (recovery uses this to complete
    the update propagation it schedules at merge). *)

val one_commit_behind :
  local:Vv.Version_vector.t ->
  target:Vv.Version_vector.t ->
  origin:Net.Site.t ->
  bool

val runs_of : cap:int -> int list -> (int * int) list
(** [runs_of ~cap pages] groups an ascending page list into [(first,
    count)] runs of consecutive pages, each at most [cap] long: the
    requests of a pull, and of reconciliation's copy reads. *)
