(** Random fault schedules for the deterministic soak harness.

    A schedule interleaves batches of workload operations with injected
    faults, and is a pure function of [(seed, ops)]: fault payloads are raw
    integers drawn at generation time and interpreted by the driver against
    the cluster state of the moment, so a replay of the same [(seed, ops)]
    is bit-for-bit identical and masking one fault out (shrinking) leaves
    every other segment untouched. *)

type fault =
  | Crash of int  (** selector into the currently-alive site list *)
  | Restart of int  (** selector into the currently-down site list *)
  | Partition_split of int  (** split-point selector over all sites *)
  | Heal  (** restart everything dead, heal the network, merge *)
  | Loss_burst of float  (** message drop probability for the next batch *)
  | Lease_break of int * int
      (** (site selector, file selector): a write targeted at a leased
          file, forcing CSS callback breaks *)
  | Mid_commit_kill of int * int
      (** open-for-modify + flush pages, then crash the serving SS before
          the commit: the shadow session must die with it *)
  | Prop_stall of int * int
      (** commit at a site, then crash it before propagation pulls run *)

type segment = { seg_ops : int; seg_fault : fault option }

type t = {
  sched_seed : int;
  sched_ops : int;
  segments : segment list;
}

val generate : seed:int -> ops:int -> t

val fault_label : fault -> string
(** Stable short name, used for injected/survived accounting. *)

val fault_count : t -> int
(** Number of segments carrying a fault. *)

val mask : t -> drop:int list -> t
(** Disable the faults whose injection index (counting faults only, in
    schedule order) appears in [drop]. *)
