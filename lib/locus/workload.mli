(** Synthetic workload generator.

    Models the production setting of the paper's §6 — a software-
    development community doing edits, builds (remote execution), reads
    and mail — as a seeded, deterministic stream of operations issued from
    random sites. Used by the benchmark harness (experiment E15) and
    available for soak tests. *)

type mix = {
  read : int;      (** weight of whole-file reads *)
  edit : int;      (** weight of whole-file overwrites (commit + propagate) *)
  exec : int;      (** weight of remote [run] of a build tool *)
  mail : int;      (** weight of mailbox deliveries *)
  namespace : int; (** weight of create/unlink churn *)
}

val default_mix : mix
(** Read-mostly, like the paper's environment: 60/20/10/5/5. *)

type spec = {
  mix : mix;
  n_files : int;        (** working-set size under /work *)
  ncopies : int;        (** replication factor for created files *)
  seed : int64;
}

val default_spec : spec

type report = {
  ops : int;
  reads : int;
  edits : int;
  execs : int;
  mails : int;
  creates : int;
  unlinks : int;
  errors : int; (** operations refused (partition, conflict, busy) *)
}

val pp_report : Format.formatter -> report -> unit

val file_path : int -> string
(** The path of working-set file [i] ("/work/f<i>") — exposed so fault
    injectors can target the same files the op stream edits. *)

type event =
  | Wrote of { site : int; path : string; body : string; ok : bool }
      (** A whole-file overwrite attempt. [ok = false] may still have
          committed (the commit can execute at the SS and the reply be
          lost), so a model checker must treat the body as possibly
          durable. *)
  | Dirop of { site : int; path : string }
      (** Create/unlink churn touched [path]. *)

val setup : ?observe:(event -> unit) -> World.t -> spec -> unit
(** Create the working set: /work files, /bin/cc, /mail/root. Each
    whole-file write it makes is reported to [observe] as a [Wrote] with
    [ok = true], so a model of the tree starts from the setup bodies. *)

type gen
(** A reusable operation generator: the seeded op stream plus running
    counters, stepped one operation at a time so a driver (the fault-soak
    harness) can interleave operations with fault injection. *)

val make_gen : ?observe:(event -> unit) -> spec -> gen

val gen_step : World.t -> gen -> unit
(** Issue exactly one operation from a random site (a no-op beyond the
    site draw if that site is down); errors are counted, not raised. *)

val gen_report : gen -> report

val run : World.t -> spec -> ops:int -> report
(** Issue [ops] operations from random sites (skipping crashed ones);
    errors are counted, not raised. Deterministic under [spec.seed].
    Equivalent to stepping a fresh {!gen} [ops] times then settling. *)
