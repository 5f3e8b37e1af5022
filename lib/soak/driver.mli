(** The fault-soak driver.

    One run = one world (5 sites, one filegroup packed everywhere), one
    seeded op stream ({!Locus.Opstream.dev_spec}), one seeded fault
    schedule; segments alternate a batch of operations with one injected
    fault. After the last segment the driver quiesces (loss off, dead
    sites restarted and scavenged, network healed, merge run, engine
    settled) and hands the world and the stream's records to
    {!Invariant.check}. A read the stream's oracle found wrong (a body no
    write sent) is a [read-oracle] violation. Fully deterministic in
    [(seed, ops, drop)]. *)

type bug =
  | Bug_silent_scrub
      (** Drop live lease tables silently after every batch, as a crash,
          partition or merge does, but with no membership change behind
          it, stranding SS serving registrations and CSS reader/lease
          entries. The §5.6 merge rebuild absorbs exactly this class at
          quiesce, so runs with this bug are expected to {e pass} —
          pinning the self-heal that lets partition and merge drop leases
          silently. *)
  | Bug_abandoned_open
      (** Abandon a successfully opened handle without closing it, as the
          pre-[Us.release] error paths did. The orphan lives at the using
          site, where no recovery protocol looks, so the invariant
          checker must flag it. *)

type outcome = {
  oc_seed : int;
  oc_ops : int;
  oc_report : Locus.Opstream.report;
  oc_injected : (string * int) list;  (** fault label -> times injected *)
  oc_skipped : int;  (** faults skipped because preconditions failed *)
  oc_violations : Invariant.violation list;
  oc_events : int;  (** engine events executed over the whole run *)
}

val run : ?drop:int list -> ?bug:bug -> seed:int -> ops:int -> unit -> outcome

val failed : outcome -> bool
