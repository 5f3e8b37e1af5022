(** Message dispatch: the kernel half that runs on behalf of a foreign
    site's system call (the "serving site" column of Figure 1). Maps each
    {!Proto.req} to the CSS / SS / process / token handler, and each
    reconfiguration message to the partition or merge protocol's passive
    side ({!Recovery.Partition}, {!Recovery.Merge},
    {!Recovery.Membership.install}). {!World.create} installs it as each
    kernel's handler. A request is answered with its reply, or refused
    by raising {!Locus_core.Ktypes.Error}, which the transport carries
    back as the error reply. *)

val handle : Locus_core.Ktypes.t -> src:Net.Site.t -> 'a Proto.req -> 'a
