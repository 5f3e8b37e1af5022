(** The token mechanism (§3.2).

    Unix semantics make parent and child share one open-file descriptor,
    so the current file position behaves like shared memory across
    machines. LOCUS keeps a descriptor copy at each participating site
    with exactly one valid at any time; a token marks which. The
    descriptor's origin site manages the token: a site needing the offset
    asks the manager, which recalls the state from the current holder
    (invalidating its copy) and grants the token to the requester. *)

val manager_of : Ktypes.fd_key -> Net.Site.t

val find_fd : Ktypes.t -> Ktypes.fd_key -> Ktypes.shared_fd option

val get_fd : Ktypes.t -> Ktypes.fd_key -> Ktypes.shared_fd
(** Raises [EINVAL]. *)

val create_fd :
  Ktypes.t ->
  gf:Catalog.Gfile.t ->
  mode:Proto.open_mode ->
  ofile:Ktypes.ofile ->
  Ktypes.shared_fd
(** New descriptor at its origin site; this site holds the token. *)

val install_remote_fd :
  Ktypes.t -> key:Ktypes.fd_key -> gf:Catalog.Gfile.t -> mode:Proto.open_mode ->
  Ktypes.shared_fd
(** Install (or re-reference) a copy at a site that inherited the
    descriptor via fork; the token stays where it was. *)

val release_fd : Ktypes.t -> Ktypes.fd_key -> unit
(** Drop one reference to this site's copy of the descriptor. The last
    one closes the copy's open, or releases it when the close fails, and
    removes the copy. *)

val acquire : Ktypes.t -> Ktypes.shared_fd -> unit
(** Make this site's copy the valid one before using the file position.
    Raises [EDEADTOKEN] when the holder is unreachable. *)

val handle_token_req : Ktypes.t -> Ktypes.fd_key -> for_site:Net.Site.t -> string
(** Manager side: recall from the holder, grant to the requester. *)

val handle_token_state_req : Ktypes.t -> Ktypes.fd_key -> string
(** Holder side: yield the token, returning the guarded offset. *)

val handle_site_failure : Ktypes.t -> Net.Site.t -> unit
(** Reclaim tokens held by a departed site (manager's last known offset
    becomes current). *)
