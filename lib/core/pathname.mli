(** Pathname searching (§2.3.4) and hidden directories (§2.4.1).

    Resolution walks the naming tree one component at a time with internal
    unsynchronized directory reads: a locally stored directory with no
    pending propagation is searched without contacting the CSS at all (a
    lookup miss against such a possibly-stale copy is retried once against
    a synchronized copy). Filegroup boundaries are crossed through the
    replicated mount table, in both directions.

    Two fast paths short-circuit the per-component internal opens: the
    per-site {!Namecache} of (directory, component) links validated by
    directory version vectors, and server-side partial-pathname lookup —
    the remedy §2.3.4 names — where the remaining components are shipped
    to a storage site that walks as many as it stores in one round trip
    (the trail it returns also fills the name cache). Both are
    independently switchable via {!Ktypes.config}. *)

val resolve_from :
  Ktypes.t ->
  cwd:Catalog.Gfile.t ->
  context:string list ->
  ?follow_hidden:bool ->
  string ->
  Catalog.Gfile.t
(** Resolve [path] (absolute or cwd-relative). [context] selects hidden-
    directory entries; an explicit ["@name"] component escapes. When
    [follow_hidden] (default true), a *final* hidden directory expands
    under the context — commands resolve to their machine's load module. *)

val resolve_typed :
  Ktypes.t ->
  cwd:Catalog.Gfile.t ->
  context:string list ->
  string ->
  Catalog.Gfile.t * Storage.Inode.ftype
(** [resolve_from] with a final hidden directory expanded, and the type
    of the gfile it resolves to. The type is the one the directory entry
    the walk last read records (its [d_type]): no stat is sent, except
    for a path that consumes no component or ends on [".."]. *)

val resolve_parent :
  Ktypes.t ->
  cwd:Catalog.Gfile.t ->
  context:string list ->
  string ->
  Catalog.Gfile.t * string
(** Resolve all but the last component; returns the parent directory and
    the final name (with the '@' escape stripped). *)

val read_directory : Ktypes.t -> Catalog.Gfile.t -> Catalog.Dir.t
(** Parse a directory's contents; raises [ENOTDIR] on other types. *)

val handle_lookup : Ktypes.t -> Catalog.Gfile.t -> string list -> near:bool -> Proto.resp
(** The storage-site half of partial-pathname lookup: walk as many of the
    components from the given directory as the local pack stores, in one
    request, and return the resulting gfile, the number of components
    consumed, and one {!Proto.lookup_step} per consumed component. Stops
    at mount points, "..", hidden directories (both consumed; crossing and
    context expansion stay with the using site), deleted inodes,
    directories awaiting propagation, and pack boundaries. Never fails:
    zero components consumed is a valid answer. With [near], each step
    that searched a page also carries that page's other live links
    ({!Proto.lookup_step.l_near}). *)
