(** Physical network topology and fault injection.

    The topology records which sites are up and which pairwise links are up.
    Message delivery requires a *direct* working link between two up sites:
    the paper's high-level protocols assume transitive connectivity, and it
    is the job of the reconfiguration protocols (§5) to re-establish that
    assumption when the physical topology violates it. Tests inject exactly
    such violations here. *)

type t

val create : n:int -> t
(** [create ~n] makes a topology of sites [0 .. n-1], all up, fully linked. *)

val n_sites : t -> int

val sites : t -> Site.t list

val set_site_up : t -> Site.t -> bool -> unit
(** Crash or restart a site. Links are unaffected. *)

val link_up : t -> Site.t -> Site.t -> bool

val set_link : t -> Site.t -> Site.t -> bool -> unit
(** Break or repair the (symmetric) link between two sites. *)

val reachable : t -> Site.t -> Site.t -> bool
(** Both sites up and the direct link between them up. A site always reaches
    itself when up. *)

val connected_component : t -> Site.t -> Site.t list
(** Transitive closure of {!reachable} from a site, sorted. Used by tests to
    characterize physical partitions. *)

val partition : t -> Site.t list list -> unit
(** [partition t groups] breaks exactly the links between different groups
    and repairs all links inside each group. Sites not mentioned keep their
    links to mentioned sites severed. *)

val heal : t -> unit
(** Repair all links and bring all sites up. *)

val fully_connected : t -> Site.t list -> bool
(** Every pair in the list is mutually reachable. *)

val version : t -> int
(** Monotonic counter bumped on every topology change; lets caches detect
    configuration changes. *)
