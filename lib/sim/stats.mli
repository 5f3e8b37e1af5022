(** Named counters, accumulators and histograms for experiment accounting.

    Experiments snapshot counters around an operation to report, e.g., the
    number of network messages an open required. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** Increment the named counter by one. *)

val add : t -> string -> int -> unit
(** Add [n] to the named counter. *)

val get : t -> string -> int
(** Value of the named counter (0 if never touched). *)

(** {1 Pre-resolved handles}

    [incr]/[add]/[hist_observe] hash their name string on every call. Hot
    paths (the event core, the network delivery path, the flood workload's
    per-operation accounting) resolve a handle once and then pay a single
    memory write per update. The string API remains the interface for
    reports and cold paths; both views update the same cells. *)

type counter

val counter : t -> string -> counter
(** The named counter's cell, creating it at zero. One string hash; every
    later {!cincr}/{!cadd} through the handle is hash-free. *)

val cincr : counter -> unit

val cadd : counter -> int -> unit

val cget : counter -> int

(** {1 Histograms}

    Named latency/size distributions with percentile accessors. The RPC
    transport layer feeds one histogram per request tag
    (["rpc.latency.<tag>"]); the benchmark harness
    reports p50/p95/p99 from them. *)

val hist_observe : t -> string -> float -> unit
(** Record one sample in the named histogram. *)

type histogram

val histogram : t -> string -> histogram
(** Pre-resolved histogram handle (see {!counter}): the named histogram,
    created empty if it does not exist. *)

val hobserve : histogram -> float -> unit
(** Record one sample through a handle, without hashing the name. *)

val hist_count : t -> string -> int
(** Samples recorded in the named histogram (0 if never touched). *)

val hist_percentile : t -> string -> float -> float
(** [hist_percentile t name p] is the nearest-rank [p]-th percentile
    ([p] in [0..100]) of the named histogram; 0 if empty. Nearest-rank
    guarantees monotonicity: [p <= q] implies
    [hist_percentile t name p <= hist_percentile t name q]. *)

val hist_mean : t -> string -> float

type hist_summary = {
  n : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  hmax : float;
}

val hist_summary : t -> string -> hist_summary

val hist_names : t -> string list
(** All histogram names, sorted. *)

val reset : t -> unit

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

type snapshot

val snapshot : t -> snapshot
(** Hash-indexed copy of every counter's current value; {!delta} against
    it costs O(counters), independent of the snapshot's size. *)

val delta : t -> snapshot -> (string * int) list
(** Counter deltas since [snapshot], restricted to counters that changed. *)

val delta_of : t -> snapshot -> string -> int
(** Delta of a single counter since [snapshot]. *)
