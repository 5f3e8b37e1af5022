(** Kernel-to-kernel transport.

    LOCUS uses specialized, minimal protocols: a remote service request is a
    single message and a single response, with no acknowledgements or flow
    control underneath (§2.3.3). The response is the acknowledgement, and
    recovery from a loss is the requesting kernel's resend. This module is
    that whole exchange: {!call} is a synchronous request/response that
    charges simulated time for both messages and runs the destination
    site's handler in between, resending under the request's retry policy;
    {!send} is a one-way datagram (commit notifications, page invalidations).

    A call names only its sites and its request. Everything else the
    transport needs to know about a request or a response (its tag, its
    wire size, whether it is harmless to run twice, whether a response is
    an error, its retry policy) comes from the {!protocol} given to
    {!create}.

    What makes a resend harmless lives here, as the virtual circuits'
    sequence numbers do in LOCUS (§5.1): every call carries one id across
    its attempts, and for each (receiver, sender) pair the receiver keeps
    the last state-changing call's id and reply, so a resend of that call
    is answered without running the handler again.

    The layer keeps no connection state: a lost message fails the one
    attempt it belongs to, and nothing else. Noticing that a site is gone
    is the partition protocol's job (§5.4), not the transport's. *)

type ('req, 'resp) t

(** A retry policy. *)
type policy = {
  max_attempts : int;  (** Total attempts, including the first (>= 1). *)
  backoff : float list;
      (** Delay in simulated ms before retry [i] ([backoff]'s last entry
          repeats if there are more retries than entries; empty = no delay).
          Charged to the simulation clock. *)
}

val probe : policy
(** Single attempt. For failure-detection polls where unreachability is the
    answer, not an error to mask. *)

val default_policy : policy
(** Three attempts, backoff [0.5; 2.0; 8.0] ms. For every request but the
    probes. *)

(** What the transport knows about the protocol it carries, each fact a
    function of the request or the response. *)
type ('req, 'resp) protocol = {
  tag : 'req -> string;
      (** The message class: names the ["net.msg.<tag>"],
          ["rpc.latency.<tag>"] and ["rpc.retry.<tag>"] stats. *)
  req_bytes : 'req -> int;  (** Wire size of a request. *)
  resp_bytes : 'resp -> int;  (** Wire size of a response. *)
  idempotent : 'req -> bool;
      (** Harmless to run twice: the receiver keeps no reply for it. *)
  is_error : 'resp -> bool;
      (** An error response, counted under ["net.send.err"] when {!send}
          discards it. *)
  policy : 'req -> policy;  (** The call's retry policy. *)
}

(** Why a call failed. *)
type error =
  | Unreachable of { src : Site.t; dst : Site.t; attempts : int }
      (** No attempt's request reached [dst]: the destination handler never
          ran. [attempts = 0] means the calling site itself was down and
          nothing was sent. *)
  | Lost_reply of { src : Site.t; dst : Site.t; attempts : int }
      (** Some attempt's request was delivered and processed, but no reply
          came back. Remote state may have changed, once. *)

val pp_error : Format.formatter -> error -> unit

val create :
  Sim.Engine.t -> Topology.t -> Latency.t -> ('req, 'resp) protocol -> ('req, 'resp) t

val engine : ('req, 'resp) t -> Sim.Engine.t

val topology : ('req, 'resp) t -> Topology.t

val latency : ('req, 'resp) t -> Latency.t

val set_handler : ('req, 'resp) t -> Site.t -> (src:Site.t -> 'req -> 'resp) -> unit
(** Install the kernel dispatch function for a site. *)

val forget_replies : ('req, 'resp) t -> Site.t -> unit
(** Drop every reply the site keeps as a receiver: its crash loses them. *)

val call : ('req, 'resp) t -> src:Site.t -> dst:Site.t -> 'req -> ('resp, error) result
(** Synchronous request/response. When [src = dst] the roles are
    collocated and the call is a procedure call (§2.3.2): [dst]'s handler
    runs in process, the clock is charged {!Latency.local_call}, and
    nothing else happens: no message, no retry, no kept reply, no span,
    no sample, no counter. It cannot fail. This is the one place the
    system decides whether a call is local.

    Otherwise the call runs under the request's policy, every attempt
    under one call id; ids are never reused, so a site that restarts
    cannot match a reply kept before its crash. An attempt whose request
    is lost never ran the handler; one whose reply is lost did, and a
    resend of a state-changing request is answered from the receiver's
    kept reply. Any other request from the same sender drops the kept
    reply. Each message delivered counts under ["net.msg"],
    ["net.msg.<tag>"] and ["net.bytes"] and charges its wire cost. The
    call opens a trace span (tag ["rpc"]) covering all attempts and
    records a sample in the ["rpc.latency.<tag>"] histogram on every
    outcome. Counters: ["rpc.call"], ["rpc.retry"] (and
    ["rpc.retry.<tag>"]), ["rpc.recovered"] (succeeded after >= 1 retry),
    ["rpc.replay"] (answered from a kept reply), ["rpc.fail"] (and
    ["rpc.fail.unreachable"] / [".lost_reply"]). Backoff delays are
    charged to the simulated clock. *)

val send : ('req, 'resp) t -> src:Site.t -> dst:Site.t -> 'req -> unit
(** One-way, best-effort datagram, delivered asynchronously via the engine
    queue (counts ["rpc.send"]). No retries: one-way messages in LOCUS
    (commit notifications, update propagation hints) are designed to be
    safely lost. Delivery is checked at delivery time; a failed delivery
    is silent. The handler's response is discarded; error responses are
    counted under ["net.send.err"]. *)

val set_drop_probability : ('req, 'resp) t -> float -> unit
(** Inject random message loss (checked per message). *)

val fail_next_message : ('req, 'resp) t -> src:Site.t -> dst:Site.t -> unit
(** Force exactly the next message from [src] to [dst] to be lost. *)

val messages_sent : ('req, 'resp) t -> int
