(** Kernel-to-kernel transport.

    LOCUS uses specialized, minimal protocols: a remote service request is a
    single message and a single response, with no acknowledgements or flow
    control underneath (§2.3.3). The response is the acknowledgement, and
    recovery from a loss is the requesting kernel's resend. This module is
    that whole exchange: {!call} is a synchronous request/response that
    charges simulated time for both messages and runs the destination
    site's handler in between, resending under the request's retry policy;
    {!send} is a one-way datagram (commit notifications, page invalidations).

    A call names only its sites and its request, and the request's type
    names its reply: {!Make} is applied to a protocol whose ['a req] is
    answered by an ['a]. Everything else the transport needs to know
    about a request (its tag, its wire size and its reply's, whether it is
    harmless to run twice, its retry policy) comes from that protocol. A
    handler answers with its reply or refuses by raising the protocol's
    [Error]; the transport carries the refusal back as the one error reply
    every request shares, and the caller gets it as {!Refused}.

    What makes a resend harmless lives here, as the virtual circuits'
    sequence numbers do in LOCUS (§5.1): every call carries one id across
    its attempts, and for each (receiver, sender) pair the receiver keeps
    the last state-changing call's id. A resend of that call is answered
    from the reply the call's first run produced, which the calling frame
    holds, without running the handler again; no reply outlives its
    call.

    The layer keeps no connection state: a lost message fails the one
    attempt it belongs to, and nothing else. Noticing that a site is gone
    is the partition protocol's job (§5.4), not the transport's. *)

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

(** Why a call failed, ['e] being the protocol's errno. *)
type 'e error =
  | Unreachable of { src : Site.t; dst : Site.t; attempts : int }
      (** No attempt's request reached [dst]: the destination handler never
          ran. [attempts = 0] means the calling site itself was down and
          nothing was sent. *)
  | Lost_reply of { src : Site.t; dst : Site.t; attempts : int }
      (** Some attempt's request was delivered and processed, but no reply
          came back. Remote state may have changed, once. *)
  | Refused of 'e
      (** The handler refused the request: its reply was the error reply. *)

(** What the transport knows about the protocol it carries, each fact a
    function of the request. *)
module type PROTOCOL = sig
  type 'a req
  (** A request answered by an ['a]. *)

  type errno

  exception Error of errno * string
  (** A handler's refusal: the transport replies with the errno. *)

  val pp_errno : Format.formatter -> errno -> unit

  val tag_names : string array
  (** Every message class, indexed by {!tag}: each names the
      ["net.msg.<tag>"], ["rpc.latency.<tag>"] and ["rpc.retry.<tag>"]
      stats. *)

  val tag : 'a req -> int

  val req_bytes : 'a req -> int  (** Wire size of a request. *)

  val resp_bytes : 'a req -> 'a -> int  (** Wire size of its reply. *)

  val refused_bytes : int  (** Wire size of the error reply. *)

  val idempotent : 'a req -> bool
      (** Harmless to run twice: a resend runs the handler again. *)

  val policy : 'a req -> policy  (** The call's retry policy. *)
end

module Make (P : PROTOCOL) : sig
  type t

  type handler = { handle : 'a. src:Site.t -> 'a P.req -> 'a }
  (** A site's kernel dispatch: every request's reply, or [P.Error]. *)

  val pp_error : Format.formatter -> P.errno error -> unit

  val create : Sim.Engine.t -> Topology.t -> Latency.t -> t

  val engine : t -> Sim.Engine.t

  val topology : t -> Topology.t

  val latency : t -> Latency.t

  val set_handler : t -> Site.t -> handler -> unit
  (** Install the kernel dispatch function for a site. *)

  val forget_replies : t -> Site.t -> unit
  (** Forget every call the site has run for a sender: its crash loses
      them, and a resend of one runs its handler again. *)

  val call : t -> src:Site.t -> dst:Site.t -> 'a P.req -> ('a, P.errno error) result
  (** Synchronous request/response. When [src = dst] the roles are
      collocated and the call is a procedure call (§2.3.2): [dst]'s handler
      runs in process, the clock is charged {!Latency.local_call}, and
      nothing else happens: no message, no retry, no kept reply, no span,
      no sample, no counter. It cannot be lost; a refusal is {!Refused}.
      This is the one place the system decides whether a call is local.

      Otherwise the call runs under the request's policy, every attempt
      under one call id; ids are never reused, so a site that restarts
      cannot match a call it ran before its crash. An attempt whose
      request is lost never ran the handler; one whose reply is lost did,
      and a resend of a state-changing request is answered from that
      run's reply, a refusal included. Each message delivered counts
      under ["net.msg"], ["net.msg.<tag>"] and ["net.bytes"] and charges
      its wire cost. The call opens a trace span (tag ["rpc"]) covering
      all attempts and records a sample in the ["rpc.latency.<tag>"]
      histogram on every outcome. Counters: ["rpc.call"], ["rpc.retry"]
      (and ["rpc.retry.<tag>"]), ["rpc.recovered"] (succeeded after >= 1
      retry), ["rpc.replay"] (answered from a kept reply), ["rpc.fail"]
      (and ["rpc.fail.unreachable"] / [".lost_reply"]). Backoff delays
      are charged to the simulated clock. *)

  val send : t -> src:Site.t -> dst:Site.t -> 'a P.req -> unit
  (** One-way, best-effort datagram, delivered asynchronously via the
      engine queue (counts ["rpc.send"]). No retries: one-way messages in
      LOCUS (commit notifications, update propagation hints) are designed
      to be safely lost. Delivery is checked at delivery time; a failed
      delivery is silent. The handler's reply is discarded; a refusal is
      counted under ["net.send.err"]. *)

  val set_drop_probability : t -> float -> unit
  (** Inject random message loss (checked per message). *)

  val fail_next_message : t -> src:Site.t -> dst:Site.t -> unit
  (** Force exactly the next message from [src] to [dst] to be lost. *)

  val messages_sent : t -> int
end
