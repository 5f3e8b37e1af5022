(** Typed RPC transport over {!Netsim}.

    Every kernel-to-kernel exchange in the system goes through this module:
    it turns {!Netsim}'s single-attempt, failure-returning exchange into a
    policy-driven call with typed errors, bounded retries with simulated-time
    backoff, per-call trace spans, and per-tag latency histograms. Bytes
    are counted once, by {!Netsim}, per message (["net.bytes"]) and per
    tag (["net.msg.<tag>"] counts the messages).

    LOCUS runs its protocols directly on a problem-oriented transport
    (§2.3.3): no connection setup, no transport-level acknowledgements —
    the response to a request is its acknowledgement, and recovery from
    loss is the requesting kernel's job. The retry policy here is that
    recovery, and it is one policy for every request: each call carries one
    id across its attempts, and the receiver answers a resend of a
    state-changing call from its kept reply ({!Netsim.call_tagged}), so a
    call runs its handler at most once however many attempts it takes.
    Reconfiguration probes (§5) use {!probe}: one attempt, because
    unreachability is the information the caller is after, not a transient
    to paper over. *)

type rpc_error =
  | Unreachable of { src : Site.t; dst : Site.t; attempts : int }
      (** No attempt's request reached [dst]: the destination handler never
          ran. [attempts = 0] means the calling site itself was down and
          nothing was sent. *)
  | Lost_reply of { src : Site.t; dst : Site.t; attempts : int }
      (** Some attempt's request was delivered and processed, but no reply
          came back. Remote state may have changed, once. *)

val pp_error : Format.formatter -> rpc_error -> unit

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
(** Three attempts, backoff [0.5; 2.0; 8.0] ms. For every
    request but the probes. *)

val call :
  ('req, 'resp) Netsim.t ->
  ?policy:policy ->
  ?tag:string ->
  src:Site.t ->
  dst:Site.t ->
  req_bytes:int ->
  resp_bytes:('resp -> int) ->
  'req ->
  ('resp, rpc_error) result
(** Synchronous request/response. When [src = dst] the roles are
    collocated and the call is a procedure call (§2.3.2): [dst]'s handler
    runs in process, the clock is charged {!Latency.local_call}, and
    nothing else happens: no message, no retry, no kept reply, no span,
    no sample, no counter. It cannot fail. This is the one place the
    system decides whether a call is local.

    Otherwise the call runs under [policy] (default {!default_policy}),
    every attempt under one call id from {!Netsim.fresh_call_id}. It opens
    a trace span (tag ["rpc"]) covering all attempts and records a sample
    in the ["rpc.latency.<tag>"] histogram on every outcome. Counters:
    ["rpc.call"], ["rpc.retry"] (and ["rpc.retry.<tag>"]),
    ["rpc.recovered"] (succeeded after >= 1 retry), ["rpc.fail"] (and
    ["rpc.fail.unreachable"] / [".lost_reply"]). Backoff delays are
    charged to the simulated clock. *)

val send :
  ('req, 'resp) Netsim.t ->
  ?tag:string ->
  src:Site.t ->
  dst:Site.t ->
  bytes:int ->
  'req ->
  unit
(** One-way, best-effort datagram (counts ["rpc.send"]); see {!Netsim.send}.
    No retries: one-way messages in LOCUS (commit notifications, update
    propagation hints) are designed to be safely lost. *)
