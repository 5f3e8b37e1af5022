(** Kernel-to-kernel message layer.

    LOCUS uses specialized, minimal protocols: a remote service request is a
    single message and a single response, with no acknowledgements or flow
    control underneath (§2.3.3). We model that directly: {!call} is a
    synchronous request/response exchange that charges simulated time for
    both messages and runs the destination site's handler in between;
    {!send} is a one-way datagram (used for commit notifications and the
    reconfiguration polls).

    The layer keeps no connection state: a lost message fails the one
    exchange it belongs to, and nothing else. Noticing that a site is
    gone is the partition protocol's job (§5.4), not the transport's.

    One exchange is one attempt. Retry and backoff policy, typed transport
    errors, and per-call accounting live one layer up in {!Rpc}, which is
    what every kernel path goes through. What makes its resends harmless
    lives here, as the virtual circuits' sequence numbers do in LOCUS
    (§5.1): every call carries an id, and for each (receiver, sender) pair
    the receiver keeps the last state-changing call's id and reply, so a
    resend of that call is answered without running the handler again. *)

type ('req, 'resp) t

(** Why a single exchange failed. [Request_lost]: the request never reached
    the destination (site down, link down, or injected loss) — the handler
    did not run. [Reply_lost]: the handler ran (any side effect happened)
    but the response was lost on the way back; a resend of a
    state-changing call is answered from the receiver's kept reply, not
    run again. *)
type failure = Request_lost | Reply_lost

val pp_failure : Format.formatter -> failure -> unit

val create : Sim.Engine.t -> Topology.t -> Latency.t -> ('req, 'resp) t

(** {1 Pre-resolved stat handles}

    Message accounting used to build counter names (["net.msg." ^ tag],
    ["rpc.latency." ^ tag], ...) on every message — a string allocation
    and hash per event on the delivery path. Tags form a small static set
    (one per protocol message class, {!Proto.req_tag}), so the network
    interns one handle record per tag and the fixed global counters once
    per network; {!Rpc} and the hot entry points below then update cells
    directly. *)

type tag_stats = {
  ts_msg : Sim.Stats.counter option;
      (** ["net.msg.<tag>"]; [None] on the untagged sentinel, which counts
          no per-tag messages (untagged calls never did) *)
  ts_latency : Sim.Stats.histogram;  (** ["rpc.latency.<tag>"] *)
  ts_retry : Sim.Stats.counter;      (** ["rpc.retry.<tag>"] *)
}

val tag_stats : ('req, 'resp) t -> string -> tag_stats
(** The interned handle record for a tag, created on first use. *)

type hot_stats = {
  hs_msg : Sim.Stats.counter;
  hs_bytes : Sim.Stats.counter;
  hs_send_err : Sim.Stats.counter;
  hs_rpc_call : Sim.Stats.counter;
  hs_rpc_send : Sim.Stats.counter;
  hs_rpc_retry : Sim.Stats.counter;
  hs_rpc_recovered : Sim.Stats.counter;
  hs_rpc_fail : Sim.Stats.counter;
  hs_rpc_replay : Sim.Stats.counter;
}

val hot_stats : ('req, 'resp) t -> hot_stats
(** The transport stack's fixed counters, resolved at {!create}. *)

val engine : ('req, 'resp) t -> Sim.Engine.t

val topology : ('req, 'resp) t -> Topology.t

val latency : ('req, 'resp) t -> Latency.t

val set_handler : ('req, 'resp) t -> Site.t -> (src:Site.t -> 'req -> 'resp) -> unit
(** Install the kernel dispatch function for a site. *)

val set_error_classifier : ('req, 'resp) t -> ('resp -> bool) -> unit
(** Teach the layer which responses denote errors, so {!send} can count the
    error responses it silently discards (under ["net.send.err"]). Default:
    nothing is an error. *)

val set_idempotent_classifier : ('req, 'resp) t -> ('req -> bool) -> unit
(** Teach the layer which requests are harmless to run twice, so it keeps
    no reply for them. Default: none is, and every reply is kept. *)

val fresh_call_id : ('req, 'resp) t -> int
(** The next call id, from one counter per network: ids are never reused,
    so a site that restarts cannot match a reply kept before its crash. *)

val forget_replies : ('req, 'resp) t -> Site.t -> unit
(** Drop every reply the site keeps as a receiver: its crash loses them. *)

val call :
  ('req, 'resp) t ->
  ?tag:string ->
  src:Site.t ->
  dst:Site.t ->
  req_bytes:int ->
  resp_bytes:('resp -> int) ->
  'req ->
  ('resp, failure) result
(** Synchronous exchange, one attempt, under a fresh call id. When
    [src = dst] this is a local procedure call: it charges only
    {!Latency.local_call}, counts no messages, and cannot fail. Otherwise
    it counts two messages (request and response) and charges their wire
    cost. On failure the typed failure is returned. *)

val call_tagged :
  ('req, 'resp) t ->
  ts:tag_stats ->
  id:int ->
  src:Site.t ->
  dst:Site.t ->
  req_bytes:int ->
  resp_bytes:('resp -> int) ->
  'req ->
  ('resp, failure) result
(** {!call} with the tag already resolved to its handles, as attempt of
    call [id] — the hash-free entry point {!Rpc.call} uses. A remote
    state-changing request whose [id] matches the receiver's kept reply
    from [src] gets that reply (counted as ["rpc.replay"]) and its handler
    does not run. Any other request drops the kept reply, since its sender
    has moved on; the handler runs, and a state-changing request's reply
    is kept. One entry per pair suffices while a sender has one call in
    flight to a receiver: a call is synchronous, and the simulated clock
    runs no events between an attempt and its resend. *)

val send_tagged :
  ('req, 'resp) t ->
  ts:tag_stats ->
  src:Site.t ->
  dst:Site.t ->
  bytes:int ->
  'req ->
  unit
(** {!send} with the tag already resolved to its handles. *)

val send :
  ('req, 'resp) t ->
  ?tag:string ->
  src:Site.t ->
  dst:Site.t ->
  bytes:int ->
  'req ->
  unit
(** One-way datagram, delivered asynchronously via the engine queue. The
    handler's response is discarded; responses the error classifier flags
    are counted under ["net.send.err"]. Delivery is checked at delivery
    time; a failed delivery is silent. *)

val set_drop_probability : ('req, 'resp) t -> float -> unit
(** Inject random message loss (checked per message). *)

val fail_next_message : ('req, 'resp) t -> src:Site.t -> dst:Site.t -> unit
(** Force exactly the next message from [src] to [dst] to be lost. *)

val messages_sent : ('req, 'resp) t -> int
