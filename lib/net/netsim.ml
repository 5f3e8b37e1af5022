module Engine = Sim.Engine
module Stats = Sim.Stats
module Trace = Sim.Trace

type policy = {
  max_attempts : int;
  backoff : float list;
}

let probe = { max_attempts = 1; backoff = [] }

let default_policy = { max_attempts = 3; backoff = [ 0.5; 2.0; 8.0 ] }

type ('req, 'resp) protocol = {
  tag : 'req -> string;
  req_bytes : 'req -> int;
  resp_bytes : 'resp -> int;
  idempotent : 'req -> bool;
  is_error : 'resp -> bool;
  policy : 'req -> policy;
}

type error =
  | Unreachable of { src : Site.t; dst : Site.t; attempts : int }
  | Lost_reply of { src : Site.t; dst : Site.t; attempts : int }

let pp_error ppf = function
  | Unreachable { src; dst; attempts } ->
    Format.fprintf ppf "site %a unreachable from %a (%d attempt%s)" Site.pp dst Site.pp src
      attempts
      (if attempts = 1 then "" else "s")
  | Lost_reply { src; dst; attempts } ->
    Format.fprintf ppf "reply lost from %a to %a (%d attempt%s)" Site.pp dst Site.pp src attempts
      (if attempts = 1 then "" else "s")

(* A tag's stat handles, created on the tag's first message so that a
   report shows no tag that never ran; after that a message updates cells
   without building a name. *)
type tag_stats = {
  ts_msg : Stats.counter;       (* net.msg.<tag> *)
  ts_latency : Stats.histogram; (* rpc.latency.<tag> *)
  ts_retry : Stats.counter;     (* rpc.retry.<tag> *)
}

type ('req, 'resp) t = {
  engine : Engine.t;
  topo : Topology.t;
  latency : Latency.t;
  proto : ('req, 'resp) protocol;
  mutable handlers : (src:Site.t -> 'req -> 'resp) Site.Map.t;
  mutable drop_prob : float;
  mutable forced_failures : (Site.t * Site.t) list;
  mutable next_id : int; (* call ids, unique for the network's lifetime *)
  replies : (int, int * 'resp) Hashtbl.t;
      (* receiver * n_sites + sender -> the last kept (call id, reply) *)
  tags : (string, tag_stats) Hashtbl.t;
  (* the fixed counters, resolved once *)
  msg : Stats.counter;           (* net.msg *)
  bytes : Stats.counter;         (* net.bytes *)
  send_err : Stats.counter;      (* net.send.err *)
  rpc_call : Stats.counter;      (* rpc.call *)
  rpc_send : Stats.counter;      (* rpc.send *)
  rpc_retry : Stats.counter;     (* rpc.retry *)
  rpc_recovered : Stats.counter; (* rpc.recovered *)
  rpc_fail : Stats.counter;      (* rpc.fail *)
  rpc_replay : Stats.counter;    (* rpc.replay *)
}

let create engine topo latency proto =
  let stats = Engine.stats engine in
  let counter = Stats.counter stats in
  {
    engine;
    topo;
    latency;
    proto;
    handlers = Site.Map.empty;
    drop_prob = 0.0;
    forced_failures = [];
    next_id = 0;
    replies = Hashtbl.create 16;
    tags = Hashtbl.create 64;
    msg = counter "net.msg";
    bytes = counter "net.bytes";
    send_err = counter "net.send.err";
    rpc_call = counter "rpc.call";
    rpc_send = counter "rpc.send";
    rpc_retry = counter "rpc.retry";
    rpc_recovered = counter "rpc.recovered";
    rpc_fail = counter "rpc.fail";
    rpc_replay = counter "rpc.replay";
  }

let engine t = t.engine

let topology t = t.topo

let latency t = t.latency

let tag_stats t tag =
  match Hashtbl.find_opt t.tags tag with
  | Some ts -> ts
  | None ->
    let stats = Engine.stats t.engine in
    let ts =
      {
        ts_msg = Stats.counter stats ("net.msg." ^ tag);
        ts_latency = Stats.histogram stats ("rpc.latency." ^ tag);
        ts_retry = Stats.counter stats ("rpc.retry." ^ tag);
      }
    in
    Hashtbl.add t.tags tag ts;
    ts

let set_handler t site f = t.handlers <- Site.Map.add site f t.handlers

let handler t site =
  match Site.Map.find_opt site t.handlers with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Netsim: no handler registered for site %d" site)

let reply_key t ~src ~dst = (dst * Topology.n_sites t.topo) + src

let forget_replies t site =
  for src = 0 to Topology.n_sites t.topo - 1 do
    Hashtbl.remove t.replies (reply_key t ~src ~dst:site)
  done

let set_drop_probability t p = t.drop_prob <- p

let fail_next_message t ~src ~dst = t.forced_failures <- (src, dst) :: t.forced_failures

(* Decide whether a single message from [src] to [dst] gets through, consuming
   any forced-failure directive. *)
let message_delivered t ~src ~dst =
  let forced =
    match t.forced_failures with
    | [] -> false
    | l ->
      let hit, rest = List.partition (fun (a, b) -> a = src && b = dst) l in
      (match hit with
      | [] -> false
      | _ :: dropped_rest ->
        t.forced_failures <- dropped_rest @ rest;
        true)
  in
  if forced then false
  else if not (Topology.reachable t.topo src dst) then false
  else if t.drop_prob > 0.0 && Sim.Rng.float (Engine.rng t.engine) 1.0 < t.drop_prob then false
  else true

let account t ~ts ~bytes =
  Stats.cincr t.msg;
  Stats.cadd t.bytes bytes;
  Stats.cincr ts.ts_msg

(* Run [dst]'s handler for call [id] at most once: a state-changing
   request's reply is kept per (receiver, sender) pair, and a resend of
   the same call is answered from it. A call with another id means the
   sender is done with the kept one, which goes: a reply that carries
   pages is not held longer than its call. One entry per pair suffices
   while a sender has one call in flight to a receiver: a call is
   synchronous, and the simulated clock runs no events between an attempt
   and its resend. *)
let run_handler t ~id ~src ~dst req =
  let key = reply_key t ~src ~dst in
  match Hashtbl.find_opt t.replies key with
  | Some (last, resp) when last = id ->
    Stats.cincr t.rpc_replay;
    resp
  | kept ->
    if Option.is_some kept then Hashtbl.remove t.replies key;
    let resp = (handler t dst) ~src req in
    if not (t.proto.idempotent req) then Hashtbl.replace t.replies key (id, resp);
    resp

(* One attempt of call [id]: [Error ran] when a message was lost, [ran]
   telling whether the request got through and its handler ran. *)
let attempt t ~ts ~id ~src ~dst ~req_bytes req =
  if not (message_delivered t ~src ~dst) then Error false
  else begin
    account t ~ts ~bytes:req_bytes;
    Engine.charge t.engine (Latency.msg_cost t.latency ~bytes:req_bytes);
    let resp = run_handler t ~id ~src ~dst req in
    if not (message_delivered t ~src:dst ~dst:src) then Error true
    else begin
      let bytes = t.proto.resp_bytes resp in
      account t ~ts ~bytes;
      Engine.charge t.engine (Latency.msg_cost t.latency ~bytes);
      Ok resp
    end
  end

(* Delay before retry number [n+1], after [n] failed attempts: last backoff
   entry repeats if the schedule is shorter than the attempt budget. *)
let backoff_delay policy n =
  match policy.backoff with
  | [] -> 0.0
  | l -> List.nth l (min (n - 1) (List.length l - 1))

let remote_call t ~src ~dst req =
  let tag = t.proto.tag req in
  let ts = tag_stats t tag in
  Stats.cincr t.rpc_call;
  let start = Engine.now t.engine in
  let trace = Engine.trace t.engine in
  (* Span formatting is the costliest per-call allocation; skip it (and
     the span) entirely when the trace is off — flood-scale runs are. *)
  let span =
    if Trace.recording trace then
      Some
        (Trace.span_begin trace ~time:start ~tag:"rpc"
           (Format.asprintf "%s %a->%a" tag Site.pp src Site.pp dst))
    else None
  in
  let finish outcome result =
    let now = Engine.now t.engine in
    (match span with
    | Some span -> Trace.span_end trace ~time:now span outcome
    | None -> ());
    Stats.hobserve ts.ts_latency (now -. start);
    result
  in
  let fail kind err =
    Stats.cincr t.rpc_fail;
    Stats.incr (Engine.stats t.engine) ("rpc.fail." ^ kind);
    finish kind (Error err)
  in
  let policy = t.proto.policy req and req_bytes = t.proto.req_bytes req in
  (* Every attempt carries the same id, so the receiver runs the handler
     at most once; [ran] records that some attempt reached it. *)
  let id = t.next_id in
  t.next_id <- id + 1;
  let rec go n ~ran =
    match attempt t ~ts ~id ~src ~dst ~req_bytes req with
    | Ok resp ->
      if n > 1 then Stats.cincr t.rpc_recovered;
      finish "ok" (Ok resp)
    | Error ran_now ->
      let ran = ran || ran_now in
      if n >= policy.max_attempts then
        if ran then fail "lost_reply" (Lost_reply { src; dst; attempts = n })
        else fail "unreachable" (Unreachable { src; dst; attempts = n })
      else begin
        Stats.cincr t.rpc_retry;
        Stats.cincr ts.ts_retry;
        Engine.charge t.engine (backoff_delay policy n);
        go (n + 1) ~ran
      end
  in
  go 1 ~ran:false

(* A call between roles on one site is a procedure call (section 2.3.2):
   the handler runs in process at the cost of [local_call]. No message,
   retry, kept reply, latency sample or span: none of them can say
   anything about a call that cannot be lost. *)
let call t ~src ~dst req =
  if Site.equal src dst then begin
    Engine.charge t.engine t.latency.Latency.local_call;
    Ok ((handler t dst) ~src req)
  end
  else remote_call t ~src ~dst req

(* Run a one-way message's handler, counting discarded error responses:
   {!send} has nobody to give them to. *)
let deliver_oneway t ~src ~dst req =
  let resp = (handler t dst) ~src req in
  if t.proto.is_error resp then Stats.cincr t.send_err

let send t ~src ~dst req =
  Stats.cincr t.rpc_send;
  let ts = tag_stats t (t.proto.tag req) in
  if Site.equal src dst then
    Engine.schedule t.engine ~delay:t.latency.Latency.local_call (fun () ->
        deliver_oneway t ~src ~dst req)
  else begin
    let bytes = t.proto.req_bytes req in
    account t ~ts ~bytes;
    Engine.schedule t.engine ~delay:(Latency.msg_cost t.latency ~bytes) (fun () ->
        if message_delivered t ~src ~dst then deliver_oneway t ~src ~dst req)
  end

let messages_sent t = Stats.cget t.msg
