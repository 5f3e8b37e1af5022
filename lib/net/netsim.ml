module Engine = Sim.Engine
module Stats = Sim.Stats
module Trace = Sim.Trace

type policy = {
  max_attempts : int;
  backoff : float list;
}

let probe = { max_attempts = 1; backoff = [] }

let default_policy = { max_attempts = 3; backoff = [ 0.5; 2.0; 8.0 ] }

type 'e error =
  | Unreachable of { src : Site.t; dst : Site.t; attempts : int }
  | Lost_reply of { src : Site.t; dst : Site.t; attempts : int }
  | Refused of 'e

module type PROTOCOL = sig
  type 'a req
  type errno
  exception Error of errno * string
  val pp_errno : Format.formatter -> errno -> unit
  val tag_names : string array
  val tag : 'a req -> int
  val req_bytes : 'a req -> int
  val resp_bytes : 'a req -> 'a -> int
  val refused_bytes : int
  val idempotent : 'a req -> bool
  val policy : 'a req -> policy
end

(* A tag's stat handles, created on the tag's first message so that a
   report shows no tag that never ran; after that a message updates cells
   without building a name. *)
type tag_stats = {
  ts_msg : Stats.counter;       (* net.msg.<tag> *)
  ts_latency : Stats.histogram; (* rpc.latency.<tag> *)
  ts_retry : Stats.counter;     (* rpc.retry.<tag> *)
}

(* Delay before retry number [n+1], after [n] failed attempts: last backoff
   entry repeats if the schedule is shorter than the attempt budget. *)
let backoff_delay policy n =
  match policy.backoff with
  | [] -> 0.0
  | l -> List.nth l (min (n - 1) (List.length l - 1))

(* What became of one attempt of a call: its reply came back, its request
   was lost, or its reply was, the handler having run. *)
type 'r attempt =
  | Answered of 'r
  | Request_lost
  | Reply_lost of 'r

module Make (P : PROTOCOL) = struct
  type handler = { handle : 'a. src:Site.t -> 'a P.req -> 'a }

  type t = {
    engine : Engine.t;
    topo : Topology.t;
    latency : Latency.t;
    mutable handlers : handler Site.Map.t;
    mutable drop_prob : float;
    mutable forced_failures : (Site.t * Site.t) list;
    mutable next_id : int; (* call ids, unique for the network's lifetime *)
    ran : (int, int) Hashtbl.t;
        (* receiver * n_sites + sender -> the last state-changing call id
           the receiver ran for that sender *)
    tags : tag_stats option array; (* by tag, each made on its first message *)
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

  let pp_error ppf = function
    | Unreachable { src; dst; attempts } ->
      Format.fprintf ppf "site %a unreachable from %a (%d attempt%s)" Site.pp dst Site.pp src
        attempts
        (if attempts = 1 then "" else "s")
    | Lost_reply { src; dst; attempts } ->
      Format.fprintf ppf "reply lost from %a to %a (%d attempt%s)" Site.pp dst Site.pp src
        attempts
        (if attempts = 1 then "" else "s")
    | Refused e -> Format.fprintf ppf "refused: %a" P.pp_errno e

  let create engine topo latency =
    let stats = Engine.stats engine in
    let counter = Stats.counter stats in
    {
      engine;
      topo;
      latency;
      handlers = Site.Map.empty;
      drop_prob = 0.0;
      forced_failures = [];
      next_id = 0;
      ran = Hashtbl.create 16;
      tags = Array.make (Array.length P.tag_names) None;
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

  let tag_stats t i =
    match t.tags.(i) with
    | Some ts -> ts
    | None ->
      let stats = Engine.stats t.engine and tag = P.tag_names.(i) in
      let ts =
        {
          ts_msg = Stats.counter stats ("net.msg." ^ tag);
          ts_latency = Stats.histogram stats ("rpc.latency." ^ tag);
          ts_retry = Stats.counter stats ("rpc.retry." ^ tag);
        }
      in
      t.tags.(i) <- Some ts;
      ts

  let set_handler t site f = t.handlers <- Site.Map.add site f t.handlers

  let handler t site =
    match Site.Map.find_opt site t.handlers with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "Netsim: no handler registered for site %d" site)

  let ran_key t ~src ~dst = (dst * Topology.n_sites t.topo) + src

  let forget_replies t site =
    for src = 0 to Topology.n_sites t.topo - 1 do
      Hashtbl.remove t.ran (ran_key t ~src ~dst:site)
    done

  let set_drop_probability t p = t.drop_prob <- p

  let fail_next_message t ~src ~dst = t.forced_failures <- (src, dst) :: t.forced_failures

  (* Decide whether a single message from [src] to [dst] gets through,
     consuming any forced-failure directive. *)
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

  (* [dst]'s handler's reply to [req], or its refusal. *)
  let run t ~src ~dst req =
    match (handler t dst).handle ~src req with
    | resp -> Ok resp
    | exception P.Error (e, _) -> Error (Refused e)

  (* Run [dst]'s handler for call [id] at most once. The receiver records
     the id of a state-changing call it ran, per (receiver, sender) pair;
     a resend of that call is answered from [kept], the reply the run
     produced, which only this call's frame holds. One id per pair
     suffices while a sender has one call in flight to a receiver: a call
     is synchronous, and the simulated clock runs no events between an
     attempt and its resend. *)
  let serve t ~id ~src ~dst ~kept req =
    let key = ran_key t ~src ~dst in
    match kept with
    | Some reply when Hashtbl.find_opt t.ran key = Some id ->
      Stats.cincr t.rpc_replay;
      reply
    | Some _ | None ->
      let reply = run t ~src ~dst req in
      if not (P.idempotent req) then Hashtbl.replace t.ran key id;
      reply

  (* One attempt of call [id]. The error reply costs [P.refused_bytes]. *)
  let attempt t ~ts ~id ~src ~dst ~kept req =
    if not (message_delivered t ~src ~dst) then Request_lost
    else begin
      let req_bytes = P.req_bytes req in
      account t ~ts ~bytes:req_bytes;
      Engine.charge t.engine (Latency.msg_cost t.latency ~bytes:req_bytes);
      let reply = serve t ~id ~src ~dst ~kept req in
      if not (message_delivered t ~src:dst ~dst:src) then Reply_lost reply
      else begin
        let bytes =
          match reply with Ok resp -> P.resp_bytes req resp | Error _ -> P.refused_bytes
        in
        account t ~ts ~bytes;
        Engine.charge t.engine (Latency.msg_cost t.latency ~bytes);
        Answered reply
      end
    end

  let remote_call t ~src ~dst req =
    let tag = P.tag req in
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
             (Format.asprintf "%s %a->%a" P.tag_names.(tag) Site.pp src Site.pp dst))
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
    (* Every attempt carries the same id, so the receiver runs the handler
       at most once; [kept] is the reply of the attempt that ran it, when
       that reply was lost. *)
    let id = t.next_id in
    t.next_id <- id + 1;
    let rec go n ~kept =
      match attempt t ~ts ~id ~src ~dst ~kept req with
      | Answered reply ->
        if n > 1 then Stats.cincr t.rpc_recovered;
        finish "ok" reply
      | (Request_lost | Reply_lost _) as lost ->
        let kept = match lost with Reply_lost reply -> Some reply | _ -> kept in
        let policy = P.policy req in
        if n >= policy.max_attempts then
          if Option.is_some kept then fail "lost_reply" (Lost_reply { src; dst; attempts = n })
          else fail "unreachable" (Unreachable { src; dst; attempts = n })
        else begin
          Stats.cincr t.rpc_retry;
          Stats.cincr ts.ts_retry;
          Engine.charge t.engine (backoff_delay policy n);
          go (n + 1) ~kept
        end
    in
    go 1 ~kept:None

  (* A call between roles on one site is a procedure call (section
     2.3.2): the handler runs in process at the cost of [local_call]. No
     message, retry, kept reply, latency sample or span: none of them can
     say anything about a call that cannot be lost. *)
  let call t ~src ~dst req =
    if Site.equal src dst then begin
      Engine.charge t.engine t.latency.Latency.local_call;
      run t ~src ~dst req
    end
    else remote_call t ~src ~dst req

  (* Run a one-way message's handler, counting refusals: {!send} has
     nobody to give them to. *)
  let deliver_oneway t ~src ~dst req =
    match (handler t dst).handle ~src req with
    | _ -> ()
    | exception P.Error _ -> Stats.cincr t.send_err

  let send t ~src ~dst req =
    Stats.cincr t.rpc_send;
    let ts = tag_stats t (P.tag req) in
    if Site.equal src dst then
      Engine.schedule t.engine ~delay:t.latency.Latency.local_call (fun () ->
          deliver_oneway t ~src ~dst req)
    else begin
      let bytes = P.req_bytes req in
      account t ~ts ~bytes;
      Engine.schedule t.engine ~delay:(Latency.msg_cost t.latency ~bytes) (fun () ->
          if message_delivered t ~src ~dst then deliver_oneway t ~src ~dst req)
    end

  let messages_sent t = Stats.cget t.msg
end
