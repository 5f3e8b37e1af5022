module Engine = Sim.Engine
module Stats = Sim.Stats

type failure = Request_lost | Reply_lost

let pp_failure ppf = function
  | Request_lost -> Format.pp_print_string ppf "request-lost"
  | Reply_lost -> Format.pp_print_string ppf "reply-lost"

(* Pre-resolved per-tag stat handles, shared by this layer and {!Rpc}:
   the message layer used to build ["net.msg." ^ tag] (and the transport
   ["rpc.latency." ^ tag] etc.) on every call — a string allocation and
   hash per message. Tags are a small static set (one per protocol message
   class), so each resolves to this record once and is then hash-free. *)
type tag_stats = {
  ts_msg : Stats.counter option; (* net.msg.<tag>; None for untagged *)
  ts_latency : Stats.histogram;  (* rpc.latency.<tag> *)
  ts_retry : Stats.counter;      (* rpc.retry.<tag> *)
}

(* The transport stack's fixed counters, resolved once per network. *)
type hot_stats = {
  hs_msg : Stats.counter;           (* net.msg *)
  hs_bytes : Stats.counter;         (* net.bytes *)
  hs_send_err : Stats.counter;      (* net.send.err *)
  hs_rpc_call : Stats.counter;      (* rpc.call *)
  hs_rpc_send : Stats.counter;      (* rpc.send *)
  hs_rpc_retry : Stats.counter;     (* rpc.retry *)
  hs_rpc_recovered : Stats.counter; (* rpc.recovered *)
  hs_rpc_fail : Stats.counter;      (* rpc.fail *)
  hs_rpc_replay : Stats.counter;    (* rpc.replay *)
}

type ('req, 'resp) t = {
  engine : Engine.t;
  topo : Topology.t;
  latency : Latency.t;
  mutable handlers : (src:Site.t -> 'req -> 'resp) Site.Map.t;
  mutable drop_prob : float;
  mutable forced_failures : (Site.t * Site.t) list;
  mutable error_resp : 'resp -> bool;
      (* classifies handler responses that signal an error, so that {!send}
         can count the ones it silently discards *)
  mutable idempotent : 'req -> bool;
      (* requests harmless to run twice: their replies are not kept *)
  mutable next_id : int; (* call ids, unique for the network's lifetime *)
  replies : (int, int * 'resp) Hashtbl.t;
      (* receiver * n_sites + sender -> the last kept (call id, reply) *)
  hot : hot_stats;
  tags : (string, tag_stats) Hashtbl.t;
  mutable untagged : tag_stats option;
      (* lazy: created on the first untagged call, so the "untagged"
         histograms don't appear in reports that never used them *)
}

let make_tag_stats ?(count_msg = true) stats tag =
  {
    ts_msg =
      (if count_msg then Some (Stats.counter stats ("net.msg." ^ tag)) else None);
    ts_latency = Stats.histogram stats ("rpc.latency." ^ tag);
    ts_retry = Stats.counter stats ("rpc.retry." ^ tag);
  }

let create engine topo latency =
  let stats = Engine.stats engine in
  {
    engine;
    topo;
    latency;
    handlers = Site.Map.empty;
    drop_prob = 0.0;
    forced_failures = [];
    error_resp = (fun _ -> false);
    idempotent = (fun _ -> false);
    next_id = 0;
    replies = Hashtbl.create 16;
    hot =
      {
        hs_msg = Stats.counter stats "net.msg";
        hs_bytes = Stats.counter stats "net.bytes";
        hs_send_err = Stats.counter stats "net.send.err";
        hs_rpc_call = Stats.counter stats "rpc.call";
        hs_rpc_send = Stats.counter stats "rpc.send";
        hs_rpc_retry = Stats.counter stats "rpc.retry";
        hs_rpc_recovered = Stats.counter stats "rpc.recovered";
        hs_rpc_fail = Stats.counter stats "rpc.fail";
        hs_rpc_replay = Stats.counter stats "rpc.replay";
      };
    tags = Hashtbl.create 64;
    untagged = None;
  }

let engine t = t.engine

let topology t = t.topo

let latency t = t.latency

let hot_stats t = t.hot

let tag_stats t tag =
  match Hashtbl.find_opt t.tags tag with
  | Some ts -> ts
  | None ->
    let ts = make_tag_stats (Engine.stats t.engine) tag in
    Hashtbl.add t.tags tag ts;
    ts

(* The untagged sentinel never counts a per-tag message (direct untagged
   [call]/[send] never did); it carries real "untagged" transport
   histograms because that is the default tag {!Rpc.call} reports under. *)
let untagged_ts t =
  match t.untagged with
  | Some ts -> ts
  | None ->
    let ts = make_tag_stats ~count_msg:false (Engine.stats t.engine) "untagged" in
    t.untagged <- Some ts;
    ts

let set_handler t site f = t.handlers <- Site.Map.add site f t.handlers

let set_error_classifier t f = t.error_resp <- f

let set_idempotent_classifier t f = t.idempotent <- f

let fresh_call_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let reply_key t ~src ~dst = (dst * Topology.n_sites t.topo) + src

let forget_replies t site =
  for src = 0 to Topology.n_sites t.topo - 1 do
    Hashtbl.remove t.replies (reply_key t ~src ~dst:site)
  done

let set_drop_probability t p = t.drop_prob <- p

let fail_next_message t ~src ~dst = t.forced_failures <- (src, dst) :: t.forced_failures

let handler_of t site =
  match Site.Map.find_opt site t.handlers with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Netsim: no handler registered for site %d" site)

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
  Stats.cincr t.hot.hs_msg;
  Stats.cadd t.hot.hs_bytes bytes;
  match ts.ts_msg with Some c -> Stats.cincr c | None -> ()

(* Run [dst]'s handler for call [id] at most once: a state-changing
   request's reply is kept per (receiver, sender) pair, and a resend of
   the same call is answered from it. A call with another id means the
   sender is done with the kept one, which goes: a reply that carries
   pages is not held longer than its call. *)
let run_handler t ~id ~src ~dst req =
  let key = reply_key t ~src ~dst in
  match Hashtbl.find_opt t.replies key with
  | Some (last, resp) when last = id ->
    Stats.cincr t.hot.hs_rpc_replay;
    resp
  | kept ->
    if Option.is_some kept then Hashtbl.remove t.replies key;
    let resp = (handler_of t dst) ~src req in
    if not (t.idempotent req) then Hashtbl.replace t.replies key (id, resp);
    resp

let call_tagged t ~ts ~id ~src ~dst ~req_bytes ~resp_bytes req =
  if Site.equal src dst then begin
    Engine.charge t.engine t.latency.Latency.local_call;
    Ok ((handler_of t dst) ~src req)
  end
  else if not (message_delivered t ~src ~dst) then Error Request_lost
  else begin
    account t ~ts ~bytes:req_bytes;
    Engine.charge t.engine (Latency.msg_cost t.latency ~bytes:req_bytes);
    let resp = run_handler t ~id ~src ~dst req in
    if not (message_delivered t ~src:dst ~dst:src) then Error Reply_lost
    else begin
      let rbytes = resp_bytes resp in
      account t ~ts ~bytes:rbytes;
      Engine.charge t.engine (Latency.msg_cost t.latency ~bytes:rbytes);
      Ok resp
    end
  end

let call t ?tag ~src ~dst ~req_bytes ~resp_bytes req =
  let ts = match tag with Some tag -> tag_stats t tag | None -> untagged_ts t in
  call_tagged t ~ts ~id:(fresh_call_id t) ~src ~dst ~req_bytes ~resp_bytes req

(* Run a one-way message's handler, counting discarded error responses:
   {!send} has nobody to give them to. *)
let deliver_oneway t ~src ~dst req =
  let resp = (handler_of t dst) ~src req in
  if t.error_resp resp then Stats.cincr t.hot.hs_send_err

let send_tagged t ~ts ~src ~dst ~bytes req =
  if Site.equal src dst then
    Engine.schedule t.engine ~delay:t.latency.Latency.local_call (fun () ->
        deliver_oneway t ~src ~dst req)
  else begin
    account t ~ts ~bytes;
    let delay = Latency.msg_cost t.latency ~bytes in
    Engine.schedule t.engine ~delay (fun () ->
        if message_delivered t ~src ~dst then deliver_oneway t ~src ~dst req)
  end

let send t ?tag ~src ~dst ~bytes req =
  let ts = match tag with Some tag -> tag_stats t tag | None -> untagged_ts t in
  send_tagged t ~ts ~src ~dst ~bytes req

let messages_sent t = Stats.cget t.hot.hs_msg
