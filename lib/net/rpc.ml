module Engine = Sim.Engine
module Stats = Sim.Stats
module Trace = Sim.Trace

type rpc_error =
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

type policy = {
  max_attempts : int;
  backoff : float list;
}

let probe = { max_attempts = 1; backoff = [] }

let default_policy = { max_attempts = 3; backoff = [ 0.5; 2.0; 8.0 ] }

(* Delay before retry number [n+1], after [n] failed attempts: last backoff
   entry repeats if the schedule is shorter than the attempt budget. *)
let backoff_delay policy n =
  match policy.backoff with
  | [] -> 0.0
  | l -> List.nth l (min (n - 1) (List.length l - 1))

let remote_call net ~policy ~tag ~src ~dst ~req_bytes ~resp_bytes req =
  let engine = Netsim.engine net in
  let stats = Engine.stats engine in
  let trace = Engine.trace engine in
  (* One hash interns every per-tag handle; the fixed counters were
     resolved when the network was built. Nothing below hashes a name. *)
  let ts = Netsim.tag_stats net tag in
  let hot = Netsim.hot_stats net in
  Stats.cincr hot.Netsim.hs_rpc_call;
  let start = Engine.now engine in
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
    let now = Engine.now engine in
    (match span with
    | Some span -> Trace.span_end trace ~time:now span outcome
    | None -> ());
    Stats.hobserve ts.Netsim.ts_latency (now -. start);
    result
  in
  let fail kind err =
    Stats.cincr hot.Netsim.hs_rpc_fail;
    Stats.incr stats ("rpc.fail." ^ kind);
    finish kind (Error err)
  in
  (* Every attempt carries the same id, so the receiver runs the handler
     at most once; [ran] records that some attempt reached it. *)
  let id = Netsim.fresh_call_id net in
  let rec attempt n ~ran =
    match Netsim.call_tagged net ~ts ~id ~src ~dst ~req_bytes ~resp_bytes req with
    | Ok resp ->
      if n > 1 then Stats.cincr hot.Netsim.hs_rpc_recovered;
      finish "ok" (Ok resp)
    | Error failure ->
      let ran = ran || failure = Netsim.Reply_lost in
      if n >= policy.max_attempts then
        if ran then fail "lost_reply" (Lost_reply { src; dst; attempts = n })
        else fail "unreachable" (Unreachable { src; dst; attempts = n })
      else begin
        Stats.cincr hot.Netsim.hs_rpc_retry;
        Stats.cincr ts.Netsim.ts_retry;
        Engine.charge engine (backoff_delay policy n);
        attempt (n + 1) ~ran
      end
  in
  attempt 1 ~ran:false

(* A call between roles on one site is a procedure call (section 2.3.2):
   the handler runs in process at the cost of [local_call]. No message,
   retry, kept reply, latency sample or span: none of them can say
   anything about a call that cannot be lost. *)
let call net ?(policy = default_policy) ?(tag = "untagged") ~src ~dst ~req_bytes ~resp_bytes req =
  if Site.equal src dst then begin
    Engine.charge (Netsim.engine net) (Netsim.latency net).Latency.local_call;
    Ok (Netsim.handler net dst ~src req)
  end
  else remote_call net ~policy ~tag ~src ~dst ~req_bytes ~resp_bytes req

let send net ?tag ~src ~dst ~bytes req =
  Stats.cincr (Netsim.hot_stats net).Netsim.hs_rpc_send;
  match tag with
  | Some tag -> Netsim.send_tagged net ~ts:(Netsim.tag_stats net tag) ~src ~dst ~bytes req
  | None -> Netsim.send net ~src ~dst ~bytes req
