(* Unit tests for the RPC transport layer: typed errors, retry/backoff
   policies, simulated-time accounting, and the per-tag histograms. *)

module Engine = Sim.Engine
module Stats = Sim.Stats
module Trace = Sim.Trace
module Topology = Net.Topology
module Latency = Net.Latency
module Netsim = Net.Netsim
module Rpc = Net.Rpc

let check = Alcotest.check

let make_net n =
  let e = Engine.create () in
  let topo = Topology.create ~n in
  let net = Netsim.create e topo Latency.default in
  (e, topo, net)

(* Echo handler that counts invocations: retries must be visible to it. *)
let counting_echo calls = fun ~src:_ req -> incr calls; "re:" ^ req

let call ?policy net req =
  Rpc.call net ?policy ~tag:"test" ~src:0 ~dst:1 ~req_bytes:10
    ~resp_bytes:String.length req

let retry3 = { Rpc.backoff = [ 5.0; 20.0 ]; max_attempts = 3 }

let test_ok_roundtrip () =
  let e, _, net = make_net 2 in
  let calls = ref 0 in
  Netsim.set_handler net 1 (counting_echo calls);
  (match call net "ping" with
  | Ok resp -> check Alcotest.string "echoed" "re:ping" resp
  | Error e -> Alcotest.failf "unexpected %a" Rpc.pp_error e);
  let stats = Engine.stats e in
  check Alcotest.int "one call" 1 (Stats.get stats "rpc.call");
  check Alcotest.int "no retries" 0 (Stats.get stats "rpc.retry");
  check Alcotest.int "handler ran once" 1 !calls;
  check Alcotest.int "latency sample" 1 (Stats.hist_count stats "rpc.latency.test")

let test_retry_recovers_forced_loss () =
  let e, _, net = make_net 2 in
  let calls = ref 0 in
  Netsim.set_handler net 1 (counting_echo calls);
  Netsim.fail_next_message net ~src:0 ~dst:1;
  (match call ~policy:retry3 net "x" with
  | Ok resp -> check Alcotest.string "recovered" "re:x" resp
  | Error e -> Alcotest.failf "unexpected %a" Rpc.pp_error e);
  let stats = Engine.stats e in
  check Alcotest.int "one retry" 1 (Stats.get stats "rpc.retry");
  check Alcotest.int "recovered" 1 (Stats.get stats "rpc.recovered");
  check Alcotest.int "no failure" 0 (Stats.get stats "rpc.fail");
  check Alcotest.int "handler ran once" 1 !calls

let test_backoff_charges_simulated_time () =
  let e, topo, net = make_net 2 in
  Netsim.set_handler net 1 (counting_echo (ref 0));
  Topology.set_link topo 0 1 false;
  let t0 = Engine.now e in
  (match call ~policy:retry3 net "x" with
  | Ok _ -> Alcotest.fail "link is down"
  | Error (Rpc.Unreachable { attempts; _ }) ->
    check Alcotest.int "all attempts used" 3 attempts
  | Error e -> Alcotest.failf "wrong error %a" Rpc.pp_error e);
  (* A lost request charges no wire time, so the clock moved by exactly the
     two backoff delays. *)
  check (Alcotest.float 1e-9) "clock advanced by backoff only" 25.0 (Engine.now e -. t0);
  check Alcotest.int "failure counted" 1 (Stats.get (Engine.stats e) "rpc.fail");
  check Alcotest.int "unreachable counted" 1
    (Stats.get (Engine.stats e) "rpc.fail.unreachable")

(* ---- exactly-once: a handler never runs twice for one call ---- *)

(* Handler whose reply names the run that produced it, so a second run of
   the same call would show in the reply as well as in the count. *)
let numbered_echo calls = fun ~src:_ req -> incr calls; Printf.sprintf "%s#%d" req !calls

let replays e = Stats.get (Engine.stats e) "rpc.replay"

let test_lost_reply_answered_from_cache () =
  let e, _, net = make_net 2 in
  let calls = ref 0 in
  Netsim.set_handler net 1 (numbered_echo calls);
  Netsim.fail_next_message net ~src:1 ~dst:0;
  (match call net "x" with
  | Ok resp -> check Alcotest.string "the resend gets the first reply" "x#1" resp
  | Error e -> Alcotest.failf "unexpected %a" Rpc.pp_error e);
  check Alcotest.int "handler ran once" 1 !calls;
  check Alcotest.int "one resend" 1 (Stats.get (Engine.stats e) "rpc.retry");
  check Alcotest.int "answered from the kept reply" 1 (replays e)

let test_lost_request_runs_on_resend () =
  let e, _, net = make_net 2 in
  let calls = ref 0 in
  Netsim.set_handler net 1 (numbered_echo calls);
  (* The first request is lost, the second runs and loses its reply, the
     third is answered from the reply the second left. *)
  Netsim.fail_next_message net ~src:0 ~dst:1;
  Netsim.fail_next_message net ~src:1 ~dst:0;
  (match call net "x" with
  | Ok resp -> check Alcotest.string "the run's reply" "x#1" resp
  | Error e -> Alcotest.failf "unexpected %a" Rpc.pp_error e);
  check Alcotest.int "handler ran once" 1 !calls;
  check Alcotest.int "two resends" 2 (Stats.get (Engine.stats e) "rpc.retry");
  check Alcotest.int "the last resend replayed" 1 (replays e)

let test_receiver_crash_drops_replies () =
  let e, _, net = make_net 2 in
  let calls = ref 0 in
  Netsim.set_handler net 1 (numbered_echo calls);
  let ts = Netsim.tag_stats net "test" in
  let attempt id =
    Netsim.call_tagged net ~ts ~id ~src:0 ~dst:1 ~req_bytes:10 ~resp_bytes:String.length "x"
  in
  let id = Netsim.fresh_call_id net in
  Netsim.fail_next_message net ~src:1 ~dst:0;
  (match attempt id with
  | Error Netsim.Reply_lost -> ()
  | _ -> Alcotest.fail "the reply should be lost");
  check Alcotest.(result string reject) "a resend is answered from the kept reply" (Ok "x#1")
    (Result.map_error ignore (attempt id));
  Netsim.forget_replies net 1;
  check Alcotest.(result string reject) "after the crash the handler runs" (Ok "x#2")
    (Result.map_error ignore (attempt id));
  (match call net "x" with
  | Ok resp -> check Alcotest.string "a new call runs its handler" "x#3" resp
  | Error e -> Alcotest.failf "unexpected %a" Rpc.pp_error e);
  check Alcotest.int "one replay in all" 1 (replays e)

let test_restarted_sender_gets_fresh_reply () =
  let e, topo, net = make_net 2 in
  let calls = ref 0 in
  Netsim.set_handler net 1 (numbered_echo calls);
  (* Every reply of the sender's last call before its crash is lost: the
     receiver keeps that call's reply. *)
  for _ = 1 to 3 do
    Netsim.fail_next_message net ~src:1 ~dst:0
  done;
  (match call net "x" with
  | Error (Rpc.Lost_reply _) -> ()
  | _ -> Alcotest.fail "every reply should be lost");
  Topology.set_site_up topo 0 false;
  Topology.set_site_up topo 0 true;
  (match call net "x" with
  | Ok resp -> check Alcotest.string "the restarted sender's call ran" "x#2" resp
  | Error e -> Alcotest.failf "unexpected %a" Rpc.pp_error e);
  check Alcotest.int "handler ran once per call" 2 !calls;
  check Alcotest.int "answered from the kept reply only within the first call" 2 (replays e)

let test_idempotent_reply_not_kept () =
  let e, _, net = make_net 2 in
  let calls = ref 0 in
  Netsim.set_handler net 1 (numbered_echo calls);
  Netsim.set_idempotent_classifier net (String.equal "read");
  Netsim.fail_next_message net ~src:1 ~dst:0;
  (match call net "read" with
  | Ok resp -> check Alcotest.string "the resend ran" "read#2" resp
  | Error e -> Alcotest.failf "unexpected %a" Rpc.pp_error e);
  check Alcotest.int "no replay" 0 (replays e)

let test_lost_reply_distinguished () =
  let _, _, net = make_net 2 in
  let calls = ref 0 in
  Netsim.set_handler net 1 (counting_echo calls);
  (* Lose the reply direction: the handler runs, the caller must learn that
     remote state may have changed. *)
  Netsim.fail_next_message net ~src:1 ~dst:0;
  (match call ~policy:Rpc.probe net "x" with
  | Ok _ -> Alcotest.fail "lost reply should fail"
  | Error (Rpc.Lost_reply { attempts; _ }) -> check Alcotest.int "one attempt" 1 attempts
  | Error e -> Alcotest.failf "wrong error %a" Rpc.pp_error e);
  check Alcotest.int "handler ran" 1 !calls

let test_call_traced () =
  let e, _, net = make_net 2 in
  Netsim.set_handler net 1 (counting_echo (ref 0));
  (match call net "x" with Ok _ -> () | Error _ -> Alcotest.fail "reachable");
  match Trace.find_all (Engine.trace e) ~tag:"rpc" with
  | [ ev ] ->
    check Alcotest.bool "span names the tag and sites" true
      (String.length ev.Trace.detail > 0)
  | l -> Alcotest.failf "expected one rpc span, got %d" (List.length l)

(* ---- Stats histograms ---- *)

let test_histogram_percentiles_monotone () =
  let s = Stats.create () in
  for v = 100 downto 1 do
    Stats.hist_observe s "h" (float_of_int v)
  done;
  check Alcotest.int "count" 100 (Stats.hist_count s "h");
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.hist_percentile s "h" 50.0);
  check (Alcotest.float 1e-9) "p95" 95.0 (Stats.hist_percentile s "h" 95.0);
  check (Alcotest.float 1e-9) "p99" 99.0 (Stats.hist_percentile s "h" 99.0);
  check (Alcotest.float 1e-9) "p0 is min" 1.0 (Stats.hist_percentile s "h" 0.0);
  check (Alcotest.float 1e-9) "p100 is max" 100.0 (Stats.hist_percentile s "h" 100.0);
  let summary = Stats.hist_summary s "h" in
  check (Alcotest.float 1e-9) "mean" 50.5 summary.Stats.mean;
  check (Alcotest.float 1e-9) "max" 100.0 summary.Stats.hmax

let test_histogram_empty () =
  let s = Stats.create () in
  check Alcotest.int "count" 0 (Stats.hist_count s "nothing");
  check (Alcotest.float 1e-9) "percentile of empty" 0.0
    (Stats.hist_percentile s "nothing" 99.0)

(* ---- Trace ring buffer ---- *)

let test_trace_count_survives_truncation () =
  let t = Trace.create ~capacity:10 () in
  for i = 1 to 100 do
    Trace.record t ~time:(float_of_int i) ~tag:"tick" (string_of_int i)
  done;
  check Alcotest.int "total count" 100 (Trace.count t);
  let retained = Trace.events t in
  check Alcotest.bool "retained window bounded" true (List.length retained <= 10);
  (* The retained window is the newest events, oldest first. *)
  match List.rev retained with
  | newest :: _ -> check Alcotest.string "newest kept" "100" newest.Trace.detail
  | [] -> Alcotest.fail "no events retained"

let () =
  Alcotest.run "rpc"
    [
      ( "transport",
        [
          Alcotest.test_case "ok roundtrip" `Quick test_ok_roundtrip;
          Alcotest.test_case "retry recovers forced loss" `Quick
            test_retry_recovers_forced_loss;
          Alcotest.test_case "backoff charges simulated time" `Quick
            test_backoff_charges_simulated_time;
          Alcotest.test_case "lost reply answered from the kept reply" `Quick
            test_lost_reply_answered_from_cache;
          Alcotest.test_case "lost request runs once on the resend" `Quick
            test_lost_request_runs_on_resend;
          Alcotest.test_case "receiver crash drops kept replies" `Quick
            test_receiver_crash_drops_replies;
          Alcotest.test_case "restarted sender gets a fresh reply" `Quick
            test_restarted_sender_gets_fresh_reply;
          Alcotest.test_case "idempotent reply not kept" `Quick test_idempotent_reply_not_kept;
          Alcotest.test_case "lost reply distinguished" `Quick
            test_lost_reply_distinguished;
          Alcotest.test_case "call traced" `Quick test_call_traced;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "percentiles monotone" `Quick
            test_histogram_percentiles_monotone;
          Alcotest.test_case "empty histogram" `Quick test_histogram_empty;
        ] );
      ( "trace",
        [
          Alcotest.test_case "count survives truncation" `Quick
            test_trace_count_survives_truncation;
        ] );
    ]
