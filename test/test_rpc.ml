(* Unit tests for the RPC transport: typed errors, retry/backoff
   policies, exactly-once resends, simulated-time accounting, the per-tag
   histograms, and the protocol the world installs. *)

module Engine = Sim.Engine
module Stats = Sim.Stats
module Trace = Sim.Trace
module Topology = Net.Topology
module Latency = Net.Latency
module World = Locus.World
module Kernel = Locus_core.Kernel
module Dispatch = Locus.Dispatch
module K = Locus_core.Ktypes

let check = Alcotest.check

(* A protocol of strings, every message tagged "test": a request costs 10
   bytes and a reply its length, only [idempotent]'s requests are
   idempotent, and every call runs under [policy] ({!make_net} sets both). *)
module Strings = struct
  type _ req = Msg : string -> string req

  type errno = unit

  exception Error of errno * string

  let pp_errno ppf () = Format.pp_print_string ppf "refused"

  let tag_names = [| "test" |]

  let tag _ = 0

  let req_bytes _ = 10

  let resp_bytes : type a. a req -> a -> int = fun (Msg _) reply -> String.length reply

  let refused_bytes = 4

  let idempotent_of = ref (fun _ -> false)

  let idempotent : type a. a req -> bool = fun (Msg s) -> !idempotent_of s

  let policy_of = ref Net.Netsim.default_policy

  let policy _ = !policy_of
end

module Netsim = struct
  include Net.Netsim
  include Net.Netsim.Make (Strings)
end

let make_net ?(policy = Netsim.default_policy) ?(idempotent = fun _ -> false) n =
  Strings.policy_of := policy;
  Strings.idempotent_of := idempotent;
  let e = Engine.create () in
  let topo = Topology.create ~n in
  let net = Netsim.create e topo Latency.default in
  (e, topo, net)

(* A site's handler from a function of the message's string. *)
let handler (f : src:Net.Site.t -> string -> string) =
  { Netsim.handle = (fun (type a) ~src (Strings.Msg s : a Strings.req) : a -> f ~src s) }

(* Echo handler that counts invocations: retries must be visible to it. *)
let counting_echo calls = handler (fun ~src:_ req -> incr calls; "re:" ^ req)

let call net req = Netsim.call net ~src:0 ~dst:1 (Strings.Msg req)

let retry3 = { Netsim.backoff = [ 5.0; 20.0 ]; max_attempts = 3 }

let test_ok_roundtrip () =
  let e, _, net = make_net 2 in
  let calls = ref 0 in
  Netsim.set_handler net 1 (counting_echo calls);
  (match call net "ping" with
  | Ok resp -> check Alcotest.string "echoed" "re:ping" resp
  | Error e -> Alcotest.failf "unexpected %a" Netsim.pp_error e);
  let stats = Engine.stats e in
  check Alcotest.int "one call" 1 (Stats.get stats "rpc.call");
  check Alcotest.int "no retries" 0 (Stats.get stats "rpc.retry");
  check Alcotest.int "handler ran once" 1 !calls;
  check Alcotest.int "latency sample" 1 (Stats.hist_count stats "rpc.latency.test")

let test_retry_recovers_forced_loss () =
  let e, _, net = make_net ~policy:retry3 2 in
  let calls = ref 0 in
  Netsim.set_handler net 1 (counting_echo calls);
  Netsim.fail_next_message net ~src:0 ~dst:1;
  (match call net "x" with
  | Ok resp -> check Alcotest.string "recovered" "re:x" resp
  | Error e -> Alcotest.failf "unexpected %a" Netsim.pp_error e);
  let stats = Engine.stats e in
  check Alcotest.int "one retry" 1 (Stats.get stats "rpc.retry");
  check Alcotest.int "recovered" 1 (Stats.get stats "rpc.recovered");
  check Alcotest.int "no failure" 0 (Stats.get stats "rpc.fail");
  check Alcotest.int "handler ran once" 1 !calls

let test_backoff_charges_simulated_time () =
  let e, topo, net = make_net ~policy:retry3 2 in
  Netsim.set_handler net 1 (counting_echo (ref 0));
  Topology.set_link topo 0 1 false;
  let t0 = Engine.now e in
  (match call net "x" with
  | Ok _ -> Alcotest.fail "link is down"
  | Error (Netsim.Unreachable { attempts; _ }) ->
    check Alcotest.int "all attempts used" 3 attempts
  | Error e -> Alcotest.failf "wrong error %a" Netsim.pp_error e);
  (* A lost request charges no wire time, so the clock moved by exactly the
     two backoff delays. *)
  check (Alcotest.float 1e-9) "clock advanced by backoff only" 25.0 (Engine.now e -. t0);
  check Alcotest.int "failure counted" 1 (Stats.get (Engine.stats e) "rpc.fail");
  check Alcotest.int "unreachable counted" 1
    (Stats.get (Engine.stats e) "rpc.fail.unreachable")

(* ---- exactly-once: a handler never runs twice for one call ---- *)

(* Handler whose reply names the run that produced it, so a second run of
   the same call would show in the reply as well as in the count. *)
let numbered_echo calls = handler (fun ~src:_ req -> incr calls; Printf.sprintf "%s#%d" req !calls)

let replays e = Stats.get (Engine.stats e) "rpc.replay"

let test_lost_reply_answered_from_cache () =
  let e, _, net = make_net 2 in
  let calls = ref 0 in
  Netsim.set_handler net 1 (numbered_echo calls);
  Netsim.fail_next_message net ~src:1 ~dst:0;
  (match call net "x" with
  | Ok resp -> check Alcotest.string "the resend gets the first reply" "x#1" resp
  | Error e -> Alcotest.failf "unexpected %a" Netsim.pp_error e);
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
  | Error e -> Alcotest.failf "unexpected %a" Netsim.pp_error e);
  check Alcotest.int "handler ran once" 1 !calls;
  check Alcotest.int "two resends" 2 (Stats.get (Engine.stats e) "rpc.retry");
  check Alcotest.int "the last resend replayed" 1 (replays e)

(* No reply outlives its call: the reply a lost attempt left is held by
   the calling frame alone, so once the call returns it is garbage. A
   receiver's crash forgets the calls it ran, and a later call runs its
   handler. *)
let test_receiver_crash_drops_replies () =
  let e, _, net = make_net ~policy:Netsim.probe 2 in
  let calls = ref 0 in
  let last = Weak.create 1 in
  Netsim.set_handler net 1
    (handler (fun ~src:_ req ->
         incr calls;
         let resp = Printf.sprintf "%s#%d" req !calls in
         Weak.set last 0 (Some resp);
         resp));
  Netsim.fail_next_message net ~src:1 ~dst:0;
  (match call net "x" with
  | Error (Netsim.Lost_reply _) -> ()
  | _ -> Alcotest.fail "the reply should be lost");
  Gc.full_major ();
  check Alcotest.bool "the lost reply is not held past its call" false (Weak.check last 0);
  Netsim.forget_replies net 1;
  Gc.full_major ();
  check Alcotest.bool "after the crash it is not" false (Weak.check last 0);
  (match call net "x" with
  | Ok resp -> check Alcotest.string "a new call runs its handler" "x#2" resp
  | Error e -> Alcotest.failf "unexpected %a" Netsim.pp_error e);
  check Alcotest.int "no replay" 0 (replays e)

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
  | Error (Netsim.Lost_reply _) -> ()
  | _ -> Alcotest.fail "every reply should be lost");
  Topology.set_site_up topo 0 false;
  Topology.set_site_up topo 0 true;
  (match call net "x" with
  | Ok resp -> check Alcotest.string "the restarted sender's call ran" "x#2" resp
  | Error e -> Alcotest.failf "unexpected %a" Netsim.pp_error e);
  check Alcotest.int "handler ran once per call" 2 !calls;
  check Alcotest.int "answered from the kept reply only within the first call" 2 (replays e)

let test_idempotent_reply_not_kept () =
  let e, _, net = make_net ~idempotent:(String.equal "read") 2 in
  let calls = ref 0 in
  Netsim.set_handler net 1 (numbered_echo calls);
  Netsim.fail_next_message net ~src:1 ~dst:0;
  (match call net "read" with
  | Ok resp -> check Alcotest.string "the resend ran" "read#2" resp
  | Error e -> Alcotest.failf "unexpected %a" Netsim.pp_error e);
  check Alcotest.int "no replay" 0 (replays e)

let test_lost_reply_distinguished () =
  let _, _, net = make_net ~policy:Netsim.probe 2 in
  let calls = ref 0 in
  Netsim.set_handler net 1 (counting_echo calls);
  (* Lose the reply direction: the handler runs, the caller must learn that
     remote state may have changed. *)
  Netsim.fail_next_message net ~src:1 ~dst:0;
  (match call net "x" with
  | Ok _ -> Alcotest.fail "lost reply should fail"
  | Error (Netsim.Lost_reply { attempts; _ }) -> check Alcotest.int "one attempt" 1 attempts
  | Error e -> Alcotest.failf "wrong error %a" Netsim.pp_error e);
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

(* ---- collocated calls: the one self-call rule ---- *)

(* A call whose source is its destination runs the handler in process,
   charging exactly one local call and sending nothing. *)
let test_local_call_free () =
  let e, _, net = make_net 2 in
  let calls = ref 0 in
  Netsim.set_handler net 0 (counting_echo calls);
  let t0 = Engine.now e in
  (match Netsim.call net ~src:0 ~dst:0 (Strings.Msg "x") with
  | Ok resp -> check Alcotest.string "local result" "re:x" resp
  | Error e -> Alcotest.failf "unexpected %a" Netsim.pp_error e);
  check Alcotest.int "handler ran once" 1 !calls;
  check Alcotest.int "no messages for local call" 0 (Netsim.messages_sent net);
  check (Alcotest.float 1e-9) "one local call charged" Latency.default.Latency.local_call
    (Engine.now e -. t0)

(* Nothing the transport keeps for a remote call describes a procedure
   call: no latency sample, span, counter or kept reply, and loss
   injection does not touch it. *)
let test_self_call_unaccounted () =
  let e, _, net = make_net 2 in
  let calls = ref 0 in
  Netsim.set_handler net 0 (numbered_echo calls);
  Trace.set_recording (Engine.trace e) true;
  Netsim.set_drop_probability net 1.0;
  let self () = Netsim.call net ~src:0 ~dst:0 (Strings.Msg "x") in
  check Alcotest.(result string reject) "first call" (Ok "x#1") (Result.map_error ignore (self ()));
  check Alcotest.(result string reject) "second call runs again" (Ok "x#2")
    (Result.map_error ignore (self ()));
  let stats = Engine.stats e in
  check Alcotest.int "no latency sample" 0 (Stats.hist_count stats "rpc.latency.test");
  check Alcotest.int "no call counted" 0 (Stats.get stats "rpc.call");
  check Alcotest.int "no retry" 0 (Stats.get stats "rpc.retry");
  check Alcotest.int "no replay" 0 (replays e);
  check Alcotest.int "no span" 0 (List.length (Trace.find_all (Engine.trace e) ~tag:"rpc"));
  check Alcotest.int "no message" 0 (Netsim.messages_sent net)

(* ---- the protocol the world installs ---- *)

(* [Proto] is the protocol [World.create]'s transport carries: reads are
   resent and run again, a reconfiguration poll makes one attempt and an
   open three, under the default backoff. (A lost reply to a commit is
   answered from the kept reply: test_core's "lost file replies".) *)
let test_world_protocol () =
  let w = World.create ~config:(World.default_config ~n_sites:4 ()) () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  let gf = Kernel.creat k0 p0 "/f" in
  Kernel.write_file k0 p0 "/f" "body";
  ignore (World.settle w);
  let net = World.net w and stats = World.stats w and k3 = World.kernel w 3 in
  let runs = ref 0 in
  let handle ~src req =
    incr runs;
    if !runs = 1 then K.Transport.fail_next_message net ~src:0 ~dst:src;
    Dispatch.handle k0 ~src req
  in
  K.Transport.set_handler net 0 { handle };
  let replays = Stats.get stats "rpc.replay" in
  let read =
    Proto.Read_pages
      { gf; first = 0; count = 1; guess = 0; committed = true; stat = false; vv = None }
  in
  (match K.rpc_result k3 0 read with
  | Ok { Proto.pages = [ _ ]; _ } -> ()
  | Ok _ -> Alcotest.fail "a read answers with its page"
  | Error e -> Alcotest.failf "unexpected %a" K.Transport.pp_error e);
  check Alcotest.int "a lost read reply runs the read again" 2 !runs;
  check Alcotest.int "no replay" replays (Stats.get stats "rpc.replay");
  Topology.set_site_up (World.topology w) 0 false;
  let attempts req =
    let t0 = World.now w in
    match K.rpc_result k3 0 req with
    | Error (Netsim.Unreachable { attempts; _ }) -> (attempts, World.now w -. t0)
    | _ -> Alcotest.fail "site 0 is down"
  in
  check
    Alcotest.(pair int (float 1e-9))
    "a poll makes one attempt" (1, 0.0) (attempts Proto.Part_poll);
  check
    Alcotest.(pair int (float 1e-9))
    "an open makes three, with 0.5 + 2 ms of backoff" (3, 2.5)
    (attempts
       (Proto.Open_req
          { gf; mode = Proto.Mode_read; us_vv = None; shared = false; want = 0; release = None }))

(* A refusal is a reply: the handler's [Error] travels back as the one
   error reply, priced at the header and the errno, and a resend of a
   state-changing call is answered from it rather than run again. *)
let test_refusal_is_a_reply () =
  let w = World.create ~config:(World.default_config ~n_sites:4 ()) () in
  let net = World.net w and stats = World.stats w in
  let k0 = World.kernel w 0 and k3 = World.kernel w 3 in
  let runs = ref 0 in
  let handle (type a) ~src (req : a Proto.req) : a =
    match req with
    | Proto.Signal_req { pid; _ } ->
      incr runs;
      if !runs = 1 then K.Transport.fail_next_message net ~src:0 ~dst:src;
      K.err Proto.Esrch "no process %d" pid
    | _ -> Dispatch.handle k0 ~src req
  in
  K.Transport.set_handler net 0 { handle };
  let req = Proto.Signal_req { pid = 99; signo = 9 } in
  let replays = Stats.get stats "rpc.replay" and bytes = Stats.get stats "net.bytes" in
  (match K.rpc_result k3 0 req with
  | Error (Net.Netsim.Refused Proto.Esrch) -> ()
  | Ok () -> Alcotest.fail "the signal was refused"
  | Error e -> Alcotest.failf "unexpected %a" K.Transport.pp_error e);
  check Alcotest.int "the handler ran once" 1 !runs;
  check Alcotest.int "the resend was answered from the kept refusal" (replays + 1)
    (Stats.get stats "rpc.replay");
  check Alcotest.int "a refusal costs the header and the errno" 28 Proto.refused_bytes;
  check Alcotest.int "two requests and one refusal on the wire"
    ((2 * Proto.req_bytes req) + Proto.refused_bytes)
    (Stats.get stats "net.bytes" - bytes)

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
          Alcotest.test_case "local call free" `Quick test_local_call_free;
          Alcotest.test_case "self-call keeps no accounting" `Quick test_self_call_unaccounted;
          Alcotest.test_case "the world's protocol" `Quick test_world_protocol;
          Alcotest.test_case "a refusal is a reply" `Quick test_refusal_is_a_reply;
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
