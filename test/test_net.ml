(* Unit tests for the network substrate: topology, message layer, fault
   injection. *)

module Engine = Sim.Engine
module Topology = Net.Topology
module Latency = Net.Latency
module Site = Net.Site

let check = Alcotest.check

(* ---- topology ---- *)

let test_topo_initially_connected () =
  let t = Topology.create ~n:4 in
  check Alcotest.bool "fully connected" true
    (Topology.fully_connected t (Topology.sites t))

let test_topo_partition () =
  let t = Topology.create ~n:5 in
  Topology.partition t [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  check Alcotest.bool "0-1 linked" true (Topology.reachable t 0 1);
  check Alcotest.bool "0-2 cut" false (Topology.reachable t 0 2);
  check Alcotest.(list int) "component of 0" [ 0; 1 ] (Topology.connected_component t 0);
  check Alcotest.(list int) "component of 3" [ 2; 3; 4 ]
    (Topology.connected_component t 3)

let test_topo_site_down () =
  let t = Topology.create ~n:3 in
  Topology.set_site_up t 1 false;
  check Alcotest.bool "down site unreachable" false (Topology.reachable t 0 1);
  check Alcotest.bool "others fine" true (Topology.reachable t 0 2);
  check Alcotest.(list int) "component excludes down site" [ 0; 2 ]
    (Topology.connected_component t 0);
  check Alcotest.(list int) "down site has empty component" []
    (Topology.connected_component t 1)

let test_topo_heal () =
  let t = Topology.create ~n:4 in
  Topology.partition t [ [ 0 ]; [ 1; 2; 3 ] ];
  Topology.set_site_up t 2 false;
  Topology.heal t;
  check Alcotest.bool "healed" true (Topology.fully_connected t (Topology.sites t))

let test_topo_nontransitive () =
  (* A broken single link: 0-2 cut but both reach 1. *)
  let t = Topology.create ~n:3 in
  Topology.set_link t 0 2 false;
  check Alcotest.bool "0-1" true (Topology.reachable t 0 1);
  check Alcotest.bool "1-2" true (Topology.reachable t 1 2);
  check Alcotest.bool "0-2 direct cut" false (Topology.reachable t 0 2);
  (* The transitive component still contains all three. *)
  check Alcotest.(list int) "component" [ 0; 1; 2 ] (Topology.connected_component t 0)

let test_topo_version_bumps () =
  let t = Topology.create ~n:2 in
  let v0 = Topology.version t in
  Topology.set_link t 0 1 false;
  check Alcotest.bool "version bumped" true (Topology.version t > v0)

(* ---- message layer ---- *)

(* A protocol of strings: every message is tagged "test" and sized by its
   length, a handler refuses by raising [Error], and a call makes one
   attempt. *)
module Strings = struct
  type _ req = Msg : string -> string req

  type errno = unit

  exception Error of errno * string

  let pp_errno ppf () = Format.pp_print_string ppf "refused"

  let tag_names = [| "test" |]

  let tag _ = 0

  let req_bytes : type a. a req -> int = fun (Msg s) -> String.length s

  let resp_bytes : type a. a req -> a -> int = fun (Msg _) reply -> String.length reply

  let refused_bytes = 3

  let idempotent _ = false

  let policy _ = Net.Netsim.probe
end

module Netsim = struct
  include Net.Netsim
  include Net.Netsim.Make (Strings)
end

let make_net n =
  let e = Engine.create () in
  let topo = Topology.create ~n in
  let net = Netsim.create e topo Latency.default in
  (e, topo, net)

(* A site's handler from a function of the message's string. *)
let handler (f : src:Site.t -> string -> string) =
  { Netsim.handle = (fun (type a) ~src (Strings.Msg s : a Strings.req) : a -> f ~src s) }

let echo_handler _net site = handler (fun ~src:_ req -> Printf.sprintf "%d:%s" site req)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected failure %a" what Netsim.pp_error e

let test_call_roundtrip () =
  let e, _, net = make_net 2 in
  Netsim.set_handler net 0 (echo_handler net 0);
  Netsim.set_handler net 1 (echo_handler net 1);
  let resp = ok "roundtrip" (Netsim.call net ~src:0 ~dst:1 (Strings.Msg "ping")) in
  check Alcotest.string "echoed" "1:ping" resp;
  check Alcotest.int "two messages" 2 (Netsim.messages_sent net);
  check Alcotest.bool "time advanced" true (Engine.now e > 0.0)

let test_unreachable_fails () =
  let _, topo, net = make_net 2 in
  Netsim.set_handler net 1 (echo_handler net 1);
  Topology.set_link topo 0 1 false;
  match Netsim.call net ~src:0 ~dst:1 (Strings.Msg "x") with
  | Ok _ -> Alcotest.fail "should be unreachable"
  | Error (Netsim.Unreachable _) -> ()
  | Error (Netsim.Lost_reply _ | Netsim.Refused ()) ->
    Alcotest.fail "handler never ran: must be unreachable"

let test_forced_failure () =
  let _, _, net = make_net 2 in
  Netsim.set_handler net 1 (echo_handler net 1);
  Netsim.fail_next_message net ~src:0 ~dst:1;
  (match Netsim.call net ~src:0 ~dst:1 (Strings.Msg "a") with
  | Ok _ -> Alcotest.fail "forced loss should fail"
  | Error (Netsim.Unreachable _) -> ()
  | Error (Netsim.Lost_reply _ | Netsim.Refused ()) ->
    Alcotest.fail "forced loss is on the request direction");
  (* Only the next message is lost. *)
  let resp = ok "after forced loss" (Netsim.call net ~src:0 ~dst:1 (Strings.Msg "b")) in
  check Alcotest.string "subsequent message delivered" "1:b" resp

let test_lost_reply_distinguished () =
  let _, _, net = make_net 2 in
  let handled = ref 0 in
  Netsim.set_handler net 1
    (handler (fun ~src:_ req ->
         incr handled;
         req));
  (* Force the reply direction: the handler runs, the response is lost. *)
  Netsim.fail_next_message net ~src:1 ~dst:0;
  (match Netsim.call net ~src:0 ~dst:1 (Strings.Msg "x") with
  | Ok _ -> Alcotest.fail "lost reply should fail"
  | Error (Netsim.Lost_reply _) -> ()
  | Error (Netsim.Unreachable _ | Netsim.Refused ()) -> Alcotest.fail "request was delivered");
  check Alcotest.int "handler ran exactly once" 1 !handled

let test_send_error_counted () =
  let e, _, net = make_net 2 in
  Netsim.set_handler net 1
    (handler (fun ~src:_ req ->
         if String.equal req "ERR" then raise (Strings.Error ((), req)) else req));
  Netsim.send net ~src:0 ~dst:1 (Strings.Msg "ERR");
  Netsim.send net ~src:0 ~dst:1 (Strings.Msg "fine");
  ignore (Engine.run_until_idle e);
  check Alcotest.int "one discarded refusal" 1
    (Sim.Stats.get (Engine.stats e) "net.send.err")

let test_send_async () =
  let e, _, net = make_net 2 in
  let got = ref [] in
  Netsim.set_handler net 1
    (handler (fun ~src req ->
         got := (src, req) :: !got;
         ""));
  Netsim.send net ~src:0 ~dst:1 (Strings.Msg "hello");
  check Alcotest.int "not yet delivered" 0 (List.length !got);
  ignore (Engine.run_until_idle e);
  check Alcotest.(list (pair int string)) "delivered" [ (0, "hello") ] !got

let test_send_dropped_when_cut () =
  let e, topo, net = make_net 2 in
  let got = ref 0 in
  Netsim.set_handler net 1
    (handler (fun ~src:_ _ ->
         incr got;
         ""));
  Netsim.send net ~src:0 ~dst:1 (Strings.Msg "x");
  (* Cut the link before delivery: the datagram vanishes silently. *)
  Topology.set_link topo 0 1 false;
  ignore (Engine.run_until_idle e);
  check Alcotest.int "dropped" 0 !got

let test_drop_probability () =
  let e, _, net = make_net 2 in
  ignore e;
  Netsim.set_handler net 1 (echo_handler net 1);
  Netsim.set_drop_probability net 1.0;
  match Netsim.call net ~src:0 ~dst:1 (Strings.Msg "x") with
  | Ok _ -> Alcotest.fail "drop probability 1 should lose everything"
  | Error _ -> ()

let test_latency_model () =
  let lat = Latency.default in
  let small = Latency.msg_cost lat ~bytes:10 in
  let big = Latency.msg_cost lat ~bytes:2000 in
  check Alcotest.bool "bigger message costs more" true (big > small);
  check Alcotest.bool "base cost positive" true (small > 0.0)

let () =
  Alcotest.run "net"
    [
      ( "topology",
        [
          Alcotest.test_case "initially connected" `Quick test_topo_initially_connected;
          Alcotest.test_case "partition" `Quick test_topo_partition;
          Alcotest.test_case "site down" `Quick test_topo_site_down;
          Alcotest.test_case "heal" `Quick test_topo_heal;
          Alcotest.test_case "non-transitive break" `Quick test_topo_nontransitive;
          Alcotest.test_case "version" `Quick test_topo_version_bumps;
        ] );
      ( "messages",
        [
          Alcotest.test_case "call roundtrip" `Quick test_call_roundtrip;
          Alcotest.test_case "unreachable" `Quick test_unreachable_fails;
          Alcotest.test_case "lost reply distinguished" `Quick test_lost_reply_distinguished;
          Alcotest.test_case "send error counted" `Quick test_send_error_counted;
          Alcotest.test_case "forced failure" `Quick test_forced_failure;
          Alcotest.test_case "async send" `Quick test_send_async;
          Alcotest.test_case "send dropped" `Quick test_send_dropped_when_cut;
          Alcotest.test_case "drop probability" `Quick test_drop_probability;
          Alcotest.test_case "latency model" `Quick test_latency_model;
        ] );
    ]
