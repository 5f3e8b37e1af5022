(* The clock and the pop scratch cell are one-element float arrays: flat
   (unboxed) storage, so advancing the clock on every event never boxes a
   float. With the unboxed event heap this makes [step] allocation-free —
   the property the allocs/event micro-benchmark pins. *)
type t = {
  clock : float array; (* clock.(0) = current simulated time, ms *)
  scratch : float array; (* receives popped event times *)
  queue : (unit -> unit) Eheap.t;
  mutable deferred : (unit -> unit) list; (* newest first *)
  rng : Rng.t;
  stats : Stats.t;
  trace : Trace.t;
}

let create ?(seed = 0x10C05L) () =
  {
    clock = Array.make 1 0.0;
    scratch = Array.make 1 0.0;
    queue = Eheap.create ();
    deferred = [];
    rng = Rng.create seed;
    stats = Stats.create ();
    trace = Trace.create ();
  }

let now t = t.clock.(0)

let charge t dt =
  assert (dt >= 0.0);
  t.clock.(0) <- t.clock.(0) +. dt

let schedule_at t ~time thunk = Eheap.push t.queue ~time thunk

let schedule t ~delay thunk =
  assert (delay >= 0.0);
  schedule_at t ~time:(t.clock.(0) +. delay) thunk

let defer t thunk = t.deferred <- thunk :: t.deferred

(* Deferred thunks run, oldest first, before the engine next looks at its
   queue; they may schedule events. *)
let run_deferred t =
  match t.deferred with
  | [] -> ()
  | l ->
    t.deferred <- [];
    List.iter (fun thunk -> thunk ()) (List.rev l)

let step t =
  run_deferred t;
  if Eheap.is_empty t.queue then false
  else begin
    let thunk = Eheap.pop_into t.queue ~time:t.scratch in
    let time = t.scratch.(0) in
    if time > t.clock.(0) then t.clock.(0) <- time;
    thunk ();
    true
  end

let run_until_idle ?(limit = 100_000) t =
  let rec loop n =
    if n >= limit then (n, `Limit) else if step t then loop (n + 1) else (n, `Idle)
  in
  loop 0

let run_for t dt =
  let deadline = t.clock.(0) +. dt in
  let rec loop n =
    run_deferred t;
    if (not (Eheap.is_empty t.queue)) && Eheap.top_time t.queue <= deadline then
      if step t then loop (n + 1) else n
    else n
  in
  let n = loop 0 in
  if t.clock.(0) < deadline then t.clock.(0) <- deadline;
  n

let pending t = Eheap.size t.queue + List.length t.deferred

let rng t = t.rng

let stats t = t.stats

let trace t = t.trace

let record t ~tag detail = Trace.record t.trace ~time:t.clock.(0) ~tag detail
