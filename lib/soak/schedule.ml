(* Random fault schedules for the deterministic soak harness.

   A schedule is a list of segments: run a batch of workload operations,
   then (optionally) inject one fault. The whole schedule is a pure
   function of (seed, ops) — fault payloads are raw integers drawn at
   generation time and interpreted by the driver against the cluster state
   of the moment, so replaying the same (seed, ops) replays the identical
   run, and masking a fault out (shrinking) leaves every other segment's
   payload untouched. *)

module Rng = Sim.Rng

type fault =
  | Crash of int          (* selector into the currently-alive site list *)
  | Restart of int        (* selector into the currently-down site list *)
  | Partition_split of int (* split-point selector over all sites *)
  | Heal                  (* restart everything dead, heal, merge *)
  | Loss_burst of float   (* message drop probability for the next batch *)
  | Lease_break of int * int (* (site selector, file selector): hot write *)
  | Mid_commit_kill of int * int
      (* open-for-modify + flush pages, then crash the serving SS before
         commit: the shadow session must die with it, not leak *)
  | Prop_stall of int * int
      (* commit at a site, then crash it before propagation pulls run:
         the remaining copies stay stale until heal reconciles *)

type segment = { seg_ops : int; seg_fault : fault option }

type t = {
  sched_seed : int;
  sched_ops : int;
  segments : segment list;
}

let fault_label = function
  | Crash _ -> "crash"
  | Restart _ -> "restart"
  | Partition_split _ -> "partition"
  | Heal -> "heal"
  | Loss_burst _ -> "loss"
  | Lease_break _ -> "lease_break"
  | Mid_commit_kill _ -> "mid_commit_kill"
  | Prop_stall _ -> "prop_stall"

(* Weighted fault choice. Heal gets real weight so long schedules keep
   cycling through whole partition/merge epochs instead of grinding to a
   fully-crashed halt. *)
let gen_fault rng =
  let sel () = Rng.int rng 1_000_000 in
  let v = Rng.int rng 100 in
  if v < 14 then Crash (sel ())
  else if v < 24 then Restart (sel ())
  else if v < 36 then Partition_split (sel ())
  else if v < 52 then Heal
  else if v < 66 then Loss_burst (0.05 +. (0.35 *. Rng.float rng 1.0))
  else if v < 76 then Lease_break (sel (), sel ())
  else if v < 89 then Mid_commit_kill (sel (), sel ())
  else Prop_stall (sel (), sel ())

let generate ~seed ~ops =
  let rng = Rng.create (Int64.of_int ((seed * 2) + 1)) in
  let rec go left acc =
    if left <= 0 then List.rev acc
    else begin
      let batch = min left (20 + Rng.int rng 61) in
      let fault = if Rng.int rng 100 < 70 then Some (gen_fault rng) else None in
      go (left - batch) ({ seg_ops = batch; seg_fault = fault } :: acc)
    end
  in
  { sched_seed = seed; sched_ops = ops; segments = go ops [] }

let fault_count t =
  List.length (List.filter (fun s -> s.seg_fault <> None) t.segments)

(* Drop the faults whose index (counting injected faults only, in order)
   is in [drop]; used by the shrinker and by `--drop` replays. *)
let mask t ~drop =
  let idx = ref (-1) in
  let segments =
    List.map
      (fun s ->
        match s.seg_fault with
        | None -> s
        | Some _ ->
          incr idx;
          if List.mem !idx drop then { s with seg_fault = None } else s)
      t.segments
  in
  { t with segments }
