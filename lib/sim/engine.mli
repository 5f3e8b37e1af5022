(** Discrete-event simulation engine.

    One [Engine.t] drives a whole simulated cluster: it owns the simulated
    clock, the pending-event queue (used for background kernel processes such
    as update propagation), the deterministic RNG, global statistics, and the
    protocol trace.

    Foreground work (system calls, synchronous kernel-to-kernel RPC) runs as
    ordinary OCaml calls and accounts for elapsed simulated time with
    {!charge}. Background work is scheduled with {!schedule} and executed by
    {!run} / {!run_until_idle}. *)

type t

val create : ?seed:int64 -> unit -> t

val now : t -> float
(** Current simulated time, in milliseconds. *)

val charge : t -> float -> unit
(** Advance the clock by [dt] milliseconds of foreground work. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run a thunk [delay] ms from now, when the engine next runs. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit

val defer : t -> (unit -> unit) -> unit
(** Run a thunk when the engine next runs events, before it takes any
    from the queue: not an event itself, it may schedule one. Foreground
    work that may be undone before then (a write-behind run its commit
    carries) arms its timer this way, and costs no event when it is. *)

val run_until_idle : ?limit:int -> t -> int * [ `Idle | `Limit ]
(** Execute pending events in timestamp order until none remain (or [limit]
    events have run; default 100_000). Returns the number executed, paired
    with [`Idle] when the queue drained or [`Limit] when the event budget was
    exhausted first — a livelocked schedule (events that keep rescheduling
    themselves) is therefore detectable, not silent. The clock never moves
    backwards: events scheduled before [now] execute at [now]. *)

val run_for : t -> float -> int
(** Execute pending events with timestamps within the next [dt] ms, then
    advance the clock to [now + dt]. *)

val pending : t -> int

val rng : t -> Rng.t

val stats : t -> Stats.t

val trace : t -> Trace.t

val record : t -> tag:string -> string -> unit
(** Append to the trace at the current simulated time. *)
