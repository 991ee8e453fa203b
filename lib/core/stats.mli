(** The engine's work counts and telemetry registry.  Wall-clock
    accounting (the paper's Table 2 breakdown) lives in the registry's
    [engine.time.*] and [fuzzer.time.*] timers. *)

type t

val create : ?metrics:Amulet_obs.Obs.t -> unit -> t
(** [metrics] (default noop) is the telemetry registry this stats instance
    carries; the engine threads it into the simulator and records its
    timers there. *)

val registry : t -> Amulet_obs.Obs.t

val count_test_case : t -> unit
(** One simulated test case (batch run or validation rerun). *)

val count_validation : t -> unit
(** One validation rerun from a recorded context. *)

val test_cases : t -> int
val validations : t -> int
