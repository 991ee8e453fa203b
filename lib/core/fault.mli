(** Structured fault taxonomy for campaign supervision.

    Long campaigns (the paper's Tables 3-4 run millions of test cases) must
    survive misbehaving test cases: a pathological program that deadlocks the
    pipeline, an input that faults in the leakage model, or a crash anywhere
    in a round is classified, counted, quarantined and skipped — never fatal.
    This module is the shared vocabulary: the fault values the executor and
    fuzzer report, the per-class counters campaigns aggregate, and the
    probabilistic chaos injector the self-tests use to prove the supervisor
    actually survives. *)

type exn_info = {
  exn_name : string;  (** [Printexc.to_string] of the escaped exception *)
  backtrace : string;
}

val exn_info : exn -> exn_info
(** Capture the current exception (call inside the [with] handler so the
    recorded backtrace is the raising one). *)

type t =
  | Sim_divergence of string
      (** the out-of-order simulator disagreed with the reference emulator *)
  | Emu_fault of string
      (** architectural fault in the emulator / leakage model (escaped code
          region, bad memory access, …) *)
  | Decode_error of string
      (** malformed or unsupported instruction reached decode/execute *)
  | Fuel_exhausted of string
      (** simulated-time budget blown: cycle limit, step limit, pipeline
          deadlock (complements [Config.max_cycles]) *)
  | Deadline_exceeded of { elapsed_ms : float; deadline_ms : float }
      (** wall-clock budget for one fuzzing round blown *)
  | Empty_population
      (** no usable test cases could be built for the program *)
  | Injected of string  (** fault planted by the chaos injector *)
  | Instance_crash of exn_info
      (** an exception escaped a round or a whole campaign instance *)

val to_string : t -> string

val of_run_fault : string -> t
(** Classify the string-typed faults the simulator and leakage model report
    ("pipeline deadlock", "cycle limit exceeded", "control flow escaped the
    code region", …). *)

val of_exn : exn -> t
(** Classify an escaped exception ([Invalid_argument] from the decoder
    becomes {!Decode_error}; anything else {!Instance_crash}). *)

(** {2 Per-class counters} *)

type cls =
  | C_sim_divergence
  | C_emu_fault
  | C_decode_error
  | C_fuel_exhausted
  | C_deadline_exceeded
  | C_empty_population
  | C_injected
  | C_instance_crash

val class_of : t -> cls
val all_classes : cls list
val class_name : cls -> string
val class_of_name : string -> cls option

module Counters : sig
  type fault = t
  type t

  val create : unit -> t
  val record : t -> fault -> unit
  val record_class : t -> ?n:int -> cls -> unit
  val get : t -> cls -> int
  val total : t -> int
  val to_list : t -> (cls * int) list
  (** Only classes with a non-zero count, in [all_classes] order. *)

  val add_list : t -> (cls * int) list -> unit
  val merge : t -> t -> unit
  (** [merge dst src] adds [src]'s counts into [dst]. *)

  val pp : Format.formatter -> t -> unit
end

(** {2 Chaos injection}

    A deterministic, seeded fault injector threaded through the executor
    config.  Each test-case execution draws once; with the configured
    probabilities it raises {!Injected_crash}, reports an injected timeout,
    or reports an injected simulator fault.  Used by the robustness
    self-tests to prove campaigns survive all three. *)

exception Injected_crash of string

type injector = {
  p_crash : float;  (** probability of raising {!Injected_crash} *)
  p_timeout : float;  (** probability of a fake {!Deadline_exceeded} *)
  p_sim_fault : float;  (** probability of a fake simulator fault *)
  chaos_seed : int;
}

val injector :
  ?p_crash:float -> ?p_timeout:float -> ?p_sim_fault:float -> seed:int -> unit -> injector

type chaos
(** An armed injector: the injector plus its private RNG stream. *)

val arm : injector -> chaos
val sample : chaos -> [ `None | `Crash | `Timeout | `Sim_fault ]
