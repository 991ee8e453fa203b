(** The relational fuzzing round: generate a program and a boosted input
    population, collect contract and microarchitectural traces, and flag
    validated contract violations (Definition 2.1). *)

open Amulet_isa
open Amulet_contracts

type t

val create :
  ?metrics:Amulet_obs.Obs.t -> ?engine:Engine.t * Stats.t -> Run_spec.t -> t
(** Build a fuzzer from a {!Run_spec.t} (defense, seed and all execution
    knobs live in the spec).  [metrics] (default noop) receives the
    [fuzzer.*] counters and the [fuzzer.time.generate] and
    [fuzzer.time.ctrace] timers, and is threaded through stats and engine
    down to the simulator's [uarch.*] hardware counters.  [engine] injects an
    existing (typically warmed) engine and its stats sink instead of
    building one — the sweep orchestrator uses this to reuse one pooled
    engine across every job of the same defense config; the spec's
    [chaos] is ignored for injected engines (chaos arms at engine
    creation). *)

val stats : t -> Stats.t
val contract : t -> Contract.t

exception Budget
(** Raised mid-round when the campaign-level budget check installed by
    {!set_budget_check} trips.  Unlike {!Fault.Deadline_exceeded}, this is
    {e not} contained by [isolate_rounds]: the partial round is abandoned
    and the caller rolls back to the last completed round boundary. *)

val set_budget_check : t -> (unit -> bool) -> unit
(** Install a whole-run budget predicate, polled at every per-round
    deadline checkpoint; when it returns [true], the round raises
    {!Budget}. *)

val quarantined : t -> int
(** Test cases written to the quarantine corpus so far. *)

val fault_counts : t -> (Fault.cls * int) list
(** Per-class counts of every fault this fuzzer discarded (each is also
    counted in [fuzzer.fault.<class>]). *)

val corpus : t -> Amulet_corpus.Corpus.t option
(** The live seed corpus ([Some] iff the spec's generation strategy is
    [Guided]). *)

val corpus_snapshot : t -> string option
(** Serialised corpus checkpoint ({!Amulet_corpus.Corpus.to_string});
    [None] for [Random] specs.  Campaigns embed this in journal
    checkpoints so resume continues with the same corpus. *)

val restore_corpus : t -> string -> unit
(** Replace the live corpus with a deserialised checkpoint (no-op for
    [Random] specs).  Raises [Failure] on malformed input. *)

val reseed : t -> seed:int -> unit
(** Replace the PRNG stream; campaigns reseed per round so every round is
    reproducible in isolation (the property journal resume relies on). *)

type round_result =
  | No_violation of { test_cases : int }
  | Found of Violation.t
  | Discarded of Fault.t
  | Screened
      (** the static pre-filter proved the generated program leak-free and
          skipped simulation ([static_filter = Screen] only) *)

val test_program : t -> Program.flat -> round_result
(** Fuzz one (typically generated) program: build the input population,
    execute, compare within contract classes, validate candidates under a
    shared context. *)

val round : t -> round_result
(** Run one fuzzing round per the spec's generation strategy ([Random]:
    fresh draw; [Guided]: corpus-scheduled generate-or-mutate with
    coverage-feedback admission), applying the spec's [static_filter]
    first. *)
