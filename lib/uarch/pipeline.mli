(** The out-of-order core: a cycle-driven dataflow pipeline in the style of
    gem5's O3CPU, reduced to the mechanisms speculation leaks need.  Driven
    exclusively through {!Simulator}; this interface exposes only what that
    facade uses.

    The hot loop runs over a preallocated ring-buffer ROB and an id-indexed
    entry arena, consumes the shared {!Amulet_isa.Decoded} program cache,
    and is rewound with {!reset} between runs so steady state reuses every
    structure.  The committed table test/golden/hot_loop.tsv pins its
    per-input traces, cycle counts and run stats. *)

open Amulet_isa
open Amulet_emu

type t

type run_result = {
  cycles : int;
  committed_insts : int;
  squashes : int;
  squashed_insts : int;  (** entries thrown away across all squashes *)
  spec_issued : int;  (** loads/stores issued while speculative *)
  mispredicts : int;
  fault : string option;
}

val create :
  ?perf:Perf.t ->
  Config.t -> Memsys.t -> Branch_pred.t -> Mdp.t -> Event.log -> State.t ->
  Decoded.t -> t
(** [perf] (default {!Perf.noop}) is the resolved hardware-counter bundle;
    counting never affects simulated behaviour. *)

val reset : t -> arch:State.t -> Decoded.t -> unit
(** Rewind the pipeline for a fresh run of [dec] over [arch], reusing the
    ROB ring, entry arena and scratch buffers.  Equivalent to (but far
    cheaper than) building a new pipeline with {!create}. *)

val run : t -> run_result
(** Run to completion (Exit, fault, or cycle limit), then drain. *)

val branch_prediction_order : t -> (int * bool * int) list
(** (pc, predicted taken, predicted target), oldest first. *)

val execution_order : t -> int list
(** PCs in execution order, including wrong-path instructions. *)

val cycles : t -> int
