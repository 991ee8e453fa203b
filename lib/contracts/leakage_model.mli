(** The executable leakage model: runs a test case on the sequential
    emulator under a contract, producing its contract trace (exploring
    mispredicted branches with rollback per the execution clause) and,
    optionally, taint information for input boosting. *)

open Amulet_emu

type result = {
  ctrace : Observation.trace;
  ctrace_hash : int64;
  shape_hash : int64;  (** {!Observation.shape_hash} of [ctrace] *)
  taint : Taint.t option;
  arch_steps : int;
  spec_steps : int;  (** instructions explored on mispredicted paths *)
  fault : string option;
}

val collect :
  ?collect_taint:bool ->
  ?max_steps:int ->
  ?decoded:Amulet_isa.Decoded.t ->
  Contract.t ->
  Amulet_isa.Program.flat ->
  State.t ->
  result
(** Collect the contract trace starting from [state] (which the caller has
    initialized with the test input; it is mutated).  [decoded] — when it is
    a decode of the same program (compared with [==]; mismatches are ignored)
    — enables the straight-line fast path: branch-free runs execute as one
    fused {!Emulator.run_straight} call.  Hooks fire per instruction either
    way, so the trace is byte-identical with and without it. *)
