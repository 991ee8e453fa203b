(** Violation minimization: delta-debug a violating program by replacing
    instructions with [NOP] while the contract-equal / μarch-different
    property of its input pair persists. *)

open Amulet_isa
open Amulet_contracts
open Amulet_defenses

type result = {
  minimized : Program.flat;
  removed : int;  (** instructions replaced by NOP *)
  kept : int;  (** non-NOP instructions remaining (incl. Exit) *)
}

val still_violates :
  defense:Defense.t ->
  contract:Contract.t ->
  sim_config:Amulet_uarch.Config.t option ->
  Program.flat ->
  Input.t ->
  Input.t ->
  bool
(** Does the pair still form a validated violation on this program: equal
    contract traces, and a [Fresh] {!Engine.replay} (200-instruction boot)
    that {!Engine.validate} confirms from A's or B's context? *)

val minimize : ?sim_config:Amulet_uarch.Config.t -> Violation_io.stored -> result
(** Shrink a stored violation's program under its resolved defense and
    contract ({!Violation_io.resolve_defense}). *)
