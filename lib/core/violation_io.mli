(** Violation persistence: save findings as self-contained text files
    (program assembly + both inputs) and reload them for later analysis.
    The original microarchitectural context is not stored; reloaded
    violations are revalidated under fresh contexts. *)

open Amulet_isa

type stored = {
  defense_name : string;
  contract_name : string;
  program : Program.flat;
  input_a : Input.t;
  input_b : Input.t;
  signature : string option;
  identity : (int64 * int64 * int64) option;
      (** (ctrace_hash, trace_a_hash, trace_b_hash) captured at detection
          time — the fingerprint identity a journal round-trip must
          preserve, since the validating context (and hence the exact
          traces) cannot be re-derived.  [None] only for legacy files. *)
}

exception Format_error of string

val of_violation : Violation.t -> stored
val save : stored -> string -> unit

val output : out_channel -> stored -> unit
(** Write the sectioned text block {!save} puts in a file ({!Journal}
    embeds the same blocks in campaign checkpoints). *)

val load : string -> stored
(** Raises {!Format_error} on malformed input. *)

val parse : string list -> stored
(** Parse the lines of one {!output} block.  Raises {!Format_error}. *)

val mkdir_p : string -> unit

val save_quarantine :
  dir:string ->
  seq:int ->
  fault:Fault.t ->
  defense_name:string ->
  contract_name:string ->
  Program.flat ->
  Input.t option ->
  string
(** Quarantine a misbehaving test case (program, offending input if known,
    classified fault) into [dir] for later triage; returns the path. *)

val rehydrate : ?sim_config:Amulet_uarch.Config.t -> stored -> Violation.t
(** Rebuild a full violation by re-executing both inputs (used when resuming
    a journaled campaign; traces and context are re-derived for analysis,
    while the identity hashes are restored from [identity] so resumed
    campaigns fingerprint identically to uninterrupted ones). *)
