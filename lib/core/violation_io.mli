(** Violation persistence and the one text layout every violation artifact
    shares.

    A file is a magic line naming its {!kind} — ["amulet-violation 1"],
    ["amulet-poc 1"], ["amulet-quarantine 1"] or ["amulet-journal 1"] —
    followed by [[name]] sections of raw lines.  {!render} is the one
    writer, {!parse_doc} the one reader and {!kind_of_file} the one sniff;
    violation files, triage PoCs, quarantine files and journals all go
    through them.  The module is a pure codec: it runs nothing.  The
    original microarchitectural context is not stored, so analyses replay a
    reloaded pair through the engine's one replay function from a fresh
    context, not from the one it was detected under; storing the context
    is the next step. *)

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
(** Every decoder raises only this on malformed input, naming the offending
    line. *)

val of_violation : Violation.t -> stored

val resolve_defense : string -> Amulet_defenses.Defense.t
(** The defense a stored violation names; unknown names fall back to the
    baseline. *)

val resolve_contract :
  Amulet_defenses.Defense.t -> string -> Amulet_contracts.Contract.t
(** The contract a stored violation names; unknown names fall back to the
    defense's own contract. *)

(** {1 The sectioned layout} *)

type kind = Violation | Poc | Journal | Quarantine

val kind_of_file : string -> kind option
(** Classify a file by its magic line; [None] for any other (or unreadable)
    file. *)

type section = string * string list
(** A section's name (without brackets) and its raw lines. *)

val render : kind -> section list -> string
(** The magic line of [kind], then each section as a [[name]] line followed
    by its lines. *)

val key_value_lines : (string * string) list -> string list

val stored_sections :
  ?extra:(string * string) list ->
  ?trailer:(string * string) list ->
  stored ->
  section list
(** [[meta]], [[program]], [[input_a.*]] and [[input_b.*]] of a stored
    violation.  [extra] meta keys follow the signature, [trailer] keys
    follow the identity. *)

val parse_doc : kind -> string list -> section list
(** Split the lines of a file into its sections, keeping each line raw.
    Raises {!Format_error} unless the first line is [kind]'s magic. *)

val section : section list -> string -> string list
(** The lines of every section with that name, in order ([[] ] if none). *)

val key_values : string list -> (string, string) Hashtbl.t
(** key=value lines (blank lines skipped; a repeated key keeps its last
    value). *)

val require : (string, string) Hashtbl.t -> string -> string
(** A key's value, or {!Format_error}. *)

val stored_of_sections : ?extra:(string -> bool) -> section list -> stored
(** Decode a stored violation.  Sections other than the stored ones are
    rejected unless [extra] accepts their name. *)

(** {1 Violation files} *)

val output : out_channel -> stored -> unit
(** Write the block {!save} puts in a file ({!Journal} embeds the same
    blocks in campaign checkpoints). *)

val save : stored -> string -> unit

val parse : string list -> stored
(** Parse the lines of one {!output} block.  Raises {!Format_error},
    among others for a memory image that is not a positive multiple of
    [Amulet_emu.Memory.page_size] bytes. *)

val load : string -> stored
(** Raises {!Format_error} on malformed input, its message prefixed with
    the path. *)

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
