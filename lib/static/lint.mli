(** Well-formedness lint for flattened programs.

    Errors are structural defects (unresolved/backward branches, invalid
    scales, sandbox-base writes, displacements or shift counts outside
    their x86-64 encoding fields); warnings flag suspicious-but-executable code (possible sandbox
    overflow, unmasked indices, scratch-register or never-written-flags
    reads, dead code) and never gate. *)

open Amulet_isa

type severity = Error | Warning

type diag = {
  code : string;  (** stable kebab-case diagnostic name *)
  severity : severity;
  index : int option;  (** offending instruction, when localized *)
  message : string;
}

type report = { diags : diag list; errors : int; warnings : int }

val ok : report -> bool
(** No errors (warnings allowed). *)

val default_sandbox_bytes : int
(** One 4 KiB page — the floor across bundled defense configurations. *)

val check : ?sandbox_bytes:int -> Program.flat -> report
val severity_name : severity -> string
val pp_diag : Format.formatter -> diag -> unit
val pp : Format.formatter -> report -> unit
