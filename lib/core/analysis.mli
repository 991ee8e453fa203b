(** Violation analysis (paper §3.3): signature-based unique-violation
    classification over the simulator's debug-event log, side-by-side
    operation diffs, and static dataflow walk-back. *)

open Amulet_isa
open Amulet_uarch

type leak_class =
  | Spectre_v1_install
  | Spectre_v1_evict
  | Spectre_v4
  | Spec_eviction_uv1
  | Mshr_interference_uv2
  | Store_not_cleaned_uv3
  | Split_not_cleaned_uv4
  | Too_much_cleaning_uv5
  | Unxpec_kv2
  | Tainted_store_tlb_kv3
  | First_load_unprotected_uv6
  | Prefetcher_leak
  | Unknown

val class_name : leak_class -> string

val classify :
  defense:Amulet_defenses.Defense.t -> Event.t list -> Event.t list -> leak_class
(** Classify a violation from the event logs of its two runs; most-specific
    defense-bug signatures win over the generic Spectre classes. *)

val sign :
  ?boot_insts:int ->
  ?sim_config:Config.t ->
  ?format:Utrace.format ->
  Violation.t ->
  leak_class * Violation.t
(** {!Engine.replay} the violating pair from its own detection context,
    with logging, on a new {!Engine.analysis} engine under the violation's
    defense, classify it, and return the class with
    a copy signed by its class name (see {!Violation.with_signature}).
    [format] must match the campaign's trace format. *)

val pp_side_by_side : Format.formatter -> Event.t list -> Event.t list -> unit
(** The paper's Tables 9/10 layout: memory operations of the two runs side
    by side, differing rows starred. *)

val dataflow_back : Program.flat -> index:int -> int list
(** Static use-def walk from the address registers of the instruction at
    [index] back to its sources (§3.3a). *)

val leaking_access : Event.t list -> diff_lines:int list -> int option
(** PC of the youngest speculative access touching a line in the trace
    diff. *)
