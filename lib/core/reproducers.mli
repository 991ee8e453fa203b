(** Crafted reproducer programs for the paper's example violations
    (Figures 4/6/8/9, the CleanupSpec tables, Spectre-v4). *)

open Amulet_isa

type t = {
  name : string;
  description : string;
  asm : string;
  defense : Amulet_defenses.Defense.t;
  expected_class : Analysis.leak_class;
}

val figure4 : t
(** InvisiSpec UV1: speculative L1D eviction. *)

val figure6 : t
(** InvisiSpec UV2: MSHR speculative interference (amplified config). *)

val figure8 : t
(** SpecLFB UV6: first speculative load unprotected. *)

val figure9 : t
(** STT KV3: tainted store fills the D-TLB. *)

val uv3 : t
val uv4 : t
val uv5 : t
val unxpec_kv2 : t
val spectre_v4 : t

val all : t list
val find : string -> t option
val flat : t -> Program.flat

val amplification : t -> Amulet_uarch.Config.t option
(** The config a reproducer needs beyond its defense's own: UV2 runs with
    two L1D ways and two MSHRs. *)

val hunt :
  ?seed:int ->
  ?n_base_inputs:int ->
  ?boosts_per_input:int ->
  ?sim_config:Amulet_uarch.Config.t ->
  t ->
  Violation.t option
(** Fuzz the crafted program against its defense (under [sim_config], by
    default its {!amplification}); falls back to a random campaign filtered
    by the expected signature when hand-crafted timing does not line up.
    The returned violation has its signature filled in. *)
