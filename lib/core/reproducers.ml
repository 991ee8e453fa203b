(** Crafted reproducer programs for the paper's example violations
    (Figures 4, 6, 8, 9 and the CleanupSpec tables).

    Each program follows the same recipe as the violating tests AMuLeT
    found: a conditional branch whose flags depend on a cold load (giving a
    long speculation window), a transient gadget behind it, and enough
    trailing architectural work that speculative side effects land in the
    final cache state before the test ends. *)

open Amulet_isa

type t = {
  name : string;
  description : string;
  asm : string;
  defense : Amulet_defenses.Defense.t;  (** defense that exhibits the leak *)
  expected_class : Analysis.leak_class;
}

(* A cold-flag branch guarding an input-addressed transient load: the basic
   Spectre-v1 shape used by Figures 4 and 8 (the defenses differ). *)
let spectre_v1_gadget = {|
.bb0:
  AND RDI, 0b111111111000000
  CMP RAX, qword ptr [R14 + RDI]
  JNZ .done
  AND RBX, 0b111111111000000
  MOV RCX, qword ptr [R14 + RBX]
.done:
  EXIT
|}

(** Figure 4: InvisiSpec UV1 — the transient load's L1 replacement evicts a
    primed line whose tag encodes the speculative address. *)
let figure4 =
  {
    name = "figure4-uv1";
    description =
      "InvisiSpec speculative-eviction bug: a transient load on a full set \
       triggers an L1 replacement, leaking its address via the evicted tag";
    asm = spectre_v1_gadget;
    defense = Amulet_defenses.Defense.invisispec;
    expected_class = Analysis.Spec_eviction_uv1;
  }

(** Figure 6: InvisiSpec UV2 — a transient miss occupies one of very few
    MSHRs; whether it hits L2 decides if a later expose completes before the
    test ends.  Requires the amplified (2-MSHR) configuration. *)
let figure6 =
  {
    name = "figure6-uv2";
    description =
      "InvisiSpec same-core speculative interference: MSHR contention from a \
       transient miss delays an older load's expose past test end";
    asm = {|
.bb0:
  AND RSI, 0b111111111000000
  CMP RAX, qword ptr [R14 + RSI]
  AND RDI, 0b111111111000000
  MOV RDX, qword ptr [R14 + RDI]
  JNZ .done
  AND RBX, 0b111111111000000
  MOV RCX, qword ptr [R14 + RBX]
  AND RCX, 0b111111111000000
  MOV R8, qword ptr [R14 + RCX]
.done:
  AND R9, 0b111111111000000
  MOV R10, qword ptr [R14 + R9]
  EXIT
|};
    defense = Amulet_defenses.Defense.invisispec_patched;
    expected_class = Analysis.Mshr_interference_uv2;
  }

(** SpecLFB UV6 (Figure 8): a single speculative load is treated as safe
    because it is the first speculative load in the LSQ, so it installs into
    the cache and leaks like plain Spectre-v1. *)
let figure8 =
  {
    name = "figure8-uv6";
    description =
      "SpecLFB first-speculative-load optimization: a lone transient load is \
       marked safe and installs into L1";
    asm = spectre_v1_gadget;
    defense = Amulet_defenses.Defense.speclfb;
    expected_class = Analysis.First_load_unprotected_uv6;
  }

(** STT KV3 (Figure 9): a tainted transient load feeds a store address; the
    store executes and installs its page into the D-TLB. *)
let figure9 =
  {
    name = "figure9-kv3";
    description =
      "STT tainted speculative store: address translation installs a \
       secret-dependent D-TLB entry";
    asm = {|
.bb0:
  AND RDI, 0b1111111111000000
  CMP RAX, qword ptr [R14 + RDI]
  JNZ .done
  AND RCX, 0b1111111111111111
  MOV RBX, word ptr [R14 + RCX]
  AND RBX, 0b1111111111111111111
  MOV dword ptr [R14 + RBX], RDX
.done:
  EXIT
|};
    defense = Amulet_defenses.Defense.stt;
    expected_class = Analysis.Tainted_store_tlb_kv3;
  }

(** CleanupSpec UV3: a transient store installs a line; the missing
    write-callback metadata leaves it uncleaned after the squash. *)
let uv3 =
  {
    name = "uv3-store-not-cleaned";
    description = "CleanupSpec speculative store with no cleanup metadata";
    asm = {|
.bb0:
  AND RDI, 0b111111111000000
  CMP RAX, qword ptr [R14 + RDI]
  JNZ .done
  AND RBX, 0b111111111000000
  MOV qword ptr [R14 + RBX], RCX
.done:
  AND RSI, 0b111111111000000
  MOV RDX, qword ptr [R14 + RSI]
  EXIT
|};
    defense = Amulet_defenses.Defense.cleanupspec;
    expected_class = Analysis.Store_not_cleaned_uv3;
  }

(** CleanupSpec UV4: a transient load crossing a cache-line boundary spawns
    a split request whose second half is never cleaned. *)
let uv4 =
  {
    name = "uv4-split-not-cleaned";
    description = "CleanupSpec line-crossing speculative load, second half uncleaned";
    asm = {|
.bb0:
  AND RDI, 0b111111111000000
  CMP RAX, qword ptr [R14 + RDI]
  JNZ .done
  AND RBX, 0b111111000000
  MOV RCX, qword ptr [R14 + RBX + 60]
.done:
  AND RSI, 0b111111111000000
  MOV RDX, qword ptr [R14 + RSI]
  EXIT
|};
    defense = Amulet_defenses.Defense.cleanupspec_patched;
    expected_class = Analysis.Split_not_cleaned_uv4;
  }

(** CleanupSpec UV5 ("too much cleaning", Table 9): an older non-speculative
    load with a late-arriving address hits a line installed by a younger
    transient load; the transient load's cleanup erases it. *)
let uv5 =
  {
    name = "uv5-too-much-cleaning";
    description =
      "CleanupSpec cleanup removes a line an older architectural load touched";
    asm = {|
.bb0:
  AND RSI, 0b111111111000000
  CMP RAX, qword ptr [R14 + RSI]
  AND RDI, 0b111111111000000
  MOV RDX, qword ptr [R14 + RDI]
  AND RDX, 0b111111111000000
  MOV R8, qword ptr [R14 + RDX]
  JNZ .done
  AND RBX, 0b111111111000000
  MOV RCX, qword ptr [R14 + RBX]
.done:
  EXIT
|};
    defense = Amulet_defenses.Defense.cleanupspec_patched;
    expected_class = Analysis.Too_much_cleaning_uv5;
  }

(** CleanupSpec KV2 (unXpec, Table 10): the number of cleanup operations —
    one for an aligned transient load, two when it crosses a line boundary —
    is input-dependent; cleanup occupies the cache controller, delaying a
    trailing architectural hit, so the test ends later and the front-end
    prefetches more L1I lines.  Visible only with the L1I in the trace and
    with the store/split bugs patched (otherwise those dominate). *)
let unxpec_kv2 =
  {
    name = "kv2-unxpec";
    description =
      "CleanupSpec cleanup-latency channel: input-dependent undo cost shifts \
       the test's end and the L1I prefetch depth";
    asm =
      (* The wrong-path block is padded past the ROB size so the front-end
         stalls before reaching Exit speculatively; only the post-squash
         refetch prefetches past the test's end, making the cleanup-latency
         difference visible in the L1I prefetch depth. *)
      (let filler = String.concat "" (List.init 70 (fun _ -> "  NOP\n")) in
       {|
.bb0:
  AND RSI, 0b111111000000
  CMP RAX, qword ptr [R14 + RSI]
  JNZ .done
  AND RBX, 0b111111111111
  MOV RCX, qword ptr [R14 + RBX]
|}
       ^ filler
       ^ {|
.done:
  MOV R10, qword ptr [R14 + RSI]
  EXIT
|});
    defense = Amulet_defenses.Defense.cleanupspec_unxpec;
    expected_class = Analysis.Unxpec_kv2;
  }

(** Spectre-v4 on the baseline: a load bypasses an older store with a
    late-resolving address, and a dependent load transmits the stale data. *)
let spectre_v4 =
  {
    name = "spectre-v4";
    description = "baseline store-bypass: stale data transmitted via a dependent load";
    asm = {|
.bb0:
  AND RDI, 0b111111111000000
  MOV RSI, qword ptr [R14 + RDI]
  AND RSI, 0b11111000000
  MOV qword ptr [R14 + RSI], 0
  MOV RBX, qword ptr [R14 + 128]
  AND RBX, 0b111111111000000
  MOV RCX, qword ptr [R14 + RBX]
  EXIT
|};
    defense = Amulet_defenses.Defense.baseline;
    expected_class = Analysis.Spectre_v4;
  }

let all =
  [ figure4; figure6; figure8; figure9; uv3; uv4; uv5; unxpec_kv2; spectre_v4 ]

let find name = List.find_opt (fun r -> r.name = name) all

let flat r = Program.flatten (Asm.parse r.asm)

let amplification r =
  match r.expected_class with
  | Analysis.Mshr_interference_uv2 ->
      Some (Amulet_defenses.Defense.config ~l1d_ways:2 ~mshrs:2 r.defense)
  | _ -> None

(** Fuzz a reproducer against its defense, returning the violation (with its
    signature filled in) if one is found within the given budget. *)
let hunt ?(seed = 7) ?(n_base_inputs = 10) ?(boosts_per_input = 8) ?sim_config r =
  let sim_config = match sim_config with Some _ -> sim_config | None -> amplification r in
  let spec seed =
    Run_spec.make ~defense:r.defense ~seed ~inputs:n_base_inputs
      ~boosts:boosts_per_input ~boot_insts:500 ?sim_config ()
  in
  let sign = Analysis.sign ~boot_insts:500 ?sim_config in
  let rec attempt tries seed =
    if tries = 0 then None
    else
      let fz = Fuzzer.create (spec seed) in
      match Fuzzer.test_program fz (flat r) with
      | Fuzzer.Found v -> Some (snd (sign v))
      | Fuzzer.No_violation _ | Fuzzer.Discarded _ | Fuzzer.Screened ->
          attempt (tries - 1) (seed + 1)
  in
  match attempt 5 seed with
  | Some v -> Some v
  | None ->
      (* Some leaks (UV2's microarchitectural race in particular) resist
         hand-crafted timing; fall back to the way the paper actually found
         them — a random campaign — and keep the first violation carrying
         the expected signature. *)
      let fz = Fuzzer.create (spec seed) in
      let rec rounds n =
        if n = 0 then None
        else
          match Fuzzer.round fz with
          | Fuzzer.Found v -> (
              match sign v with
              | c, signed when c = r.expected_class -> Some signed
              | _ -> rounds (n - 1))
          | Fuzzer.No_violation _ | Fuzzer.Discarded _ | Fuzzer.Screened ->
              rounds (n - 1)
      in
      rounds 120
