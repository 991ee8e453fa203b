(* Integration tests per defense: the released (buggy) implementation leaks
   under its contract within a fixed-seed budget; the patched variant is
   clean under the same budget; crafted reproducers trigger each specific
   bug (paper Figures 4, 6, 8, 9). *)

open Amulet
open Amulet_isa
open Amulet_defenses
module Generator = Amulet_corpus.Generator

let checkb = Alcotest.check Alcotest.bool

let campaign ?(n_programs = 25) ?(stop = Some 1) ?sim_config ?generation ?(seed = 11)
    defense =
  Campaign.run
    (Run_spec.make ~defense ~rounds:n_programs ?stop_after:stop ~seed ~inputs:6
       ~boosts:4 ~boot_insts:500 ?sim_config ?generation ())

let has_class c r =
  List.exists (fun (c', _) -> c = c') r.Campaign.violation_classes

(* ------------------------------------------------------------------ *)
(* Campaign-level expectations                                         *)
(* ------------------------------------------------------------------ *)

let test_baseline_leaks_ctseq () =
  let r = campaign Defense.baseline in
  checkb "baseline violates CT-SEQ" true (Campaign.detected r)

let test_invisispec_uv1 () =
  let r = campaign Defense.invisispec in
  checkb "detected" true (Campaign.detected r);
  checkb "classified UV1" true (has_class Analysis.Spec_eviction_uv1 r)

let test_invisispec_patched_clean () =
  let r = campaign ~n_programs:12 ~stop:None Defense.invisispec_patched in
  checkb "patched InvisiSpec clean at default config" false (Campaign.detected r)

let test_invisispec_uv2_amplified () =
  let sim_config =
    Defense.config ~l1d_ways:2 ~mshrs:2 Defense.invisispec_patched
  in
  let r =
    Campaign.run
      (Run_spec.make ~defense:Defense.invisispec_patched ~rounds:100
         ~stop_after:1 ~seed:7 ~inputs:8 ~boosts:6 ~boot_insts:500 ~sim_config
         ())
  in
  checkb "amplification reveals UV2" true
    (Campaign.detected r && has_class Analysis.Mshr_interference_uv2 r)

let test_cleanupspec_uv3 () =
  let r = campaign ~n_programs:40 ~stop:(Some 4) Defense.cleanupspec in
  checkb "detected" true (Campaign.detected r);
  checkb "UV3 among findings" true (has_class Analysis.Store_not_cleaned_uv3 r)

let test_cleanupspec_uv4_with_unaligned () =
  let config = { Generator.default with Generator.unaligned_fraction = 0.6 } in
  let r =
    campaign ~n_programs:60 ~stop:(Some 8)
      ~generation:(Run_spec.random ~config ())
      Defense.cleanupspec
  in
  checkb "UV4 found with line-crossing accesses" true
    (has_class Analysis.Split_not_cleaned_uv4 r)

let test_cleanupspec_patched_no_uv3 () =
  let r = campaign ~n_programs:40 ~stop:(Some 6) Defense.cleanupspec_patched in
  checkb "patched CleanupSpec has no UV3" false (has_class Analysis.Store_not_cleaned_uv3 r)

let test_speclfb_uv6 () =
  let r = campaign Defense.speclfb in
  checkb "detected" true (Campaign.detected r);
  checkb "classified UV6" true (has_class Analysis.First_load_unprotected_uv6 r)

let test_speclfb_patched_clean () =
  let r = campaign ~n_programs:15 ~stop:None Defense.speclfb_patched in
  checkb "patched SpecLFB clean" false (Campaign.detected r)

(* ------------------------------------------------------------------ *)
(* Crafted reproducers (paper figures)                                 *)
(* ------------------------------------------------------------------ *)

let fuzz_crafted ?sim_config ~seed defense src =
  let fz =
    Fuzzer.create
      (Run_spec.make ~defense ~seed ~inputs:10 ~boosts:6 ~boot_insts:500
         ?sim_config ())
  in
  Fuzzer.test_program fz (Program.flatten (Asm.parse src))

(* Figure 4: speculative load whose input-dependent address evicts a primed
   line in unpatched InvisiSpec. *)
let figure4_src = {|
.bb0:
  AND RDI, 0b111111111000000
  CMP RAX, qword ptr [R14 + RDI]
  JNZ .done
  AND RBX, 0b111111111000000
  MOV RCX, qword ptr [R14 + RBX]
.done:
  EXIT
|}

let test_figure4_uv1_reproducer () =
  (match fuzz_crafted ~seed:2 Defense.invisispec figure4_src with
  | Fuzzer.Found v ->
      checkb "classified UV1" true
        (fst (Analysis.sign ~boot_insts:500 v) = Analysis.Spec_eviction_uv1)
  | Fuzzer.No_violation _ -> Alcotest.fail "figure 4 reproducer found nothing"
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded r -> Alcotest.failf "discarded: %s" (Fault.to_string r));
  (* the same test on patched InvisiSpec is clean *)
  match fuzz_crafted ~seed:2 Defense.invisispec_patched figure4_src with
  | Fuzzer.Found _ -> Alcotest.fail "patched InvisiSpec still leaks figure 4"
  | Fuzzer.No_violation _ -> ()
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded r -> Alcotest.failf "discarded: %s" (Fault.to_string r)

(* Figure 8: SpecLFB single-speculative-load Spectre (UV6). *)
let figure8_src = {|
.bb0:
  AND RDI, 0b111111111000000
  CMP RAX, qword ptr [R14 + RDI]
  JNZ .done
  AND RBX, 0b111111111000000
  MOV RCX, qword ptr [R14 + RBX]
.done:
  EXIT
|}

let test_figure8_uv6_reproducer () =
  (match fuzz_crafted ~seed:2 Defense.speclfb figure8_src with
  | Fuzzer.Found v ->
      checkb "classified UV6" true
        (fst (Analysis.sign ~boot_insts:500 v) = Analysis.First_load_unprotected_uv6)
  | Fuzzer.No_violation _ -> Alcotest.fail "figure 8 reproducer found nothing"
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded r -> Alcotest.failf "discarded: %s" (Fault.to_string r));
  match fuzz_crafted ~seed:2 Defense.speclfb_patched figure8_src with
  | Fuzzer.Found _ -> Alcotest.fail "patched SpecLFB still leaks figure 8"
  | Fuzzer.No_violation _ -> ()
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded r -> Alcotest.failf "discarded: %s" (Fault.to_string r)

(* Figure 9: STT tainted speculative store fills the D-TLB (KV3). *)
let figure9_src = {|
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
|}

let test_figure9_kv3_reproducer () =
  (match fuzz_crafted ~seed:7 Defense.stt figure9_src with
  | Fuzzer.Found v ->
      checkb "classified KV3" true
        (fst (Analysis.sign ~boot_insts:500 v) = Analysis.Tainted_store_tlb_kv3)
  | Fuzzer.No_violation _ -> Alcotest.fail "figure 9 reproducer found nothing"
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded r -> Alcotest.failf "discarded: %s" (Fault.to_string r));
  match fuzz_crafted ~seed:7 Defense.stt_patched figure9_src with
  | Fuzzer.Found _ -> Alcotest.fail "patched STT still leaks figure 9"
  | Fuzzer.No_violation _ -> ()
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded r -> Alcotest.failf "discarded: %s" (Fault.to_string r)

(* UV5 "too much cleaning" reproducer, after the paper's Table 9: an OLDER
   non-speculative load whose address arrives late (a dependent chain of
   cold loads) executes after a YOUNGER transient load already installed the
   same line; it hits, leaving no cleanup metadata, and the transient load's
   cleanup then erases the architecturally-touched line. *)
let uv5_src = {|
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
|}

let test_uv5_reproducer () =
  match fuzz_crafted ~seed:5 Defense.cleanupspec_patched uv5_src with
  | Fuzzer.Found v ->
      checkb "classified UV5" true
        (fst (Analysis.sign ~boot_insts:500 v) = Analysis.Too_much_cleaning_uv5)
  | Fuzzer.No_violation _ -> Alcotest.fail "uv5 reproducer found nothing"
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded r -> Alcotest.failf "discarded: %s" (Fault.to_string r)

(* registry sanity *)
let test_registry () =
  checkb "find by name" true (Defense.find "invisispec" = Some Defense.invisispec);
  checkb "case-insensitive" true (Defense.find "SpecLFB" = Some Defense.speclfb);
  checkb "unknown" true (Defense.find "nada" = None);
  checkb "all named distinctly" true
    (let names = List.map (fun d -> d.Defense.name) Defense.all in
     List.length names = List.length (List.sort_uniq compare names))

let () =
  Alcotest.run ~and_exit:false "defenses"
    [
      ( "campaigns",
        [
          Alcotest.test_case "baseline leaks" `Slow test_baseline_leaks_ctseq;
          Alcotest.test_case "invisispec uv1" `Slow test_invisispec_uv1;
          Alcotest.test_case "invisispec patched clean" `Slow test_invisispec_patched_clean;
          Alcotest.test_case "invisispec uv2 amplified" `Slow test_invisispec_uv2_amplified;
          Alcotest.test_case "cleanupspec uv3" `Slow test_cleanupspec_uv3;
          Alcotest.test_case "cleanupspec uv4 unaligned" `Slow
            test_cleanupspec_uv4_with_unaligned;
          Alcotest.test_case "cleanupspec patched no uv3" `Slow
            test_cleanupspec_patched_no_uv3;
          Alcotest.test_case "speclfb uv6" `Slow test_speclfb_uv6;
          Alcotest.test_case "speclfb patched clean" `Slow test_speclfb_patched_clean;
        ] );
      ( "reproducers",
        [
          Alcotest.test_case "figure 4 (UV1)" `Slow test_figure4_uv1_reproducer;
          Alcotest.test_case "figure 8 (UV6)" `Slow test_figure8_uv6_reproducer;
          Alcotest.test_case "figure 9 (KV3)" `Slow test_figure9_kv3_reproducer;
          Alcotest.test_case "uv5 reproducer" `Slow test_uv5_reproducer;
        ] );
      ("registry", [ Alcotest.test_case "lookup" `Quick test_registry ]);
    ]

(* appended coverage: the extension defenses (Delay-on-Miss, GhostMinion) *)

let spectre_gadget_with_tail = {|
.bb0:
  AND RDI, 0b111111000000
  CMP RAX, qword ptr [R14 + RDI]
  JNZ .done
  AND RBX, 0b111111000000
  MOV RCX, qword ptr [R14 + RBX]
.done:
  MOV RDX, qword ptr [R14 + 3584]
  EXIT
|}

let test_delay_on_miss_blocks_transient_miss () =
  (* the crafted Spectre gadget that leaks on the baseline must be clean
     under Delay-on-Miss: the transient load misses and therefore waits *)
  (match fuzz_crafted ~seed:2 Defense.baseline spectre_gadget_with_tail with
  | Fuzzer.Found _ -> ()
  | Fuzzer.No_violation _ -> Alcotest.fail "baseline should leak this gadget"
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded r -> Alcotest.failf "discarded: %s" (Fault.to_string r));
  match fuzz_crafted ~seed:2 Defense.delay_on_miss spectre_gadget_with_tail with
  | Fuzzer.Found v ->
      Alcotest.failf "delay-on-miss leaked: %s"
        (Option.value v.Violation.signature ~default:"?")
  | Fuzzer.No_violation _ -> ()
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded r -> Alcotest.failf "discarded: %s" (Fault.to_string r)

let test_ghostminion_blocks_spectre_gadget () =
  match fuzz_crafted ~seed:2 Defense.ghostminion spectre_gadget_with_tail with
  | Fuzzer.Found _ -> Alcotest.fail "ghostminion leaked the spectre gadget"
  | Fuzzer.No_violation _ -> ()
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded r -> Alcotest.failf "discarded: %s" (Fault.to_string r)

(* the headline claim (paper §4.5.1 "Fix"): GhostMinion's strictness
   ordering removes the UV2 interference leak that amplification reveals in
   patched InvisiSpec, under the SAME campaign budget and seed *)
let test_ghostminion_fixes_uv2 () =
  let run defense =
    let sim_config = Defense.config ~l1d_ways:2 ~mshrs:2 defense in
    Campaign.run
      (Run_spec.make ~defense ~rounds:100 ~stop_after:1 ~seed:7 ~inputs:8
         ~boosts:6 ~boot_insts:500 ~sim_config ())
  in
  let invisi = run Defense.invisispec_patched in
  checkb "patched InvisiSpec leaks UV2 when amplified" true
    (has_class Analysis.Mshr_interference_uv2 invisi);
  let ghost = run Defense.ghostminion in
  checkb "GhostMinion is clean under the same amplified campaign" false
    (Campaign.detected ghost)

let test_new_defenses_campaign_clean () =
  List.iter
    (fun d ->
      let r = campaign ~n_programs:15 ~stop:None d in
      checkb (d.Defense.name ^ " clean at default config") false
        (Campaign.detected r))
    [ Defense.delay_on_miss; Defense.ghostminion ]

let () =
  Alcotest.run ~and_exit:false "defenses-extra"
    [
      ( "extensions",
        [
          Alcotest.test_case "delay-on-miss blocks transient miss" `Slow
            test_delay_on_miss_blocks_transient_miss;
          Alcotest.test_case "ghostminion blocks spectre" `Slow
            test_ghostminion_blocks_spectre_gadget;
          Alcotest.test_case "ghostminion fixes UV2" `Slow test_ghostminion_fixes_uv2;
          Alcotest.test_case "new defenses clean" `Slow test_new_defenses_campaign_clean;
        ] );
    ]

(* prefetcher extension study (§5.2): a next-line prefetcher trained by
   transient accesses leaks through an otherwise-clean defense *)
let test_prefetcher_breaks_patched_invisispec () =
  let d = Defense.invisispec_patched in
  let with_pf = { (Defense.config d) with Amulet_uarch.Config.nl_prefetcher = true } in
  let run sim_config =
    Campaign.run
      (Run_spec.make ~defense:d ~rounds:40 ~stop_after:1 ~seed:11 ~inputs:8
         ~boosts:5 ~boot_insts:500 ?sim_config ())
  in
  let without = run None in
  checkb "patched InvisiSpec clean without prefetcher" false (Campaign.detected without);
  let with_ = run (Some with_pf) in
  checkb "prefetcher re-opens the leak" true (Campaign.detected with_);
  checkb "classified as prefetcher leak" true
    (has_class Analysis.Prefetcher_leak with_)

let () =
  Alcotest.run "defenses-prefetcher"
    [
      ( "extension",
        [
          Alcotest.test_case "prefetcher breaks patched invisispec" `Slow
            test_prefetcher_breaks_patched_invisispec;
        ] );
    ]
