(* Triage pipeline tests: clustering is stable under shard-order
   permutation, bisection names the planted mechanism on the crafted STT
   corpus (paper Figure 9), PoC files round-trip byte-identically and
   replay to the recorded divergence, and an empty/clean campaign
   triages to an empty report. *)

open Amulet
open Amulet_isa
open Amulet_defenses
module Rng = Amulet_corpus.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Corpus builders                                                     *)
(* ------------------------------------------------------------------ *)

let find_violations ?(seed = 17) ?(want = 1) defense =
  let fz =
    Fuzzer.create
      (Run_spec.make ~defense ~seed ~inputs:8 ~boosts:5 ~boot_insts:300 ())
  in
  let rec go acc n =
    if List.length acc >= want || n = 0 then acc
    else
      match Fuzzer.round fz with
      | Fuzzer.Found v -> go (v :: acc) (n - 1)
      | _ -> go acc (n - 1)
  in
  match go [] 40 with
  | [] -> Alcotest.failf "no %s violation found" defense.Defense.name
  | vs -> vs

let speclfb_finding () =
  let v = List.hd (find_violations Defense.speclfb) in
  Triage.of_violation v

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)
(* ------------------------------------------------------------------ *)

let test_explain_reproduces () =
  let f = speclfb_finding () in
  checkb "reproduced" true (f.Triage.status = Triage.Reproduced);
  checkb "classified" true
    (f.Triage.leak_class = Some Analysis.First_load_unprotected_uv6);
  checkb "signature carries the defense" true
    (String.length f.Triage.signature > 8
    && String.sub f.Triage.signature 0 7 = "speclfb");
  checkb "equal contract traces" true f.Triage.ctrace.Triage.equal;
  checkb "utrace diff nonempty" true (f.Triage.utrace_diff <> [])

(* satellite: a violation that no longer reproduces must surface an
   explicit not_reproduced status (the CLI maps it to exit code 2) *)
let test_explain_not_reproduced () =
  let flat =
    Program.flatten (Asm.parse ".bb0:\n  AND RCX, 0b111111000000\n  MOV RBX, qword ptr [R14 + RCX]\n  EXIT\n")
  in
  let rng = Rng.create ~seed:3 in
  let input = Input.generate rng ~pages:Defense.baseline.Defense.sandbox_pages in
  let stored =
    {
      Violation_io.defense_name = "baseline";
      contract_name = "CT-SEQ";
      program = flat;
      (* identical inputs cannot diverge: the finding is dead by design *)
      input_a = input;
      input_b = input;
      signature = None;
      identity = None;
    }
  in
  let f = Triage.explain stored in
  checkb "not reproduced" true (f.Triage.status = Triage.Not_reproduced);
  checks "status name" "not_reproduced" (Triage.status_name f.Triage.status);
  checkb "no class" true (f.Triage.leak_class = None);
  checkb "dead signature" true
    (String.length f.Triage.signature > 0
    && String.sub f.Triage.signature (String.length f.Triage.signature - 1) 1
       <> "/");
  (* the one-element view amulet explain builds: an empty cluster list *)
  let report = { Triage.clusters = []; total = 1; not_reproduced = 1 } in
  let json = Triage.report_to_json report in
  checkb "schema" true (contains json "\"schema\":\"amulet.triage/1\"");
  checkb "dead finding counted" true (contains json "\"not_reproduced\":1")

(* ------------------------------------------------------------------ *)
(* Cluster stability under permutation                                 *)
(* ------------------------------------------------------------------ *)

let test_cluster_permutation_stable () =
  let vs = find_violations ~seed:17 ~want:3 Defense.speclfb in
  let extra =
    match Reproducers.hunt ~seed:7 Reproducers.figure9 with
    | Some v -> [ v ]
    | None -> []
  in
  let findings =
    List.mapi
      (fun i v -> (Printf.sprintf "shard%d" i, Triage.of_violation v))
      (vs @ extra)
  in
  let as_key c =
    ( c.Triage.rank,
      c.Triage.cluster_signature,
      c.Triage.representative.Triage.program_text,
      c.Triage.members,
      c.Triage.count )
  in
  let a = List.map as_key (Triage.cluster findings) in
  let b = List.map as_key (Triage.cluster (List.rev findings)) in
  let rotated = match findings with [] -> [] | x :: tl -> tl @ [ x ] in
  let c = List.map as_key (Triage.cluster rotated) in
  checkb "reverse order: identical report" true (a = b);
  checkb "rotated order: identical report" true (a = c);
  checkb "ranks are 1..n" true
    (List.mapi (fun i _ -> i + 1) a = List.map (fun (r, _, _, _, _) -> r) a)

(* ------------------------------------------------------------------ *)
(* Bisection on the crafted STT corpus (Figure 9)                      *)
(* ------------------------------------------------------------------ *)

let test_figure9_bisection_names_mechanism () =
  match Reproducers.hunt ~seed:7 Reproducers.figure9 with
  | None -> Alcotest.fail "figure 9 hunt found nothing"
  | Some v -> (
      let f = Triage.of_violation v in
      checkb "reproduced" true (f.Triage.status = Triage.Reproduced);
      let f = Triage.bisect f in
      match f.Triage.mechanism with
      | None -> Alcotest.fail "bisection named no mechanism"
      | Some m ->
          checks "planted mechanism" "stt_patched_store_tlb"
            m.Triage.mech_name;
          checkb "a patched flag" true
            (m.Triage.mech_kind = Triage.Patched_flag);
          checkb "tried at least one flip" true (m.Triage.flips_tried >= 1))

(* ------------------------------------------------------------------ *)
(* PoC round-trip and replay                                           *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let d = Filename.temp_file "amulet-triage" "" in
  Sys.remove d;
  Violation_io.mkdir_p d;
  d

let test_poc_roundtrip_and_replay () =
  let f = speclfb_finding () in
  let cluster =
    {
      Triage.rank = 1;
      cluster_signature = f.Triage.signature;
      representative = f;
      members = [ "shard0" ];
      count = 1;
    }
  in
  let p = Triage.Poc.of_cluster cluster in
  let s1 = Triage.Poc.to_string p in
  let s2 = Triage.Poc.to_string (Triage.Poc.parse (String.split_on_char '\n' s1)) in
  checkb "to_string/parse round-trips byte-identically" true (s1 = s2);
  let dir = temp_dir () in
  let path = Triage.Poc.write ~dir cluster in
  let raw = In_channel.with_open_text path In_channel.input_all in
  checkb "written file is the canonical rendering" true (raw = s1);
  (* the reproduce path: load the file back and replay it *)
  let loaded = Triage.Poc.load path in
  checks "signature survives" p.Triage.Poc.signature
    loaded.Triage.Poc.signature;
  (match Triage.Poc.replay loaded with
  | `Match -> ()
  | `Not_reproduced -> Alcotest.fail "PoC did not reproduce on replay"
  | `Diff_mismatch d ->
      Alcotest.failf "PoC diverged differently: %s" (String.concat "; " d));
  (* triage's own loader accepts PoC files as violation sources *)
  let stream = Triage.load [ dir ] in
  checki "PoC picked up by Triage.load" 1 (List.length stream);
  Sys.remove path;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Empty / clean campaigns                                             *)
(* ------------------------------------------------------------------ *)

let test_empty_campaign_triage () =
  let report = Triage.run [] in
  checki "no clusters" 0 (List.length report.Triage.clusters);
  checki "nothing consumed" 0 report.Triage.total;
  checki "nothing dead" 0 report.Triage.not_reproduced;
  let json = Triage.report_to_json report in
  checkb "schema present" true (contains json "\"schema\":\"amulet.triage/1\"");
  checkb "empty cluster array" true (contains json "\"clusters\":[]");
  (* an empty directory is a clean campaign journal dir *)
  let dir = temp_dir () in
  let stream = Triage.load [ dir ] in
  checki "clean dir loads empty" 0 (List.length stream);
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* The artifact codec: golden files and corrupt entries                *)
(* ------------------------------------------------------------------ *)

let read path = In_channel.with_open_bin path In_channel.input_all

let write path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i = if String.sub s i n = sub then i else find (i + 1) in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* bytes a save function writes to a fresh file *)
let saved save =
  let tmp = Filename.temp_file "amulet-golden" ".amulet" in
  save tmp;
  let s = read tmp in
  Sys.remove tmp;
  s

let test_golden_violation () =
  let path = "golden/violation.amulet" in
  checkb "sniffed as a violation" true
    (Violation_io.kind_of_file path = Some Violation_io.Violation);
  checks "save (load x) = x" (read path)
    (saved (Violation_io.save (Violation_io.load path)))

let test_golden_poc () =
  let path = "golden/poc.amulet" in
  checkb "sniffed as a PoC" true
    (Violation_io.kind_of_file path = Some Violation_io.Poc);
  checks "to_string (load x) = x" (read path)
    (Triage.Poc.to_string (Triage.Poc.load path))

let test_golden_journal () =
  let path = "golden/journal.amulet" in
  checkb "sniffed as a journal" true
    (Violation_io.kind_of_file path = Some Violation_io.Journal);
  checks "save (load x) = x" (read path) (saved (Journal.save (Journal.load path)))

(* A memory image must be whole sandbox pages: a 96-byte image is a
   Format_error naming the file, its section and size, not an assertion
   failure when a replay builds its memory.  Both images of the fixture
   are short; sections decode in file order, so A's is the one named. *)
let test_short_memory_image_rejected () =
  match Violation_io.load "golden/short_mem.amulet" with
  | exception Violation_io.Format_error msg ->
      checkb ("names the file, section and size: " ^ msg) true
        (contains msg "golden/short_mem.amulet: "
        && contains msg "[input_a.mem]"
        && contains msg "96-byte")
  | _ -> Alcotest.fail "a 96-byte memory image loaded"

(* A malformed field value (unknown register, non-hex memory, bad branch
   target) is a Format_error, so triage skips the entry and keeps going. *)
let test_corrupt_entries_skipped () =
  let good = read "golden/violation.amulet" in
  let dir = temp_dir () in
  let entries =
    [
      ("a_good.amulet", good);
      ("b_reg.amulet", replace_first ~sub:"RAX=" ~by:"RZZ=" good);
      ( "c_mem.amulet",
        replace_first ~sub:"[input_a.mem]\n" ~by:"[input_a.mem]\nzz" good );
      ("d_target.amulet", replace_first ~sub:"@" ~by:"@q" good);
    ]
  in
  List.iter (fun (name, s) -> write (Filename.concat dir name) s) entries;
  List.iter
    (fun (name, _) ->
      match Violation_io.load (Filename.concat dir name) with
      | exception Violation_io.Format_error _ -> ()
      | _ -> if name <> "a_good.amulet" then Alcotest.failf "%s loaded" name)
    entries;
  let stream = Triage.load [ dir ] in
  checki "only the intact entry loads" 1 (List.length stream);
  List.iter (fun (name, _) -> Sys.remove (Filename.concat dir name)) entries;
  Unix.rmdir dir

let () =
  Alcotest.run "triage"
    [
      ( "explain",
        [
          Alcotest.test_case "reproduces + signs" `Slow test_explain_reproduces;
          Alcotest.test_case "not_reproduced surfaces" `Quick
            test_explain_not_reproduced;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "permutation stable" `Slow
            test_cluster_permutation_stable;
        ] );
      ( "bisect",
        [
          Alcotest.test_case "figure 9 names stt_patched_store_tlb" `Slow
            test_figure9_bisection_names_mechanism;
        ] );
      ( "poc",
        [
          Alcotest.test_case "round-trip + replay" `Slow
            test_poc_roundtrip_and_replay;
        ] );
      ( "empty",
        [ Alcotest.test_case "clean campaign" `Quick test_empty_campaign_triage ] );
      ( "codec",
        [
          Alcotest.test_case "golden violation" `Quick test_golden_violation;
          Alcotest.test_case "golden poc" `Quick test_golden_poc;
          Alcotest.test_case "golden journal" `Quick test_golden_journal;
          Alcotest.test_case "short memory image rejected" `Quick
            test_short_memory_image_rejected;
          Alcotest.test_case "corrupt entries skipped" `Quick
            test_corrupt_entries_skipped;
        ] );
    ]
