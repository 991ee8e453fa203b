(* Robustness self-tests for the campaign supervision layer: chaos
   injection, per-round deadlines, quarantine, and crash-safe journaling
   with resume.  Crash isolation of parallel shards is tested with the
   sweep (test_sweep.ml). *)

open Amulet
open Amulet_defenses

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* small-budget spec shared by the supervision tests; per-test knobs ride
   on Run_spec.make's optional arguments *)
let small_spec ~rounds ~seed ?stop_after ?deadline_ms ?quarantine_dir ?chaos
    ?isolate_rounds () =
  Run_spec.make ~defense:Defense.baseline ~rounds ~seed ?stop_after
    ~classify:false ~inputs:4 ~boosts:2 ~boot_insts:200 ?deadline_ms
    ?quarantine_dir ?chaos ?isolate_rounds ()

(* a fresh path that does not exist yet (the fuzzer mkdir_p's it) *)
let temp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* ------------------------------------------------------------------ *)
(* Fault taxonomy                                                      *)
(* ------------------------------------------------------------------ *)

let test_fault_classification () =
  let check_class want s =
    Alcotest.check Alcotest.string "classified" (Fault.class_name want)
      (Fault.class_name (Fault.class_of (Fault.of_run_fault s)))
  in
  check_class Fault.C_fuel_exhausted "pipeline deadlock";
  check_class Fault.C_fuel_exhausted "cycle limit exceeded";
  check_class Fault.C_fuel_exhausted "step limit exceeded";
  check_class Fault.C_emu_fault "control flow escaped code region at index 3";
  checkb "exn classification: injected" true
    (Fault.class_of (Fault.of_exn (Fault.Injected_crash "x")) = Fault.C_injected);
  checkb "exn classification: crash" true
    (Fault.class_of (Fault.of_exn Not_found) = Fault.C_instance_crash);
  (* class names round-trip (the journal serializes them) *)
  List.iter
    (fun c ->
      checkb (Fault.class_name c ^ " round-trips") true
        (Fault.class_of_name (Fault.class_name c) = Some c))
    Fault.all_classes

let test_fault_counters () =
  let c = Fault.Counters.create () in
  Fault.Counters.record c Fault.Empty_population;
  Fault.Counters.record c Fault.Empty_population;
  Fault.Counters.record c (Fault.Injected "x");
  checki "total" 3 (Fault.Counters.total c);
  checki "per class" 2 (Fault.Counters.get c Fault.C_empty_population);
  let d = Fault.Counters.create () in
  Fault.Counters.add_list d (Fault.Counters.to_list c);
  Fault.Counters.merge d c;
  checki "merged total" 6 (Fault.Counters.total d)

(* ------------------------------------------------------------------ *)
(* Chaos: a campaign with injected crashes/timeouts/faults survives    *)
(* ------------------------------------------------------------------ *)

let test_chaos_campaign_survives () =
  let qdir = temp_dir "amulet-quarantine" in
  (* p = 0.02 per test case for each of crash/timeout/sim-fault: with ~12
     test cases per round, well over 5% of the 50 rounds misbehave *)
  let chaos = Fault.injector ~p_crash:0.02 ~p_timeout:0.02 ~p_sim_fault:0.02 ~seed:99 () in
  (* zero uncaught exceptions: this call returning IS the property *)
  let r =
    Campaign.run (small_spec ~rounds:50 ~seed:11 ~chaos ~quarantine_dir:qdir ())
  in
  checki "all 50 rounds completed" 50 r.Campaign.programs_run;
  checkb "some rounds were discarded" true (r.Campaign.discarded_programs > 0);
  (* every discarded round was classified: per-class counts add up *)
  let total_faults =
    List.fold_left (fun acc (_, n) -> acc + n) 0 r.Campaign.fault_counts
  in
  checki "fault counts match discards" r.Campaign.discarded_programs total_faults;
  checkb "injected faults were counted" true
    (List.mem_assoc Fault.C_injected r.Campaign.fault_counts
    || List.mem_assoc Fault.C_deadline_exceeded r.Campaign.fault_counts
    || List.mem_assoc Fault.C_instance_crash r.Campaign.fault_counts);
  (* quarantine corpus holds the evidence *)
  checkb "quarantine corpus non-empty" true
    (Sys.file_exists qdir && Array.length (Sys.readdir qdir) > 0);
  checki "quarantined counter matches corpus" r.Campaign.quarantined
    (Array.length (Sys.readdir qdir));
  rm_rf qdir

let test_deadline_degrades_to_discard () =
  let r = Campaign.run (small_spec ~rounds:5 ~seed:3 ~deadline_ms:0. ()) in
  checki "all rounds ran" 5 r.Campaign.programs_run;
  checki "all rounds discarded" 5 r.Campaign.discarded_programs;
  checki "all classified as deadline" 5
    (Option.value
       (List.assoc_opt Fault.C_deadline_exceeded r.Campaign.fault_counts)
       ~default:0)

(* ------------------------------------------------------------------ *)
(* Journaling: roundtrip, atomicity, resume determinism                *)
(* ------------------------------------------------------------------ *)

let find_violation defense =
  let fz =
    Fuzzer.create
      (Run_spec.make ~defense ~seed:17 ~inputs:8 ~boosts:5 ~boot_insts:300 ())
  in
  let rec go n =
    if n = 0 then Alcotest.fail "no violation found"
    else match Fuzzer.round fz with Fuzzer.Found v -> v | _ -> go (n - 1)
  in
  go 20

let test_journal_roundtrip () =
  let v = find_violation Defense.speclfb in
  let j =
    {
      Journal.seed = 7;
      n_programs = 40;
      defense_name = "speclfb";
      contract_name = "CT-SEQ";
      programs_run = 13;
      discarded = 2;
      test_cases = 421;
      fault_counts = [ (Fault.C_emu_fault, 1); (Fault.C_deadline_exceeded, 1) ];
      detection_times = [ 0.5; 1.25 ];
      corpus = None;
      violations = [ Violation_io.of_violation v ];
    }
  in
  let path = Filename.temp_file "amulet" ".journal" in
  Journal.save j path;
  let l = Journal.load path in
  Sys.remove path;
  checki "seed" j.Journal.seed l.Journal.seed;
  checki "n_programs" j.Journal.n_programs l.Journal.n_programs;
  checki "programs_run" j.Journal.programs_run l.Journal.programs_run;
  checki "discarded" j.Journal.discarded l.Journal.discarded;
  checki "test_cases" j.Journal.test_cases l.Journal.test_cases;
  checkb "fault counts survive" true (l.Journal.fault_counts = j.Journal.fault_counts);
  checki "detection times survive" 2 (List.length l.Journal.detection_times);
  checki "violations survive" 1 (List.length l.Journal.violations);
  let sv = List.hd l.Journal.violations in
  checkb "violation program survives" true
    (sv.Violation_io.program.Amulet_isa.Program.code
    = v.Violation.program.Amulet_isa.Program.code);
  checkb "violation inputs survive" true
    (Input.equal sv.Violation_io.input_a v.Violation.input_a)

let test_journal_rejects_garbage () =
  let path = Filename.temp_file "amulet" ".journal" in
  Out_channel.with_open_text path (fun oc -> output_string oc "not a journal\n");
  (match Journal.load path with
  | exception Journal.Format_error _ -> ()
  | _ -> Alcotest.fail "expected Format_error");
  Sys.remove path

(* A journal whose embedded violation names an unknown register is torn,
   not fatal: recovery moves it aside and the campaign starts fresh. *)
let test_journal_corrupt_violation_quarantined () =
  let golden = In_channel.with_open_bin "golden/journal.amulet" In_channel.input_all in
  let sub = "[input_a.regs]\nRAX=" in
  let i =
    let rec find i = if String.sub golden i (String.length sub) = sub then i else find (i + 1) in
    find 0
  in
  let path = Filename.temp_file "amulet" ".journal" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub golden 0 i);
      output_string oc "[input_a.regs]\nRZZ=";
      let rest = i + String.length sub in
      output_string oc (String.sub golden rest (String.length golden - rest)));
  match Journal.recover path with
  | Journal.Quarantined { corrupt_path; error } ->
      checkb "moved aside" true (Sys.file_exists corrupt_path);
      checkb "error names the line" true
        (String.length error > 0);
      Sys.remove corrupt_path
  | Journal.Resumed _ -> Alcotest.fail "corrupt journal resumed"
  | Journal.Fresh -> Alcotest.fail "corrupt journal reported missing"

let test_checkpoint_resume_determinism () =
  let mk n = small_spec ~rounds:n ~seed:2024 () in
  (* the reference: one uninterrupted 10-round campaign *)
  let full = Campaign.run (mk 10) in
  (* the "killed" campaign: 4 rounds under a journal (as if killed at the
     round-4 checkpoint), then resumed to the full 10 *)
  let path = Filename.temp_file "amulet" ".journal" in
  ignore (Campaign.run ~journal_path:path ~checkpoint_every:1 (mk 4));
  let j = Journal.load path in
  checki "journal saw 4 rounds" 4 j.Journal.programs_run;
  let resumed = Campaign.run ~journal_path:path ~resume:j (mk 10) in
  Sys.remove path;
  checki "same programs_run" full.Campaign.programs_run resumed.Campaign.programs_run;
  checki "same violation count"
    (List.length full.Campaign.violations)
    (List.length resumed.Campaign.violations);
  checki "same test cases" full.Campaign.test_cases resumed.Campaign.test_cases;
  checki "same discards" full.Campaign.discarded_programs
    resumed.Campaign.discarded_programs

(* A journal whose embedded corpus checkpoint has a program that does not
   assemble resumes on a fresh corpus, exactly as if it carried none. *)
let test_resume_bad_corpus_fresh () =
  let mk n =
    Run_spec.make ~defense:Defense.baseline ~rounds:n ~seed:17 ~classify:false
      ~inputs:4 ~boosts:2 ~boot_insts:200
      ~generation:(Run_spec.guided ()) ()
  in
  let path = Filename.temp_file "amulet" ".journal" in
  ignore (Campaign.run ~journal_path:path ~checkpoint_every:1 (mk 3));
  let j = Journal.load path in
  Sys.remove path;
  let corpus = Option.get j.Journal.corpus in
  let marker = "\nprogram " in
  let rec find i =
    if String.sub corpus i (String.length marker) = marker then i else find (i + 1)
  in
  let at = find 0 + String.length marker in
  let bad =
    String.sub corpus 0 at ^ "FROB " ^ String.sub corpus at (String.length corpus - at)
  in
  let resumed = Campaign.run ~resume:{ j with Journal.corpus = Some bad } (mk 5) in
  let fresh = Campaign.run ~resume:{ j with Journal.corpus = None } (mk 5) in
  checki "resumed run completes" 5 resumed.Campaign.programs_run;
  checkb "bad checkpoint resumes on a fresh corpus" true
    (resumed.Campaign.corpus = fresh.Campaign.corpus)

(* Torn checkpoints quarantine, never crash. *)
let test_torn_journal_recovery () =
  let dir = temp_dir "amulet-torn" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "shard.json" in
  let spec =
    Run_spec.make ~defense:Defense.baseline ~rounds:2 ~seed:5 ~classify:false
      ~inputs:3 ~boosts:2 ~boot_insts:200 ()
  in
  ignore (Campaign.run ~journal_path:path ~checkpoint_every:1 spec);
  (* intact journal resumes *)
  (match Journal.recover path with
  | Journal.Resumed j -> checki "rounds journaled" 2 j.Journal.programs_run
  | _ -> Alcotest.fail "intact journal did not resume");
  (* tear it: keep only the first half of the bytes (a crash mid-write on a
     filesystem that reorders data and rename) *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full / 2)));
  (match Journal.recover path with
  | Journal.Quarantined { corrupt_path; error } ->
      checkb "torn journal moved aside" true (Sys.file_exists corrupt_path);
      checkb "original path freed" false (Sys.file_exists path);
      checkb "error captured" true (error <> "")
  | Journal.Resumed _ -> Alcotest.fail "torn journal resumed"
  | Journal.Fresh -> Alcotest.fail "torn journal reported missing");
  (* a second recovery starts fresh *)
  (match Journal.recover path with
  | Journal.Fresh -> ()
  | _ -> Alcotest.fail "quarantined path should now be fresh");
  rm_rf dir

(* The fingerprint-critical resume property: a campaign interrupted after a
   checkpoint that already holds violations, then resumed by another
   process, must fingerprint byte-identically to the uninterrupted run.
   The validating context is not journaled, so this only holds if the
   detection-time identity hashes survive the round-trip (a raw SIGKILL can
   land mid-round, after violations were checkpointed — [fuzz --resume]
   then adopts exactly such a journal). *)
let test_resume_preserves_identity () =
  let dir = temp_dir "amulet-resume-id" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "shard.json" in
  let spec rounds =
    Run_spec.make ~defense:Defense.baseline ~rounds ~seed:9 ~classify:false
      ~inputs:4 ~boosts:2 ~boot_insts:200 ()
  in
  let row (r : Campaign.result) =
    {
      Sweep.Ident.defense = r.Campaign.defense.Defense.name;
      contract = r.Campaign.contract_name;
      rounds = r.Campaign.programs_run;
      discarded = r.Campaign.discarded_programs;
      test_cases = r.Campaign.test_cases;
      violations = List.map Sweep.Ident.of_violation r.Campaign.violations;
    }
  in
  let full = Campaign.run (spec 3) in
  checkb "uninterrupted run finds violations" true
    (full.Campaign.violations <> []);
  (* run the first 2 rounds only — its final checkpoint is the journal a
     successor would adopt after a kill during round 3 *)
  ignore (Campaign.run ~journal_path:path ~checkpoint_every:1 (spec 2));
  let j =
    match Journal.recover path with
    | Journal.Resumed j -> j
    | _ -> Alcotest.fail "interrupted journal did not resume"
  in
  checkb "checkpoint being adopted already holds a violation" true
    (j.Journal.violations <> []);
  let resumed = Campaign.run ~resume:j (spec 3) in
  checki "resumed totals match" full.Campaign.test_cases
    resumed.Campaign.test_cases;
  Alcotest.check Alcotest.string "resumed fingerprint equals uninterrupted"
    (Sweep.Ident.fingerprint [ row full ])
    (Sweep.Ident.fingerprint [ row resumed ]);
  rm_rf dir

let () =
  Alcotest.run "robustness"
    [
      ( "fault",
        [
          Alcotest.test_case "classification" `Quick test_fault_classification;
          Alcotest.test_case "counters" `Quick test_fault_counters;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "campaign survives injection" `Slow
            test_chaos_campaign_survives;
          Alcotest.test_case "deadline degrades to discard" `Quick
            test_deadline_degrades_to_discard;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Slow test_journal_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_journal_rejects_garbage;
          Alcotest.test_case "corrupt violation quarantined" `Quick
            test_journal_corrupt_violation_quarantined;
          Alcotest.test_case "checkpoint/resume determinism" `Slow
            test_checkpoint_resume_determinism;
          Alcotest.test_case "bad corpus resumes fresh" `Quick
            test_resume_bad_corpus_fresh;
          Alcotest.test_case "torn checkpoint" `Slow test_torn_journal_recovery;
          Alcotest.test_case "resume preserves identity" `Slow
            test_resume_preserves_identity;
        ] );
    ]
