(* Sweep orchestrator tests: preset selection, the full matrix completing
   under a small budget, released-bug presets finding their planted
   violations, scheduler determinism (fingerprints identical across domain
   counts), [fuzz -j] instances and crashed-shard merging, shard
   journaling, and whole-run budget exhaustion stopping at a round
   boundary. *)

open Amulet
open Amulet_isa
open Amulet_defenses

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Preset selection                                                    *)
(* ------------------------------------------------------------------ *)

let test_select () =
  (match Sweep.select [] with
  | Ok ds -> checki "empty selects all" (List.length Defense.all) (List.length ds)
  | Error e -> Alcotest.failf "unexpected error: %s" e);
  (match Sweep.select [ "invisi*" ] with
  | Ok ds ->
      checkb "glob matches the invisispec family" true
        (List.mem Defense.invisispec ds && List.mem Defense.invisispec_patched ds);
      checkb "glob excludes others" false (List.mem Defense.baseline ds)
  | Error e -> Alcotest.failf "unexpected error: %s" e);
  (match Sweep.select [ "SpecLFB" ] with
  | Ok [ d ] -> checks "case-insensitive exact" "speclfb" d.Defense.name
  | Ok _ -> Alcotest.fail "expected exactly one preset"
  | Error e -> Alcotest.failf "unexpected error: %s" e);
  match Sweep.select [ "baseline"; "nada*" ] with
  | Error e ->
      checks "first unmatched pattern reported"
        "no defense preset matches \"nada*\"" e
  | Ok _ -> Alcotest.fail "expected an error for an unmatched pattern"

(* ------------------------------------------------------------------ *)
(* Every preset completes a small shard                                 *)
(* ------------------------------------------------------------------ *)

let small_matrix ?(shards_per_preset = 1) ?(rounds = 1) ?presets ?(seed = 9) () =
  Sweep.jobs ?presets ~shards_per_preset ~rounds ~seed
    ~make_spec:(fun d ->
      Run_spec.make ~defense:d ~classify:false ~inputs:3 ~boosts:2
        ~boot_insts:200 ())
    ()

let test_all_presets_complete () =
  let rep = Sweep.run (small_matrix ()) in
  checki "one row per preset" (List.length Defense.all) (List.length rep.Sweep.rows);
  checki "no crashed shards" 0 rep.Sweep.crashed;
  checki "all jobs ran" (List.length Defense.all) rep.Sweep.jobs;
  List.iter
    (fun { Sweep.result = r; _ } ->
      checki (r.Campaign.defense.Defense.name ^ " completed its rounds") 1
        (r.Campaign.programs_run + r.Campaign.discarded_programs);
      checkb
        (r.Campaign.defense.Defense.name ^ " contract derived")
        true
        (r.Campaign.contract_name <> ""))
    rep.Sweep.rows

(* ------------------------------------------------------------------ *)
(* Released-bug presets detect their planted violations                 *)
(* ------------------------------------------------------------------ *)

(* The random-campaign route, bounded: each released defense stops at its
   first violation.  STT's KV3 is too rare for a small random budget (the
   paper reports ~3 h average detection), so it is exercised through the
   crafted figure-9 program below instead. *)
let test_released_bugs_detected () =
  let presets = [ Defense.baseline; Defense.invisispec; Defense.speclfb ] in
  let js =
    Sweep.jobs ~presets ~rounds:25 ~seed:11
      ~make_spec:(fun d ->
        Run_spec.make ~defense:d ~stop_after:1 ~classify:false ~inputs:6
          ~boosts:4 ~boot_insts:500 ())
      ()
  in
  let rep = Sweep.run js in
  List.iter
    (fun (row : Sweep.row) ->
      let name = row.Sweep.result.Campaign.defense.Defense.name in
      checkb (name ^ " leaks under its contract") true
        (Campaign.detected row.Sweep.result);
      checkb (name ^ " has a time-to-first-leak") true
        (row.Sweep.time_to_first_leak <> None))
    rep.Sweep.rows

let test_cleanupspec_released_bug () =
  let js =
    Sweep.jobs ~presets:[ Defense.cleanupspec ] ~rounds:40 ~seed:11
      ~make_spec:(fun d ->
        Run_spec.make ~defense:d ~stop_after:1 ~classify:false ~inputs:6
          ~boosts:4 ~boot_insts:500 ())
      ()
  in
  let rep = Sweep.run js in
  match rep.Sweep.rows with
  | [ r ] -> checkb "cleanupspec leaks" true (Campaign.detected r.Sweep.result)
  | _ -> Alcotest.fail "expected exactly one row"

(* Figure 9 (paper): STT's tainted speculative store fills the D-TLB. *)
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

let test_stt_released_bug () =
  let fz =
    Fuzzer.create
      (Run_spec.make ~defense:Defense.stt ~seed:7 ~inputs:10 ~boosts:6
         ~boot_insts:500 ())
  in
  match Fuzzer.test_program fz (Program.flatten (Asm.parse figure9_src)) with
  | Fuzzer.Found _ -> ()
  | Fuzzer.No_violation _ -> Alcotest.fail "STT did not leak the planted program"
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded f -> Alcotest.failf "discarded: %s" (Fault.to_string f)

(* ------------------------------------------------------------------ *)
(* Scheduler determinism                                                *)
(* ------------------------------------------------------------------ *)

let test_domains_deterministic () =
  let presets =
    [ Defense.baseline; Defense.invisispec; Defense.cleanupspec; Defense.speclfb ]
  in
  let mk () =
    small_matrix ~presets ~shards_per_preset:2 ~rounds:2 ~seed:5 ()
  in
  let r1 = Sweep.run ~domains:1 (mk ()) in
  let r4 = Sweep.run ~domains:4 (mk ()) in
  checks "fingerprints identical across domain counts" (Sweep.fingerprint r1)
    (Sweep.fingerprint r4);
  checki "same total test cases" r1.Sweep.test_cases r4.Sweep.test_cases;
  checki "same job count" r1.Sweep.jobs r4.Sweep.jobs;
  checki "no crashes either way" 0 (r1.Sweep.crashed + r4.Sweep.crashed)

(* ------------------------------------------------------------------ *)
(* fuzz -j: N instances of one preset as an N-shard sweep               *)
(* ------------------------------------------------------------------ *)

let shard_spec ?chaos ?isolate_rounds ~rounds ~seed () =
  Run_spec.make ~defense:Defense.baseline ~rounds ~seed ~classify:false
    ~inputs:4 ~boosts:2 ~boot_insts:200 ?chaos ?isolate_rounds ()

(* isolation off, so the injected crash escapes the round and kills the
   whole shard *)
let crashing ~rounds =
  shard_spec ~rounds ~seed:5 ~isolate_rounds:false
    ~chaos:(Fault.injector ~p_crash:1.0 ~seed:1 ())
    ()

let crashes (r : Campaign.result) =
  Option.value (List.assoc_opt Fault.C_instance_crash r.Campaign.fault_counts)
    ~default:0

let only_row (rep : Sweep.report) =
  match rep.Sweep.rows with
  | [ row ] -> row
  | _ -> Alcotest.fail "expected exactly one row"

(* The merged violations of the N jobs are the N single campaigns'
   violations, concatenated in instance order. *)
let test_instances_merge () =
  let spec = shard_spec ~rounds:4 ~seed:5 () in
  let rep = Sweep.run ~domains:3 (Sweep.instances 3 spec) in
  let merged = (only_row rep).Sweep.result in
  checki "programs summed" 12 merged.Campaign.programs_run;
  checkb "test cases summed" true (merged.Campaign.test_cases > 0);
  let singles =
    List.init 3 (fun i -> Campaign.run (Run_spec.with_seed spec (5 + (i * 7919))))
  in
  checkb "violations to compare" true (merged.Campaign.violations <> []);
  let idents vs = List.map Sweep.Ident.of_violation vs in
  checkb "violations = concatenated single runs" true
    (idents merged.Campaign.violations
    = idents (List.concat_map (fun r -> r.Campaign.violations) singles));
  checki "test cases = summed single runs"
    (List.fold_left (fun acc r -> acc + r.Campaign.test_cases) 0 singles)
    merged.Campaign.test_cases;
  let again = Sweep.run ~domains:1 (Sweep.instances 3 spec) in
  checks "deterministic across runs and domain counts" (Sweep.fingerprint rep)
    (Sweep.fingerprint again)

(* A crashing shard loses none of the other shards' programs and counts as
   exactly one instance crash. *)
let test_crashing_instance_keeps_survivors () =
  let rounds = 3 in
  let js =
    List.mapi
      (fun i (j : Sweep.job) ->
        if i = 0 then { j with Sweep.spec = crashing ~rounds } else j)
      (Sweep.instances 3 (shard_spec ~rounds ~seed:5 ()))
  in
  let rep = Sweep.run ~domains:3 js in
  (match rep.Sweep.shards with
  | { Sweep.outcome = Sweep.Crashed _; _ } :: _ -> ()
  | _ -> Alcotest.fail "shard 0 should have crashed");
  let row = only_row rep in
  checki "survivors' programs merged" (2 * rounds)
    row.Sweep.result.Campaign.programs_run;
  checkb "test cases from survivors" true
    (row.Sweep.result.Campaign.test_cases > 0);
  checki "one crashed shard" 1 row.Sweep.crashed_shards;
  checki "crash recorded in fault counts" 1 (crashes row.Sweep.result)

(* An all-crashed preset degrades to a structured row — zero work, the
   contract still named, one crash per shard — never an exception. *)
let test_all_crash_structured () =
  let rep = Sweep.run ~domains:2 (Sweep.instances 2 (crashing ~rounds:2)) in
  let row = only_row rep in
  let r = row.Sweep.result in
  checki "no programs completed" 0 r.Campaign.programs_run;
  checkb "no violations" true (r.Campaign.violations = []);
  checks "contract name still derived" "CT-SEQ" r.Campaign.contract_name;
  checki "one crash per shard" 2 (crashes r);
  checki "every shard crashed" 2 row.Sweep.crashed_shards;
  checkb "duration recorded" true (r.Campaign.duration >= 0.)

(* ------------------------------------------------------------------ *)
(* Shard journaling                                                     *)
(* ------------------------------------------------------------------ *)

let temp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let test_shard_journals () =
  let dir = temp_dir "amulet-sweep-journal" in
  let presets = [ Defense.baseline; Defense.speclfb ] in
  let js = small_matrix ~presets ~rounds:2 () in
  let rep = Sweep.run ~journal_dir:dir ~checkpoint_every:1 js in
  checki "no crashes" 0 rep.Sweep.crashed;
  let files = Sys.readdir dir in
  checki "one journal per shard" (List.length js) (Array.length files);
  (* every journal is loadable and saw its shard's rounds *)
  Array.iter
    (fun f ->
      let j = Journal.load (Filename.concat dir f) in
      checki (f ^ " rounds journaled") 2 j.Journal.programs_run)
    files;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Whole-run budget: exhaustion stops cleanly at a round boundary       *)
(* ------------------------------------------------------------------ *)

let test_budget_exhaustion () =
  let r =
    Campaign.run
      (Run_spec.make ~defense:Defense.baseline ~rounds:50 ~budget_ms:0.
         ~classify:false ~inputs:3 ~boosts:2 ~boot_insts:200 ())
  in
  checkb "budget exhaustion flagged" true r.Campaign.budget_exhausted;
  checki "no partial round counted" 0 r.Campaign.programs_run;
  (* a checkpoint written mid-budget is a loadable round-boundary journal *)
  let path = Filename.temp_file "amulet-sweep" ".journal" in
  ignore
    (Campaign.run ~journal_path:path ~checkpoint_every:1
       (Run_spec.make ~defense:Defense.baseline ~rounds:3 ~budget_ms:60000.
          ~classify:false ~inputs:3 ~boosts:2 ~boot_insts:200 ()));
  let j = Journal.load path in
  Sys.remove path;
  checki "journal at round boundary" 3 j.Journal.programs_run

(* ------------------------------------------------------------------ *)
(* Report export                                                        *)
(* ------------------------------------------------------------------ *)

let test_json_export () =
  let rep = Sweep.run (small_matrix ~presets:[ Defense.baseline ] ()) in
  let json = Sweep.to_json rep in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "schema tagged" true (contains "\"amulet.sweep/1\"");
  checkb "fingerprint embedded" true (contains (Sweep.fingerprint rep));
  checkb "row for the preset" true (contains "\"baseline\"")

let () =
  Alcotest.run "sweep"
    [
      ("select", [ Alcotest.test_case "globs" `Quick test_select ]);
      ( "matrix",
        [
          Alcotest.test_case "all presets complete" `Slow test_all_presets_complete;
          Alcotest.test_case "released bugs detected" `Slow
            test_released_bugs_detected;
          Alcotest.test_case "cleanupspec released bug" `Slow
            test_cleanupspec_released_bug;
          Alcotest.test_case "stt planted program" `Slow test_stt_released_bug;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "domains 1 vs 4 identical" `Slow
            test_domains_deterministic;
          Alcotest.test_case "shard journals" `Slow test_shard_journals;
        ] );
      ( "budget",
        [ Alcotest.test_case "round-boundary stop" `Quick test_budget_exhaustion ] );
      ("export", [ Alcotest.test_case "json document" `Slow test_json_export ]);
      ( "parallel",
        [ Alcotest.test_case "merge + determinism" `Slow test_instances_merge ] );
      ( "parallel-supervision",
        [
          Alcotest.test_case "crashing instance keeps survivors" `Slow
            test_crashing_instance_keeps_survivors;
          Alcotest.test_case "all-crash structured result" `Slow
            test_all_crash_structured;
        ] );
    ]
