(* Coverage-guided generation tests: mutation-engine validity (every
   mutant passes the well-formedness lint), corpus admission / eviction /
   aging, the warm-up and finder-dominated power schedule, checkpoint
   serialization round-trips, guided-campaign determinism (same seed →
   byte-identical corpus and violation identities across engine kinds and
   domain counts, and across kill/resume cycles), and the planted-seed
   smoke test: guided fuzzing amplifies a known released-artifact bug
   (figure 9 under STT) inside a budget where blind-random finds nothing. *)

open Amulet
open Amulet_isa
open Amulet_defenses
module C = Amulet_corpus.Corpus
module Cov = Amulet_corpus.Coverage
module Mut = Amulet_corpus.Mutate
module Rng = Amulet_corpus.Rng
module Generator = Amulet_corpus.Generator

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let sandbox_bytes = Amulet_emu.Memory.page_size

(* ------------------------------------------------------------------ *)
(* Assembly round-trip (the corpus dedup key and checkpoint format)     *)
(* ------------------------------------------------------------------ *)

let test_flat_roundtrip () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 100 do
    let flat = Generator.generate_flat rng in
    let text = Asm.print_flat flat in
    let back = Asm.parse_flat text in
    checks "print/parse/print is stable" text (Asm.print_flat back)
  done

(* ------------------------------------------------------------------ *)
(* Mutation engine                                                     *)
(* ------------------------------------------------------------------ *)

(* Property: across 1k parents, every produced mutant lints clean and
   differs from its parent.  Mutants that would break the sandbox-mask or
   forward-DAG invariants must be rejected inside [mutate], not surface. *)
let test_mutants_lint_valid () =
  let rng = Rng.create ~seed:42 in
  let cfg = Generator.default in
  let produced = ref 0 in
  for _ = 1 to 1000 do
    let flat = Generator.generate_flat ~cfg rng in
    match Mut.mutate ~cfg ~energy:4 rng flat with
    | None -> ()
    | Some (mutant, ops) ->
        incr produced;
        checkb "operator list is non-empty" true (ops <> []);
        checkb "mutant differs from parent" false
          (String.equal (Asm.print_flat mutant) (Asm.print_flat flat));
        let report = Amulet_static.Lint.check ~sandbox_bytes mutant in
        if not (Amulet_static.Lint.ok report) then
          Alcotest.failf "mutant fails lint (ops %s):@.%s"
            (String.concat "," (List.map Mut.op_name ops))
            (Format.asprintf "%a" Amulet_static.Lint.pp report)
  done;
  checkb "mutation applies to most parents" true (!produced > 700)

(* ------------------------------------------------------------------ *)
(* Corpus bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

let fresh_flat rng = Generator.generate_flat rng

let test_admission_eviction_aging () =
  let params =
    { C.default_params with C.capacity = 2; max_age = 3; mutate_fraction = 1.0 }
  in
  let c = C.create ~params ~sandbox_bytes () in
  let rng = Rng.create ~seed:1 in
  checkb "empty corpus schedules fresh" true (C.next c rng = C.Fresh);
  let p1 = fresh_flat rng and p2 = fresh_flat rng and p3 = fresh_flat rng in
  C.record c ~program:p1 ~novel:1 ~violation:false ~bonus:0 ();
  C.record c ~program:p2 ~novel:5 ~violation:false ~bonus:0 ();
  checki "novel programs admitted" 2 (C.size c);
  C.record c ~program:p2 ~novel:7 ~violation:false ~bonus:0 ();
  checki "duplicate text not re-admitted" 2 (C.size c);
  C.record c ~program:p3 ~novel:0 ~violation:false ~bonus:0 ();
  checki "nothing-novel not admitted" 2 (C.size c);
  C.record c ~program:p3 ~novel:0 ~violation:true ~bonus:0 ();
  checki "violation admitted, capacity held" 2 (C.size c);
  checki "lowest score evicted" 1 (C.evictions c);
  checkb "survivors are the higher scores" true
    (List.for_all (fun e -> e.C.score > 1) (C.entries c));
  (* aging: rounds without novelty retire entries past max_age *)
  for _ = 1 to 4 do
    C.tick c
  done;
  checki "stale entries retired" 0 (C.size c);
  checki "retirements counted as evictions" 3 (C.evictions c)

let test_parent_reward () =
  let c = C.create ~sandbox_bytes () in
  let rng = Rng.create ~seed:2 in
  let parent_prog = fresh_flat rng in
  C.record c ~program:parent_prog ~novel:3 ~violation:false ~bonus:0 ();
  let parent = List.hd (C.entries c) in
  C.tick c;
  checki "ticks age entries" 1 parent.C.age;
  C.record c ~parent ~program:(fresh_flat rng) ~novel:2 ~violation:true ~bonus:0
    ();
  checki "parent rejuvenated" 0 parent.C.age;
  checkb "parent rewarded for a violating child" true (parent.C.score > 3 + 2)

let test_seed_parsing () =
  let rng = Rng.create ~seed:3 in
  let flat_text = Asm.print_flat (fresh_flat rng) in
  let labelled = Reproducers.figure9.Reproducers.asm in
  let params =
    {
      C.default_params with
      C.seed_programs = [ flat_text; labelled; "definitely not asm (" ];
    }
  in
  (* figure 9 masks offsets beyond one page: give it STT's sandbox *)
  let sandbox_bytes =
    Defense.stt.Defense.sandbox_pages * Amulet_emu.Memory.page_size
  in
  let c = C.create ~params ~sandbox_bytes () in
  checki "flat and labelled syntax both planted" 2 (C.size c);
  checki "unparseable seed counted, not fatal" 1 (C.rejected_seeds c)

(* ------------------------------------------------------------------ *)
(* Power schedule                                                      *)
(* ------------------------------------------------------------------ *)

let test_schedule_warmup_and_finders () =
  let params = { C.default_params with C.mutate_fraction = 1.0 } in
  let c = C.create ~params ~sandbox_bytes () in
  let rng = Rng.create ~seed:4 in
  let weak = fresh_flat rng and strong = fresh_flat rng in
  C.record c ~program:weak ~novel:1 ~violation:false ~bonus:0 ();
  (* warm-up: novelty-only corpus spends just a quarter of the mutate
     fraction on mutation — coverage novelty alone predicts violations
     poorly, so exploration stays fresh-draw-heavy *)
  let mutates = ref 0 in
  for _ = 1 to 200 do
    match C.next c rng with C.Mutate _ -> incr mutates | C.Fresh -> ()
  done;
  checkb "warm-up is mostly fresh draws" true (!mutates < 100);
  (* once a finder exists the full fraction exploits, and the quadratic
     weight makes the finder dominate the novelty-only entry *)
  C.record c ~program:strong ~novel:0 ~violation:true ~bonus:0 ();
  let strong_text = Asm.print_flat strong in
  let total = ref 0 and strong_picks = ref 0 in
  for _ = 1 to 200 do
    match C.next c rng with
    | C.Fresh -> ()
    | C.Mutate e ->
        incr total;
        if String.equal e.C.text strong_text then incr strong_picks
  done;
  checki "full mutate fraction after a finder" 200 !total;
  checkb "finder dominates the schedule" true (!strong_picks * 10 >= !total * 9)

(* ------------------------------------------------------------------ *)
(* Checkpoint serialization                                            *)
(* ------------------------------------------------------------------ *)

let test_serialization_roundtrip () =
  let rng = Rng.create ~seed:6 in
  let params =
    { C.default_params with C.capacity = 8; seed_programs = [] }
  in
  let c = C.create ~params ~sandbox_bytes () in
  for i = 1 to 5 do
    let fb =
      {
        Cov.shape_hash = Int64.of_int (i * 7919);
        ctrace_classes = i;
        spec_steps = i * 11;
        cycles = i * 100;
        committed_insts = 50 + i;
        squashes = i;
        squashed_insts = i * 3;
        spec_issued = i * 2;
        mispredicts = i;
      }
    in
    ignore (C.observe c fb);
    C.record c ~program:(fresh_flat rng) ~novel:i ~violation:(i mod 2 = 0)
      ~bonus:i ()
  done;
  C.tick c;
  let s = C.to_string c in
  let c2 = C.of_string s in
  checks "checkpoint round-trips byte-identically" s (C.to_string c2);
  checki "entries preserved" (C.size c) (C.size c2);
  checki "round preserved" (C.round c) (C.round c2);
  checki "coverage features preserved" (Cov.size (C.coverage c))
    (Cov.size (C.coverage c2));
  checki "coverage observations preserved"
    (Cov.observations (C.coverage c))
    (Cov.observations (C.coverage c2));
  checkb "garbage is rejected with Failure" true
    (match C.of_string "not a corpus checkpoint" with
    | exception Failure _ -> true
    | _ -> false)

(* A checkpoint whose program line does not assemble is malformed input
   like any other: [Failure] naming the line, never [Asm.Parse_error]. *)
let index_of hay needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length hay then None
    else if String.sub hay i n = needle then Some i
    else go (i + 1)
  in
  go 0

let test_bad_program_line () =
  let c = C.create ~params:C.default_params ~sandbox_bytes () in
  C.record c ~program:(Asm.parse_flat "MOV RAX, 1") ~novel:1 ~violation:false
    ~bonus:0 ();
  let s = C.to_string c in
  let at = Option.get (index_of s "\nprogram ") + String.length "\nprogram " in
  let bad = String.sub s 0 at ^ "FROB " ^ String.sub s at (String.length s - at) in
  match C.of_string bad with
  | exception Failure msg ->
      checkb "message names the program line" true
        (index_of msg "program line 1" <> None)
  | exception e -> Alcotest.failf "raised %s, not Failure" (Printexc.to_string e)
  | _ -> Alcotest.fail "bad program line accepted"

(* ------------------------------------------------------------------ *)
(* Guided campaigns: determinism                                       *)
(* ------------------------------------------------------------------ *)

let guided_spec ?(engine = Engine.Pooled) ?(rounds = 8) defense =
  let corpus =
    { C.default_params with C.mutate_fraction = 0.8; energy = 2 }
  in
  Run_spec.make ~defense ~engine ~rounds ~seed:7 ~classify:false ~inputs:4
    ~boosts:2 ~boot_insts:200
    ~generation:(Run_spec.guided ~corpus ())
    ()

let ident (v : Violation.t) =
  Printf.sprintf "%Lx/%Lx/%Lx %s" v.Violation.ctrace_hash
    v.Violation.trace_a_hash v.Violation.trace_b_hash v.Violation.program_text

let idents (r : Campaign.result) =
  List.sort compare (List.map ident r.Campaign.violations)

let test_guided_deterministic () =
  let r1 = Campaign.run (guided_spec Defense.invisispec) in
  let r2 = Campaign.run (guided_spec Defense.invisispec) in
  checkb "guided campaigns run a corpus" true (r1.Campaign.corpus <> None);
  checkb "same seed, same corpus checkpoint" true
    (r1.Campaign.corpus = r2.Campaign.corpus);
  checkb "same seed, same violation identities" true (idents r1 = idents r2);
  (* coverage feedback comes from per-run pipeline counters, so the
     engine kind cannot perturb corpus evolution *)
  let r3 = Campaign.run (guided_spec ~engine:Engine.Naive Defense.invisispec) in
  checkb "corpus invariant under engine kind" true
    (r1.Campaign.corpus = r3.Campaign.corpus);
  checkb "violations invariant under engine kind" true (idents r1 = idents r3)

let test_guided_sweep_domain_invariant () =
  let js () =
    Sweep.jobs
      ~presets:[ Defense.invisispec; Defense.speclfb ]
      ~shards_per_preset:2 ~rounds:5 ~seed:11
      ~make_spec:(fun d -> guided_spec d)
      ()
  in
  let fp n = Sweep.fingerprint (Sweep.run ~domains:n (js ())) in
  checks "guided sweep fingerprint invariant under domains" (fp 1) (fp 3)

let test_guided_resume_equivalence () =
  let path = Filename.temp_file "amulet_corpus_resume" ".journal" in
  let full = Campaign.run (guided_spec ~rounds:10 Defense.invisispec) in
  let half =
    Campaign.run ~journal_path:path (guided_spec ~rounds:5 Defense.invisispec)
  in
  let j = Journal.load path in
  checkb "journal carries the corpus checkpoint" true (j.Journal.corpus <> None);
  checkb "journal corpus equals the campaign's" true
    (j.Journal.corpus = half.Campaign.corpus);
  (match j.Journal.corpus with
  | Some s -> ignore (C.of_string s)  (* embedded checkpoint parses back *)
  | None -> ());
  let resumed =
    Campaign.run ~journal_path:path ~resume:j
      (guided_spec ~rounds:10 Defense.invisispec)
  in
  checkb "kill/resume reproduces the uninterrupted violations" true
    (idents full = idents resumed);
  checkb "kill/resume reproduces the uninterrupted corpus" true
    (full.Campaign.corpus = resumed.Campaign.corpus);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Planted-seed smoke: guided beats random on a released bug           *)
(* ------------------------------------------------------------------ *)

(* Plant the figure-9 gadget (STT as released: tainted store fills the
   D-TLB) as a corpus seed.  The seed itself is never executed — only its
   mutants are — so this checks the whole loop: parse, schedule,
   mutate, and detect.  Random generation gets the same budget and finds
   nothing; both runs are fully deterministic, so this is not a
   flakiness-prone statistical assertion. *)
let test_guided_finds_planted_bug () =
  let corpus =
    {
      C.default_params with
      C.mutate_fraction = 1.0;
      energy = 1;
      seed_programs = [ Reproducers.figure9.Reproducers.asm ];
    }
  in
  let spec generation =
    Run_spec.make ~defense:Defense.stt ~rounds:4 ~seed:7 ~classify:false
      ~inputs:10 ~boosts:6 ~boot_insts:500 ~generation ()
  in
  let guided = Campaign.run (spec (Run_spec.guided ~corpus ())) in
  let random = Campaign.run (spec (Run_spec.random ())) in
  (match guided.Campaign.corpus with
  | None -> Alcotest.fail "guided campaign lost its corpus"
  | Some s ->
      let c = C.of_string s in
      checki "planted seed admitted" 0 (C.rejected_seeds c);
      checkb "corpus retained seeds" true (C.size c >= 1));
  checkb "guided finds the planted released bug" true
    (guided.Campaign.violations <> []);
  checkb "random finds nothing in the same budget" true
    (random.Campaign.violations = [])

let () =
  Alcotest.run "corpus"
    [
      ( "asm",
        [ Alcotest.test_case "flat round-trip" `Quick test_flat_roundtrip ] );
      ( "mutate",
        [
          Alcotest.test_case "1k mutants lint valid" `Slow
            test_mutants_lint_valid;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "admission/eviction/aging" `Quick
            test_admission_eviction_aging;
          Alcotest.test_case "parent reward" `Quick test_parent_reward;
          Alcotest.test_case "seed parsing" `Quick test_seed_parsing;
          Alcotest.test_case "schedule warm-up and finders" `Quick
            test_schedule_warmup_and_finders;
          Alcotest.test_case "serialization round-trip" `Quick
            test_serialization_roundtrip;
          Alcotest.test_case "bad program line" `Quick test_bad_program_line;
        ] );
      ( "guided",
        [
          Alcotest.test_case "deterministic across engines" `Slow
            test_guided_deterministic;
          Alcotest.test_case "sweep domain-invariant" `Slow
            test_guided_sweep_domain_invariant;
          Alcotest.test_case "kill/resume equivalence" `Slow
            test_guided_resume_equivalence;
          Alcotest.test_case "planted released bug found" `Slow
            test_guided_finds_planted_bug;
        ] );
    ]
