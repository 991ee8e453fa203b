(** The relational fuzzing round: generate a program and inputs, collect
    contract traces (leakage model) and microarchitectural traces
    (engine), and flag validated contract violations (Definition 2.1).

    Input boosting follows Revizor: one taint-tracking pass per base input
    identifies the input atoms the contract trace depends on; mutants
    randomize the complement, guaranteeing same-contract-trace input classes
    in which any microarchitectural difference is a leak. *)

open Amulet_isa
open Amulet_contracts
open Amulet_defenses
open Amulet_obs
module Rng = Amulet_corpus.Rng
module Generator = Amulet_corpus.Generator

type t = {
  spec : Run_spec.t;
      (* the run description, with the defense's sandbox capacity applied
         to the generation strategy's base config *)
  contract : Contract.t;
  engine : Engine.t;
  stats : Stats.t;
  mutable rng : Rng.t;
  started_at : float;
  mutable quarantined : int;
  faults : Fault.Counters.t;  (* every fault this fuzzer discarded *)
  metrics : Obs.t;
  mutable corpus : Amulet_corpus.Corpus.t option;
      (* present iff the generation strategy is [Guided]; replaced
         wholesale by journal resume *)
  mutable last_feedback : Amulet_corpus.Coverage.feedback option;
      (* coverage feedback of the last completed simulation batch, consumed
         by the guided round right after [test_program] returns *)
  mutable budget_check : (unit -> bool) option;
      (* campaign-level wall-clock budget, polled at the same points as the
         per-round deadline so a blown budget surfaces mid-round *)
  mutable last_decoded : Decoded.t option;
      (* pre-decode of the round's program, shared by every ctrace
         collection (base inputs and all their mutants); keyed on the flat
         program by physical equality *)
  (* fuzzer-level telemetry, resolved once against [metrics] *)
  m_rounds : Obs.counter;
  m_base_inputs : Obs.counter;
  m_mutants : Obs.counter;
  m_mutants_same_class : Obs.counter;
      (* boost effectiveness: mutants whose contract trace stayed in the
         base input's class, which is what taint-directed boosting aims
         for *)
  m_violations : Obs.counter;
  m_discards : Obs.counter;
  m_generate_time : Obs.timer;  (* program generation and mutation *)
  m_ctrace_time : Obs.timer;  (* contract traces (leakage model) *)
  (* static pre-filter telemetry *)
  m_static_analyzed : Obs.counter;
  m_static_leaky : Obs.counter;
  m_static_screened : Obs.counter;
  m_static_rescored : Obs.counter;
      (* score mode: extra generator draws taken to find a leaky candidate *)
  (* guided-generation telemetry *)
  m_corpus_fresh : Obs.counter;  (* rounds that generated a fresh program *)
  m_corpus_mutants : Obs.counter;  (* rounds that tested a corpus mutant *)
  m_corpus_novel : Obs.counter;  (* novel coverage features discovered *)
  m_corpus_seeds : Obs.gauge;  (* live corpus entries *)
  m_corpus_coverage : Obs.gauge;  (* distinct coverage features *)
}

(* Speculation window the static pre-filter assumes.  The μarch engines
   speculate regardless of what the contract models, so never assume less
   than the default window; a contract configured with a larger window
   widens the analysis. *)
let static_window (contract : Contract.t) =
  match contract.Contract.speculation with
  | Contract.Conditional_branches { window; _ } ->
      max window Contract.default_window
  | Contract.No_speculation -> Contract.default_window

let create ?(metrics = Obs.noop) ?engine (spec : Run_spec.t) =
  let defense = spec.Run_spec.defense in
  let contract =
    Option.value spec.Run_spec.contract ~default:defense.Defense.contract
  in
  (* the defense dictates the sandbox capacity; apply it to the strategy's
     base config so generation, mutation and input synthesis all agree *)
  let generation =
    Run_spec.map_generation_base
      (fun g -> { g with Generator.sandbox_pages = defense.Defense.sandbox_pages })
      spec.Run_spec.generation
  in
  let spec = { spec with Run_spec.generation } in
  let corpus =
    match Run_spec.generation_corpus generation with
    | None -> None
    | Some params ->
        let sandbox_bytes =
          defense.Defense.sandbox_pages * Amulet_emu.Memory.page_size
        in
        Some (Amulet_corpus.Corpus.create ~params ~sandbox_bytes ())
  in
  let engine, stats =
    match engine with
    | Some (engine, stats) ->
        (* injected warmed engine (sweep cache): its stats sink is adopted
           wholesale; spec.chaos is ignored because chaos is armed at
           engine creation *)
        (engine, stats)
    | None ->
        let stats = Stats.create ~metrics () in
        let engine =
          Engine.create ~boot_insts:spec.Run_spec.boot_insts
            ~format:spec.Run_spec.trace_format
            ?sim_config:spec.Run_spec.sim_config ?chaos:spec.Run_spec.chaos
            ~kind:spec.Run_spec.engine ~mode:spec.Run_spec.mode defense stats
        in
        (engine, stats)
  in
  {
    spec;
    contract;
    engine;
    stats;
    rng = Rng.create ~seed:spec.Run_spec.seed;
    started_at = Obs.Clock.now_s ();
    quarantined = 0;
    faults = Fault.Counters.create ();
    metrics;
    corpus;
    last_feedback = None;
    budget_check = None;
    last_decoded = None;
    m_rounds = Obs.counter metrics "fuzzer.rounds";
    m_base_inputs = Obs.counter metrics "fuzzer.base_inputs";
    m_mutants = Obs.counter metrics "fuzzer.boost.mutants";
    m_mutants_same_class = Obs.counter metrics "fuzzer.boost.same_class";
    m_violations = Obs.counter metrics "fuzzer.violations";
    m_discards = Obs.counter metrics "fuzzer.discards";
    m_generate_time = Obs.timer metrics "fuzzer.time.generate";
    m_ctrace_time = Obs.timer metrics "fuzzer.time.ctrace";
    m_static_analyzed = Obs.counter metrics "static.analyzed";
    m_static_leaky = Obs.counter metrics "static.leaky";
    m_static_screened = Obs.counter metrics "static.screened";
    m_static_rescored = Obs.counter metrics "static.rescored";
    m_corpus_fresh = Obs.counter metrics "corpus.fresh";
    m_corpus_mutants = Obs.counter metrics "corpus.mutants";
    m_corpus_novel = Obs.counter metrics "corpus.novel_features";
    m_corpus_seeds = Obs.gauge metrics "corpus.seeds";
    m_corpus_coverage = Obs.gauge metrics "corpus.coverage_features";
  }

let stats t = t.stats
let generator t = Run_spec.generator_config t.spec
let contract t = t.contract
let quarantined t = t.quarantined
let fault_counts t = Fault.Counters.to_list t.faults
let corpus t = t.corpus

(** Text checkpoint of the guided corpus ([None] for random specs);
    embedded in campaign journals so resumed shards continue from the
    corpus they left, not an empty one. *)
let corpus_snapshot t = Option.map Amulet_corpus.Corpus.to_string t.corpus

(** Restore a corpus checkpoint (journal resume).  No-op on random specs;
    raises [Failure] on a malformed snapshot. *)
let restore_corpus t s =
  match t.corpus with
  | None -> ()
  | Some _ -> t.corpus <- Some (Amulet_corpus.Corpus.of_string s)

(* Campaign-level wall-clock budget exhausted.  Deliberately NOT contained
   by [isolate_rounds]: the round's work is abandoned, and the campaign is
   expected to roll back to the last completed round boundary. *)
exception Budget

let set_budget_check t f = t.budget_check <- Some f

(** Replace the PRNG stream.  Campaigns reseed before every round with a
    seed derived from (campaign seed, round index), making each round
    reproducible in isolation — the property journal resume relies on. *)
let reseed t ~seed = t.rng <- Rng.create ~seed

(* ------------------------------------------------------------------ *)
(* Per-program round                                                   *)
(* ------------------------------------------------------------------ *)

type test_case = {
  input : Input.t;
  ctrace_hash : int64;
  shape_hash : int64;  (** contract-trace shape digest (coverage feature) *)
  spec_steps : int;  (** model instructions on mispredicted paths *)
  mutable outcome : Engine.outcome option;
}

type round_result =
  | No_violation of { test_cases : int }
  | Found of Violation.t
  | Discarded of Fault.t
      (** the round misbehaved (model/simulator fault, blown deadline,
          crash, injected fault) and was classified and dropped *)
  | Screened
      (** the static pre-filter classified the generated program as
          provably leak-free; no input was simulated
          ([static_filter = Screen] only) *)

(* Per-round wall-clock budget.  Raised internally, converted to a
   classified [Discarded] before test_program returns. *)
exception Deadline of Fault.t

type deadline = { round_started : float; budget_ms : float option }

let deadline_start t =
  { round_started = Obs.Clock.now_s (); budget_ms = t.spec.Run_spec.deadline_ms }

(* [Obs.Clock.elapsed_ms] clamps to >= 0: the wall clock is not monotonic,
   and an NTP step backwards must not instantly exhaust (or extend) the
   budget. *)
let check_deadline t d =
  (match t.budget_check with
  | Some exhausted when exhausted () -> raise Budget
  | _ -> ());
  match d.budget_ms with
  | None -> ()
  | Some budget ->
      let elapsed_ms = Obs.Clock.elapsed_ms ~since:d.round_started in
      if elapsed_ms > budget then
        raise
          (Deadline (Fault.Deadline_exceeded { elapsed_ms; deadline_ms = budget }))

(* Pre-decode of the round's program: decoded once, then shared by the
   ctrace collection of every input in the population. *)
let decoded_of t flat =
  match t.last_decoded with
  | Some d when Decoded.flat d == flat -> d
  | Some _ | None ->
      let d = Decoded.decode flat in
      t.last_decoded <- Some d;
      d

(* Contract trace of one input; [collect_taint] additionally runs the taint
   tracker for boosting. *)
let ctrace_of t flat input ~collect_taint =
  let decoded = decoded_of t flat in
  Obs.time t.m_ctrace_time (fun () ->
      let state = Input.to_state input in
      Leakage_model.collect ~collect_taint ~decoded t.contract flat state)

(* Build the input population: base inputs plus taint-directed mutants.
   A model fault aborts the population and names the offending input. *)
let build_test_cases t flat dl =
  let cases = ref [] in
  let fault = ref None in
  let n = t.spec.Run_spec.n_base_inputs in
  for _ = 1 to n do
    if !fault = None then begin
      check_deadline t dl;
      let base = Input.generate t.rng ~pages:(generator t).Generator.sandbox_pages in
      let result = ctrace_of t flat base ~collect_taint:true in
      match result.Leakage_model.fault with
      | Some f -> fault := Some (Fault.of_run_fault f, base)
      | None ->
          Obs.incr t.m_base_inputs;
          cases :=
            {
              input = base;
              ctrace_hash = result.ctrace_hash;
              shape_hash = result.Leakage_model.shape_hash;
              spec_steps = result.Leakage_model.spec_steps;
              outcome = None;
            }
            :: !cases;
          (match result.Leakage_model.taint with
          | None -> ()
          | Some taint ->
              for _ = 1 to t.spec.Run_spec.boosts_per_input do
                check_deadline t dl;
                let mutant = Input.mutate_free t.rng taint base in
                (* taint tracking is conservative, but verify: a mutant whose
                   contract trace moved would poison its class *)
                let mr = ctrace_of t flat mutant ~collect_taint:false in
                if mr.Leakage_model.fault = None then begin
                  Obs.incr t.m_mutants;
                  if mr.Leakage_model.ctrace_hash = result.Leakage_model.ctrace_hash
                  then Obs.incr t.m_mutants_same_class;
                  cases :=
                    {
                      input = mutant;
                      ctrace_hash = mr.ctrace_hash;
                      shape_hash = mr.Leakage_model.shape_hash;
                      spec_steps = mr.Leakage_model.spec_steps;
                      outcome = None;
                    }
                    :: !cases
                end
              done)
    end
  done;
  match !fault with Some (f, input) -> Error (f, input) | None -> Ok (List.rev !cases)

(* ------------------------------------------------------------------ *)
(* Fault containment: count, quarantine, discard                       *)
(* ------------------------------------------------------------------ *)

let quarantine t flat ?input fault =
  match t.spec.Run_spec.quarantine_dir with
  | None -> ()
  | Some dir -> (
      t.quarantined <- t.quarantined + 1;
      (* quarantine is best-effort evidence capture: an unwritable corpus
         directory must not take the campaign down *)
      try
        ignore
          (Violation_io.save_quarantine ~dir ~seq:t.quarantined ~fault
             ~defense_name:t.spec.Run_spec.defense.Defense.name
             ~contract_name:t.contract.Contract.name flat input)
      with Sys_error _ -> ())

(* Classified faults are mirrored into [fuzzer.fault.<class>] counters so
   fault-class rates appear in metric snapshots. *)
let count_fault t fault =
  Fault.Counters.record t.faults fault;
  Obs.incr
    (Obs.counter t.metrics
       ("fuzzer.fault." ^ Fault.class_name (Fault.class_of fault)))

let discard t flat ?input fault =
  count_fault t fault;
  Obs.incr t.m_discards;
  quarantine t flat ?input fault;
  Discarded fault

(* Group test-case indices by contract-trace hash. *)
let classes_of cases =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun i c ->
      let existing = Option.value (Hashtbl.find_opt tbl c.ctrace_hash) ~default:[] in
      Hashtbl.replace tbl c.ctrace_hash (i :: existing))
    cases;
  Hashtbl.fold (fun h members acc -> (h, List.rev members) :: acc) tbl []

(* Aggregate one round's deterministic coverage feedback: contract-trace
   shape/class structure from the model, per-run pipeline totals from the
   engine outcomes.  Case order is fixed (base inputs then their
   mutants), so the fold is reproducible across engines and domain
   counts. *)
let feedback_of (arr : test_case array) : Amulet_corpus.Coverage.feedback =
  let fnv_prime = 0x100000001b3L in
  let shape_hash =
    Array.fold_left
      (fun h c -> Int64.mul (Int64.logxor h c.shape_hash) fnv_prime)
      0xcbf29ce484222325L arr
  in
  let classes = Hashtbl.create 16 in
  Array.iter (fun c -> Hashtbl.replace classes c.ctrace_hash ()) arr;
  let spec_steps = Array.fold_left (fun a c -> a + c.spec_steps) 0 arr in
  let sum f =
    Array.fold_left
      (fun a c ->
        match c.outcome with
        | Some o -> a + f o.Engine.sim_stats
        | None -> a)
      0 arr
  in
  {
    Amulet_corpus.Coverage.shape_hash;
    ctrace_classes = Hashtbl.length classes;
    spec_steps;
    cycles = sum (fun s -> s.Amulet_uarch.Simulator.cycles);
    committed_insts = sum (fun s -> s.Amulet_uarch.Simulator.committed_insts);
    squashes = sum (fun s -> s.Amulet_uarch.Simulator.squashes);
    squashed_insts = sum (fun s -> s.Amulet_uarch.Simulator.squashed_insts);
    spec_issued = sum (fun s -> s.Amulet_uarch.Simulator.spec_issued);
    mispredicts = sum (fun s -> s.Amulet_uarch.Simulator.mispredicts);
  }

(* The round body; may raise ({!Deadline}, decoder errors, injected
   crashes) — {!test_program} contains whatever escapes. *)
let test_program_exn t (flat : Program.flat) dl : round_result =
  match build_test_cases t flat dl with
  | Error (f, input) -> discard t flat ~input f
  | Ok [] -> discard t flat Fault.Empty_population
  | Ok cases -> (
      let arr = Array.of_list cases in
      (* one batched pass: all boosted inputs of this test case against a
         warm simulator (the engine re-pristines per its mode and kind) *)
      let batch =
        Engine.run_batch t.engine
          ~check:(fun () -> check_deadline t dl)
          flat
          (Array.map (fun c -> c.input) arr)
      in
      Array.iteri (fun i o -> arr.(i).outcome <- o) batch.Engine.outcomes;
      match batch.Engine.batch_fault with
      | Some (f, input) -> discard t flat ~input f
      | None -> (
          t.last_feedback <- Some (feedback_of arr);
          let candidate = ref None in
          List.iter
            (fun (_hash, members) ->
              match members with
              | first :: rest when !candidate = None ->
                  check_deadline t dl;
                  let a = arr.(first) in
                  List.iter
                    (fun j ->
                      if !candidate = None then
                        let b = arr.(j) in
                        match a.outcome, b.outcome with
                        | Some oa, Some ob ->
                            if not (Utrace.equal oa.Engine.trace ob.Engine.trace)
                            then
                              (* candidate: re-run both from each input's
                                 starting context; context drift vanishes *)
                              (match
                                 Engine.validate t.engine flat a.input b.input
                                   [ oa.Engine.context; ob.Engine.context ]
                               with
                              | Some r -> candidate := Some (a, b, r)
                              | None -> ())
                        | _ -> ())
                    rest
              | _ -> ())
            (classes_of (Array.to_list arr));
          match !candidate with
          | None -> No_violation { test_cases = Array.length arr }
          | Some (a, b, { Engine.a = ra; b = rb; from = ctx }) ->
              let ta = ra.Engine.trace and tb = rb.Engine.trace in
              Obs.incr t.m_violations;
              Found
                {
                  Violation.program = flat;
                  program_text = Format.asprintf "%a" Program.pp_flat flat;
                  input_a = a.input;
                  input_b = b.input;
                  trace_a = ta;
                  trace_b = tb;
                  context = ctx;
                  ctrace_hash = a.ctrace_hash;
                  trace_a_hash = Utrace.hash ta;
                  trace_b_hash = Utrace.hash tb;
                  contract = t.contract;
                  defense_name = t.spec.Run_spec.defense.Defense.name;
                  detection_seconds = Obs.Clock.elapsed_s ~since:t.started_at;
                  signature = None;
                }))

(** Run one fuzzing round on [flat] (typically a freshly generated program):
    collect traces for a population of inputs and report the first validated
    violation, if any.  Fault-isolated: a blown deadline always degrades to
    a classified discard, and (unless [isolate_rounds] is off) so does any
    exception escaping the round. *)
let test_program t (flat : Program.flat) : round_result =
  Obs.incr t.m_rounds;
  let dl = deadline_start t in
  let contained () =
    try test_program_exn t flat dl with Deadline fault -> discard t flat fault
  in
  if t.spec.Run_spec.isolate_rounds then
    try contained () with
    | Budget as e -> raise e
    | exn -> discard t flat (Fault.of_exn exn)
  else contained ()

(* Static classification of a candidate program under this fuzzer's
   defense (sandbox capacity) and contract (speculation window). *)
let static_report t flat =
  let sandbox_bytes =
    t.spec.Run_spec.defense.Defense.sandbox_pages * Amulet_emu.Memory.page_size
  in
  Obs.incr t.m_static_analyzed;
  let report =
    Amulet_static.Leakcheck.analyze ~window:(static_window t.contract)
      ~sandbox_bytes flat
  in
  if report.Amulet_static.Leakcheck.leaky then Obs.incr t.m_static_leaky;
  report

let static_leaky t flat = (static_report t flat).Amulet_static.Leakcheck.leaky

(* Apply the static pre-filter: [None] means the round is screened out
   without simulating a single input. *)
let generate_filtered t gen =
  match t.spec.Run_spec.static_filter with
  | Run_spec.Off -> Some (gen ())
  | Run_spec.Screen ->
      let flat = gen () in
      if static_leaky t flat then Some flat
      else begin
        Obs.incr t.m_static_screened;
        None
      end
  | Run_spec.Score ->
      (* never skip a round: redraw a few times looking for a program with
         transmitter sites, falling back to the last draw *)
      let max_draws = 4 in
      let rec draw k =
        let flat = gen () in
        if k >= max_draws || static_leaky t flat then flat
        else begin
          Obs.incr t.m_static_rescored;
          draw (k + 1)
        end
      in
      Some (draw 1)

let gen_fresh t () =
  Obs.time t.m_generate_time (fun () ->
      Generator.generate_flat ~cfg:(generator t) t.rng)

(* One blind-random round (the classic [Random] strategy). *)
let random_round t : round_result =
  match generate_filtered t (gen_fresh t) with
  | Some flat -> test_program t flat
  | None -> Screened

(* One guided round: the corpus scheduler decides generate-vs-mutate, the
   mutation engine produces a lint-valid mutant (falling back to fresh
   generation when it can't), and after simulation the coverage feedback
   decides corpus admission.  All corpus state changes happen at round
   granularity, after [test_program] returns, so campaign checkpoints
   (taken at round boundaries) always capture a consistent corpus. *)
let guided_round t c : round_result =
  let open Amulet_corpus in
  let params = Corpus.params c in
  let parent, flat =
    match Corpus.next c t.rng with
    | Corpus.Fresh ->
        Obs.incr t.m_corpus_fresh;
        (None, gen_fresh t ())
    | Corpus.Mutate e -> (
        match
          Obs.time t.m_generate_time (fun () ->
              Mutate.mutate ~cfg:(generator t)
                ~energy:params.Corpus.energy t.rng e.Corpus.program)
        with
        | Some (m, _ops) ->
            Obs.incr t.m_corpus_mutants;
            (Some e, m)
        | None ->
            (* no applicable operator produced a valid mutant *)
            Obs.incr t.m_corpus_fresh;
            (None, gen_fresh t ()))
  in
  (* static pre-filter: [Screen] skips provably leak-free candidates
     before simulation; [Score] feeds the transmitter count in as
     mutation energy (corpus admission bonus) instead of redrawing *)
  let screened, bonus =
    match t.spec.Run_spec.static_filter with
    | Run_spec.Off -> (false, 0)
    | Run_spec.Screen ->
        if static_leaky t flat then (false, 0)
        else begin
          Obs.incr t.m_static_screened;
          (true, 0)
        end
    | Run_spec.Score ->
        (false, Amulet_static.Leakcheck.score (static_report t flat))
  in
  t.last_feedback <- None;
  let result = if screened then Screened else test_program t flat in
  (match result with
  | No_violation _ | Found _ ->
      let novel =
        match t.last_feedback with
        | Some fb -> Corpus.observe c fb
        | None -> 0
      in
      if novel > 0 then Obs.add t.m_corpus_novel novel;
      let violation = match result with Found _ -> true | _ -> false in
      Corpus.record c ?parent ~program:flat ~novel ~violation ~bonus ()
  | Discarded _ | Screened -> ());
  Corpus.tick c;
  Obs.set_gauge t.m_corpus_seeds (float_of_int (Corpus.size c));
  Obs.set_gauge t.m_corpus_coverage
    (float_of_int (Coverage.size (Corpus.coverage c)));
  result

(** Run one fuzzing round: produce a test program per the spec's generation
    strategy ([Random]: fresh draw; [Guided]: scheduler-driven generate-or-
    mutate with coverage-feedback corpus admission) and fuzz it.  With
    [static_filter = Screen] a provably leak-free program ends the round
    immediately as {!Screened}. *)
let round t : round_result =
  let body () =
    match t.corpus with
    | Some c -> guided_round t c
    | None -> random_round t
  in
  if t.spec.Run_spec.isolate_rounds then
    try body () with
    | Budget as e -> raise e
    | exn ->
        (* no program to quarantine: generation/mutation itself misbehaved
           (test_program contains its own failures) *)
        let fault = Fault.of_exn exn in
        count_fault t fault;
        Discarded fault
  else body ()
