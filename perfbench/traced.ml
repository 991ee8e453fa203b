(* The traced runner: the same campaign and triage work as {!E2e}, driven
   through each layer's public functions with every call timed as a span
   from outside the library.

   It re-states the round loop of Fuzzer/Executor/Campaign for the paper
   defaults the workloads use (Opt mode, pooled engine, L1D+TLB traces),
   call for call and draw for draw, so it must reproduce the untraced
   campaign exactly; main.ml checks that it does before trusting any
   per-layer number. *)

open Amulet
open Amulet_isa
open Amulet_contracts
open Amulet_defenses
open Amulet_uarch
module Rng = Amulet_corpus.Rng
module Generator = Amulet_corpus.Generator
module Corpus = Amulet_corpus.Corpus
module Coverage = Amulet_corpus.Coverage
module Mutate = Amulet_corpus.Mutate
module Leakcheck = Amulet_static.Leakcheck

(* Structural spans: their self time is the runner's own glue and counts
   as "other". *)
let l_preset = Spans.layer "preset"
let l_round = Spans.layer "round"

(* Layer spans, one per public call (or tight group of calls). *)
let l_boot = Spans.layer "simulator.boot"
let l_restore = Spans.layer "simulator.restore"
let l_prime = Spans.layer "simulator.prime"
let l_load = Spans.layer "simulator.load"
let l_run = Spans.layer "simulator.run"
let l_input = Spans.layer "input"
let l_decode = Spans.layer "decoded"
let l_model = Spans.layer "leakage_model"
let l_extract = Spans.layer "utrace.extract"
let l_compare = Spans.layer "utrace.compare"
let l_validate = Spans.layer "validate"
let l_generator = Spans.layer "generator"
let l_mutate = Spans.layer "mutate"
let l_corpus = Spans.layer "corpus"
let l_leakcheck = Spans.layer "leakcheck"
let l_explain = Spans.layer "triage.explain"
let l_cluster = Spans.layer "triage.cluster"
let l_bisect = Spans.layer "triage.bisect"

(* Work counts.  Simulated quantities (cycles, instructions, squashes) and
   the other deterministic counts must repeat exactly for a seed. *)
type counts = {
  mutable rounds : int;
  mutable discarded : int;
  mutable test_cases : int;
  mutable violations : int;
  mutable prime_cycles : int;  (* simulated, fill priming only *)
  mutable run_cycles : int;  (* simulated, batch runs (not reruns) *)
  mutable run_insts : int;  (* simulated, committed *)
  mutable squashes : int;  (* simulated *)
  mutable decodes : int;  (* simulator pre-decode cache fills *)
  mutable input_bytes : int;  (* registers + sandbox of every input made *)
  mutable mutants : int;
  mutable same_class : int;
  mutable validations : int;  (* candidate pairs validated *)
  mutable confirmed : int;
  mutable reruns : int;  (* context reruns made by validations *)
  mutable rerun_cycles : int;  (* simulated *)
  mutable mutate_calls : int;
  mutable mutate_valid : int;
  mutable recorded : int;
  mutable admitted : int;
  mutable bisect_replays : int;
}

let new_counts () =
  {
    rounds = 0;
    discarded = 0;
    test_cases = 0;
    violations = 0;
    prime_cycles = 0;
    run_cycles = 0;
    run_insts = 0;
    squashes = 0;
    decodes = 0;
    input_bytes = 0;
    mutants = 0;
    same_class = 0;
    validations = 0;
    confirmed = 0;
    reruns = 0;
    rerun_cycles = 0;
    mutate_calls = 0;
    mutate_valid = 0;
    recorded = 0;
    admitted = 0;
    bisect_replays = 0;
  }

type preset_result = {
  defense_name : string;
  identities : (int64 * int64 * int64) list;
      (* (ctrace, trace A, trace B) hashes, in detection order *)
  preset_test_cases : int;
  campaign_s : float;  (* host seconds of the preset's rounds *)
}

type t = {
  spans : Spans.t;
  counts : counts;
  presets : preset_result list;
  report : Triage.report;
  wall_s : float;  (* host seconds, first boot to last bisection *)
}

type outcome = {
  trace : Utrace.t;
  context : Simulator.context;
  run_stats : Simulator.run_stats;
}

type case = {
  input : Input.t;
  ctrace_hash : int64;
  shape_hash : int64;
  spec_steps : int;
  mutable outcome : outcome option;
}

(* A completed round carries its coverage feedback, computed for every
   round as Fuzzer computes it. *)
type round_result =
  | Clean of Coverage.feedback
  | Found of Violation.t * Coverage.feedback
  | Discarded

(* Speculation window of the static pre-analysis, as Fuzzer derives it. *)
let static_window (contract : Contract.t) =
  match contract.Contract.speculation with
  | Contract.Conditional_branches { window; _ } ->
      max window Contract.default_window
  | Contract.No_speculation -> Contract.default_window

(* Test-case indices grouped by contract-trace hash, in Fuzzer's order. *)
let classes_of cases =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun i c ->
      let existing = Option.value (Hashtbl.find_opt tbl c.ctrace_hash) ~default:[] in
      Hashtbl.replace tbl c.ctrace_hash (i :: existing))
    cases;
  Hashtbl.fold (fun h members acc -> (h, List.rev members) :: acc) tbl []

(* The round's coverage feedback, folded as Fuzzer folds it. *)
let feedback_of (arr : case array) : Coverage.feedback =
  let fnv_prime = 0x100000001b3L in
  let shape_hash =
    Array.fold_left
      (fun h c -> Int64.mul (Int64.logxor h c.shape_hash) fnv_prime)
      0xcbf29ce484222325L arr
  in
  let classes = Hashtbl.create 16 in
  Array.iter (fun c -> Hashtbl.replace classes c.ctrace_hash ()) arr;
  let sum f =
    Array.fold_left
      (fun a c -> match c.outcome with Some o -> a + f o.run_stats | None -> a)
      0 arr
  in
  {
    Coverage.shape_hash;
    ctrace_classes = Hashtbl.length classes;
    spec_steps = Array.fold_left (fun a c -> a + c.spec_steps) 0 arr;
    cycles = sum (fun s -> s.Simulator.cycles);
    committed_insts = sum (fun s -> s.Simulator.committed_insts);
    squashes = sum (fun s -> s.Simulator.squashes);
    squashed_insts = sum (fun s -> s.Simulator.squashed_insts);
    spec_issued = sum (fun s -> s.Simulator.spec_issued);
    mispredicts = sum (fun s -> s.Simulator.mispredicts);
  }

let input_bytes (i : Input.t) = (8 * Array.length i.Input.regs) + Bytes.length i.Input.mem

(* One preset's campaign; returns the preset result and its violations. *)
let run_preset tr c ~first_round (spec : Run_spec.t) =
  let span l f = Spans.span tr l f in
  let defense = spec.Run_spec.defense in
  let contract = Option.value spec.Run_spec.contract ~default:defense.Defense.contract in
  (match
     ( spec.Run_spec.mode,
       spec.Run_spec.engine,
       spec.Run_spec.trace_format,
       spec.Run_spec.classify )
   with
  | Executor.Opt, Engine.Pooled, Utrace.L1d_tlb, false -> ()
  | _ ->
      invalid_arg
        "traced runner: Opt mode, pooled engine, L1D+TLB traces, no \
         detection-time classification only");
  let pages = defense.Defense.sandbox_pages in
  let sandbox_bytes = pages * Amulet_emu.Memory.page_size in
  let gen_cfg =
    { (Run_spec.generation_base spec.Run_spec.generation) with Generator.sandbox_pages = pages }
  in
  let sim_config = Option.value spec.Run_spec.sim_config ~default:(Defense.config defense) in
  let sim, boot =
    span l_boot (fun () ->
        let sim = Simulator.create ~boot_insts:spec.Run_spec.boot_insts ~pages sim_config in
        (sim, Simulator.snapshot sim))
  in
  let decodes0 = Simulator.decodes sim in
  let started = E2e.now () in
  let violations = ref [] in
  let test_cases0 = c.test_cases in
  (* One test case on the primed (or context-restored) simulator.  Inside
     a validation ([in_validate]) the calls are not spanned: a context
     rerun is validation work, billed to the enclosing validate span. *)
  let run_one ?(in_validate = false) flat input =
    let span l f = if in_validate then f () else span l f in
    let state = span l_input (fun () -> Input.to_state input) in
    let context =
      span l_load (fun () ->
          Simulator.load_state sim state;
          Simulator.clear_access_order sim;
          Simulator.snapshot_context sim)
    in
    let s = span l_run (fun () -> Simulator.run sim flat) in
    c.test_cases <- c.test_cases + 1;
    if in_validate then begin
      c.reruns <- c.reruns + 1;
      c.rerun_cycles <- c.rerun_cycles + s.Simulator.cycles
    end
    else begin
      c.run_cycles <- c.run_cycles + s.Simulator.cycles;
      c.run_insts <- c.run_insts + s.Simulator.committed_insts;
      c.squashes <- c.squashes + s.Simulator.squashes
    end;
    let trace =
      span l_extract (fun () ->
          Utrace.State_snapshot
            {
              l1d = Simulator.l1d_tags sim;
              tlb = Simulator.tlb_pages sim;
              l1i =
                (if defense.Defense.include_l1i then Some (Simulator.l1i_tags sim)
                 else None);
            })
    in
    { trace; context; run_stats = s }
  in
  let prime () =
    span l_prime (fun () ->
        match defense.Defense.priming with
        | Defense.Fill_sets ->
            let s = Simulator.prime_with_fills sim in
            c.prime_cycles <- c.prime_cycles + s.Simulator.cycles
        | Defense.Flush -> Simulator.prime_with_flush sim)
  in
  (* rerun a candidate pair from each run's starting context in turn *)
  let validate flat a b oa ob =
    c.validations <- c.validations + 1;
    let rerun ctx input =
      Simulator.restore_context sim ctx;
      (run_one ~in_validate:true flat input).trace
    in
    let try_ctx ctx =
      let ta = rerun ctx a.input in
      let tb = rerun ctx b.input in
      if Utrace.equal ta tb then None else Some (ta, tb, ctx)
    in
    match try_ctx oa.context with Some _ as r -> r | None -> try_ctx ob.context
  in
  let test_program rng flat =
    let decoded = span l_decode (fun () -> Decoded.decode flat) in
    let ctrace ~collect_taint input =
      let state = span l_input (fun () -> Input.to_state input) in
      span l_model (fun () -> Leakage_model.collect ~collect_taint ~decoded contract flat state)
    in
    let case input (r : Leakage_model.result) =
      {
        input;
        ctrace_hash = r.Leakage_model.ctrace_hash;
        shape_hash = r.Leakage_model.shape_hash;
        spec_steps = r.Leakage_model.spec_steps;
        outcome = None;
      }
    in
    let cases = ref [] and model_fault = ref false in
    for _ = 1 to spec.Run_spec.n_base_inputs do
      if not !model_fault then begin
        let base = span l_input (fun () -> Input.generate rng ~pages) in
        c.input_bytes <- c.input_bytes + input_bytes base;
        let r = ctrace ~collect_taint:true base in
        match r.Leakage_model.fault with
        | Some _ -> model_fault := true
        | None -> (
            cases := case base r :: !cases;
            match r.Leakage_model.taint with
            | None -> ()
            | Some taint ->
                for _ = 1 to spec.Run_spec.boosts_per_input do
                  let m = span l_input (fun () -> Input.mutate_free rng taint base) in
                  c.input_bytes <- c.input_bytes + input_bytes m;
                  let mr = ctrace ~collect_taint:false m in
                  if mr.Leakage_model.fault = None then begin
                    c.mutants <- c.mutants + 1;
                    if mr.Leakage_model.ctrace_hash = r.Leakage_model.ctrace_hash then
                      c.same_class <- c.same_class + 1;
                    cases := case m mr :: !cases
                  end
                done)
      end
    done;
    if !model_fault || !cases = [] then Discarded
    else begin
      let arr = Array.of_list (List.rev !cases) in
      span l_restore (fun () -> Simulator.restore sim boot);
      let batch_fault = ref false and i = ref 0 in
      while (not !batch_fault) && !i < Array.length arr do
        prime ();
        let o = run_one flat arr.(!i).input in
        arr.(!i).outcome <- Some o;
        if o.run_stats.Simulator.fault <> None then batch_fault := true;
        incr i
      done;
      if !batch_fault then Discarded
      else begin
        let candidate = ref None in
        List.iter
          (fun (_, members) ->
            match members with
            | first :: rest when Option.is_none !candidate ->
                let a = arr.(first) in
                List.iter
                  (fun j ->
                    let b = arr.(j) in
                    match (!candidate, a.outcome, b.outcome) with
                    | None, Some oa, Some ob ->
                        if not (span l_compare (fun () -> Utrace.equal oa.trace ob.trace))
                        then begin
                          match span l_validate (fun () -> validate flat a b oa ob) with
                          | Some (ta, tb, ctx) ->
                              c.confirmed <- c.confirmed + 1;
                              candidate := Some (a, b, ta, tb, ctx)
                          | None -> ()
                        end
                    | _ -> ())
                  rest
            | _ -> ())
          (classes_of (Array.to_list arr));
        let feedback = feedback_of arr in
        match !candidate with
        | None -> Clean feedback
        | Some (a, b, ta, tb, ctx) ->
            let v =
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
                contract;
                defense_name = defense.Defense.name;
                detection_seconds = E2e.now () -. started;
                signature = None;
              }
            in
            Found (v, feedback)
      end
    end
  in
  let generate rng =
    span l_generator (fun () -> Generator.generate_flat ~cfg:gen_cfg rng)
  in
  let random_round rng = test_program rng (generate rng) in
  let guided_round corpus rng =
    let params = Corpus.params corpus in
    let parent, flat =
      match span l_corpus (fun () -> Corpus.next corpus rng) with
      | Corpus.Fresh -> (None, generate rng)
      | Corpus.Mutate e -> (
          c.mutate_calls <- c.mutate_calls + 1;
          match
            span l_mutate (fun () ->
                Mutate.mutate ~cfg:gen_cfg ~energy:params.Corpus.energy rng
                  e.Corpus.program)
          with
          | Some (m, _) ->
              c.mutate_valid <- c.mutate_valid + 1;
              (Some e, m)
          | None -> (None, generate rng))
    in
    let bonus =
      Leakcheck.score
        (span l_leakcheck (fun () ->
             Leakcheck.analyze ~window:(static_window contract) ~sandbox_bytes flat))
    in
    let result = test_program rng flat in
    let record feedback ~violation =
      let novel = span l_corpus (fun () -> Corpus.observe corpus feedback) in
      c.recorded <- c.recorded + 1;
      if novel > 0 || violation then c.admitted <- c.admitted + 1;
      span l_corpus (fun () ->
          Corpus.record corpus ?parent ~program:flat ~novel ~violation ~bonus ())
    in
    (match result with
    | Clean fb -> record fb ~violation:false
    | Found (_, fb) -> record fb ~violation:true
    | Discarded -> ());
    span l_corpus (fun () -> Corpus.tick corpus);
    result
  in
  let t0 = E2e.now () in
  span l_preset (fun () ->
      let round =
        match (spec.Run_spec.generation, spec.Run_spec.static_filter) with
        | Run_spec.Random _, Run_spec.Off -> random_round
        | Run_spec.Guided { corpus = params; _ }, Run_spec.Score ->
            let corpus =
              span l_corpus (fun () -> Corpus.create ~params ~sandbox_bytes ())
            in
            guided_round corpus
        | _ -> invalid_arg "traced runner: random+off or guided+score only"
      in
      for i = 0 to spec.Run_spec.rounds - 1 do
        Spans.set_round tr (first_round + i);
        let rng = Rng.create ~seed:(Campaign.round_seed spec.Run_spec.seed i) in
        c.rounds <- c.rounds + 1;
        match span l_round (fun () -> round rng) with
        | Clean _ -> ()
        | Discarded -> c.discarded <- c.discarded + 1
        | Found (v, _) ->
            c.violations <- c.violations + 1;
            violations := v :: !violations
      done;
      Spans.set_round tr (-1));
  let campaign_s = E2e.now () -. t0 in
  c.decodes <- c.decodes + (Simulator.decodes sim - decodes0);
  let violations = List.rev !violations in
  ( {
      defense_name = defense.Defense.name;
      identities =
        List.map
          (fun (v : Violation.t) ->
            (v.Violation.ctrace_hash, v.Violation.trace_a_hash, v.Violation.trace_b_hash))
          violations;
      preset_test_cases = c.test_cases - test_cases0;
      campaign_s;
    },
    violations )

(* Configurations Triage.bisect replays a reproduced finding under: the
   base configuration, then up to [flips] single-flip variants, as
   Triage.flip_candidates lists them. *)
let flips (cfg : Config.t) =
  let unpatched b = if b then 0 else 1 in
  let flags =
    match cfg.Config.defense with
    | Config.Baseline | Config.Delay_on_miss | Config.Ghostminion -> 0
    | Config.Invisispec x -> unpatched x.Config.iv_patched_eviction
    | Config.Cleanupspec x ->
        unpatched x.Config.cs_patched_store_cleanup
        + unpatched x.Config.cs_patched_split_cleanup
    | Config.Stt x -> unpatched x.Config.stt_patched_store_tlb
    | Config.Speclfb x -> unpatched x.Config.lfb_patched_first_load
  in
  let cleanup = match cfg.Config.defense with Config.Cleanupspec _ -> 1 | _ -> 0 in
  flags + (if cfg.Config.nl_prefetcher then 1 else 0) + cleanup + 2

(* Replays one bisection made: 0 for a dead finding, 1 + flips tried for a
   named mechanism; without one, the base replay either failed (1) or every
   flip was tried.  Resolving that last case replays the base once more,
   so this runs after the traced wall clock has stopped. *)
let bisect_replays (f : Triage.finding) =
  match (f.Triage.status, f.Triage.mechanism) with
  | Triage.Not_reproduced, _ -> 0
  | Triage.Reproduced, Some m -> 1 + m.Triage.flips_tried
  | Triage.Reproduced, None ->
      let s = f.Triage.stored in
      let defense =
        Option.value (Defense.find s.Violation_io.defense_name) ~default:Defense.baseline
      in
      let contract =
        Option.value (Contract.find s.Violation_io.contract_name)
          ~default:defense.Defense.contract
      in
      let base = Defense.config defense in
      if
        Minimize.still_violates ~defense ~contract ~sim_config:(Some base)
          s.Violation_io.program s.Violation_io.input_a s.Violation_io.input_b
      then 1 + flips base
      else 1

let run specs =
  let tr = Spans.create () in
  let c = new_counts () in
  let t0 = E2e.now () in
  let _, rev_presets, rev_violations =
    List.fold_left
      (fun (first_round, ps, vs) (spec : Run_spec.t) ->
        let p, v = run_preset tr c ~first_round spec in
        let labelled = List.mapi (fun i v -> (E2e.origin spec i, v)) v in
        (first_round + spec.Run_spec.rounds, p :: ps, List.rev_append labelled vs))
      (0, [], []) specs
  in
  let sources =
    List.rev_map (fun (o, v) -> (o, Violation_io.of_violation v)) rev_violations
  in
  let findings =
    List.map (fun (o, s) -> (o, Spans.span tr l_explain (fun () -> Triage.explain s))) sources
  in
  let clusters = Spans.span tr l_cluster (fun () -> Triage.cluster findings) in
  let clusters =
    List.map
      (fun (cl : Triage.cluster) ->
        {
          cl with
          Triage.representative =
            Spans.span tr l_bisect (fun () -> Triage.bisect cl.Triage.representative);
        })
      clusters
  in
  let wall_s = E2e.now () -. t0 in
  List.iter
    (fun (cl : Triage.cluster) ->
      c.bisect_replays <- c.bisect_replays + bisect_replays cl.Triage.representative)
    clusters;
  let dead =
    List.length (List.filter (fun (_, f) -> f.Triage.status = Triage.Not_reproduced) findings)
  in
  {
    spans = tr;
    counts = c;
    presets = List.rev rev_presets;
    report = { Triage.clusters; total = List.length sources; not_reproduced = dead };
    wall_s;
  }
