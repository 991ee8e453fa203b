(* Determinism suite: identical (seed, config) campaigns must produce
   identical violation sets and identical deterministic telemetry counters
   across execution engines (pooled vs naive), and turning telemetry on
   must leave every trace byte-identical (trace invisibility).

   Deterministic counters are the uarch.* hardware counts and fuzzer.*
   campaign counts; engine.* metrics legitimately differ between engine kinds
   (that is what they measure), and timers/histograms carry wall-clock
   time, so both are excluded from cross-engine comparison. *)

open Amulet
open Amulet_defenses
module Obs = Amulet_obs.Obs
module Rng = Amulet_corpus.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let spec engine =
  Run_spec.make ~defense:Defense.speclfb ~engine ~rounds:5 ~seed:17
    ~classify:false ~inputs:6 ~boosts:3 ~boot_insts:250 ()

let run_campaign ?(telemetry = true) engine =
  let metrics = if telemetry then Obs.create () else Obs.noop in
  Campaign.run ~metrics (spec engine)

(* Everything that identifies a violation, including both raw trace hashes
   — if telemetry or the engine perturbed a single trace byte, the key
   changes. *)
let violation_keys r =
  List.map
    (fun (v : Violation.t) ->
      ( v.Violation.ctrace_hash,
        Utrace.hash v.Violation.trace_a,
        Utrace.hash v.Violation.trace_b,
        v.Violation.program_text ))
    r.Campaign.violations

let deterministic_counters r =
  (Obs.Snapshot.filter
     (fun n -> has_prefix "uarch." n || has_prefix "fuzzer." n)
     r.Campaign.metrics)
    .Obs.Snapshot.counters

let test_cross_engine () =
  let rp = run_campaign Engine.Pooled in
  let rn = run_campaign Engine.Naive in
  checkb "violation sets identical across engines" true
    (violation_keys rp = violation_keys rn);
  checki "programs_run identical" rp.Campaign.programs_run rn.Campaign.programs_run;
  checki "test_cases identical" rp.Campaign.test_cases rn.Campaign.test_cases;
  checki "discards identical" rp.Campaign.discarded_programs
    rn.Campaign.discarded_programs;
  let cp = deterministic_counters rp and cn = deterministic_counters rn in
  checkb "some uarch/fuzzer counters recorded" true (cp <> []);
  checkb "uarch.* and fuzzer.* counters identical across engines" true (cp = cn);
  checkb "hardware counters are live" true
    (Obs.Snapshot.counter_value rp.Campaign.metrics "uarch.insts.retired" > 0
    && Obs.Snapshot.counter_value rp.Campaign.metrics "uarch.cycles" > 0)

let test_telemetry_invisible () =
  let on = run_campaign ~telemetry:true Engine.Pooled in
  let off = run_campaign ~telemetry:false Engine.Pooled in
  checkb "telemetry off produced no metrics" true
    (off.Campaign.metrics.Obs.Snapshot.counters = []);
  checkb "violation sets (incl. trace hashes) unchanged by telemetry" true
    (violation_keys on = violation_keys off);
  checki "programs_run unchanged" on.Campaign.programs_run off.Campaign.programs_run;
  checki "test_cases unchanged" on.Campaign.test_cases off.Campaign.test_cases

let test_same_engine_repeatable () =
  let a = run_campaign Engine.Pooled in
  let b = run_campaign Engine.Pooled in
  (* same engine kind: even the engine.* counters must repeat exactly *)
  let counters r =
    (Obs.Snapshot.filter
       (fun n ->
         has_prefix "uarch." n || has_prefix "fuzzer." n
         || has_prefix "engine." n)
       r.Campaign.metrics)
      .Obs.Snapshot.counters
  in
  checkb "full counter set repeats" true (counters a = counters b);
  checkb "violations repeat" true (violation_keys a = violation_keys b)

(* ------------------------------------------------------------------ *)
(* Hot-loop equivalence: pooled against naive engines, and the fused
   ctrace fast path against plain per-instruction emulation.  The hot
   loop's own outputs on fixed cases are pinned by golden/hot_loop.tsv
   (test_golden.ml).                                                   *)
(* ------------------------------------------------------------------ *)

open Amulet_isa
open Amulet_contracts
module Generator = Amulet_corpus.Generator

(* the released (bug-bearing) presets the paper's campaigns target *)
let released =
  [
    Defense.baseline;
    Defense.invisispec;
    Defense.cleanupspec;
    Defense.stt;
    Defense.speclfb;
  ]

let gen_cases ?(pages = 1) ~programs ~inputs ~seed () =
  let rng = Rng.create ~seed in
  Array.init programs (fun _ ->
      let flat = Generator.generate_flat rng in
      let ins = Array.init inputs (fun _ -> Input.generate rng ~pages) in
      (flat, ins))

let outcomes_of ~kind d cases =
  let eng =
    Engine.create ~boot_insts:100 ~kind ~mode:Executor.Opt d
      (Stats.create ())
  in
  Array.map (fun (flat, ins) -> (Engine.run_batch eng flat ins).Engine.outcomes)
    cases

let check_outcomes_equal ~what a b =
  Array.iteri
    (fun p oa ->
      let ob = b.(p) in
      checki (what ^ ": same outcome count") (Array.length oa) (Array.length ob);
      Array.iteri
        (fun i xa ->
          let ctx = Printf.sprintf "%s: program %d input %d" what p i in
          match (xa, ob.(i)) with
          | Some (xa : Engine.outcome), Some xb ->
              checkb (ctx ^ ": utrace byte-identical") true
                (Utrace.equal xa.Engine.trace xb.Engine.trace);
              checki (ctx ^ ": cycles") xa.Engine.cycles xb.Engine.cycles;
              checkb (ctx ^ ": sim_stats") true
                (xa.Engine.sim_stats = xb.Engine.sim_stats)
          | None, None -> ()
          | _ -> Alcotest.fail (ctx ^ ": one engine faulted, the other did not"))
        oa)
    a

(* Pooled and naive engines must agree byte-for-byte on every released
   preset (the cross-engine guarantee the campaign service relies on). *)
let test_presets_cross_engine () =
  List.iter
    (fun (d : Defense.t) ->
      let cases =
        gen_cases ~pages:d.Defense.sandbox_pages ~programs:2 ~inputs:4 ~seed:91
          ()
      in
      let pooled = outcomes_of ~kind:Engine.Pooled d cases in
      let naive = outcomes_of ~kind:Engine.Naive d cases in
      check_outcomes_equal ~what:(d.Defense.name ^ " pooled-vs-naive") pooled
        naive)
    released

(* The straight-line ctrace fast path (fused basic blocks over a pre-decoded
   program) must be observation-identical to plain stepping. *)
let test_ctrace_fast_slow () =
  let rng = Rng.create ~seed:93 in
  for _ = 1 to 4 do
    let flat = Generator.generate_flat rng in
    let decoded = Decoded.decode flat in
    for _ = 1 to 3 do
      let input = Input.generate rng ~pages:1 in
      let st_fast = Input.to_state input and st_slow = Input.to_state input in
      let fast = Leakage_model.collect ~decoded Contract.ct_cond flat st_fast in
      let slow = Leakage_model.collect Contract.ct_cond flat st_slow in
      checkb "ctrace byte-identical" true
        (Observation.equal_trace fast.Leakage_model.ctrace
           slow.Leakage_model.ctrace);
      checkb "ctrace hash" true
        (fast.Leakage_model.ctrace_hash = slow.Leakage_model.ctrace_hash);
      checkb "shape hash" true
        (fast.Leakage_model.shape_hash = slow.Leakage_model.shape_hash);
      checkb "final state hash" true
        (Amulet_emu.State.hash st_fast = Amulet_emu.State.hash st_slow);
      checki "arch steps" fast.Leakage_model.arch_steps slow.Leakage_model.arch_steps;
      checki "spec steps" fast.Leakage_model.spec_steps slow.Leakage_model.spec_steps;
      checkb "fault" true (fast.Leakage_model.fault = slow.Leakage_model.fault)
    done
  done

(* Steady-state allocation regression guard: once the pooled engine is warm
   (arena grown, program decoded, scratch buffers sized), each additional
   input must stay within a fixed minor-heap budget.  The hot loop measures
   ~9k minor words per input here; the pre-optimization loop it replaced
   allocated ~100k (per-run decode plus per-cycle scan closures).  The 25k
   bound catches a return of either. *)
let test_gc_steady_state () =
  let cases = gen_cases ~programs:2 ~inputs:12 ~seed:94 () in
  let inputs_total = 2 * 12 in
  let eng =
    Engine.create ~boot_insts:100 ~mode:Executor.Opt Defense.speclfb
      (Stats.create ())
  in
  Array.iter (fun (flat, ins) -> ignore (Engine.run_batch eng flat ins)) cases;
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  Array.iter (fun (flat, ins) -> ignore (Engine.run_batch eng flat ins)) cases;
  let per_input = (Gc.minor_words () -. w0) /. float_of_int inputs_total in
  checkb
    (Printf.sprintf "steady-state minor words per input (%.0f) under 25000"
       per_input)
    true
    (per_input < 25_000.)

let () =
  Alcotest.run "determinism"
    [
      ( "telemetry",
        [
          Alcotest.test_case "cross-engine counters + violations" `Slow
            test_cross_engine;
          Alcotest.test_case "trace invisibility" `Slow test_telemetry_invisible;
          Alcotest.test_case "same-engine repeatability" `Slow
            test_same_engine_repeatable;
        ] );
      ( "hot loop",
        [
          Alcotest.test_case "released presets cross-engine" `Slow
            test_presets_cross_engine;
          Alcotest.test_case "ctrace fast path identical" `Quick
            test_ctrace_fast_slow;
          Alcotest.test_case "steady-state allocation bound" `Quick
            test_gc_steady_state;
        ] );
    ]
