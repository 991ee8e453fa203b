(* Engine API tests: the pooled (snapshot/restore) engine must be
   trace-indistinguishable from the naive (rebuild) engine, checkpoint
   rewinds must be deterministic across arbitrary reuse counts, and chaos
   injection must classify faults correctly through the batched path. *)

open Amulet
open Amulet_defenses
module Rng = Amulet_corpus.Rng
module Generator = Amulet_corpus.Generator

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* Small warm boot keeps the suite fast; equivalence must hold regardless. *)
let boot = 200

let gen_case ~(defense : Defense.t) seed =
  let rng = Rng.create ~seed in
  let cfg =
    { Generator.default with Generator.sandbox_pages = defense.Defense.sandbox_pages }
  in
  let flat = Generator.generate_flat ~cfg rng in
  let inputs =
    Array.init 4 (fun _ -> Input.generate rng ~pages:defense.Defense.sandbox_pages)
  in
  (flat, inputs)

(* ------------------------------------------------------------------ *)
(* Pooled vs naive: byte-identical traces                              *)
(* ------------------------------------------------------------------ *)

let same_fault a b =
  match (a, b) with
  | None, None -> true
  | Some (fa, ia), Some (fb, ib) ->
      Fault.class_of fa = Fault.class_of fb && Input.equal ia ib
  | _ -> false

let batches_agree name (a : Engine.batch) (b : Engine.batch) =
  checki (name ^ " length") (Array.length a.Engine.outcomes)
    (Array.length b.Engine.outcomes);
  checkb (name ^ " fault") true (same_fault a.Engine.batch_fault b.Engine.batch_fault);
  Array.iteri
    (fun i oa ->
      match (oa, b.Engine.outcomes.(i)) with
      | None, None -> ()
      | Some oa, Some ob ->
          checkb
            (Printf.sprintf "%s trace[%d]" name i)
            true
            (Utrace.equal oa.Engine.trace ob.Engine.trace)
      | _ -> Alcotest.failf "%s outcome[%d] presence mismatch" name i)
    a.Engine.outcomes

let test_batch_equivalence () =
  List.iter
    (fun mode ->
      List.iter
        (fun (defense : Defense.t) ->
          let naive =
            Engine.create ~boot_insts:boot ~kind:Engine.Naive ~mode defense
              (Stats.create ())
          in
          let pooled =
            Engine.create ~boot_insts:boot ~kind:Engine.Pooled ~mode defense
              (Stats.create ())
          in
          (* several programs through the SAME engines: the pooled
             checkpoint is reused across batches, so any drift accumulates
             and the later seeds catch it *)
          for seed = 1 to 3 do
            let flat, inputs = gen_case ~defense (97 * seed) in
            let a = Engine.run_batch naive flat inputs in
            let b = Engine.run_batch pooled flat inputs in
            batches_agree
              (Printf.sprintf "%s/%s/seed%d" defense.Defense.name
                 (Executor.mode_name mode) seed)
              a b
          done)
        [ Defense.baseline; Defense.invisispec; Defense.cleanupspec; Defense.stt ])
    [ Executor.Naive; Executor.Opt ]

let test_reproducer_equivalence () =
  let defense = Defense.cleanupspec in
  let flat = Reproducers.flat Reproducers.uv3 in
  let rng = Rng.create ~seed:5 in
  let inputs = Array.init 6 (fun _ -> Input.generate rng ~pages:1) in
  List.iter
    (fun mode ->
      let naive =
        Engine.create ~boot_insts:boot ~kind:Engine.Naive ~mode defense (Stats.create ())
      in
      let pooled =
        Engine.create ~boot_insts:boot ~kind:Engine.Pooled ~mode defense (Stats.create ())
      in
      batches_agree
        ("uv3/" ^ Executor.mode_name mode)
        (Engine.run_batch naive flat inputs)
        (Engine.run_batch pooled flat inputs))
    [ Executor.Naive; Executor.Opt ]

(* The end-to-end check: a whole fuzzing round (generation, boosting,
   batched execution, candidate search, validation) reaches the same
   verdict whichever engine backs it. *)
let test_fuzzer_round_parity () =
  let tag = function
    | Fuzzer.No_violation { test_cases } -> Printf.sprintf "no-violation:%d" test_cases
    | Fuzzer.Found v ->
        Printf.sprintf "found:%Lx:%Lx"
          (Input.hash v.Violation.input_a)
          (Input.hash v.Violation.input_b)
    | Fuzzer.Discarded f -> "discarded:" ^ Fault.class_name (Fault.class_of f)
    | Fuzzer.Screened -> "screened"
  in
  List.iter
    (fun (defense : Defense.t) ->
      for seed = 1 to 3 do
        let mk kind =
          Fuzzer.create
            (Run_spec.make ~defense ~engine:kind ~seed:(1000 + seed) ~inputs:4
               ~boosts:2 ~boot_insts:boot ())
        in
        let a = Fuzzer.round (mk Engine.Naive) in
        let b = Fuzzer.round (mk Engine.Pooled) in
        checks
          (Printf.sprintf "round %s/seed%d" defense.Defense.name seed)
          (tag a) (tag b)
      done)
    [ Defense.baseline; Defense.cleanupspec ]

(* ------------------------------------------------------------------ *)
(* Snapshot/restore determinism                                        *)
(* ------------------------------------------------------------------ *)

let test_snapshot_determinism () =
  let open Amulet_uarch in
  let rng = Rng.create ~seed:42 in
  let flat = Generator.generate_flat rng in
  let input = Input.generate rng ~pages:1 in
  let sim = Simulator.create ~boot_insts:boot ~pages:1 Config.default in
  let snap = Simulator.snapshot sim in
  let observe s =
    (Simulator.l1d_tags s, Simulator.tlb_pages s, Array.copy (Simulator.bp_state s))
  in
  let run_once () =
    Simulator.restore sim snap;
    Simulator.load_state sim (Input.to_state input);
    ignore (Simulator.run sim flat);
    observe sim
  in
  let first = run_once () in
  for reuse = 2 to 8 do
    checkb (Printf.sprintf "reuse %d deterministic" reuse) true (run_once () = first)
  done;
  (* a checkpoint rewind is indistinguishable from a fresh warm boot *)
  let fresh = Simulator.create ~boot_insts:boot ~pages:1 Config.default in
  Simulator.load_state fresh (Input.to_state input);
  ignore (Simulator.run fresh flat);
  checkb "restore matches fresh boot" true (observe fresh = first)

(* ------------------------------------------------------------------ *)
(* The shared post-boot checkpoint table                               *)
(* ------------------------------------------------------------------ *)

(* A simulator restored from the shared table behaves exactly as one that
   booted itself: on every preset and every config bisection flips it to,
   at a short and at the default boot length, the same programs and inputs
   run back to back on one simulator (Opt-style reuse, the preset's own
   priming before each input) give the same run stats and the same caches,
   predictors, TLB and L1I after every input. *)
let test_checkpoint_equivalence () =
  let open Amulet_uarch in
  let configs =
    List.concat_map
      (fun (d : Defense.t) ->
        let base = Defense.config d in
        List.map
          (fun c -> (d, c))
          (base :: List.map (fun (_, _, _, c) -> c) (Triage.flip_candidates base)))
      Defense.all
  in
  let drive (d : Defense.t) sim =
    List.concat_map
      (fun seed ->
        let flat, inputs = gen_case ~defense:d seed in
        List.map
          (fun input ->
            (match d.Defense.priming with
            | Defense.Fill_sets -> ignore (Simulator.prime_with_fills sim)
            | Defense.Flush -> Simulator.prime_with_flush sim);
            Simulator.load_state sim (Input.to_state input);
            let stats = Simulator.run sim flat in
            ( stats,
              Simulator.cache_digest sim,
              Array.copy (Simulator.bp_state sim),
              Simulator.tlb_pages sim,
              Simulator.l1i_tags sim ))
          (Array.to_list inputs))
      [ 11; 12 ]
  in
  List.iter
    (fun boot_insts ->
      List.iter
        (fun ((d : Defense.t), cfg) ->
          let pages = d.Defense.sandbox_pages in
          let booted = Simulator.create ~boot_insts ~pages cfg in
          let restored = Simulator.create ~boot_insts:0 ~pages cfg in
          Simulator.restore restored (Simulator.boot_checkpoint ~boot_insts ~pages cfg);
          checkb
            (Printf.sprintf "%s %s boot %d" d.Defense.name
               (Config.defense_name cfg.Config.defense) boot_insts)
            true
            (drive d booted = drive d restored))
        configs)
    [ boot; Simulator.default_boot_insts ]

(* Two domains that ask for one configuration at the same moment share one
   boot and replay to identical traces.  The boot length is used by no
   other test, so the process-wide boot count moves only here. *)
let test_checkpoint_domains () =
  let open Amulet_uarch in
  let defense = Defense.speclfb in
  let flat, inputs = gen_case ~defense 5 in
  let ready = Atomic.make 0 in
  let replay () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let r =
      Engine.replay (Engine.analysis ~boot_insts:777 defense) Engine.Fresh flat
        inputs.(0) inputs.(1)
    in
    (r.Engine.a.Engine.trace, r.Engine.b.Engine.trace)
  in
  let before = Simulator.boots () in
  let d1 = Domain.spawn replay and d2 = Domain.spawn replay in
  let t1 = Domain.join d1 and t2 = Domain.join d2 in
  checki "one boot for both domains" 1 (Simulator.boots () - before);
  checkb "identical traces" true
    (Utrace.equal (fst t1) (fst t2) && Utrace.equal (snd t1) (snd t2))

(* ------------------------------------------------------------------ *)
(* Chaos injection through the batched path                            *)
(* ------------------------------------------------------------------ *)

let chaos_spec ~seed injector =
  Run_spec.make ~defense:Defense.baseline ~seed ~inputs:3 ~boosts:2
    ~boot_insts:boot ~chaos:injector ()

let test_chaos_sim_fault () =
  let fz =
    Fuzzer.create (chaos_spec ~seed:21 (Fault.injector ~p_sim_fault:1.0 ~seed:13 ()))
  in
  match Fuzzer.round fz with
  | Fuzzer.Discarded f ->
      checkb "injected sim fault classified" true (Fault.class_of f = Fault.C_injected)
  | _ -> Alcotest.fail "expected Discarded through the batched path"

let test_chaos_crash () =
  let fz =
    Fuzzer.create (chaos_spec ~seed:22 (Fault.injector ~p_crash:1.0 ~seed:13 ()))
  in
  match Fuzzer.round fz with
  | Fuzzer.Discarded f ->
      checkb "injected crash contained and classified" true
        (Fault.class_of f = Fault.C_injected)
  | _ -> Alcotest.fail "expected the crash to be contained as Discarded"

(* ------------------------------------------------------------------ *)
(* Unified Engine.run                                                *)
(* ------------------------------------------------------------------ *)

let test_run_variants () =
  let defense = Defense.baseline in
  let ex = Engine.create ~boot_insts:boot ~mode:Executor.Opt defense (Stats.create ()) in
  let rng = Rng.create ~seed:7 in
  let flat = Generator.generate_flat rng in
  let input = Input.generate rng ~pages:1 in
  Engine.start_program ex;
  let o = Engine.run ex flat input in
  checkb "unlogged runs leave events empty" true (o.Engine.events = []);
  let o_ctx = Engine.run ex ~context:o.Engine.context flat input in
  checkb "context rerun reproduces the trace" true
    (Utrace.equal o.Engine.trace o_ctx.Engine.trace);
  let o_log = Engine.run ex ~context:o.Engine.context ~log:true flat input in
  checkb "logged rerun keeps the trace" true
    (Utrace.equal o.Engine.trace o_log.Engine.trace);
  checkb "logged rerun fills events" true (o_log.Engine.events <> [])

(* ------------------------------------------------------------------ *)
(* Engine accounting                                                   *)
(* ------------------------------------------------------------------ *)

let test_engine_stats () =
  let defense = Defense.baseline in
  let flat = Reproducers.flat Reproducers.uv3 in
  let rng = Rng.create ~seed:9 in
  let inputs = Array.init 3 (fun _ -> Input.generate rng ~pages:1) in
  (* pooled + Naive mode: one boot ever, a rewind per input after that *)
  let pooled =
    Engine.create ~boot_insts:boot ~kind:Engine.Pooled ~mode:Executor.Naive defense
      (Stats.create ())
  in
  checks "pooled name" "pooled" (Engine.kind_name (Engine.kind pooled));
  let b1 = Engine.run_batch pooled flat inputs in
  let b2 = Engine.run_batch pooled flat inputs in
  checkb "clean batches" true (b1.Engine.batch_fault = None && b2.Engine.batch_fault = None);
  let s = Engine.stats pooled in
  checki "pooled sims_created" 1 s.Engine.sims_created;
  checkb "pooled restores" true (s.Engine.snapshot_restores >= Array.length inputs);
  checki "pooled batches" 2 s.Engine.batches;
  checki "pooled inputs_run" 6 s.Engine.inputs_run;
  (* naive + Naive mode: a full rebuild per input, never a rewind *)
  let naive =
    Engine.create ~boot_insts:boot ~kind:Engine.Naive ~mode:Executor.Naive defense
      (Stats.create ())
  in
  checks "naive name" "naive" (Engine.kind_name (Engine.kind naive));
  let boots = Amulet_uarch.Simulator.boots () in
  ignore (Engine.run_batch naive flat inputs);
  ignore (Engine.run_batch naive flat inputs);
  let s = Engine.stats naive in
  checki "naive sims_created" 6 s.Engine.sims_created;
  checki "naive boots every rebuild itself" 6
    (Amulet_uarch.Simulator.boots () - boots);
  checki "naive restores" 0 s.Engine.snapshot_restores;
  (* warm pre-pays the pooled boot *)
  let warmed =
    Engine.create ~boot_insts:boot ~kind:Engine.Pooled ~mode:Executor.Naive defense
      (Stats.create ())
  in
  Engine.warm warmed;
  checki "warm boots the pool" 1 (Engine.stats warmed).Engine.sims_created

(* The engine.* metric names are a public surface (--metrics, bench
   reports); both kinds register the same set against a live registry. *)
let test_metric_names () =
  let open Amulet_obs in
  let defense = Defense.baseline in
  let flat = Reproducers.flat Reproducers.uv3 in
  let rng = Rng.create ~seed:9 in
  let inputs = Array.init 2 (fun _ -> Input.generate rng ~pages:1) in
  let metrics = Obs.create () in
  List.iter
    (fun kind ->
      let e =
        Engine.create ~boot_insts:boot ~kind ~mode:Executor.Opt defense
          (Stats.create ~metrics ())
      in
      ignore (Engine.run_batch e flat inputs))
    [ Engine.Pooled; Engine.Naive ];
  let s = Obs.Snapshot.of_registry metrics in
  let engine_names l =
    List.filter
      (fun n -> String.length n > 7 && String.sub n 0 7 = "engine.")
      (List.map fst l)
  in
  let checkl = Alcotest.(check (list string)) in
  checkl "counters"
    [
      "engine.batches";
      "engine.inputs_run";
      "engine.sim.decodes";
      "engine.sim.rebuilds";
      "engine.sim.restores";
    ]
    (engine_names s.Obs.Snapshot.counters);
  checkl "timers"
    [
      "engine.time.prime";
      "engine.time.rebuild";
      "engine.time.restore";
      "engine.time.simulate";
      "engine.time.utrace";
    ]
    (engine_names s.Obs.Snapshot.timers);
  checkl "gauges" [ "engine.pool.reuse_depth" ] (engine_names s.Obs.Snapshot.gauges);
  checkl "histograms" [ "engine.batch.latency" ]
    (engine_names s.Obs.Snapshot.histograms);
  checki "both batches counted" 2 (Obs.Snapshot.counter_value s "engine.batches")

(* The paper's Table 2 is read from these seven timers: each region is
   clocked exactly once, so a region's event count equals its work
   counter, and a noop registry holds no timer at all. *)
let table2_timers =
  [
    "engine.time.rebuild";
    "engine.time.restore";
    "engine.time.prime";
    "engine.time.simulate";
    "engine.time.utrace";
    "fuzzer.time.generate";
    "fuzzer.time.ctrace";
  ]

let test_table2_timers () =
  let open Amulet_obs in
  let spec mode =
    Run_spec.make ~defense:Defense.baseline ~mode ~seed:31 ~inputs:3 ~boosts:2
      ~boot_insts:boot ()
  in
  List.iter
    (fun mode ->
      let metrics = Obs.create () in
      let fz = Fuzzer.create ~metrics (spec mode) in
      (* two rounds: the first boots the pool, the second rewinds it *)
      ignore (Fuzzer.round fz);
      ignore (Fuzzer.round fz);
      let s = Obs.Snapshot.of_registry metrics in
      let events name =
        match List.assoc_opt name s.Obs.Snapshot.timers with
        | Some tm -> tm.Obs.Snapshot.events
        | None -> 0
      in
      let m = Executor.mode_name mode in
      if mode = Executor.Opt then
        List.iter
          (fun name -> checkb (m ^ " " ^ name) true (events name >= 1))
          table2_timers;
      checki (m ^ " one rebuild timing per rebuild")
        (Obs.Snapshot.counter_value s "engine.sim.rebuilds")
        (events "engine.time.rebuild");
      checki (m ^ " one restore timing per restore")
        (Obs.Snapshot.counter_value s "engine.sim.restores")
        (events "engine.time.restore"))
    [ Executor.Opt; Executor.Naive ];
  let fz = Fuzzer.create (spec Executor.Opt) in
  ignore (Fuzzer.round fz);
  checki "noop registry has no timers" 0
    (List.length (Obs.Snapshot.of_registry Obs.noop).Obs.Snapshot.timers)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "equivalence",
        [
          Alcotest.test_case "pooled vs naive batches" `Quick test_batch_equivalence;
          Alcotest.test_case "reproducer batches" `Quick test_reproducer_equivalence;
          Alcotest.test_case "fuzzer round parity" `Quick test_fuzzer_round_parity;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "restore determinism" `Quick test_snapshot_determinism;
          Alcotest.test_case "checkpoint table = own boot" `Quick
            test_checkpoint_equivalence;
          Alcotest.test_case "checkpoint table across domains" `Quick
            test_checkpoint_domains;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "sim fault via batch" `Quick test_chaos_sim_fault;
          Alcotest.test_case "crash via batch" `Quick test_chaos_crash;
        ] );
      ( "api",
        [
          Alcotest.test_case "run variants" `Quick test_run_variants;
          Alcotest.test_case "engine stats" `Quick test_engine_stats;
          Alcotest.test_case "engine metric names" `Quick test_metric_names;
          Alcotest.test_case "table 2 timers" `Quick test_table2_timers;
        ] );
    ]
