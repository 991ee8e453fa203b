(* The AMuLeT benchmark harness: regenerates every table and figure of the
   paper's evaluation (ASPLOS'25), scaled to a single process on a laptop.

   Run with:        dune exec bench/main.exe
   Full budgets:    AMULET_BENCH_FULL=1 dune exec bench/main.exe

   Absolute times differ from the paper (their substrate was gem5 on a
   128-core EPYC with 100 parallel fuzzer instances); the claims under test
   are the *shapes*: who finds what, which configuration is faster, where
   amplification tips a clean design into a violating one.  EXPERIMENTS.md
   records paper-vs-measured for every row. *)

open Amulet
open Amulet_defenses

let full = Sys.getenv_opt "AMULET_BENCH_FULL" <> None

(* scaled campaign budgets: (programs, base inputs, boosts) *)
let scale n = if full then n * 3 else n

let section title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

let hline = String.make 78 '-'

module Json = Amulet_obs.Json
module Rng = Amulet_corpus.Rng
module Generator = Amulet_corpus.Generator

(* Write a section's JSON document to [default] (path overridable via
   AMULET_BENCH_JSON). *)
let write_bench_json ~default doc =
  let json_path =
    Option.value (Sys.getenv_opt "AMULET_BENCH_JSON") ~default
  in
  Out_channel.with_open_text json_path (fun oc ->
      output_string oc doc;
      output_char oc '\n');
  Format.printf "wrote %s@." json_path

(* Deterministic ratios keep the precision they are reported at; only
   wall-clock figures print at the JSON writer's full precision. *)
let rounded digits x =
  let p = 10. ** float_of_int digits in
  Float.round (x *. p) /. p

(* ------------------------------------------------------------------ *)
(* Table 1: leakage contracts                                          *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: leakage contracts";
  Format.printf "%-10s %-34s %s@." "Name" "Leakage clause" "Execution clause";
  List.iter
    (fun c ->
      let open Amulet_contracts.Contract in
      let leak =
        String.concat ", "
          (List.filter_map
             (fun (b, s) -> if b then Some s else None)
             [
               c.observe_pc, "PC";
               c.observe_addresses, "LD/ST addr";
               c.observe_loaded_values, "LD values";
               c.expose_initial_regs, "registers";
             ])
      in
      let exec =
        match c.speculation with
        | No_speculation -> "N/A"
        | Conditional_branches { window; nesting } ->
            Printf.sprintf "mispredicted branches (window %d, nesting %d)" window
              nesting
      in
      Format.printf "%-10s %-34s %s@." c.name leak exec)
    Amulet_contracts.Contract.all

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: substrate operation costs                *)
(* ------------------------------------------------------------------ *)

let microbench () =
  section "Substrate micro-benchmarks (Bechamel)";
  let open Bechamel in
  let rng = Rng.create ~seed:99 in
  let flat = Generator.generate_flat rng in
  let input = Input.generate rng ~pages:1 in
  let sim =
    Amulet_uarch.Simulator.create ~boot_insts:0 ~pages:1 Amulet_uarch.Config.default
  in
  let tests =
    Test.make_grouped ~name:"amulet"
      [
        Test.make ~name:"emulator: run 50-inst test"
          (Staged.stage (fun () ->
               ignore (Amulet_emu.Emulator.execute flat (Input.to_state input))));
        Test.make ~name:"leakage model: CT-SEQ ctrace"
          (Staged.stage (fun () ->
               ignore
                 (Amulet_contracts.Leakage_model.collect Amulet_contracts.Contract.ct_seq
                    flat (Input.to_state input))));
        Test.make ~name:"leakage model: CT-COND + taint"
          (Staged.stage (fun () ->
               ignore
                 (Amulet_contracts.Leakage_model.collect ~collect_taint:true
                    Amulet_contracts.Contract.ct_cond flat (Input.to_state input))));
        Test.make ~name:"pipeline: run 50-inst test"
          (Staged.stage (fun () ->
               Amulet_uarch.Simulator.load_state sim (Input.to_state input);
               ignore (Amulet_uarch.Simulator.run sim flat)));
        Test.make ~name:"pipeline: prime 64x8 L1D fills"
          (Staged.stage (fun () ->
               ignore (Amulet_uarch.Simulator.prime_with_fills sim)));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Format.printf "%-40s %14s@." "operation" "time/run";
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> est
        | _ -> nan
      in
      Format.printf "%-40s %11.1f us@." name (ns /. 1000.))
    results

(* ------------------------------------------------------------------ *)
(* Shared campaign spec                                                *)
(* ------------------------------------------------------------------ *)

let bench_spec ?(inputs = 10) ?(boosts = 4) ?(mode = Executor.Opt) ?engine
    ?(format = Utrace.L1d_tlb) ?contract ?sim_config ?generation
    ?(stop = None) ?(classify = true) ?(seed = 42) ?(programs = 20) defense =
  Run_spec.make ~defense ~rounds:programs ?stop_after:stop ~seed ~classify
    ~inputs ~boosts ?contract ?generation ~mode ?engine ~trace_format:format
    ?sim_config ()

(* ------------------------------------------------------------------ *)
(* Table 2: Naive vs Opt time breakdown per test program               *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: time breakdown per test program, Naive vs Opt uarch-trace extraction";
  let programs = scale 4 and inputs = 8 and boosts = 4 in
  let module Snapshot = Amulet_obs.Obs.Snapshot in
  (* every row is read from the registry's timers; "others" is the
     section's wall time they leave unaccounted *)
  let run mode engine =
    let metrics = Amulet_obs.Obs.create () in
    let t0 = Amulet_obs.Obs.Clock.now_s () in
    let fz =
      Fuzzer.create ~metrics
        (bench_spec ~inputs ~boosts ~mode ~engine Defense.baseline)
    in
    for _ = 1 to programs do
      ignore (Fuzzer.round fz)
    done;
    let wall = Amulet_obs.Obs.Clock.elapsed_s ~since:t0 in
    let timers = (Snapshot.of_registry metrics).Snapshot.timers in
    let seconds names =
      List.fold_left
        (fun acc name ->
          match List.assoc_opt name timers with
          | Some tm -> acc +. tm.Snapshot.total_s
          | None -> acc)
        0. names
      /. float_of_int programs
    in
    let startup = seconds [ "engine.time.rebuild"; "engine.time.restore" ]
    and simulate = seconds [ "engine.time.prime"; "engine.time.simulate" ]
    and utrace = seconds [ "engine.time.utrace" ]
    and generate = seconds [ "fuzzer.time.generate" ]
    and ctrace = seconds [ "fuzzer.time.ctrace" ] in
    let total = wall /. float_of_int programs in
    let others =
      Float.max 0. (total -. (startup +. simulate +. utrace +. generate +. ctrace))
    in
    ( [
        ("sim startup", startup);
        ("sim simulate", simulate);
        ("  of which priming", seconds [ "engine.time.prime" ]);
        ("uTrace extraction", utrace);
        ("test generation", generate);
        ("cTrace extraction", ctrace);
        ("others", others);
      ],
      total )
  in
  (* the paper's Naive restarts the simulator for every test case: a
     rebuild per input, not a checkpoint rewind *)
  let naive, nt = run Executor.Naive Engine.Naive in
  let opt, ot = run Executor.Opt Engine.Pooled in
  Format.printf "%-22s %18s %18s@." "Component"
    (Printf.sprintf "Naive (s/prog)") (Printf.sprintf "Opt (s/prog)");
  List.iter2
    (fun (name, n) (_, o) ->
      Format.printf "%-22s %10.3f (%4.1f%%) %10.3f (%4.1f%%)@." name n
        (100. *. n /. nt) o (100. *. o /. ot))
    naive opt;
  Format.printf "%-22s %10.3f %19.3f@." "total" nt ot;
  Format.printf "@.Opt speedup per test program: %.1fx  (paper: 13x)@." (nt /. ot)

(* ------------------------------------------------------------------ *)
(* Table 3: testing the baseline OoO CPU, Naive vs Opt                 *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: baseline out-of-order CPU, Naive vs Opt, CT-SEQ and CT-COND";
  let programs = scale 12 in
  let cell mode contract =
    let t0 = Unix.gettimeofday () in
    let r =
      Campaign.run
        (bench_spec ~inputs:8 ~boosts:5 ~mode ?contract ~classify:false
           ~programs Defense.baseline)
    in
    let dt = Unix.gettimeofday () -. t0 in
    dt, List.length r.Campaign.violations, Campaign.avg_detection_time r
  in
  Format.printf "%-18s %-9s %10s %10s %8s@." "Metric" "Contract" "Naive" "Opt" "Ratio";
  let show name contract cname =
    let naive_t, naive_v, naive_d = cell Executor.Naive contract in
    let opt_t, opt_v, opt_d = cell Executor.Opt contract in
    Format.printf "%-18s %-9s %9.1fs %9.1fs %7.1fx@." (name ^ " time") cname naive_t
      opt_t (naive_t /. opt_t);
    Format.printf "%-18s %-9s %10d %10d@." (name ^ " violations") cname naive_v opt_v;
    Format.printf "%-18s %-9s %10s %10s@." (name ^ " detect (s)") cname
      (match naive_d with Some d -> Printf.sprintf "%.1f" d | None -> "-")
      (match opt_d with Some d -> Printf.sprintf "%.1f" d | None -> "-")
  in
  show "campaign" None "CT-SEQ";
  show "campaign" (Some Amulet_contracts.Contract.ct_cond) "CT-COND";
  Format.printf
    "@.(Paper shape: Opt ~9-12x faster; Opt finds more violations thanks to \
     full-set@. priming and persistent predictor state; CT-COND violations \
     (Spectre-v4) are rare.)@."

(* ------------------------------------------------------------------ *)
(* Table 4: testing the defenses                                       *)
(* ------------------------------------------------------------------ *)

let table4 () =
  section "Table 4: testing InvisiSpec, CleanupSpec, STT, SpecLFB and the baseline";
  let rows =
    [
      Defense.baseline, scale 15, None;
      Defense.invisispec, scale 10, None;
      Defense.cleanupspec, scale 20, None;
      Defense.speclfb, scale 15, None;
      ( Defense.stt,
        scale 15,
        Some
          (Run_spec.random
             ~config:
               { Generator.default with Generator.mem_fraction = 0.45; store_fraction = 0.4 }
             ()) );
    ]
  in
  Format.printf "%-12s %-9s %-9s %-12s %-8s %-12s %s@." "Defense" "Contract"
    "Detected?" "Avg det (s)" "Unique" "tc/s" "Campaign time";
  List.iter
    (fun (d, programs, generation) ->
      let r = Campaign.run (bench_spec ~inputs:8 ~boosts:5 ?generation ~programs d) in
      Format.printf "%-12s %-9s %-9s %-12s %-8d %-12.0f %.1f s@." d.Defense.name
        r.Campaign.contract_name
        (if Campaign.detected r then "YES" else "no")
        (match Campaign.avg_detection_time r with
        | Some t -> Printf.sprintf "%.1f" t
        | None -> "-")
        (Campaign.unique_violations r) r.Campaign.throughput r.Campaign.duration;
      List.iter
        (fun (c, n) -> Format.printf "    %dx %s@." n (Analysis.class_name c))
        r.Campaign.violation_classes)
    rows;
  Format.printf
    "@.(Paper shape: every defense violates its contract; CleanupSpec/SpecLFB \
     test fastest@. (clean-cache priming), InvisiSpec slower (fill priming), \
     STT slowest by far.  STT's@. KV3 is rare under random testing — the \
     paper reports ~3 h average detection; a longer@. campaign here found it \
     after ~10 min, and the figure-9 reproducer finds it in seconds.)@."

(* ------------------------------------------------------------------ *)
(* Table 5: uarch trace formats                                        *)
(* ------------------------------------------------------------------ *)

let table5 () =
  section "Table 5: microarchitectural trace formats (baseline O3CPU)";
  let programs = scale 20 in
  (* same seed => same programs and inputs for every format; per-program
     violation verdicts let us compute fractions and overlaps *)
  let verdicts format =
    let fz =
      Fuzzer.create (bench_spec ~inputs:8 ~boosts:5 ~format ~seed:77 Defense.baseline)
    in
    let t0 = Unix.gettimeofday () in
    let found = Array.make programs false in
    for i = 0 to programs - 1 do
      match Fuzzer.round fz with
      | Fuzzer.Found _ -> found.(i) <- true
      | Fuzzer.No_violation _ | Fuzzer.Discarded _ | Fuzzer.Screened -> ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let stats = Fuzzer.stats fz in
    found, float_of_int (Stats.test_cases stats) /. dt, Stats.validations stats
  in
  let all = List.map (fun f -> f, verdicts f) Utrace.all_formats in
  let baseline_found =
    match List.assoc_opt Utrace.L1d_tlb all with
    | Some (f, _, _) -> f
    | None -> [||]
  in
  let any_found = Array.make programs false in
  List.iter (fun (_, (f, _, _)) -> Array.iteri (fun i v -> if v then any_found.(i) <- true) f) all;
  let total = Array.fold_left (fun a v -> if v then a + 1 else a) 0 any_found in
  Format.printf "%-26s %12s %12s %14s %12s@." "Trace format" "tc/s"
    "violations" "fraction" "covered by";
  Format.printf "%-26s %12s %12s %14s %12s@." "" "" "" "of total" "baseline";
  List.iter
    (fun (format, (found, tput, _validations)) ->
      let n = Array.fold_left (fun a v -> if v then a + 1 else a) 0 found in
      let covered = ref 0 in
      Array.iteri (fun i v -> if v && baseline_found.(i) then incr covered) found;
      Format.printf "%-26s %12.0f %12d %13.0f%% %11s@." (Utrace.format_name format)
        tput n
        (if total = 0 then 0. else 100. *. float_of_int n /. float_of_int total)
        (if n = 0 then "-" else Printf.sprintf "%.0f%%" (100. *. float_of_int !covered /. float_of_int n)))
    all;
  Format.printf
    "@.(Paper shape: the L1D+TLB snapshot catches ~80%% of all violating \
     tests at the best@. throughput; richer formats catch more but validate \
     slower; most of their findings are@. also visible in the baseline \
     format.)@."

(* ------------------------------------------------------------------ *)
(* Table 6: amplification on patched InvisiSpec                        *)
(* ------------------------------------------------------------------ *)

let table6 () =
  section "Table 6: testing InvisiSpec (patched) with smaller uarch structures";
  Format.printf "%-36s %10s %10s@." "Configuration" "Time" "Violation";
  List.iter
    (fun (ways, mshrs) ->
      let d = Defense.invisispec_patched in
      let sim_config = Defense.config ~l1d_ways:ways ~mshrs d in
      let t0 = Unix.gettimeofday () in
      let r =
        Campaign.run
          (bench_spec ~inputs:8 ~boosts:6 ~sim_config ~stop:(Some 1) ~seed:7
             ~programs:(scale 120) d)
      in
      let dt = Unix.gettimeofday () -. t0 in
      Format.printf "%-36s %8.1f s %10s@."
        (Printf.sprintf "Patched, %d-way L1D, %d MSHRs" ways mshrs)
        dt
        (if Campaign.detected r then
           "YES ("
           ^ String.concat ","
               (List.map (fun (c, _) -> Analysis.class_name c) r.Campaign.violation_classes)
           ^ ")"
         else "no"))
    [ 8, 256; 2, 256; 2, 2 ];
  Format.printf
    "@.(Paper shape: clean at default sizes; 2-way L1D is faster to test but \
     still clean;@. 2 MSHRs reveal the same-core speculative-interference \
     leak, UV2.)@."

(* ------------------------------------------------------------------ *)
(* Table 8: CleanupSpec violation types, original vs patched           *)
(* ------------------------------------------------------------------ *)

let table8 () =
  section "Table 8: CleanupSpec violation types, original vs store-cleanup patch";
  let classes d =
    let config = { Generator.default with Generator.unaligned_fraction = 0.5 } in
    let r =
      Campaign.run
        (bench_spec ~inputs:8 ~boosts:5
           ~generation:(Run_spec.random ~config ()) ~stop:(Some 10)
           ~programs:(scale 40) d)
    in
    List.map fst r.Campaign.violation_classes
  in
  let original = classes Defense.cleanupspec in
  let patched = classes Defense.cleanupspec_patched in
  Format.printf "%-36s %10s %10s@." "Violation type" "Original" "Patched";
  List.iter
    (fun (label, c) ->
      Format.printf "%-36s %10s %10s@." label
        (if List.mem c original then "YES" else "-")
        (if List.mem c patched then "YES" else "-"))
    [
      "Speculative store not cleaned (UV3)", Analysis.Store_not_cleaned_uv3;
      "Split requests not cleaned (UV4)", Analysis.Split_not_cleaned_uv4;
      "Too much cleaning (UV5)", Analysis.Too_much_cleaning_uv5;
    ];
  Format.printf
    "@.(Paper shape: the UV3 rows disappear after the writeCallback patch; \
     UV4 and UV5 persist.)@."

(* ------------------------------------------------------------------ *)
(* Figures 4/6/8/9 and Tables 7/9/10: reproducer violations            *)
(* ------------------------------------------------------------------ *)

let show_reproducer ?(side_by_side = false) title (r : Reproducers.t) =
  section title;
  Format.printf "%s@.defense: %s@." r.Reproducers.description
    r.Reproducers.defense.Defense.name;
  match Reproducers.hunt r with
  | None -> Format.printf "reproducer budget exhausted (try a longer run)@."
  | Some v ->
      Format.printf "%a@." Violation.pp v;
      if side_by_side then begin
        let replay =
          Engine.replay
            (Engine.analysis ~boot_insts:500
               ?sim_config:(Reproducers.amplification r) r.Reproducers.defense)
            ~log:true (Engine.Context v.Violation.context) v.Violation.program
            v.Violation.input_a v.Violation.input_b
        in
        Format.printf "--- operation sequences, side by side ---@.%a@."
          (fun f () ->
            Analysis.pp_side_by_side f replay.Engine.a.Engine.events
              replay.Engine.b.Engine.events)
          ()
      end

let figures () =
  show_reproducer "Figure 4: InvisiSpec UV1 (speculative L1D eviction)"
    Reproducers.figure4;
  show_reproducer ~side_by_side:true
    "Figure 6 / Table 7: InvisiSpec UV2 (MSHR speculative interference)"
    Reproducers.figure6;
  show_reproducer "Figure 8: SpecLFB UV6 (first speculative load unprotected)"
    Reproducers.figure8;
  show_reproducer "Figure 9: STT KV3 (tainted store fills the D-TLB)"
    Reproducers.figure9;
  show_reproducer ~side_by_side:true
    "Table 9: CleanupSpec UV5 (too much cleaning)" Reproducers.uv5;
  show_reproducer ~side_by_side:true "Table 10: CleanupSpec KV2 (unXpec timing channel)"
    Reproducers.unxpec_kv2

(* ------------------------------------------------------------------ *)
(* Table 11: integration effort (LoC per defense)                      *)
(* ------------------------------------------------------------------ *)

let table11 () =
  section "Table 11: lines of code per component (this reproduction)";
  let count_dir dir =
    try
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ml")
      |> List.map (fun f ->
             let ic = open_in (Filename.concat dir f) in
             let n = ref 0 in
             (try
                while true do
                  ignore (input_line ic);
                  incr n
                done
              with End_of_file -> close_in ic);
             !n)
      |> List.fold_left ( + ) 0
    with Sys_error _ -> 0
  in
  let rows =
    [
      "ISA + assembler", "lib/isa";
      "emulator + taint (leakage substrate)", "lib/emu";
      "contracts + leakage model", "lib/contracts";
      "OoO simulator + memory system", "lib/uarch";
      "defense presets", "lib/defenses";
      "AMuLeT core (fuzzer/executor/analysis)", "lib/core";
    ]
  in
  let any = ref false in
  List.iter
    (fun (label, dir) ->
      let n = count_dir dir in
      if n > 0 then any := true;
      Format.printf "%-42s %6d LoC@." label n)
    rows;
  if not !any then
    Format.printf "(source tree not visible from the bench working directory)@.";
  Format.printf
    "@.(The paper's Table 11 reports 948-1330 LoC of per-defense gem5 glue; \
     here the@. equivalent per-defense integration is the preset + hooks, \
     concentrated in@. lib/defenses and the defense branches of the memory \
     system and pipeline.)@."

(* ------------------------------------------------------------------ *)
(* Extension studies (beyond the paper's evaluation)                   *)
(* ------------------------------------------------------------------ *)

(* The fix the paper names for UV2: GhostMinion's strictness ordering.
   Run the SAME amplified campaign against patched InvisiSpec (leaks) and
   GhostMinion (clean). *)
let extension_ghostminion () =
  section "Extension: GhostMinion vs UV2 (the fix the paper recommends)";
  let run d =
    let sim_config = Defense.config ~l1d_ways:2 ~mshrs:2 d in
    Campaign.run
      (bench_spec ~inputs:8 ~boosts:6 ~sim_config ~stop:(Some 1) ~seed:7
         ~programs:(scale 120) d)
  in
  List.iter
    (fun d ->
      let r = run d in
      Format.printf "%-22s (2-way L1D, 2 MSHRs): %s@." d.Defense.name
        (if Campaign.detected r then
           "VIOLATION ("
           ^ String.concat ","
               (List.map (fun (c, _) -> Analysis.class_name c) r.Campaign.violation_classes)
           ^ ")"
         else "clean"))
    [ Defense.invisispec_patched; Defense.ghostminion; Defense.delay_on_miss ];
  Format.printf
    "@.(GhostMinion's dedicated speculative MSHRs/queue remove the same-core      interference;@. Delay-on-Miss never fetches speculatively in the first      place.)@."

(* §5.2's future-work claim, made concrete: a next-line prefetcher trained
   by transient accesses re-opens a leak in an otherwise-clean defense. *)
let extension_prefetcher () =
  section "Extension: next-line prefetcher study (paper section 5.2)";
  let d = Defense.invisispec_patched in
  let run prefetcher =
    let sim_config =
      { (Defense.config d) with Amulet_uarch.Config.nl_prefetcher = prefetcher }
    in
    Campaign.run
      (bench_spec ~inputs:8 ~boosts:5 ~sim_config ~stop:(Some 1) ~seed:11
         ~programs:(scale 30) d)
  in
  List.iter
    (fun prefetcher ->
      let r = run prefetcher in
      Format.printf "patched InvisiSpec, NL prefetcher %-3s: %s@."
        (if prefetcher then "ON" else "OFF")
        (if Campaign.detected r then
           "VIOLATION ("
           ^ String.concat ","
               (List.map (fun (c, _) -> Analysis.class_name c) r.Campaign.violation_classes)
           ^ ")"
         else "clean"))
    [ false; true ];
  Format.printf
    "@.(The prefetch trained by a transient access installs outside the      defense's@. protection, leaking the transient address's neighbourhood —      exactly the kind of@. new-feature leak the paper's section 5.2      predicts AMuLeT would find.)@."

(* The paper's parallel methodology: N independent instances. *)
let extension_parallel () =
  section "Extension: parallel campaign instances (the paper's methodology)";
  Format.printf "(host has %d core(s); speedup requires cores, coverage does not)@.@."
    (Domain.recommended_domain_count ());
  let spec =
    bench_spec ~inputs:8 ~boosts:5 ~classify:false ~seed:3 ~programs:(scale 8)
      Defense.baseline
  in
  List.iter
    (fun instances ->
      let t0 = Unix.gettimeofday () in
      let r =
        if instances = 1 then Campaign.run spec
        else
          let rep = Sweep.run ~domains:instances (Sweep.instances instances spec) in
          (List.hd rep.Sweep.rows).Sweep.result
      in
      Format.printf
        "%2d instance(s): %4d test cases, %3d violations, %6.0f tc/s aggregate, %.1f s wall@."
        instances r.Campaign.test_cases
        (List.length r.Campaign.violations)
        r.Campaign.throughput
        (Unix.gettimeofday () -. t0))
    [ 1; 2; 4 ]

(* Robustness: fault containment under chaos injection, and the wall-clock
   cost of crash-safe journaling. *)
let extension_robustness () =
  section "Extension: campaign robustness (chaos injection + journal overhead)";
  let qdir = Filename.temp_file "amulet-bench-quarantine" "" in
  Sys.remove qdir;
  let chaos = Fault.injector ~p_crash:0.02 ~p_timeout:0.02 ~p_sim_fault:0.02 ~seed:99 () in
  let r =
    Campaign.run
      (Run_spec.make ~defense:Defense.baseline ~rounds:(scale 20) ~seed:11
         ~classify:false ~inputs:6 ~boosts:3 ~deadline_ms:5000.
         ~quarantine_dir:qdir ~chaos ())
  in
  Format.printf
    "chaos campaign: %d programs, %d discarded, %d quarantined, %d violations@."
    r.Campaign.programs_run r.Campaign.discarded_programs r.Campaign.quarantined
    (List.length r.Campaign.violations);
  List.iter
    (fun (c, n) -> Format.printf "  fault %-20s %d@." (Fault.class_name c) n)
    r.Campaign.fault_counts;
  (* journal-write overhead: the checkpoint a campaign pays every
     [checkpoint_every] rounds, measured on this campaign's final state *)
  let j =
    {
      Journal.seed = 11;
      n_programs = r.Campaign.programs_run;
      defense_name = r.Campaign.defense.Defense.name;
      contract_name = r.Campaign.contract_name;
      programs_run = r.Campaign.programs_run;
      discarded = r.Campaign.discarded_programs;
      test_cases = r.Campaign.test_cases;
      fault_counts = r.Campaign.fault_counts;
      detection_times = r.Campaign.detection_times;
      corpus = r.Campaign.corpus;
      violations = List.map Violation_io.of_violation r.Campaign.violations;
    }
  in
  let jpath = Filename.temp_file "amulet-bench" ".journal" in
  let reps = 200 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    Journal.save j jpath
  done;
  let write_ms = (Unix.gettimeofday () -. t0) *. 1000. /. float_of_int reps in
  Sys.remove jpath;
  Format.printf "journal checkpoint write: %.3f ms (atomic temp+rename, %d reps)@."
    write_ms reps;
  (* machine-readable summary line for downstream tooling *)
  Format.printf "%s@."
    (Json.to_string
       (Json.Obj
          [
            ("bench", Json.Str "robustness");
            ("programs", Json.Int r.Campaign.programs_run);
            ("discarded", Json.Int r.Campaign.discarded_programs);
            ("quarantined", Json.Int r.Campaign.quarantined);
            ( "faults",
              Json.Obj
                (List.map
                   (fun (c, n) -> (Fault.class_name c, Json.Int n))
                   r.Campaign.fault_counts) );
            ("journal_write_ms", Json.Float write_ms);
          ]));
  if Sys.file_exists qdir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat qdir f)) (Sys.readdir qdir);
    Sys.rmdir qdir
  end

(* ------------------------------------------------------------------ *)
(* Throughput: naive (rebuild) vs pooled (snapshot/restore) engine     *)
(* ------------------------------------------------------------------ *)

(* The engine-level reproduction of the paper's executor speedup (§3.1):
   batch all boosted inputs of a test case against a warm simulator and
   rewind a post-boot checkpoint instead of re-booting.  Emits
   BENCH_throughput.json (path overridable via AMULET_BENCH_JSON) and
   exits non-zero if the two engines' traces ever diverge. *)

let throughput () =
  section "Throughput: naive (rebuild) vs pooled (snapshot/restore) engine";
  let boot = Amulet_uarch.Simulator.default_boot_insts in
  let programs = scale 4 and n_inputs = 16 in
  let rng = Rng.create ~seed:2025 in
  let cases =
    Array.init programs (fun _ ->
        let flat = Generator.generate_flat rng in
        let inputs = Array.init n_inputs (fun _ -> Input.generate rng ~pages:1) in
        (flat, inputs))
  in
  (* run every case through one engine; the timed region includes warm-up
     so the pooled engine is charged its single boot *)
  let measure ?(metrics = Amulet_obs.Obs.noop) kind mode =
    let eng =
      Engine.create ~boot_insts:boot ~kind ~mode Defense.baseline
        (Stats.create ~metrics ())
    in
    (* boot cost is reported separately (warm boot / snapshot rows below);
       the throughput numbers measure the steady state.  The major
       collection keeps GC debt from one measurement out of the next. *)
    Engine.warm eng;
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let traces =
      Array.map
        (fun (flat, inputs) ->
          Array.map
            (Option.map (fun (o : Engine.outcome) -> o.Engine.trace))
            (Engine.run_batch eng flat inputs).Engine.outcomes)
        cases
    in
    let dt = Unix.gettimeofday () -. t0 in
    (Engine.stats eng, dt, traces)
  in
  let traces_identical a b =
    try
      Array.for_all2
        (Array.for_all2 (fun x y ->
             match (x, y) with
             | Some x, Some y -> Utrace.equal x y
             | None, None -> true
             | _ -> false))
        a b
    with Invalid_argument _ -> false
  in
  (* headline: Naive testing semantics (pristine state per input), where the
     executor pays a full warm boot per input unless it can rewind *)
  let s_naive, t_naive, tr_naive = measure Engine.Naive Executor.Naive in
  let s_pooled, t_pooled, tr_pooled = measure Engine.Pooled Executor.Naive in
  let identical = traces_identical tr_naive tr_pooled in
  (* secondary: Opt semantics (one simulator per program), where pooling
     only replaces the per-program rebuild *)
  let _, t_naive_opt, tr_no = measure Engine.Naive Executor.Opt in
  let _, t_pooled_opt, tr_po = measure Engine.Pooled Executor.Opt in
  let identical_opt = traces_identical tr_no tr_po in
  (* telemetry must be trace-invisible and near-free: time the pooled
     configuration without and with a live registry in interleaved pairs
     (alternating which goes first), require byte-identical traces on every
     pass, and report the median per-pair wall-clock overhead and its
     interquartile range (the <5% budget the design document commits to).
     One ~10 ms pass is too noisy to read on its own. *)
  let telemetry_pairs = 9 in
  let pairs =
    List.init telemetry_pairs (fun i ->
        let live = Amulet_obs.Obs.create () in
        let off () = measure Engine.Pooled Executor.Naive in
        let on () = measure ~metrics:live Engine.Pooled Executor.Naive in
        (* let-bound so the alternation fixes the evaluation order *)
        let (_, t_off, tr_off), (_, t_on, tr_on) =
          if i mod 2 = 0 then
            let r_off = off () in
            (r_off, on ())
          else
            let r_on = on () in
            (off (), r_on)
        in
        ( traces_identical tr_pooled tr_off && traces_identical tr_pooled tr_on,
          (t_on -. t_off) /. t_off *. 100.,
          live ))
  in
  let telemetry_invisible = List.for_all (fun (same, _, _) -> same) pairs in
  let overheads =
    Array.of_list (List.sort compare (List.map (fun (_, pct, _) -> pct) pairs))
  in
  (* the exported snapshot is one pass's counts, as with a single pass *)
  let _, _, registry = List.nth pairs (telemetry_pairs - 1) in
  let quantile q =
    let pos = q *. float_of_int (telemetry_pairs - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (telemetry_pairs - 1) in
    overheads.(lo) +. ((pos -. float_of_int lo) *. (overheads.(hi) -. overheads.(lo)))
  in
  let telemetry_overhead_pct = quantile 0.5 in
  let telemetry_overhead_iqr = quantile 0.75 -. quantile 0.25 in
  let metrics_snapshot = Amulet_obs.Obs.Snapshot.of_registry registry in
  let inputs_total = programs * n_inputs in
  let per t = (float_of_int programs /. t, float_of_int inputs_total /. t) in
  let tps_n, ips_n = per t_naive and tps_p, ips_p = per t_pooled in
  let speedup = ips_p /. ips_n in
  let speedup_opt = t_naive_opt /. t_pooled_opt in
  Format.printf "%-28s %10s %12s %12s %8s %9s@." "engine (Naive semantics)"
    "seconds" "tests/sec" "inputs/sec" "boots" "rewinds";
  let row name t (s : Engine.stats) tps ips =
    Format.printf "%-28s %10.3f %12.1f %12.1f %8d %9d@." name t tps ips
      s.Engine.sims_created s.Engine.snapshot_restores
  in
  row "naive (rebuild)" t_naive s_naive tps_n ips_n;
  row "pooled (snapshot/restore)" t_pooled s_pooled tps_p ips_p;
  Format.printf "speedup (inputs/sec): %.2fx   Opt-semantics speedup: %.2fx@."
    speedup speedup_opt;
  (* checkpoint cost: what one snapshot and one rewind of the post-boot
     microarchitectural state cost in isolation *)
  let sim = Amulet_uarch.Simulator.create ~boot_insts:boot ~pages:1
      Amulet_uarch.Config.default in
  let reps = 200 in
  let time_us f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do f () done;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int reps
  in
  (* decode amortization: the hot loop decodes each program once (the
     pre-decoded program cache) and reuses its structures across inputs
     (ring-buffer ROB, arena reuse).  Both claims are gated on
     deterministic counters, not on wall-clock: the engine decodes exactly
     one program per test program (it restores the shared post-boot
     checkpoint, so it never decodes the boot program), and a warm engine
     stays under a fixed minor-heap budget per input. *)
  let decode_boot = 200 in
  let decode_words_gate = 64_000. in
  (* long straight-line-heavy programs and a deep input population: the
     regime the hot loop optimizations target (per-input work dominates;
     one decode serves the whole population) *)
  let decode_programs = scale 3 and decode_inputs = 24 in
  let decode_cases =
    let rng = Rng.create ~seed:2026 in
    let cfg =
      { Generator.default with
        Generator.blocks = 32;
        min_insts_per_block = 10;
        max_insts_per_block = 16 }
    in
    Array.init decode_programs (fun _ ->
        let flat = Generator.generate_flat ~cfg rng in
        let inputs =
          Array.init decode_inputs (fun _ -> Input.generate rng ~pages:1)
        in
        (flat, inputs))
  in
  let decode_inputs_total = decode_programs * decode_inputs in
  let decodes_expected = decode_programs in
  Format.printf "@.decode amortization (pooled engine, Opt semantics, boot %d):@."
    decode_boot;
  Format.printf "%-14s %12s %8s %16s@." "preset" "seconds" "decodes"
    "minor words/in";
  let decode_rows =
    List.map
      (fun name ->
        let d =
          match Defense.find name with
          | Some d -> d
          | None -> failwith ("unknown preset " ^ name)
        in
        let eng =
          Engine.create ~boot_insts:decode_boot ~kind:Engine.Pooled
            ~mode:Executor.Opt d (Stats.create ())
        in
        Engine.warm eng;
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        Array.iter
          (fun (flat, inputs) -> ignore (Engine.run_batch eng flat inputs))
          decode_cases;
        let t = Unix.gettimeofday () -. t0 in
        let words =
          (Gc.minor_words () -. w0) /. float_of_int decode_inputs_total
        in
        let decodes = (Engine.stats eng).Engine.programs_decoded in
        Format.printf "%-14s %12.3f %8d %16.0f@." name t decodes words;
        (name, t, decodes, words))
      [ "baseline"; "invisispec"; "speclfb" ]
  in
  let decode_amortized =
    List.for_all (fun (_, _, d, _) -> d = decodes_expected) decode_rows
  in
  let decode_words_bounded =
    List.for_all (fun (_, _, _, w) -> w <= decode_words_gate) decode_rows
  in
  let decode_ok = decode_amortized && decode_words_bounded in
  if not decode_amortized then
    Format.printf "ERROR: decodes differ from %d (one per program)@."
      decodes_expected
  else if not decode_words_bounded then
    Format.printf "ERROR: minor words per input above the %.0f gate@."
      decode_words_gate
  else
    Format.printf
      "decode amortization: %d decodes per preset, minor words per input \
       within %.0f@."
      decodes_expected decode_words_gate;
  (* input materialization: Input.generate and Input.mutate_free draw
     sandbox bytes through Rng.fill_bytes, which keeps the splitmix64
     counter unboxed, so an input costs a fixed handful of minor words
     whatever its size.  Gated on that deterministic counter: one boxed
     draw per byte costs about 24.8k words on one page and 3.1M on 128
     (stt's sandbox).  The taint has no relevant word, so mutate_free
     redraws the whole sandbox as one free run.  Taint.create rides the
     same gate: a set per sandbox word cost 327,772 words on 128 pages,
     the shared own-atom label a few dozen. *)
  let input_words_gate = 1_024. in
  let input_rows =
    List.concat_map
      (fun pages ->
        let rng = Rng.create ~seed:2027 in
        let base = Input.generate rng ~pages in
        let mem = (Input.to_state base).Amulet_emu.State.mem in
        let taint = Amulet_emu.Taint.create mem in
        let words_per_call f =
          let reps = 8 in
          let w0 = Gc.minor_words () in
          for _ = 1 to reps do ignore (Sys.opaque_identity (f ())) done;
          (Gc.minor_words () -. w0) /. float_of_int reps
        in
        [
          ("generate", pages, words_per_call (fun () -> Input.generate rng ~pages));
          ( "mutate_free", pages,
            words_per_call (fun () -> Input.mutate_free rng taint base) );
          ("taint_create", pages, words_per_call (fun () -> Amulet_emu.Taint.create mem));
        ])
      [ 1; 128 ]
  in
  let inputs_bounded =
    List.for_all (fun (_, _, w) -> w <= input_words_gate) input_rows
  in
  Format.printf "@.input materialization (minor words per call):@.";
  List.iter
    (fun (op, pages, w) -> Format.printf "%-12s %4d pages %10.0f@." op pages w)
    input_rows;
  if inputs_bounded then
    Format.printf "input materialization: within %.0f minor words per call@."
      input_words_gate
  else
    Format.printf "ERROR: input materialization above the %.0f minor-word gate@."
      input_words_gate;
  let snapshot_us = time_us (fun () -> ignore (Amulet_uarch.Simulator.snapshot sim)) in
  let snap = Amulet_uarch.Simulator.snapshot sim in
  let restore_us = time_us (fun () -> Amulet_uarch.Simulator.restore sim snap) in
  let t0 = Unix.gettimeofday () in
  let boots = 5 in
  for _ = 1 to boots do
    ignore (Amulet_uarch.Simulator.create ~boot_insts:boot ~pages:1
              Amulet_uarch.Config.default)
  done;
  let boot_us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int boots in
  Format.printf "snapshot: %.1f us   restore: %.1f us   warm boot: %.1f us@."
    snapshot_us restore_us boot_us;
  if not (identical && identical_opt) then
    Format.printf "ERROR: pooled and naive engine traces DIVERGED@."
  else Format.printf "traces: pooled and naive byte-identical across %d inputs@."
      (2 * inputs_total);
  if not telemetry_invisible then
    Format.printf "ERROR: telemetry changed the traces (must be trace-invisible)@."
  else
    Format.printf
      "telemetry: trace-invisible, %.1f%% median overhead (IQR %.1f points \
       over %d interleaved pairs; %d counters live)@."
      telemetry_overhead_pct telemetry_overhead_iqr telemetry_pairs
      (List.length metrics_snapshot.Amulet_obs.Obs.Snapshot.counters);
  let engine_json t tps ips (st : Engine.stats) =
    Json.Obj
      [
        ("seconds", Json.Float t);
        ("tests_per_sec", Json.Float tps);
        ("inputs_per_sec", Json.Float ips);
        ("sims_created", Json.Int st.Engine.sims_created);
        ("snapshot_restores", Json.Int st.Engine.snapshot_restores);
      ]
  in
  let input_row (op, pages, words) =
    Json.Obj
      [
        ("op", Json.Str op);
        ("pages", Json.Int pages);
        ("minor_words_per_call", Json.Float words);
      ]
  in
  let decode_row (name, t, decodes, words) =
    Json.Obj
      [
        ("preset", Json.Str name);
        ("seconds", Json.Float t);
        ("programs_decoded", Json.Int decodes);
        ("minor_words_per_input", Json.Float words);
      ]
  in
  write_bench_json ~default:"BENCH_throughput.json"
    (Json.to_string
       (Json.Obj
          [
            ("bench", Json.Str "throughput");
            ("boot_insts", Json.Int boot);
            ("programs", Json.Int programs);
            ("inputs_per_program", Json.Int n_inputs);
            ("naive", engine_json t_naive tps_n ips_n s_naive);
            ("pooled", engine_json t_pooled tps_p ips_p s_pooled);
            ("speedup", Json.Float speedup);
            ("opt_mode_speedup", Json.Float speedup_opt);
            ("snapshot_us", Json.Float snapshot_us);
            ("restore_us", Json.Float restore_us);
            ("warm_boot_us", Json.Float boot_us);
            ("traces_identical", Json.Bool (identical && identical_opt));
            ( "telemetry",
              Json.Obj
                [
                  ("trace_invisible", Json.Bool telemetry_invisible);
                  ("overhead_pct", Json.Float telemetry_overhead_pct);
                  ("overhead_iqr_pct", Json.Float telemetry_overhead_iqr);
                  ("pairs", Json.Int telemetry_pairs);
                ] );
            ( "decode_amortization",
              Json.Obj
                [
                  ("boot_insts", Json.Int decode_boot);
                  ("programs", Json.Int decode_programs);
                  ("inputs_per_program", Json.Int decode_inputs);
                  ("presets", Json.List (List.map decode_row decode_rows));
                  ("decodes_expected", Json.Int decodes_expected);
                  ("minor_words_gate", Json.Float decode_words_gate);
                  ("decodes_amortized", Json.Bool decode_amortized);
                  ("minor_words_bounded", Json.Bool decode_words_bounded);
                  ("ok", Json.Bool decode_ok);
                ] );
            ( "input_materialization",
              Json.Obj
                [
                  ("rows", Json.List (List.map input_row input_rows));
                  ("minor_words_gate", Json.Float input_words_gate);
                  ("inputs_bounded", Json.Bool inputs_bounded);
                ] );
            ("metrics", Amulet_obs.Obs.Snapshot.json metrics_snapshot);
          ]));
  if
    not
      (identical && identical_opt && telemetry_invisible && decode_ok
     && inputs_bounded)
  then exit 1

(* ------------------------------------------------------------------ *)
(* Sweep: the sharded defense matrix, 1 domain vs N                    *)
(* ------------------------------------------------------------------ *)

(* Exercises the sweep orchestrator over every preset and enforces its
   contract: the merged violation fingerprint is byte-identical whatever
   the domain count.  Speedup is reported but only meaningful on
   multi-core hosts (single-core containers pay domain overhead for
   nothing); the fingerprint check is the hard failure.  Emits
   BENCH_sweep.json (path overridable via AMULET_BENCH_JSON). *)
let sweep_bench () =
  section "Sweep: sharded defense matrix, work-stealing domains";
  let cores = Domain.recommended_domain_count () in
  let rounds = scale 2 in
  let mk () =
    Sweep.jobs ~rounds ~seed:9
      ~make_spec:(fun d -> Run_spec.make ~defense:d ~inputs:4 ~boosts:2 ())
      ()
  in
  let time domains =
    let t0 = Unix.gettimeofday () in
    let rep = Sweep.run ~domains (mk ()) in
    (rep, Unix.gettimeofday () -. t0)
  in
  let r1, t1 = time 1 in
  let domains = if cores >= 2 then min cores 4 else 2 in
  let rn, tn = time domains in
  let fp1 = Sweep.fingerprint r1 and fpn = Sweep.fingerprint rn in
  let identical = fp1 = fpn in
  Format.printf "%a@." Sweep.pp r1;
  Format.printf "1 domain: %.1f s   %d domains: %.1f s   speedup: %.2fx@." t1
    domains tn (t1 /. tn);
  if cores < 2 then
    Format.printf
      "(host has 1 core: no speedup expected; determinism still enforced)@.";
  if identical then Format.printf "fingerprint: %s (identical across domain counts)@." fp1
  else Format.printf "ERROR: sweep fingerprints DIVERGED (%s vs %s)@." fp1 fpn;
  write_bench_json ~default:"BENCH_sweep.json" (Sweep.to_json rn);
  if not identical then exit 1

(* ------------------------------------------------------------------ *)
(* Static pre-analysis: lint/leakcheck throughput and screen soundness  *)
(* ------------------------------------------------------------------ *)

(* Measures the static leakage pre-analysis (CFG + dataflow + lint +
   transmitter classification) and enforces its two contracts: every
   curated reproducer is classified potentially leaky (zero false
   negatives), and a screening campaign reports exactly the violations an
   unfiltered one does while simulating measurably fewer inputs.  Emits
   BENCH_static.json (path overridable via AMULET_BENCH_JSON). *)
let static_bench () =
  section "Static pre-analysis: leakcheck throughput and screen soundness";
  (* 1. raw analysis throughput over generated programs *)
  let n = scale 2000 in
  let rng = Rng.create ~seed:11 in
  let programs = Array.init n (fun _ -> Generator.generate_flat rng) in
  let t0 = Unix.gettimeofday () in
  let leaky_default =
    Array.fold_left
      (fun acc flat ->
        if (Amulet_static.Leakcheck.analyze flat).Amulet_static.Leakcheck.leaky
        then acc + 1
        else acc)
      0 programs
  in
  let dt = Unix.gettimeofday () -. t0 in
  let progs_per_sec = float_of_int n /. dt in
  (* 2. screen rate on a fence-rich population (where screening can fire;
     under the default config virtually every program carries a gadget) *)
  let fence_cfg =
    { Generator.default with Generator.blocks = 3; fence_fraction = 0.25;
      mem_fraction = 0.25 }
  in
  let rng = Rng.create ~seed:11 in
  let leaky_fenced = ref 0 in
  for _ = 1 to n do
    let flat = Generator.generate_flat ~cfg:fence_cfg rng in
    if (Amulet_static.Leakcheck.analyze flat).Amulet_static.Leakcheck.leaky
    then incr leaky_fenced
  done;
  let screen_rate_default = float_of_int (n - leaky_default) /. float_of_int n in
  let screen_rate_fenced = float_of_int (n - !leaky_fenced) /. float_of_int n in
  Format.printf
    "analysis: %.0f programs/sec   screenable: %.1f%% (default gen) %.1f%% \
     (fence-rich gen)@."
    progs_per_sec
    (100. *. screen_rate_default)
    (100. *. screen_rate_fenced);
  (* 3. soundness floor: all curated reproducers must classify leaky *)
  let flagged =
    List.filter
      (fun r ->
        let sandbox_bytes =
          r.Reproducers.defense.Defense.sandbox_pages
          * Amulet_emu.Memory.page_size
        in
        (Amulet_static.Leakcheck.analyze ~sandbox_bytes (Reproducers.flat r))
          .Amulet_static.Leakcheck.leaky)
      Reproducers.all
  in
  let n_repro = List.length Reproducers.all in
  let repro_sound = List.length flagged = n_repro in
  Format.printf "reproducers flagged potentially-leaky: %d/%d@."
    (List.length flagged) n_repro;
  (* 4. screen-vs-off equivalence on the fence-rich population: identical
     violations, strictly fewer simulated inputs *)
  let rounds = scale 50 in
  let spec filter =
    Run_spec.make ~defense:Defense.baseline ~rounds ~seed:2024 ~classify:false
      ~inputs:8 ~boosts:4 ~boot_insts:200
      ~generation:(Run_spec.random ~config:fence_cfg ())
      ~static_filter:filter ()
  in
  let ident (v : Violation.t) =
    Printf.sprintf "%Lx/%Lx/%Lx %s" v.Violation.ctrace_hash
      v.Violation.trace_a_hash v.Violation.trace_b_hash v.Violation.program_text
  in
  let metrics = Amulet_obs.Obs.create () in
  let off = Campaign.run (spec Run_spec.Off) in
  let screen = Campaign.run ~metrics (spec Run_spec.Screen) in
  let idents r = List.sort compare (List.map ident r.Campaign.violations) in
  let same_violations = idents off = idents screen in
  let screened =
    Amulet_obs.Obs.Snapshot.counter_value screen.Campaign.metrics
      "static.screened"
  in
  let fewer_inputs = screen.Campaign.test_cases < off.Campaign.test_cases in
  Format.printf
    "campaign (%d rounds): off %d violation(s) %d test cases | screen %d \
     violation(s) %d test cases, %d round(s) screened@."
    rounds
    (List.length off.Campaign.violations)
    off.Campaign.test_cases
    (List.length screen.Campaign.violations)
    screen.Campaign.test_cases screened;
  if not repro_sound then
    Format.printf "ERROR: a curated reproducer was classified leak-free@.";
  if not same_violations then
    Format.printf "ERROR: screening LOST OR ADDED violations@.";
  if not (screened > 0 && fewer_inputs) then
    Format.printf "ERROR: screening skipped nothing (no efficiency win)@.";
  if repro_sound && same_violations && screened > 0 && fewer_inputs then
    Format.printf
      "screen filter: sound (same violations, %d%% fewer inputs simulated)@."
      (100 * (off.Campaign.test_cases - screen.Campaign.test_cases)
      / off.Campaign.test_cases);
  let outcome (r : Campaign.result) =
    [
      ("violations", Json.Int (List.length r.Campaign.violations));
      ("test_cases", Json.Int r.Campaign.test_cases);
    ]
  in
  write_bench_json ~default:"BENCH_static.json"
    (Json.to_string
       (Json.Obj
          [
            ("bench", Json.Str "static");
            ("programs_analyzed", Json.Int n);
            ("analysis_programs_per_sec", Json.Float progs_per_sec);
            ( "screen_rate",
              Json.Obj
                [
                  ("default_generator", Json.Float (rounded 4 screen_rate_default));
                  ("fence_rich_generator", Json.Float (rounded 4 screen_rate_fenced));
                ] );
            ( "reproducers",
              Json.Obj
                [
                  ("total", Json.Int n_repro);
                  ("flagged_leaky", Json.Int (List.length flagged));
                ] );
            ( "campaign",
              Json.Obj
                [
                  ("rounds", Json.Int rounds);
                  ("off", Json.Obj (outcome off));
                  ( "screen",
                    Json.Obj (outcome screen @ [ ("rounds_screened", Json.Int screened) ]) );
                  ("violations_identical", Json.Bool same_violations);
                ] );
          ]));
  if not (repro_sound && same_violations && screened > 0 && fewer_inputs) then
    exit 1

(* ------------------------------------------------------------------ *)
(* Guided vs random generation: coverage-feedback effectiveness        *)
(* ------------------------------------------------------------------ *)

(* Compares violations-per-1k-inputs of coverage-guided generation against
   blind-random on the released (unpatched) artifact presets, and enforces
   the guided determinism contract: the same seed yields byte-identical
   violation identities across engine kinds, and the sweep fingerprint is
   invariant under the worker-domain count.  Emits BENCH_guided.json (path
   overridable via AMULET_BENCH_JSON); exits 1 unless guided reaches >= 2x
   violations-per-1k-inputs on at least one preset and both determinism
   checks hold. *)
let guided_bench () =
  section "Guided vs random generation (released artifacts)";
  let rounds = scale 60 in
  let seed = 7 in
  let corpus =
    {
      Amulet_corpus.Corpus.default_params with
      Amulet_corpus.Corpus.mutate_fraction = 0.8;
      energy = 2;
    }
  in
  let spec ?(engine = Engine.Pooled) ~generation defense =
    Run_spec.make ~defense ~engine ~rounds ~seed ~classify:false ~inputs:8
      ~boosts:4 ~boot_insts:200 ~generation ()
  in
  let vp1k (r : Campaign.result) =
    if r.Campaign.test_cases = 0 then 0.
    else
      1000.
      *. float_of_int (List.length r.Campaign.violations)
      /. float_of_int r.Campaign.test_cases
  in
  let preset name =
    match Defense.find name with
    | Some d -> d
    | None -> failwith ("unknown preset " ^ name)
  in
  let names = [ "invisispec"; "cleanupspec"; "speclfb" ] in
  let rows =
    List.map
      (fun name ->
        let d = preset name in
        let random = Campaign.run (spec ~generation:(Run_spec.random ()) d) in
        let guided =
          Campaign.run (spec ~generation:(Run_spec.guided ~corpus ()) d)
        in
        let rv = vp1k random and gv = vp1k guided in
        let ratio =
          if rv > 0. then gv /. rv else if gv > 0. then Float.infinity else 1.
        in
        Format.printf
          "%-14s random %3d/%5d (%5.1f vp1k) | guided %3d/%5d (%5.1f vp1k)  \
           %.1fx@."
          name
          (List.length random.Campaign.violations)
          random.Campaign.test_cases rv
          (List.length guided.Campaign.violations)
          guided.Campaign.test_cases gv ratio;
        (name, random, guided, ratio))
      names
  in
  let best_ratio =
    List.fold_left (fun acc (_, _, _, r) -> Float.max acc r) 0. rows
  in
  let speedup_ok = best_ratio >= 2.0 in
  (* determinism 1: violation identities invariant under the engine kind
     (the coverage feedback must come from per-run pipeline counters, which
     both engines reproduce exactly) *)
  let ident (v : Violation.t) =
    Printf.sprintf "%Lx/%Lx/%Lx %s" v.Violation.ctrace_hash
      v.Violation.trace_a_hash v.Violation.trace_b_hash v.Violation.program_text
  in
  let idents r = List.sort compare (List.map ident r.Campaign.violations) in
  let det_name, det_guided =
    match
      List.find_opt (fun (_, _, g, _) -> g.Campaign.violations <> []) rows
    with
    | Some (n, _, g, _) -> (n, g)
    | None -> ( match rows with (n, _, g, _) :: _ -> (n, g) | [] -> assert false)
  in
  let naive =
    Campaign.run
      (spec ~engine:Engine.Naive
         ~generation:(Run_spec.guided ~corpus ())
         (preset det_name))
  in
  let engine_invariant = idents naive = idents det_guided in
  (* determinism 2: the sweep fingerprint over guided shards is invariant
     under the worker-domain count *)
  let make_spec d =
    Run_spec.make ~defense:d ~classify:false ~inputs:8 ~boosts:4
      ~boot_insts:200
      ~generation:(Run_spec.guided ~corpus ())
      ()
  in
  let js () =
    match Sweep.select names with
    | Ok selected ->
        Sweep.jobs ~presets:selected ~shards_per_preset:2 ~rounds:(scale 15)
          ~seed ~make_spec ()
    | Error msg -> failwith msg
  in
  let fp1 = Sweep.fingerprint (Sweep.run ~domains:1 (js ())) in
  let fp4 = Sweep.fingerprint (Sweep.run ~domains:4 (js ())) in
  let domain_invariant = fp1 = fp4 in
  Format.printf
    "determinism: engine-invariant %b (%s), fingerprint %s (1 domain) %s (4 \
     domains)@."
    engine_invariant det_name fp1 fp4;
  if not speedup_ok then
    Format.printf "ERROR: guided best ratio %.2fx < 2x on every preset@."
      best_ratio
  else Format.printf "guided best ratio: %.1fx (>= 2x gate passed)@." best_ratio;
  if not engine_invariant then
    Format.printf "ERROR: guided findings differ across engine kinds@.";
  if not domain_invariant then
    Format.printf "ERROR: guided sweep fingerprint depends on domain count@.";
  let ratio_json r = Json.Float (rounded 3 (Float.min r 9999.)) in
  let outcome (r : Campaign.result) =
    Json.Obj
      [
        ("violations", Json.Int (List.length r.Campaign.violations));
        ("test_cases", Json.Int r.Campaign.test_cases);
        ("vp1k", Json.Float (rounded 3 (vp1k r)));
      ]
  in
  let row (name, random, guided, ratio) =
    Json.Obj
      [
        ("preset", Json.Str name);
        ("random", outcome random);
        ("guided", outcome guided);
        ("ratio", ratio_json ratio);
      ]
  in
  write_bench_json ~default:"BENCH_guided.json"
    (Json.to_string
       (Json.Obj
          [
            ("bench", Json.Str "guided");
            ("rounds", Json.Int rounds);
            ("seed", Json.Int seed);
            ("presets", Json.List (List.map row rows));
            ("best_ratio", ratio_json best_ratio);
            ("speedup_ok", Json.Bool speedup_ok);
            ("engine_invariant", Json.Bool engine_invariant);
            ("domain_invariant", Json.Bool domain_invariant);
            ("fingerprint_1_domain", Json.Str fp1);
            ("fingerprint_4_domains", Json.Str fp4);
          ]));
  if not (speedup_ok && engine_invariant && domain_invariant) then exit 1

(* ------------------------------------------------------------------ *)
(* Triage: violation stream -> ranked root-cause report                *)
(* ------------------------------------------------------------------ *)

(* Exercises the full triage pipeline (explain, cluster, bisect) over a
   multi-preset violation stream and enforces its contracts: clustering
   is invariant under stream permutation, distinct clusters never exceed
   the findings consumed, at least one cluster carries a bisected
   mechanism, and the run boots at most once per checkpoint key.  Emits
   BENCH_triage.json (the amulet.triage/1 document, path overridable via
   AMULET_BENCH_JSON). *)
let triage_bench () =
  section "Triage: violation stream to ranked root-cause report";
  (* a small cross-defense stream: released SpecLFB + the Figure-9 STT
     corpus, the same mixture the paper's case studies reduce *)
  let stream = ref [] in
  let add origin v =
    stream := (origin, Violation_io.of_violation v) :: !stream
  in
  let fz =
    Fuzzer.create
      (Run_spec.make ~defense:Defense.speclfb ~seed:17 ~inputs:8 ~boosts:5
         ~boot_insts:300 ())
  in
  let budget = scale 25 in
  for i = 1 to budget do
    match Fuzzer.round fz with
    | Fuzzer.Found v -> add (Printf.sprintf "speclfb#%d" i) v
    | _ -> ()
  done;
  (match Reproducers.hunt ~seed:7 Reproducers.figure9 with
  | Some v -> add "figure9" v
  | None -> ());
  let stream = List.rev !stream in
  let n = List.length stream in
  let t0 = Unix.gettimeofday () in
  let findings =
    List.map (fun (o, s) -> (o, Triage.explain s)) stream
  in
  let t_explain = Unix.gettimeofday () -. t0 in
  (* Every analysis engine restores the shared post-boot checkpoint, so
     Triage.run boots at most once per key it can ask for, however long the
     stream: each violation's config and every config bisection flips it
     to, on its sandbox, at two boot lengths (explain's default and
     bisection's replay length). *)
  let boot_bound =
    let configs =
      List.concat_map
        (fun (_, (s : Violation_io.stored)) ->
          let d = Violation_io.resolve_defense s.Violation_io.defense_name in
          let base = Defense.config d in
          List.map
            (fun c -> (c, d.Defense.sandbox_pages))
            (base :: List.map (fun (_, _, _, c) -> c) (Triage.flip_candidates base)))
        stream
    in
    2 * List.length (List.sort_uniq compare configs)
  in
  let boots0 = Amulet_uarch.Simulator.boots () in
  let t1 = Unix.gettimeofday () in
  let report = Triage.run ~bisect:true stream in
  let t_run = Unix.gettimeofday () -. t1 in
  let boots = Amulet_uarch.Simulator.boots () - boots0 in
  let boots_bounded = boots <= boot_bound in
  let clusters = report.Triage.clusters in
  let stable =
    let key c =
      (c.Triage.rank, c.Triage.cluster_signature, c.Triage.count)
    in
    List.map key (Triage.cluster findings)
    = List.map key (Triage.cluster (List.rev findings))
  in
  let bounded =
    List.length clusters <= report.Triage.total - report.Triage.not_reproduced
  in
  let named =
    List.exists (fun c -> c.Triage.representative.Triage.mechanism <> None)
      clusters
  in
  Format.printf "%a" Triage.pp_report report;
  Format.printf
    "stream: %d violations   explain: %.2f s (%.1f/s)   full run: %.2f s@." n
    t_explain
    (float_of_int n /. Float.max 1e-9 t_explain)
    t_run;
  Format.printf "boots during Triage.run: %d, bound %d (boots_bounded: %b)@."
    boots boot_bound boots_bounded;
  if not stable then Format.printf "ERROR: clustering depends on stream order@.";
  if not bounded then Format.printf "ERROR: more clusters than findings@.";
  if not named then
    Format.printf "ERROR: no cluster carries a bisected mechanism@.";
  if not boots_bounded then
    Format.printf "ERROR: Triage.run booted more often than it has keys@.";
  write_bench_json ~default:"BENCH_triage.json" (Triage.report_to_json report);
  if not (stable && bounded && named && boots_bounded && clusters <> []) then
    exit 1

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  match Sys.getenv_opt "AMULET_BENCH_ONLY" with
  | Some "throughput" -> throughput ()
  | Some "sweep" -> sweep_bench ()
  | Some "static" -> static_bench ()
  | Some "guided" -> guided_bench ()
  | Some "triage" -> triage_bench ()
  | Some "table2" -> table2 ()
  | Some s ->
      Format.eprintf
        "unknown AMULET_BENCH_ONLY section %S (try: throughput, sweep, \
         static, guided, triage, table2)@."
        s;
      exit 2
  | None ->
      Format.printf "%s@.AMuLeT evaluation harness%s@.%s@." hline
        (if full then " (AMULET_BENCH_FULL)" else " (scaled budgets)")
        hline;
      table1 ();
      microbench ();
      table2 ();
      table3 ();
      table4 ();
      table5 ();
      table6 ();
      table8 ();
      figures ();
      table11 ();
      throughput ();
      sweep_bench ();
      static_bench ();
      guided_bench ();
      triage_bench ();
      extension_ghostminion ();
      extension_prefetcher ();
      extension_parallel ();
      extension_robustness ();
      Format.printf "@.%s@.done.@." hline
