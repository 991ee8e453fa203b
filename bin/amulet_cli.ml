(* The amulet command-line interface.

   Subcommands:
     fuzz       - run a testing campaign against a defense
     sweep      - run the sharded multi-defense matrix sweep
     reproduce  - hunt a known vulnerability, or replay a violation/PoC file
     run        - execute an assembly file on the simulator and print traces
     explain    - one-element triage view of a saved violation (bisected,
                  optionally minimized)
     triage     - cluster/bisect a violation stream into ranked root causes
     lint       - static leakage pre-analysis of a program (no simulation)
     corpus     - inspect a guided-fuzzing corpus checkpoint
     list       - show available defenses, contracts, trace formats

   All subcommands share the Output conventions: --json for machine-readable
   stdout, and exit codes 0 = clean, 1 = violation(s) found/reproduced,
   2 = usage or internal fault. *)

open Cmdliner
open Amulet
open Amulet_defenses
module Json = Amulet_obs.Json
module Rng = Amulet_corpus.Rng
module Generator = Amulet_corpus.Generator

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let defense_arg =
  let parse s =
    match Defense.find s with
    | Some d -> Ok d
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown defense %S (try: %s)" s
               (String.concat ", " (List.map (fun d -> d.Defense.name) Defense.all))))
  in
  let print fmt d = Format.fprintf fmt "%s" d.Defense.name in
  Arg.conv (parse, print)

let format_arg =
  let parse s =
    match Utrace.format_of_string s with
    | Some f -> Ok f
    | None -> Error (`Msg "unknown trace format (l1d+tlb, bp-state, mem-order, bp-order)")
  in
  let print fmt f = Format.fprintf fmt "%s" (Utrace.format_name f) in
  Arg.conv (parse, print)

let contract_arg =
  let parse s =
    match Amulet_contracts.Contract.find s with
    | Some c -> Ok c
    | None -> Error (`Msg "unknown contract (CT-SEQ, CT-COND, ARCH-SEQ)")
  in
  let print fmt c = Format.fprintf fmt "%s" c.Amulet_contracts.Contract.name in
  Arg.conv (parse, print)

let defense_t =
  Arg.(
    value
    & opt defense_arg Defense.baseline
    & info [ "d"; "defense" ] ~docv:"DEFENSE" ~doc:"Countermeasure under test.")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let json_t =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit a machine-readable JSON document on stdout (progress goes \
              to stderr).")

let mode_t =
  Arg.(
    value
    & opt (enum [ "opt", Executor.Opt; "naive", Executor.Naive ]) Executor.Opt
    & info [ "mode" ] ~doc:"Executor mode: $(b,opt) amortizes simulator startup.")

let engine_t =
  Arg.(
    value
    & opt (enum [ "pooled", Engine.Pooled; "naive", Engine.Naive ]) Engine.Pooled
    & info [ "engine" ]
        ~doc:
          "Execution engine: $(b,pooled) boots one simulator and rewinds a \
           post-boot checkpoint per test case; $(b,naive) rebuilds the \
           simulator whenever pristine state is needed.  Trace-invisible — \
           an escape hatch for A/B-ing the pooled path.")

let static_filter_t =
  let filter_conv =
    let parse s =
      match Run_spec.static_filter_of_name s with
      | Some f -> Ok f
      | None -> Error (`Msg "unknown static filter (off, screen, score)")
    in
    let print fmt f = Format.fprintf fmt "%s" (Run_spec.static_filter_name f) in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt filter_conv Run_spec.Off
    & info [ "static-filter" ] ~docv:"MODE"
        ~doc:
          "Static leakage pre-filter applied to generated programs: \
           $(b,off) simulates everything; $(b,screen) skips programs the \
           static analysis proves leak-free (sound — a screened program \
           cannot violate any bundled contract); $(b,score) redraws \
           transmitter-free programs a few times but never skips a round.")

(* --guided and its corpus knobs, shared by fuzz and sweep.  The term
   evaluates to a closure over the base generator config, so each
   subcommand applies its own generator tweaks (e.g. fuzz --unaligned)
   before choosing the strategy. *)
let generation_t =
  let dp = Amulet_corpus.Corpus.default_params in
  let guided =
    Arg.(
      value & flag
      & info [ "guided" ]
          ~doc:
            "Coverage-guided generation: keep a seed corpus scored by \
             microarchitectural coverage feedback and mutate scheduled \
             seeds instead of always drawing fresh random programs.")
  in
  let capacity =
    Arg.(
      value & opt int dp.Amulet_corpus.Corpus.capacity
      & info [ "corpus-capacity" ] ~docv:"N"
          ~doc:"Guided: max live corpus entries (lowest score evicted first).")
  in
  let max_age =
    Arg.(
      value & opt int dp.Amulet_corpus.Corpus.max_age
      & info [ "corpus-max-age" ] ~docv:"N"
          ~doc:"Guided: retire a seed after N rounds without novel coverage.")
  in
  let mutate_fraction =
    Arg.(
      value & opt float dp.Amulet_corpus.Corpus.mutate_fraction
      & info [ "mutate-fraction" ] ~docv:"P"
          ~doc:
            "Guided: probability a round mutates a scheduled seed instead \
             of generating a fresh random program.")
  in
  let energy =
    Arg.(
      value & opt int dp.Amulet_corpus.Corpus.energy
      & info [ "mutation-energy" ] ~docv:"N"
          ~doc:"Guided: max stacked mutation operators per mutant.")
  in
  let seeds =
    Arg.(
      value & opt_all file []
      & info [ "corpus-seed" ] ~docv:"FILE"
          ~doc:
            "Guided: seed the corpus with this program (repeatable; flat \
             or block assembly syntax; lint-invalid seeds are rejected, \
             not admitted).")
  in
  let make guided capacity max_age mutate_fraction energy seed_files base =
    if not guided then Run_spec.random ~config:base ()
    else
      let seed_programs =
        List.map
          (fun f -> In_channel.with_open_text f In_channel.input_all)
          seed_files
      in
      Run_spec.guided ~base
        ~corpus:
          {
            Amulet_corpus.Corpus.capacity;
            max_age;
            mutate_fraction;
            energy;
            seed_programs;
          }
        ()
  in
  Term.(
    const make $ guided $ capacity $ max_age $ mutate_fraction $ energy $ seeds)

let metrics_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the run's telemetry registry (uarch.* hardware counters, \
           engine.* executor metrics, fuzzer.* campaign metrics) to FILE as \
           JSON.  Trace-invisible: enabling telemetry never changes traces \
           or findings.")

(* --metrics FILE, shared by fuzz and sweep: a live registry (noop
   without FILE) and the writer of the run's snapshot to FILE. *)
let metrics_sink ~json metrics_out =
  match metrics_out with
  | None -> (Amulet_obs.Obs.noop, fun _ -> ())
  | Some path ->
      ( Amulet_obs.Obs.create (),
        fun snapshot ->
          Output.write_file path (Amulet_obs.Obs.Snapshot.to_json snapshot);
          (if json then Format.eprintf else Format.printf)
            "telemetry written to %s@." path )

(* campaign-result JSON shared by fuzz --json *)
let result_json (r : Campaign.result) =
  Json.Obj
    [
      ("defense", Json.Str r.Campaign.defense.Defense.name);
      ("contract", Json.Str r.contract_name);
      ("programs_run", Json.Int r.programs_run);
      ("discarded", Json.Int r.discarded_programs);
      ("test_cases", Json.Int r.test_cases);
      ("violations", Json.Int (List.length r.violations));
      ( "violation_classes",
        Json.Obj
          (List.map
             (fun (c, n) -> (Analysis.class_name c, Json.Int n))
             r.violation_classes) );
      ( "faults",
        Json.Obj
          (List.map (fun (c, n) -> (Fault.class_name c, Json.Int n)) r.fault_counts)
      );
      ("quarantined", Json.Int r.quarantined);
      ("duration_s", Json.Float r.duration);
      ("throughput", Json.Float r.throughput);
      ("detection_times", Json.List (List.map (fun t -> Json.Float t) r.detection_times));
      ("budget_exhausted", Json.Bool r.budget_exhausted);
      ("metrics", Amulet_obs.Obs.Snapshot.json r.metrics);
    ]

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let programs =
    Arg.(value & opt int 50 & info [ "p"; "programs" ] ~doc:"Number of test programs.")
  in
  let inputs =
    Arg.(value & opt int 10 & info [ "i"; "inputs" ] ~doc:"Base inputs per program.")
  in
  let boosts =
    Arg.(value & opt int 4 & info [ "b"; "boosts" ] ~doc:"Boosted mutants per base input.")
  in
  let fmt_ =
    Arg.(
      value & opt format_arg Utrace.L1d_tlb
      & info [ "trace-format" ] ~doc:"Microarchitectural trace format.")
  in
  let contract =
    Arg.(
      value
      & opt (some contract_arg) None
      & info [ "contract" ] ~doc:"Override the defense's default contract.")
  in
  let ways =
    Arg.(value & opt (some int) None & info [ "ways" ] ~doc:"Amplification: L1D ways.")
  in
  let mshrs =
    Arg.(value & opt (some int) None & info [ "mshrs" ] ~doc:"Amplification: MSHR count.")
  in
  let stop =
    Arg.(
      value & opt (some int) None
      & info [ "stop-after" ] ~doc:"Stop after this many violations.")
  in
  let unaligned =
    Arg.(
      value & opt float Generator.default.Generator.unaligned_fraction
      & info [ "unaligned" ] ~doc:"Fraction of unaligned memory offsets.")
  in
  let parallel =
    Arg.(
      value & opt int 1
      & info [ "j"; "parallel" ]
          ~doc:"Parallel campaign instances (the paper ran 16 or 100).")
  in
  let prefetcher =
    Arg.(
      value & flag
      & info [ "prefetcher" ]
          ~doc:"Enable the next-line L1D prefetcher (extension study).")
  in
  let save_dir =
    Arg.(
      value & opt (some string) None
      & info [ "save-dir" ] ~docv:"DIR" ~doc:"Save found violations into this directory.")
  in
  let deadline_ms =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget per fuzzing round; a round that blows it is \
             classified and discarded instead of stalling the campaign.")
  in
  let budget_ms =
    Arg.(
      value & opt (some float) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget for the whole campaign; when it runs out the \
             campaign stops at the last completed round boundary with a \
             clean journal checkpoint.")
  in
  let quarantine_dir =
    Arg.(
      value & opt (some string) None
      & info [ "quarantine-dir" ] ~docv:"DIR"
          ~doc:"Save the program+input of every discarded round here for triage.")
  in
  let journal =
    Arg.(
      value & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Checkpoint campaign progress into this file (atomic \
             write-temp-then-rename) so a killed campaign can be resumed.")
  in
  let resume =
    Arg.(
      value & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume a journaled campaign from its last checkpoint.  The seed \
             is taken from the journal; the defense must match.  Implies \
             $(b,--journal) FILE unless one is given.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 10
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Rounds between journal checkpoints.")
  in
  let chaos =
    Arg.(
      value & opt (some float) None
      & info [ "chaos" ] ~docv:"P"
          ~doc:
            "Robustness self-test: inject a crash/timeout/fault into each \
             test case with probability P each (so ~3P of rounds misbehave); \
             the campaign must classify and survive all of them.")
  in
  let corpus_out =
    Arg.(
      value & opt (some string) None
      & info [ "corpus-out" ] ~docv:"FILE"
          ~doc:
            "Guided: write the final corpus checkpoint to FILE (inspect \
             with $(b,amulet corpus)).")
  in
  let run defense programs inputs boosts mode engine fmt_ contract ways mshrs stop
      seed unaligned parallel prefetcher save_dir deadline_ms budget_ms
      quarantine_dir journal resume checkpoint_every chaos static_filter
      generation_of corpus_out metrics_out json =
   Output.guarded @@ fun () ->
    let say fmt = (if json then Format.eprintf else Format.printf) fmt in
    let sim_config =
      match ways, mshrs, prefetcher with
      | None, None, false -> None
      | _ ->
          Some
            {
              (Defense.config ?l1d_ways:ways ?mshrs defense) with
              Amulet_uarch.Config.nl_prefetcher = prefetcher;
            }
    in
    let resume_journal =
      match resume with
      | None -> None
      | Some path -> (
          (* a torn checkpoint (crash mid-write on an fsync-less FS) is
             quarantined and the campaign starts fresh — never a crash *)
          match Journal.recover path with
          | Journal.Resumed j ->
              if j.Journal.defense_name <> defense.Defense.name then
                failwith
                  (Printf.sprintf
                     "journal %s was written for defense %s, not %s (pass -d %s)"
                     path j.Journal.defense_name defense.Defense.name
                     j.Journal.defense_name);
              Some j
          | Journal.Quarantined { corrupt_path; error } ->
              Format.eprintf
                "amulet: journal %s is corrupt (%s); moved aside to %s, \
                 starting fresh@."
                path error corrupt_path;
              None
          | Journal.Fresh ->
              failwith (Printf.sprintf "no journal to resume at %s" path))
    in
    (* a resumed campaign replays the journal's seed and keeps checkpointing
       into the same file unless another --journal is given *)
    let seed =
      match resume_journal with Some j -> j.Journal.seed | None -> seed
    in
    let programs =
      match resume_journal with
      | Some j -> max programs j.Journal.n_programs
      | None -> programs
    in
    let journal_path =
      match journal, resume with Some _, _ -> journal | None, r -> r
    in
    let chaos_injector =
      Option.map
        (fun p ->
          Fault.injector ~p_crash:p ~p_timeout:p ~p_sim_fault:p ~seed ())
        chaos
    in
    let spec =
      Run_spec.make ~defense ~engine ~seed ~rounds:programs ?deadline_ms
        ?budget_ms ~inputs ~boosts ?contract ?stop_after:stop
        ~generation:
          (generation_of
             { Generator.default with Generator.unaligned_fraction = unaligned })
        ~mode ~trace_format:fmt_ ?sim_config ?quarantine_dir
        ?chaos:chaos_injector ~static_filter ()
    in
    say
      "fuzzing %s (%s contract, %s traces, %s executor, %s engine, %s \
       generation, seed %d)...@."
      defense.Defense.name
      (Run_spec.contract_name spec)
      (Utrace.format_name fmt_) (Executor.mode_name mode) (Engine.kind_name engine)
      (Run_spec.generation_name spec.Run_spec.generation)
      seed;
    (match resume_journal with
    | Some j ->
        say "resuming from checkpoint: %d/%d rounds done, %d violation(s)@."
          j.Journal.programs_run j.Journal.n_programs
          (List.length j.Journal.violations)
    | None -> ());
    let metrics, write_metrics = metrics_sink ~json metrics_out in
    (* -j n: an n-shard sweep of this one preset *)
    let r, telemetry =
      if parallel > 1 then begin
        if journal_path <> None then
          Format.eprintf
            "note: --journal/--resume apply to single-instance campaigns; \
             ignored with --parallel@.";
        let report =
          Sweep.run ~domains:parallel ~metrics (Sweep.instances parallel spec)
        in
        ((List.hd report.Sweep.rows).Sweep.result, report.Sweep.metrics)
      end
      else begin
        let n = ref 0 in
        let r =
          Campaign.run ?journal_path ~checkpoint_every ?resume:resume_journal
            ~metrics spec ~on_violation:(fun v ->
              incr n;
              if not json then
                Format.printf "@.--- violation %d ---@.%a@." !n Violation.pp v)
        in
        (r, r.Campaign.metrics)
      end
    in
    write_metrics telemetry;
    if parallel > 1 && not json then
      List.iteri
        (fun i v -> Format.printf "@.--- violation %d ---@.%a@." (i + 1) Violation.pp v)
        r.Campaign.violations;
    (match corpus_out with
    | None -> ()
    | Some path -> (
        match r.Campaign.corpus with
        | Some c ->
            Output.write_file path c;
            say "corpus written to %s@." path
        | None ->
            Format.eprintf
              "note: --corpus-out ignored (no corpus; pass --guided)@."));
    (match save_dir with
    | None -> ()
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iteri
          (fun i v ->
            let path = Filename.concat dir (Printf.sprintf "violation_%03d.amulet" i) in
            Violation_io.save (Violation_io.of_violation v) path;
            say "saved %s@." path)
          r.Campaign.violations);
    if json then Output.emit (result_json r)
    else Format.printf "@.%a" Campaign.pp r;
    if Campaign.detected r then Output.exit_violation else Output.exit_clean
  in
  let term =
    Term.(
      const run $ defense_t $ programs $ inputs $ boosts $ mode_t $ engine_t
      $ fmt_ $ contract $ ways $ mshrs $ stop $ seed_t $ unaligned $ parallel
      $ prefetcher $ save_dir $ deadline_ms $ budget_ms $ quarantine_dir
      $ journal $ resume $ checkpoint_every $ chaos $ static_filter_t
      $ generation_t $ corpus_out $ metrics_t $ json_t)
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Run a testing campaign against a secure-speculation defense.")
    term

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

(* The sweep's job list: the selected presets, each split into seed shards
   built from the same flags.  The term yields a thunk so that an unknown
   preset or an unreadable corpus seed fails inside [Output.guarded]. *)
type sweep_jobs = { presets : Defense.t list; jobs : Sweep.job list; seed : int }

let sweep_jobs_t =
  let presets =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PRESET"
          ~doc:
            "Defense presets to sweep; names or case-insensitive globs \
             ($(b,invisispec*), $(b,*patched)).  Default: every preset.")
  in
  let rounds =
    Arg.(
      value & opt int 20
      & info [ "rounds" ] ~docv:"N" ~doc:"Fuzzing rounds per shard.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N" ~doc:"Seed shards per preset.")
  in
  let inputs =
    Arg.(value & opt int 10 & info [ "i"; "inputs" ] ~doc:"Base inputs per program.")
  in
  let boosts =
    Arg.(value & opt int 4 & info [ "b"; "boosts" ] ~doc:"Boosted mutants per base input.")
  in
  let deadline_ms =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Wall-clock budget per fuzzing round.")
  in
  let budget_ms =
    Arg.(
      value & opt (some float) None
      & info [ "budget-ms" ] ~docv:"MS" ~doc:"Wall-clock budget per shard.")
  in
  let make names rounds shards inputs boosts deadline_ms budget_ms seed mode
      engine static_filter generation_of () =
    match Sweep.select names with
    | Error msg -> failwith msg
    | Ok presets ->
        let make_spec d =
          Run_spec.make ~defense:d ~engine ~mode ~inputs ~boosts ?deadline_ms
            ?budget_ms ~static_filter
            ~generation:(generation_of Generator.default) ()
        in
        {
          presets;
          jobs =
            Sweep.jobs ~presets ~shards_per_preset:shards ~rounds ~seed
              ~make_spec ();
          seed;
        }
  in
  Term.(
    const make $ presets $ rounds $ shards $ inputs $ boosts $ deadline_ms
    $ budget_ms $ seed_t $ mode_t $ engine_t $ static_filter_t $ generation_t)

let sweep_cmd =
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains for the work-stealing scheduler.")
  in
  let out =
    Arg.(
      value & opt string "BENCH_sweep.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the sweep report JSON.")
  in
  let journal_dir =
    Arg.(
      value & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:"Checkpoint every shard into DIR (shard_<id>_<defense>.json).")
  in
  let run sweep_jobs domains out journal_dir metrics_out json =
   Output.guarded @@ fun () ->
    let say fmt = (if json then Format.eprintf else Format.printf) fmt in
    let { presets; jobs; seed } = sweep_jobs () in
    say "sweeping %d preset(s), %d job(s) on %d domain(s), seed %d...@."
      (List.length presets) (List.length jobs) domains seed;
    let metrics, write_metrics = metrics_sink ~json metrics_out in
    (match journal_dir with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    let report = Sweep.run ~domains ~metrics ?journal_dir jobs in
    let doc = Sweep.to_json report in
    Output.write_file out doc;
    say "report written to %s (fingerprint %s)@." out (Sweep.fingerprint report);
    write_metrics report.Sweep.metrics;
    if json then print_endline doc else Format.printf "%a" Sweep.pp report;
    if report.Sweep.crashed > 0 then Output.exit_fault
    else if
      List.exists (fun r -> Campaign.detected r.Sweep.result) report.Sweep.rows
    then Output.exit_violation
    else Output.exit_clean
  in
  let term =
    Term.(
      const run $ sweep_jobs_t $ domains $ out $ journal_dir $ metrics_t
      $ json_t)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run the defense matrix (AMuLeT \xc2\xa75) as one sharded, \
          work-stealing sweep: per-preset campaign shards on parallel \
          domains, one warmed engine per defense config per domain, \
          deterministically merged into a cross-defense report.")
    term

(* ------------------------------------------------------------------ *)
(* reproduce                                                           *)
(* ------------------------------------------------------------------ *)

let reproduce_cmd =
  let name_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            "Reproducer name (one of: $(b,figure4-uv1), $(b,figure6-uv2), \
             $(b,figure8-uv6), $(b,figure9-kv3), $(b,uv3-store-not-cleaned), \
             $(b,uv4-split-not-cleaned), $(b,uv5-too-much-cleaning), \
             $(b,spectre-v4)), or the path of a saved violation or triage \
             PoC file to replay.")
  in
  let replay_poc path json =
    let p = Triage.Poc.load path in
    let verdict = Triage.Poc.replay p in
    let verdict_name, diff =
      match verdict with
      | `Match -> ("match", [])
      | `Not_reproduced -> ("not_reproduced", [])
      | `Diff_mismatch d -> ("diff_mismatch", d)
    in
    if json then
      Output.emit
        (Json.Obj
           [
             ("poc", Json.Str path);
             ("signature", Json.Str p.Triage.Poc.signature);
             ("verdict", Json.Str verdict_name);
             ( "mechanism",
               match p.Triage.Poc.mechanism with
               | Some (name, _) -> Json.Str name
               | None -> Json.Null );
             ("observed_diff", Json.List (List.map (fun l -> Json.Str l) diff));
           ])
    else begin
      Format.printf "poc: %s@.signature: %s@." path p.Triage.Poc.signature;
      (match p.Triage.Poc.mechanism with
      | Some (name, _) -> Format.printf "mechanism: %s@." name
      | None -> ());
      match verdict with
      | `Match -> Format.printf "verdict: match (recorded divergence replayed)@."
      | `Not_reproduced -> Format.printf "verdict: not reproduced@."
      | `Diff_mismatch d ->
          Format.printf
            "verdict: reproduced, but the divergence differs from the \
             recording:@.";
          List.iter (fun l -> Format.printf "  %s@." l) d
    end;
    match verdict with
    | `Match -> Output.exit_violation
    | `Not_reproduced | `Diff_mismatch _ -> Output.exit_fault
  in
  let replay_violation path json =
    let f = Triage.explain (Violation_io.load path) in
    if json then
      print_endline (Triage.report_to_json (Triage.singleton_report ~origin:path f))
    else Format.printf "%a" Triage.pp_finding f;
    match f.Triage.status with
    | Triage.Reproduced -> Output.exit_violation
    | Triage.Not_reproduced -> Output.exit_fault
  in
  let run name seed json =
   Output.guarded @@ fun () ->
    if Sys.file_exists name && not (Sys.is_directory name) then
      match Violation_io.kind_of_file name with
      | Some Violation_io.Poc -> replay_poc name json
      | Some Violation_io.Violation -> replay_violation name json
      | Some (Violation_io.Journal | Violation_io.Quarantine) | None ->
          Format.eprintf "amulet: %s is not a violation or PoC file@." name;
          Output.exit_fault
    else
    match Reproducers.find name with
    | None ->
        Format.eprintf "amulet: unknown reproducer %S@." name;
        Output.exit_fault
    | Some r ->
        if not json then
          Format.printf "%s: %s@.defense: %s@.--- program ---@.%s@."
            r.Reproducers.name r.Reproducers.description
            r.Reproducers.defense.Defense.name r.Reproducers.asm;
        let found = Reproducers.hunt ~seed r in
        (match found, json with
        | Some v, false ->
            Format.printf "%a@." Violation.pp v;
            (match v.Violation.signature with
            | Some s -> Format.printf "root cause signature: %s@." s
            | None -> ())
        | None, false ->
            Format.printf "no violation found within the reproducer budget@."
        | _, true ->
            Output.emit
              (Json.Obj
                 [
                   ("reproducer", Json.Str r.Reproducers.name);
                   ("defense", Json.Str r.Reproducers.defense.Defense.name);
                   ("found", Json.Bool (found <> None));
                   ( "signature",
                     match found with
                     | Some { Violation.signature = Some s; _ } -> Json.Str s
                     | _ -> Json.Null );
                 ]));
        if found <> None then Output.exit_violation else Output.exit_clean
  in
  let term = Term.(const run $ name_t $ seed_t $ json_t) in
  Cmd.v
    (Cmd.info "reproduce"
       ~doc:
         "Hunt one of the paper's known vulnerabilities with its crafted \
          test, or replay a saved violation / triage PoC file.  Exits 1 \
          when the planted or recorded violation is found (the expected \
          outcome).  A hunt that finds nothing exits 0; a replayed file \
          that does not reproduce, or a PoC that reproduces with a \
          different divergence than recorded, exits 2.")
    term

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Assembly file.")
  in
  let run file defense seed =
   Output.guarded @@ fun () ->
    let source = In_channel.with_open_text file In_channel.input_all in
    let flat = Amulet_isa.Program.flatten (Amulet_isa.Asm.parse source) in
    Format.printf "--- program ---@.%a@." Amulet_isa.Program.pp_flat flat;
    let rng = Rng.create ~seed in
    let input = Input.generate rng ~pages:defense.Defense.sandbox_pages in
    let stats = Stats.create () in
    let ex = Engine.create ~boot_insts:1000 ~mode:Executor.Opt defense stats in
    Engine.start_program ex;
    let outcome =
      let o = Engine.run ex flat input in
      Engine.run ex ~context:o.Engine.context ~log:true flat input
    in
    let events = outcome.Engine.events in
    Format.printf "--- input ---@.%a@." Input.pp input;
    Format.printf "--- run: %d cycles%s ---@." outcome.Engine.cycles
      (match outcome.Engine.run_fault with
      | None -> ""
      | Some f -> " FAULT: " ^ Fault.to_string f);
    Format.printf "--- uarch trace: %a@." Utrace.pp outcome.Engine.trace;
    Format.printf "--- debug log (%d events) ---@." (List.length events);
    List.iter (fun e -> Format.printf "%a@." Amulet_uarch.Event.pp e) events;
    Output.exit_clean
  in
  let term = Term.(const run $ file $ defense_t $ seed_t) in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute an assembly file on the simulator with a random input and \
             print its debug log and trace.")
    term

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A violation file written by fuzz --save-dir.")
  in
  let ways =
    Arg.(value & opt (some int) None & info [ "ways" ] ~doc:"Amplification: L1D ways.")
  in
  let mshrs =
    Arg.(value & opt (some int) None & info [ "mshrs" ] ~doc:"Amplification: MSHR count.")
  in
  let do_minimize =
    Arg.(value & flag & info [ "minimize" ] ~doc:"Also minimize the test program.")
  in
  let run file json ways mshrs do_minimize =
   Output.guarded @@ fun () ->
    let stored = Violation_io.load file in
    let sim_config =
      match ways, mshrs, Defense.find stored.Violation_io.defense_name with
      | None, None, _ | _, _, None -> None
      | _, _, Some d -> Some (Defense.config ?l1d_ways:ways ?mshrs d)
    in
    (* bisect and shrink leave a not-reproduced finding untouched *)
    let f = Triage.bisect ?sim_config (Triage.explain ?sim_config stored) in
    let f = if do_minimize then Triage.shrink ?sim_config f else f in
    (* a strict one-element view of the triage schema: the report either
       holds this finding's singleton cluster or records it as dead *)
    let report = Triage.singleton_report ~origin:file f in
    if json then print_endline (Triage.report_to_json report)
    else Format.printf "%a" Triage.pp_finding f;
    (* 1: the violation reproduces; 2: an explicit not_reproduced outcome —
       the stored artifact no longer demonstrates anything *)
    if f.Triage.status = Triage.Reproduced then Output.exit_violation
    else Output.exit_fault
  in
  let term = Term.(const run $ file $ json_t $ ways $ mshrs $ do_minimize) in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Violation forensics: re-run a saved violation's two inputs from an \
          identical microarchitectural context and report the contract-trace \
          comparison, the trace diff, the hardware-counter delta, the \
          root-cause class, the bisected mechanism and (with --minimize) \
          the minimized program — a one-element view of the amulet.triage/1 \
          schema.  Exits 1 when the violation reproduces, 2 (with status \
          not_reproduced) when it does not.")
    term

(* ------------------------------------------------------------------ *)
(* triage                                                              *)
(* ------------------------------------------------------------------ *)

let triage_cmd =
  let sources =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"SOURCE"
          ~doc:
            "Violation sources: saved violation/PoC files, campaign \
             journals, or directories of either (e.g. a sweep \
             --journal-dir).")
  in
  let ways =
    Arg.(
      value & opt (some int) None
      & info [ "ways" ] ~doc:"Amplification: L1D ways (applied per defense).")
  in
  let mshrs =
    Arg.(
      value & opt (some int) None
      & info [ "mshrs" ] ~doc:"Amplification: MSHR count (applied per defense).")
  in
  let no_bisect =
    Arg.(
      value & flag
      & info [ "no-bisect" ]
          ~doc:"Skip mechanism bisection of cluster representatives.")
  in
  let do_minimize =
    Arg.(
      value & flag
      & info [ "minimize" ]
          ~doc:"Also minimize each cluster representative's program.")
  in
  let poc_dir =
    Arg.(
      value & opt (some string) None
      & info [ "poc-dir" ] ~docv:"DIR"
          ~doc:
            "Write one standalone replayable PoC per cluster into $(docv) \
             (replay with $(b,amulet reproduce) $(i,FILE)).")
  in
  let run sources ways mshrs no_bisect do_minimize poc_dir json =
   Output.guarded @@ fun () ->
    let stream = Triage.load sources in
    let progress =
      if json then fun _ -> ()
      else fun m -> Format.eprintf "triage: %s@." m
    in
    let report =
      Triage.run ?l1d_ways:ways ?mshrs ~bisect:(not no_bisect)
        ~shrink:do_minimize ~progress stream
    in
    let poc_paths =
      match poc_dir with
      | Some dir ->
          List.map (fun c -> Triage.Poc.write ~dir c) report.Triage.clusters
      | None -> []
    in
    if json then print_endline (Triage.report_to_json report)
    else begin
      Format.printf "%a" Triage.pp_report report;
      List.iter (fun p -> Format.printf "  poc: %s@." p) poc_paths
    end;
    if report.Triage.clusters <> [] then Output.exit_violation
    else Output.exit_clean
  in
  let term =
    Term.(
      const run $ sources $ ways $ mshrs $ no_bisect $ do_minimize $ poc_dir
      $ json_t)
  in
  Cmd.v
    (Cmd.info "triage"
       ~doc:
         "Reduce a violation stream to distinct root causes: load saved \
          violations / journals / journal directories, cluster by \
          divergence signature across the whole (defense x seed) matrix, \
          bisect each cluster representative to name the responsible \
          mechanism, and emit a ranked amulet.triage/1 report (optionally \
          with one replayable PoC per cluster).  Exits 1 when clusters \
          were found, 0 on an empty/clean stream, 2 on faults.")
    term

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let file =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Assembly file to analyze, or a violation file written by \
             $(b,fuzz --save-dir) (detected by the $(b,.amulet) extension; \
             its recorded program and defense are used).")
  in
  let reproducer =
    Arg.(
      value
      & opt (some string) None
      & info [ "reproducer" ] ~docv:"NAME"
          ~doc:
            "Analyze a bundled reproducer program instead of a file (see \
             $(b,amulet list)).  The reproducer's own defense supplies the \
             sandbox size.")
  in
  let window =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Speculation window in instructions (default: the simulator's \
             maximum window).")
  in
  let lint_json flat (t : Amulet_static.Leakcheck.t) source =
    let site (s : Amulet_static.Leakcheck.site) =
      Json.Obj
        [
          ("index", Json.Int s.Amulet_static.Leakcheck.index);
          ("kind", Json.Str (Amulet_static.Leakcheck.kind_name s.kind));
          ("inst", Json.Str (Amulet_isa.Inst.to_string flat.Amulet_isa.Program.code.(s.index)));
          ("transient", Json.Bool s.transient);
          ("bypass", Json.Bool s.bypass);
        ]
    in
    let diag (d : Amulet_static.Lint.diag) =
      Json.Obj
        [
          ("code", Json.Str d.Amulet_static.Lint.code);
          ("severity", Json.Str (Amulet_static.Lint.severity_name d.severity));
          ( "index",
            match d.index with Some i -> Json.Int i | None -> Json.Null );
          ("message", Json.Str d.message);
        ]
    in
    Json.Obj
      [
        ("source", Json.Str source);
        ( "classification",
          Json.Str
            (if t.Amulet_static.Leakcheck.leaky then "potentially-leaky"
             else "leak-free") );
        ("window", Json.Int t.Amulet_static.Leakcheck.window);
        ( "lint",
          Json.Obj
            [
              ("errors", Json.Int t.lint.Amulet_static.Lint.errors);
              ("warnings", Json.Int t.lint.Amulet_static.Lint.warnings);
              ( "diagnostics",
                Json.List (List.map diag t.lint.Amulet_static.Lint.diags) );
            ] );
        ( "speculation_windows",
          Json.List
            (List.map
               (fun (branch, insts) ->
                 Json.Obj
                   [
                     ("branch", Json.Int branch);
                     ( "transient",
                       Json.List (List.map (fun i -> Json.Int i) insts) );
                   ])
               t.windows) );
        ("transmitters", Json.List (List.map site t.transmitters));
        ( "tainted_arch_accesses",
          Json.List (List.map (fun i -> Json.Int i) t.arch_flows) );
      ]
  in
  let run file reproducer window defense json =
   Output.guarded @@ fun () ->
    let target =
      match file, reproducer with
      | Some f, None -> Ok (`File f)
      | None, Some n -> Ok (`Reproducer n)
      | None, None -> Error "pass an assembly FILE or --reproducer NAME"
      | Some _, Some _ -> Error "FILE and --reproducer are mutually exclusive"
    in
    match target with
    | Error msg ->
        Format.eprintf "amulet: %s@." msg;
        Output.exit_fault
    | Ok target -> (
        let loaded =
          match target with
          | `Reproducer n -> (
              match Reproducers.find n with
              | None -> Error (Printf.sprintf "unknown reproducer %S" n)
              | Some r ->
                  Ok
                    ( Reproducers.flat r,
                      r.Reproducers.defense.Defense.sandbox_pages,
                      "reproducer:" ^ n ))
          | `File f when Filename.check_suffix f ".amulet" ->
              let stored = Violation_io.load f in
              let pages =
                match Defense.find stored.Violation_io.defense_name with
                | Some d -> d.Defense.sandbox_pages
                | None -> 1
              in
              Ok (stored.Violation_io.program, pages, f)
          | `File f -> (
              let source = In_channel.with_open_text f In_channel.input_all in
              match Amulet_isa.Asm.parse source with
              | p -> Ok (Amulet_isa.Program.flatten p, defense.Defense.sandbox_pages, f)
              | exception Amulet_isa.Asm.Parse_error { line; message } ->
                  Error (Printf.sprintf "%s:%d: parse error: %s" f line message))
        in
        match loaded with
        | Error msg ->
            Format.eprintf "amulet: %s@." msg;
            Output.exit_fault
        | Ok (flat, sandbox_pages, source) ->
            let sandbox_bytes = sandbox_pages * Amulet_emu.Memory.page_size in
            let t =
              Amulet_static.Leakcheck.analyze ?window ~sandbox_bytes flat
            in
            if json then Output.emit (lint_json flat t source)
            else
              Format.printf "%s:@.%a@." source
                (Amulet_static.Leakcheck.pp flat)
                t;
            if t.Amulet_static.Leakcheck.lint.Amulet_static.Lint.errors > 0
            then Output.exit_fault
            else if t.Amulet_static.Leakcheck.leaky then Output.exit_violation
            else Output.exit_clean)
  in
  let term =
    Term.(const run $ file $ reproducer $ window $ defense_t $ json_t)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a test program without simulating it: \
          well-formedness diagnostics, input-taint flows, speculation \
          windows and speculative transmitter sites.  Exits 2 on lint \
          errors or unreadable input, 1 when the program is potentially \
          leaky, 0 when it is provably leak-free.")
    term

(* ------------------------------------------------------------------ *)
(* corpus — inspect a guided-fuzzing corpus checkpoint                 *)
(* ------------------------------------------------------------------ *)

let corpus_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "A corpus checkpoint ($(b,fuzz --corpus-out)) or a campaign \
             journal ($(b,fuzz --journal)) with an embedded corpus.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Highest-score seeds to show.")
  in
  let programs =
    Arg.(
      value & flag
      & info [ "programs" ] ~doc:"Also print each shown seed's program text.")
  in
  let run file top programs json =
   Output.guarded @@ fun () ->
    let module C = Amulet_corpus.Corpus in
    let module Cov = Amulet_corpus.Coverage in
    let text = In_channel.with_open_text file In_channel.input_all in
    let c =
      try C.of_string text
      with Failure corpus_error -> (
        (* not a bare checkpoint: maybe a campaign journal carrying one *)
        match Journal.load file with
        | { Journal.corpus = Some s; _ } -> C.of_string s
        | { Journal.corpus = None; _ } ->
            failwith
              (file
             ^ ": journal has no embedded corpus (not a --guided campaign?)")
        | exception Journal.Format_error _ ->
            failwith
              (Printf.sprintf
                 "%s: neither a corpus checkpoint nor a campaign journal (%s)"
                 file corpus_error))
    in
    let p = C.params c in
    let cov = C.coverage c in
    let tops = C.top c top in
    let entry_json (e : C.entry) =
      Json.Obj
        ([
           ("score", Json.Int e.C.score);
           ("age", Json.Int e.C.age);
           ("trials", Json.Int e.C.trials);
           ("insts", Json.Int (Array.length e.C.program.Amulet_isa.Program.code));
         ]
        @ if programs then [ ("program", Json.Str e.C.text) ] else [])
    in
    if json then
      Output.emit
        (Json.Obj
           [
             ("round", Json.Int (C.round c));
             ("seeds", Json.Int (C.size c));
             ("capacity", Json.Int p.C.capacity);
             ("max_age", Json.Int p.C.max_age);
             ("mutate_fraction", Json.Float p.C.mutate_fraction);
             ("energy", Json.Int p.C.energy);
             ("evictions", Json.Int (C.evictions c));
             ("rejected_seeds", Json.Int (C.rejected_seeds c));
             ( "coverage",
               Json.Obj
                 [
                   ("features", Json.Int (Cov.size cov));
                   ("observations", Json.Int (Cov.observations cov));
                 ] );
             ("top", Json.List (List.map entry_json tops));
           ])
    else begin
      Format.printf
        "corpus: %d seed(s) (capacity %d), round %d, %d eviction(s), %d \
         rejected seed(s)@."
        (C.size c) p.C.capacity (C.round c) (C.evictions c)
        (C.rejected_seeds c);
      Format.printf
        "schedule: mutate-fraction %.2f, energy %d, max-age %d@."
        p.C.mutate_fraction p.C.energy p.C.max_age;
      Format.printf "coverage: %d distinct feature(s) over %d observation(s)@."
        (Cov.size cov) (Cov.observations cov);
      List.iteri
        (fun i (e : C.entry) ->
          Format.printf "#%d score %d, age %d, trials %d, %d inst(s)@." (i + 1)
            e.C.score e.C.age e.C.trials
            (Array.length e.C.program.Amulet_isa.Program.code);
          if programs then Format.printf "%s@." e.C.text)
        tops
    end;
    Output.exit_clean
  in
  let term = Term.(const run $ file $ top $ programs $ json_t) in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Inspect a guided-fuzzing corpus checkpoint: scheduler parameters, \
          coverage-map statistics and the top-scored seeds.  Exits 0 on a \
          readable corpus, 2 on unreadable input.")
    term

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run json =
   Output.guarded @@ fun () ->
    if json then
      Output.emit
        (Json.Obj
           [
             ( "defenses",
               Json.List
                 (List.map
                    (fun d ->
                      Json.Obj
                        [
                          ("name", Json.Str d.Defense.name);
                          ("description", Json.Str d.Defense.description);
                          ( "contract",
                            Json.Str d.Defense.contract.Amulet_contracts.Contract.name
                          );
                          ("sandbox_pages", Json.Int d.Defense.sandbox_pages);
                        ])
                    Defense.all) );
             ( "contracts",
               Json.List
                 (List.map
                    (fun c ->
                      Json.Obj
                        [
                          ("name", Json.Str c.Amulet_contracts.Contract.name);
                          ( "description",
                            Json.Str c.Amulet_contracts.Contract.description );
                        ])
                    Amulet_contracts.Contract.all) );
             ( "trace_formats",
               Json.List
                 (List.map
                    (fun f -> Json.Str (Utrace.format_name f))
                    Utrace.all_formats) );
             ( "reproducers",
               Json.List
                 (List.map
                    (fun r ->
                      Json.Obj
                        [
                          ("name", Json.Str r.Reproducers.name);
                          ("description", Json.Str r.Reproducers.description);
                          ( "defense",
                            Json.Str r.Reproducers.defense.Defense.name );
                        ])
                    Reproducers.all) );
           ])
    else begin
      Format.printf "defenses:@.";
      List.iter
        (fun d ->
          Format.printf "  %-22s %s (contract %s, %d-page sandbox)@." d.Defense.name
            d.Defense.description d.Defense.contract.Amulet_contracts.Contract.name
            d.Defense.sandbox_pages)
        Defense.all;
      Format.printf "@.contracts:@.";
      List.iter
        (fun c ->
          Format.printf "  %-10s %s@." c.Amulet_contracts.Contract.name
            c.Amulet_contracts.Contract.description)
        Amulet_contracts.Contract.all;
      Format.printf "@.trace formats:@.";
      List.iter
        (fun f -> Format.printf "  %s@." (Utrace.format_name f))
        Utrace.all_formats;
      Format.printf "@.reproducers:@.";
      List.iter
        (fun r -> Format.printf "  %-24s %s@." r.Reproducers.name r.Reproducers.description)
        Reproducers.all
    end;
    Output.exit_clean
  in
  Cmd.v (Cmd.info "list" ~doc:"List defenses, contracts, trace formats, reproducers.")
    Term.(const run $ json_t)

let main =
  let doc = "AMuLeT: automated design-time testing of secure speculation countermeasures" in
  Cmd.group (Cmd.info "amulet" ~version:"1.0.0" ~doc)
    [
      fuzz_cmd; sweep_cmd; reproduce_cmd; run_cmd; explain_cmd; triage_cmd;
      lint_cmd; corpus_cmd; list_cmd;
    ]

let () = exit (Cmd.eval' main)
