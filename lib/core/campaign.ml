(** Testing campaigns: many fuzzing rounds against one defense, with the
    metrics the paper's evaluation reports (violations found, average
    detection time, unique violation classes, testing throughput, campaign
    execution time — Tables 3, 4, 6).

    Campaigns are supervised: every round is reseeded from (campaign seed,
    round index) so it is reproducible in isolation, misbehaving rounds
    degrade to classified {!Fault.t} discards, progress can be journaled
    crash-safely and resumed, and the shards of a parallel run ({!Sweep})
    merge into one result through {!merge}. *)

open Amulet_defenses
module Obs = Amulet_obs.Obs

type result = {
  defense : Defense.t;
  contract_name : string;
  violations : Violation.t list;
  violation_classes : (Analysis.leak_class * int) list;
  programs_run : int;
  discarded_programs : int;
  fault_counts : (Fault.cls * int) list;
      (** per-class counts of every discarded/contained fault *)
  quarantined : int;  (** test cases saved to the quarantine corpus *)
  test_cases : int;
  duration : float;  (** seconds *)
  throughput : float;  (** test cases / second *)
  detection_times : float list;
      (** per violation: seconds since the previous find (or campaign start) *)
  budget_exhausted : bool;
      (** the run stopped because [budget_ms] ran out, not because it
          finished its rounds or hit [stop_after_violations] *)
  corpus : string option;
      (** final guided-fuzzing corpus checkpoint ([None] for random specs) *)
  metrics : Obs.Snapshot.t;
      (** telemetry delta accumulated over the campaign (empty unless a
          live registry was passed in) *)
}

let count_classes classes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c -> Hashtbl.replace tbl c (1 + Option.value (Hashtbl.find_opt tbl c) ~default:0))
    classes;
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl []

(* Round [i] of a campaign always runs on this derived seed, whether it is
   reached in one uninterrupted run or after any number of kill/--resume
   cycles: resumability depends only on (seed, i). *)
let round_seed seed i = seed + ((i + 1) * 2654435761)

let rehydrate ?sim_config (s : Violation_io.stored) : Violation.t =
  let defense = Violation_io.resolve_defense s.defense_name in
  let r =
    Engine.replay (Engine.analysis ?sim_config defense) Engine.Fresh s.program s.input_a
      s.input_b
  in
  let trace_a = r.a.trace and trace_b = r.b.trace in
  let ctrace_hash, trace_a_hash, trace_b_hash =
    match s.identity with
    | Some id -> id
    | None -> (0L, Utrace.hash trace_a, Utrace.hash trace_b)
  in
  {
    Violation.program = s.program;
    program_text = Format.asprintf "%a" Amulet_isa.Program.pp_flat s.program;
    input_a = s.input_a;
    input_b = s.input_b;
    trace_a;
    trace_b;
    context = r.from;
    ctrace_hash;
    trace_a_hash;
    trace_b_hash;
    contract = Violation_io.resolve_contract defense s.contract_name;
    defense_name = s.defense_name;
    detection_seconds = 0.;
    signature = s.signature;
  }

let classify_one (spec : Run_spec.t) v =
  Analysis.sign ?sim_config:spec.Run_spec.sim_config
    ~format:spec.Run_spec.trace_format v

(** Run a campaign of [spec.rounds] fuzzing rounds against [spec.defense].
    [on_violation] fires as findings come in (progress reporting).
    [journal_path] checkpoints progress atomically every [checkpoint_every]
    rounds; [resume] continues from a loaded checkpoint instead of round 0.
    [engine] injects a warmed engine + stats sink (sweep cache). *)
let run ?(on_violation = fun (_ : Violation.t) -> ()) ?journal_path
    ?(checkpoint_every = 10) ?resume ?(metrics = Obs.noop) ?engine
    (spec : Run_spec.t) : result =
  let defense = spec.Run_spec.defense in
  let fuzzer = Fuzzer.create ~metrics ?engine spec in
  (* campaign-local telemetry delta, even on a registry shared across runs *)
  let metrics_before = Obs.Snapshot.of_registry metrics in
  let started = Obs.Clock.now_s () in
  (* the fuzzer's stats sink may be shared across campaigns (injected warm
     engine): account in deltas against its state at campaign start *)
  let tc0 = Stats.test_cases (Fuzzer.stats fuzzer) in
  (* baselines carried over from the checkpoint being resumed *)
  let base_programs, base_discarded, base_tc, base_faults, base_times, base_violations =
    match resume with
    | None -> 0, 0, 0, [], [], []
    | Some (j : Journal.t) ->
        let vs =
          List.map
            (rehydrate ?sim_config:spec.Run_spec.sim_config)
            j.Journal.violations
        in
        ( j.Journal.programs_run,
          j.Journal.discarded,
          j.Journal.test_cases,
          j.Journal.fault_counts,
          j.Journal.detection_times,
          vs )
  in
  (* resume the guided corpus from the checkpoint; a malformed snapshot
     degrades to a fresh corpus rather than killing the campaign (the
     journal itself loaded fine — only the embedded corpus is suspect) *)
  (match resume with
  | Some { Journal.corpus = Some c; _ } -> (
      try Fuzzer.restore_corpus fuzzer c with Failure _ -> ())
  | _ -> ());
  let violations = ref (List.rev base_violations) in
  let classes =
    ref
      (if spec.Run_spec.classify then
         List.map (fun v -> fst (classify_one spec v)) base_violations
       else [])
  in
  let detection_times = ref (List.rev base_times) in
  let last_find = ref started in
  let test_cases = ref base_tc in
  let discarded = ref base_discarded in
  let programs = ref base_programs in
  let stop = ref false in
  let budget_exhausted = ref false in
  let budget_hit () =
    match spec.Run_spec.budget_ms with
    | None -> false
    | Some b -> Obs.Clock.elapsed_ms ~since:started >= b
  in
  if spec.Run_spec.budget_ms <> None then Fuzzer.set_budget_check fuzzer budget_hit;
  let merged_faults () =
    let c = Fault.Counters.create () in
    Fault.Counters.add_list c base_faults;
    Fault.Counters.add_list c (Fuzzer.fault_counts fuzzer);
    Fault.Counters.to_list c
  in
  let checkpoint () =
    match journal_path with
    | None -> ()
    | Some path ->
        Journal.save
          {
            Journal.seed = spec.Run_spec.seed;
            n_programs = spec.Run_spec.rounds;
            defense_name = defense.Defense.name;
            contract_name = (Fuzzer.contract fuzzer).Amulet_contracts.Contract.name;
            programs_run = !programs;
            discarded = !discarded;
            test_cases = !test_cases;
            fault_counts = merged_faults ();
            detection_times = List.rev !detection_times;
            corpus = Fuzzer.corpus_snapshot fuzzer;
            violations = List.rev_map Violation_io.of_violation !violations;
          }
          path
  in
  (match spec.Run_spec.stop_after_violations with
  | Some k when List.length !violations >= k -> stop := true
  | _ -> ());
  while (not !stop) && (not !budget_exhausted) && !programs < spec.Run_spec.rounds do
    if budget_hit () then budget_exhausted := true
    else begin
      Fuzzer.reseed fuzzer ~seed:(round_seed spec.Run_spec.seed !programs);
      incr programs;
      match Fuzzer.round fuzzer with
      | exception Fuzzer.Budget ->
          (* the budget tripped mid-round: abandon the partial round so the
             final checkpoint lands exactly on the last completed round
             boundary — resume replays the interrupted round from scratch *)
          decr programs;
          budget_exhausted := true
      | outcome ->
          (match outcome with
          | Fuzzer.No_violation _ | Fuzzer.Screened -> ()
          | Fuzzer.Discarded _ -> incr discarded
          | Fuzzer.Found v ->
              let now = Obs.Clock.now_s () in
              detection_times := (now -. !last_find) :: !detection_times;
              last_find := now;
              let v =
                if spec.Run_spec.classify then begin
                  let c, signed = classify_one spec v in
                  classes := c :: !classes;
                  signed
                end
                else v
              in
              violations := v :: !violations;
              on_violation v;
              (match spec.Run_spec.stop_after_violations with
              | Some k when List.length !violations >= k -> stop := true
              | _ -> ()));
          (* throughput accounting uses the fuzzer's own test-case counter;
             only advanced on completed rounds so a budget-abandoned partial
             round never leaks into the checkpoint *)
          test_cases := base_tc + (Stats.test_cases (Fuzzer.stats fuzzer) - tc0);
          if (!programs - base_programs) mod checkpoint_every = 0 then checkpoint ()
    end
  done;
  checkpoint ();
  let duration = Obs.Clock.elapsed_s ~since:started in
  {
    defense;
    contract_name = (Fuzzer.contract fuzzer).Amulet_contracts.Contract.name;
    violations = List.rev !violations;
    violation_classes = count_classes !classes;
    programs_run = !programs;
    discarded_programs = !discarded;
    fault_counts = merged_faults ();
    quarantined = Fuzzer.quarantined fuzzer;
    test_cases = !test_cases;
    duration;
    throughput = (if duration > 0. then float_of_int !test_cases /. duration else 0.);
    detection_times = List.rev !detection_times;
    budget_exhausted = !budget_exhausted;
    corpus = Fuzzer.corpus_snapshot fuzzer;
    metrics =
      Obs.Snapshot.diff ~older:metrics_before
        ~newer:(Obs.Snapshot.of_registry metrics);
  }

(* ------------------------------------------------------------------ *)
(* Merging shards                                                      *)
(* ------------------------------------------------------------------ *)

let merge (defense : Defense.t) ~fallback_contract ~elapsed ~crashed results :
    result =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let duration =
    match results with
    | [] -> elapsed
    | _ -> List.fold_left (fun acc r -> Float.max acc r.duration) 0. results
  in
  let merged_classes =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun r ->
        List.iter
          (fun (c, n) ->
            Hashtbl.replace tbl c (n + Option.value (Hashtbl.find_opt tbl c) ~default:0))
          r.violation_classes)
      results;
    Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl []
  in
  let fault_counts =
    let c = Fault.Counters.create () in
    List.iter (fun r -> Fault.Counters.add_list c r.fault_counts) results;
    Fault.Counters.record_class c ~n:crashed Fault.C_instance_crash;
    Fault.Counters.to_list c
  in
  let test_cases = sum (fun r -> r.test_cases) in
  {
    defense;
    contract_name =
      (match results with r :: _ -> r.contract_name | [] -> fallback_contract);
    violations = List.concat_map (fun r -> r.violations) results;
    violation_classes = merged_classes;
    programs_run = sum (fun r -> r.programs_run);
    discarded_programs = sum (fun r -> r.discarded_programs);
    fault_counts;
    quarantined = sum (fun r -> r.quarantined);
    test_cases;
    duration;
    throughput = (if duration > 0. then float_of_int test_cases /. duration else 0.);
    detection_times = List.concat_map (fun r -> r.detection_times) results;
    budget_exhausted = List.exists (fun r -> r.budget_exhausted) results;
    corpus = List.find_map (fun r -> r.corpus) results;
    metrics =
      List.fold_left
        (fun acc r -> Obs.Snapshot.merge acc r.metrics)
        Obs.Snapshot.empty results;
  }

let detected r = r.violations <> []

let avg_detection_time r =
  match r.detection_times with
  | [] -> None
  | ts -> Some (List.fold_left ( +. ) 0. ts /. float_of_int (List.length ts))

let unique_violations r = List.length r.violation_classes

let pp fmt r =
  Format.fprintf fmt "defense: %-22s contract: %-9s violations: %-3d unique: %d@."
    r.defense.Defense.name r.contract_name (List.length r.violations)
    (unique_violations r);
  Format.fprintf fmt "  programs: %d (%d discarded)  test cases: %d  time: %.1f s  throughput: %.0f tc/s@."
    r.programs_run r.discarded_programs r.test_cases r.duration r.throughput;
  (match r.fault_counts with
  | [] -> ()
  | counts ->
      Format.fprintf fmt "  faults:";
      List.iter
        (fun (c, n) -> Format.fprintf fmt " %s=%d" (Fault.class_name c) n)
        counts;
      if r.quarantined > 0 then Format.fprintf fmt "  (quarantined: %d)" r.quarantined;
      Format.fprintf fmt "@.");
  if r.budget_exhausted then Format.fprintf fmt "  (budget exhausted)@.";
  (match avg_detection_time r with
  | Some t -> Format.fprintf fmt "  avg detection time: %.2f s@." t
  | None -> ());
  List.iter
    (fun (c, n) -> Format.fprintf fmt "  %3dx %s@." n (Analysis.class_name c))
    r.violation_classes
