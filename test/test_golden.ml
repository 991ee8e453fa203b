(* Golden fixtures: fixed-seed tables of what the simulator and whole
   campaigns produce, compared with the committed golden/hot_loop.tsv and
   golden/campaigns.tsv and golden/replay.tsv by the diff rules in
   test/dune.  Every program and
   input comes from a seeded PRNG (PAPER.md §2.4), so each table is a
   constant of the code: a change that moves a row shows as a diff under
   `dune runtest`.  Accept an intended move with `dune promote` and name
   the moved rows in CHANGES.md.

   Usage: test_golden.exe (hot_loop | campaigns | replay) > table.tsv *)

open Amulet
open Amulet_defenses
module Obs = Amulet_obs.Obs
module Rng = Amulet_corpus.Rng
module Generator = Amulet_corpus.Generator
module Config = Amulet_uarch.Config
module Simulator = Amulet_uarch.Simulator

let released =
  [ Defense.baseline; Defense.invisispec; Defense.cleanupspec; Defense.stt; Defense.speclfb ]

let md5 s = Digest.to_hex (Digest.string s)
let row fields = print_endline (String.concat "\t" fields)

(* ------------------------------------------------------------------ *)
(* hot_loop.tsv: per-input outcomes of the pooled Opt engine           *)
(* ------------------------------------------------------------------ *)

(* 2 programs x 6 inputs at seed 92, sized for the preset's sandbox *)
let hot_loop_cases (d : Defense.t) =
  let rng = Rng.create ~seed:92 in
  Array.init 2 (fun _ ->
      let flat = Generator.generate_flat rng in
      (flat, Array.init 6 (fun _ -> Input.generate rng ~pages:d.Defense.sandbox_pages)))

let amplifications (d : Defense.t) =
  [
    ("default", Defense.config d);
    ("l1d_ways=2", Defense.config ~l1d_ways:2 d);
    ("mshrs=2", Defense.config ~mshrs:2 d);
    ("nl_prefetcher", { (Defense.config d) with Config.nl_prefetcher = true });
  ]

let hot_loop_rows (d : Defense.t) cases (config, sim_config) format =
  let eng =
    Engine.create ~boot_insts:100 ~sim_config ~format ~kind:Engine.Pooled
      ~mode:Executor.Opt d (Stats.create ())
  in
  Array.iteri
    (fun p (flat, inputs) ->
      let outcomes = (Engine.run_batch eng flat inputs).Engine.outcomes in
      Array.iteri
        (fun i o ->
          let key =
            [ d.Defense.name; config; Utrace.format_name format; string_of_int p; string_of_int i ]
          in
          match o with
          | None -> row (key @ List.init 8 (fun _ -> "-"))
          | Some (o : Engine.outcome) ->
              let s = o.Engine.sim_stats in
              row
                (key
                @ [
                    Printf.sprintf "%016Lx" (Utrace.hash o.Engine.trace);
                    string_of_int o.Engine.cycles;
                    string_of_int s.Simulator.committed_insts;
                    string_of_int s.Simulator.squashes;
                    string_of_int s.Simulator.squashed_insts;
                    string_of_int s.Simulator.spec_issued;
                    string_of_int s.Simulator.mispredicts;
                    Option.value s.Simulator.fault ~default:"-";
                  ]))
        outcomes)
    cases

let hot_loop () =
  row
    [
      "preset"; "config"; "format"; "program"; "input"; "utrace_hash"; "cycles";
      "committed_insts"; "squashes"; "squashed_insts"; "spec_issued"; "mispredicts"; "fault";
    ];
  List.iter
    (fun d ->
      let cases = hot_loop_cases d in
      List.iter (fun c -> hot_loop_rows d cases c Utrace.L1d_tlb) (amplifications d))
    Defense.all;
  List.iter
    (fun d ->
      let cases = hot_loop_cases d in
      List.iter
        (fun f -> hot_loop_rows d cases ("default", Defense.config d) f)
        [ Utrace.Bp_state; Utrace.Mem_order; Utrace.Bp_order; Utrace.Pc_order ])
    released

(* ------------------------------------------------------------------ *)
(* campaigns.tsv: whole campaigns, a sweep and a triage report         *)
(* ------------------------------------------------------------------ *)

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* the deterministic counters: uarch.* hardware counts, fuzzer.* campaign
   counts (engine.* depends on the engine kind, timers on the clock) *)
let counters_digest (m : Obs.Snapshot.t) =
  md5
    (String.concat ""
       (List.filter_map
          (fun (n, v) ->
            if has_prefix "uarch." n || has_prefix "fuzzer." n then
              Some (Printf.sprintf "%s=%d\n" n v)
            else None)
          m.Obs.Snapshot.counters))

(* the bytes `fuzz --save-dir` writes, in detection order *)
let violations_digest vs =
  md5
    (String.concat ""
       (List.map
          (fun v ->
            Violation_io.render Violation_io.Violation
              (Violation_io.stored_sections (Violation_io.of_violation v)))
          vs))

let small ?(rounds = 12) ?generation ?mode ?sim_config d =
  Run_spec.make ~defense:d ~rounds ~seed:17 ~inputs:6 ~boosts:3 ~boot_insts:100 ?generation
    ?mode ?sim_config ()

let campaign_row name spec =
  let r = Campaign.run ~metrics:(Obs.create ()) spec in
  row
    [
      name;
      string_of_int r.Campaign.programs_run;
      string_of_int r.Campaign.test_cases;
      string_of_int (List.length r.Campaign.violations);
      violations_digest r.Campaign.violations;
      counters_digest r.Campaign.metrics;
    ];
  r

let campaigns () =
  row [ "case"; "programs_run"; "test_cases"; "violations"; "violations_md5"; "counters_md5" ];
  let random =
    List.map (fun d -> (d, campaign_row (d.Defense.name ^ "/random") (small d))) Defense.all
  in
  List.iter
    (fun d ->
      List.iter
        (fun (config, sim_config) ->
          if config <> "default" then
            ignore (campaign_row (d.Defense.name ^ "/" ^ config) (small ~sim_config d)))
        (amplifications d))
    [ Defense.invisispec; Defense.speclfb ];
  List.iter
    (fun d ->
      ignore
        (campaign_row (d.Defense.name ^ "/guided")
           (small ~rounds:24 ~generation:(Run_spec.guided ()) d)))
    [ Defense.cleanupspec; Defense.speclfb ];
  ignore (campaign_row "speclfb/naive-mode" (small ~mode:Executor.Naive Defense.speclfb));
  (* the sweep row: violations_md5 holds Sweep.fingerprint *)
  let report =
    Sweep.run ~metrics:(Obs.create ())
      (Sweep.jobs ~presets:[ Defense.speclfb; Defense.cleanupspec ] ~shards_per_preset:2
         ~rounds:4 ~seed:17 ~make_spec:(fun d -> small d) ())
  in
  let sum f = List.fold_left (fun acc (r : Sweep.row) -> acc + f r.Sweep.result) 0 report.Sweep.rows in
  row
    [
      "sweep speclfb,cleanupspec x2 shards";
      string_of_int (sum (fun r -> r.Campaign.programs_run));
      string_of_int (sum (fun r -> r.Campaign.test_cases));
      string_of_int (sum (fun r -> List.length r.Campaign.violations));
      Sweep.fingerprint report;
      counters_digest report.Sweep.metrics;
    ];
  (* the triage row: speclfb's random-campaign violations through the
     whole pipeline; violations counts findings, violations_md5 digests the
     amulet.triage/1 document *)
  let stream =
    List.mapi
      (fun i v -> (Printf.sprintf "v%03d" i, Violation_io.of_violation v))
      (List.assq Defense.speclfb random).Campaign.violations
  in
  let triage = Triage.run ~bisect:true stream in
  row
    [
      "triage speclfb/random"; "-"; "-"; string_of_int triage.Triage.total;
      md5 (Triage.report_to_json triage); "-";
    ]

(* ------------------------------------------------------------------ *)
(* replay.tsv: every re-execution of a stored violation pair           *)
(* ------------------------------------------------------------------ *)

(* The random-campaign violations of two released presets, replayed by
   each analysis that re-executes a stored pair: signing, journal-resume
   rehydration, fresh-context revalidation under the base config and
   every bisection flip, explain under the default and two amplified
   configs (on these pairs only the MSHR count moves the report), and
   minimization of each triage representative. *)
let replay_rows (d : Defense.t) =
  let r = Campaign.run (small d) in
  let name = d.Defense.name in
  let base = Defense.config d in
  List.iteri
    (fun i v ->
      let id = Printf.sprintf "v%03d" i in
      let out check fields = row ([ name; id; check ] @ fields) in
      let s = Violation_io.of_violation v in
      let hash t = Printf.sprintf "%016Lx" (Utrace.hash t) in
      out "sign" [ Analysis.class_name (fst (Analysis.sign v)) ];
      let h = Campaign.rehydrate s in
      (* the rehydrated context, pinned by what a replay from it yields *)
      let r =
        Engine.replay (Engine.analysis d) (Engine.Context h.Violation.context)
          h.Violation.program s.Violation_io.input_a s.Violation_io.input_b
      in
      out "rehydrate"
        [
          hash h.Violation.trace_a;
          hash h.Violation.trace_b;
          hash r.Engine.a.Engine.trace;
          hash r.Engine.b.Engine.trace;
        ];
      let still cfg =
        string_of_bool
          (Minimize.still_violates ~defense:d ~contract:v.Violation.contract
             ~sim_config:(Some cfg) v.Violation.program v.Violation.input_a
             v.Violation.input_b)
      in
      out "still_violates:base" [ still base ];
      List.iter
        (fun (flip, _, _, cfg) -> out ("still_violates:" ^ flip) [ still cfg ])
        (Triage.flip_candidates base);
      out "explain" [ md5 (Triage.finding_to_json (Triage.explain s)) ];
      out "explain:l1d_ways=2"
        [ md5 (Triage.finding_to_json (Triage.explain ~l1d_ways:2 s)) ];
      out "explain:mshrs=2" [ md5 (Triage.finding_to_json (Triage.explain ~mshrs:2 s)) ])
    r.Campaign.violations;
  let stream =
    List.mapi
      (fun i v -> (Printf.sprintf "v%03d" i, Violation_io.of_violation v))
      r.Campaign.violations
  in
  List.iter
    (fun (c : Triage.cluster) ->
      let m = Minimize.minimize c.Triage.representative.Triage.stored in
      row
        [
          name;
          Printf.sprintf "rep%d" c.Triage.rank;
          "minimize";
          string_of_int m.Minimize.kept;
          string_of_int m.Minimize.removed;
          md5 (Format.asprintf "%a" Amulet_isa.Program.pp_flat m.Minimize.minimized);
        ])
    (Triage.run ~bisect:false stream).Triage.clusters

let replay () =
  row [ "preset"; "violation"; "check"; "result" ];
  List.iter replay_rows [ Defense.speclfb; Defense.invisispec ]

let () =
  match Sys.argv with
  | [| _; "hot_loop" |] -> hot_loop ()
  | [| _; "campaigns" |] -> campaigns ()
  | [| _; "replay" |] -> replay ()
  | _ ->
      prerr_endline "usage: test_golden.exe (hot_loop | campaigns | replay)";
      exit 2
