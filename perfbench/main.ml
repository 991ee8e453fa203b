(* perfbench: the repository benchmark.

     perfbench --workload fill|flush|guided --seed N --seconds S --trace 0|1

   --trace 0 runs the workload untraced and prints the end-to-end metrics.
   --trace 1 runs it at half size untraced, then twice through the traced
   runner, checks that the traced runner reproduced the untraced campaign
   (fidelity) and that its deterministic counts repeat exactly, and prints
   the per-layer metrics.  The last line of standard output is one JSON
   object; a failed check prints a line naming it on standard error and
   exits 1.  See README.md. *)

open Amulet

let usage () =
  prerr_endline
    "usage: perfbench --workload fill|flush|guided --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds >= 1 -> (
      match Workload.find w with
      | Some w -> (w, seed, seconds, trace)
      | None ->
          prerr_endline ("perfbench: unknown workload " ^ w);
          exit 2)
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Statistics and output                                               *)
(* ------------------------------------------------------------------ *)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0. then 0. else a /. b

(* A failed check: name it and leave without printing a result. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: FAILED: " ^ msg);
      exit 1)
    fmt

let json_result ~attempted ~failed metrics =
  let metric (name, value, unit) =
    if not (Float.is_finite value) then fail "metric %s is not a finite number" name;
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed
    (String.concat ", " (List.map metric metrics))

(* ------------------------------------------------------------------ *)
(* Checks on the untraced run                                          *)
(* ------------------------------------------------------------------ *)

(* Every reported violation must meet Definition 2.1's precondition: both
   inputs yield the recorded contract trace, and the detection-time
   microarchitectural traces differ. *)
let check_violations (e : E2e.t) =
  List.iter
    (fun (r : E2e.preset_run) ->
      List.iter
        (fun (v : Violation.t) ->
          let ctrace input =
            (Amulet_contracts.Leakage_model.collect v.Violation.contract
               v.Violation.program (Input.to_state input))
              .Amulet_contracts.Leakage_model.ctrace_hash
          in
          let ha = ctrace v.Violation.input_a
          and hb = ctrace v.Violation.input_b in
          if ha <> v.Violation.ctrace_hash || hb <> v.Violation.ctrace_hash then
            fail "%s: a violation's inputs do not share its contract trace"
              v.Violation.defense_name;
          if v.Violation.trace_a_hash = v.Violation.trace_b_hash then
            fail "%s: a violation's microarchitectural traces are equal"
              v.Violation.defense_name)
        r.E2e.result.Campaign.violations)
    e.E2e.runs;
  if e.E2e.report.Triage.total <> List.length e.E2e.sources then
    fail "triage consumed %d of %d violations" e.E2e.report.Triage.total
      (List.length e.E2e.sources)

(* First detection of each distinct triage signature, in seconds from the
   start of the campaign that found it. *)
let first_detections (e : E2e.t) =
  List.map
    (fun (c : Triage.cluster) ->
      List.fold_left
        (fun acc origin -> Float.min acc (List.assoc origin e.E2e.detected_at))
        infinity c.Triage.members)
    e.E2e.report.Triage.clusters

type e2e_summary = {
  rounds : int;
  discarded : int;
  test_cases : int;
  violations : int;
  inputs_per_s : float;
  detections : float list;
}

let summarize (e : E2e.t) =
  let runs = e.E2e.runs in
  let test_cases = isum (fun r -> r.E2e.result.Campaign.test_cases) runs in
  {
    rounds = isum (fun r -> r.E2e.result.Campaign.programs_run) runs;
    discarded = isum (fun r -> r.E2e.result.Campaign.discarded_programs) runs;
    test_cases;
    violations = List.length e.E2e.sources;
    inputs_per_s = float_of_int test_cases /. sum (fun r -> r.E2e.wall_s) runs;
    detections = first_detections e;
  }

let print_workload (w : Workload.t) ~seed (e : E2e.t) (s : e2e_summary) =
  Printf.printf "workload %s, seed %d (host time; one process, one domain)\n"
    w.Workload.name seed;
  List.iter
    (fun (r : E2e.preset_run) ->
      let s = r.E2e.spec and c = r.E2e.result in
      Printf.printf
        "  %-12s %4d rounds x %d inputs/round (%d base x (1 + %d boosts)), \
         %d sandbox page(s), %s priming: %d test cases, %d violations, %.3f s\n"
        s.Run_spec.defense.Amulet_defenses.Defense.name c.Campaign.programs_run
        (s.Run_spec.n_base_inputs * (1 + s.Run_spec.boosts_per_input))
        s.Run_spec.n_base_inputs s.Run_spec.boosts_per_input
        s.Run_spec.defense.Amulet_defenses.Defense.sandbox_pages
        (match s.Run_spec.defense.Amulet_defenses.Defense.priming with
        | Amulet_defenses.Defense.Fill_sets -> "fill"
        | Amulet_defenses.Defense.Flush -> "flush")
        c.Campaign.test_cases (List.length c.Campaign.violations) r.E2e.wall_s)
    e.E2e.runs;
  Printf.printf
    "  triage: %d violations, %d not reproduced, %d distinct signatures \
     (detect_s is their median first detection), %.3f s\n"
    s.violations e.E2e.report.Triage.not_reproduced (List.length s.detections)
    e.E2e.triage_s

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* The end-to-end metrics: the ones whose spread across seeds stays within
   a usable bound (README.md lists the spreads measured). *)
let e2e_metrics (e : E2e.t) (s : e2e_summary) =
  [
    ("setup_s", E2e.median e.E2e.setup_s, "s");
    ("inputs_per_s", s.inputs_per_s, "1/s");
    ("triage_per_s", float_of_int s.violations /. e.E2e.triage_s, "1/s");
    ("peak_heap_mb", peak_heap_mb (), "MB");
  ]

(* Campaign and triage outcomes that vary too much from seed to seed to
   bound; reported with the per-layer metrics, from the untraced run. *)
let outcome_metrics (e : E2e.t) (s : e2e_summary) =
  let f = float_of_int in
  [
    ("campaign.detect_s", E2e.median s.detections, "s");
    ("campaign.signatures", f (List.length s.detections), "count");
    ( "campaign.unique_per_cpu_s",
      f (List.length s.detections) /. sum (fun r -> r.E2e.cpu_s) e.E2e.runs,
      "1/s" );
    ("campaign.vp1k", 1000. *. f s.violations /. f s.test_cases, "1/1000");
    ("campaign.fail_frac", ratio (f s.discarded) (f s.rounds), "ratio");
    ("campaign.violations", f s.violations, "count");
    ("triage.run_s", e.E2e.triage_s, "s");
    ( "triage.unrepro_frac",
      ratio (f e.E2e.report.Triage.not_reproduced) (f s.violations),
      "ratio" );
  ]

(* ------------------------------------------------------------------ *)
(* Traced run: fidelity gate, exact repeats, per-layer metrics         *)
(* ------------------------------------------------------------------ *)

(* The traced runner must have done the untraced campaign's work: the same
   violation identities and test-case count on every preset, and the same
   triage report. *)
let check_fidelity (e : E2e.t) (t : Traced.t) =
  List.iter2
    (fun (r : E2e.preset_run) (p : Traced.preset_result) ->
      let name = p.Traced.defense_name in
      let ids =
        List.map
          (fun (v : Violation.t) ->
            (v.Violation.ctrace_hash, v.Violation.trace_a_hash, v.Violation.trace_b_hash))
          r.E2e.result.Campaign.violations
      in
      if ids <> p.Traced.identities then
        fail "fidelity: %s: traced run found %d violation(s), untraced %d, identities differ"
          name (List.length p.Traced.identities) (List.length ids);
      if r.E2e.result.Campaign.test_cases <> p.Traced.preset_test_cases then
        fail "fidelity: %s: traced run ran %d test cases, untraced %d" name
          p.Traced.preset_test_cases r.E2e.result.Campaign.test_cases)
    e.E2e.runs t.Traced.presets;
  let shape (r : Triage.report) =
    ( r.Triage.total,
      r.Triage.not_reproduced,
      List.map
        (fun (c : Triage.cluster) ->
          ( c.Triage.cluster_signature,
            c.Triage.count,
            Option.map
              (fun m -> m.Triage.mech_name)
              c.Triage.representative.Triage.mechanism ))
        r.Triage.clusters )
  in
  if shape e.E2e.report <> shape t.Traced.report then
    fail "fidelity: traced triage report differs from the untraced one"

(* Deterministic counts of two traced runs of one seed. *)
let deterministic (c : Traced.counts) =
  [
    ("simulated cycles", c.Traced.run_cycles);
    ("simulated validation cycles", c.Traced.rerun_cycles);
    ("simulated instructions", c.Traced.run_insts);
    ("simulated prime cycles", c.Traced.prime_cycles);
    ("squashes", c.Traced.squashes);
    ("decodes", c.Traced.decodes);
    ("bisect replays", c.Traced.bisect_replays);
    ("violations", c.Traced.violations);
    ("test cases", c.Traced.test_cases);
  ]

let check_repeat (a : Traced.t) (b : Traced.t) =
  List.iter2
    (fun (name, x) (_, y) ->
      if x <> y then fail "exact repeat: %s differ between two runs: %d vs %d" name x y)
    (deterministic a.Traced.counts)
    (deterministic b.Traced.counts)

let spans_path (w : Workload.t) ~seed =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "spans-%s-seed%d.tsv" w.Workload.name seed)

let per_layer_metrics (e : E2e.t) (s : e2e_summary) (t : Traced.t) =
  let c = t.Traced.counts in
  let calls, self = Spans.per_layer t.Traced.spans in
  let n l = float_of_int calls.(l) and busy l = self.(l) in
  let f = float_of_int in
  let layers =
    Traced.
      [
        l_boot; l_restore; l_prime; l_load; l_run; l_input; l_decode; l_model;
        l_extract; l_compare; l_validate; l_generator; l_mutate; l_corpus;
        l_leakcheck; l_explain; l_cluster; l_bisect;
      ]
  in
  let layer_s = List.fold_left (fun acc l -> acc +. busy l) 0. layers in
  let other = t.Traced.wall_s -. layer_s in
  if other < 0. then fail "span self times exceed the traced wall time";
  let traced_campaign_s = sum (fun p -> p.Traced.campaign_s) t.Traced.presets in
  let traced_ips = f c.Traced.test_cases /. traced_campaign_s in
  Printf.printf "  traced wall %.3f s = %.3f s in layers + %.3f s other; %d spans\n"
    t.Traced.wall_s layer_s other (Spans.count t.Traced.spans);
  Printf.printf "  inputs_per_s untraced %.1f, traced %.1f\n" s.inputs_per_s traced_ips;
  List.iter
    (fun (name, v) -> Printf.printf "  %-20s self %8.3f s %5.1f%%\n" name v (100. *. v /. t.Traced.wall_s))
    (List.sort
       (fun (_, a) (_, b) -> compare b a)
       (("other", other)
       :: List.map (fun l -> (Spans.layer_name l, busy l)) layers));
  Traced.
    [
      ("simulator.boot.busy_s", busy l_boot, "s");
      ("simulator.prime.calls", n l_prime, "count");
      ("simulator.prime.busy_s", busy l_prime, "s");
      ("simulator.prime.cycles", f c.prime_cycles, "sim_cycles");
      ("simulator.run.calls", n l_run, "count");
      ("simulator.run.busy_s", busy l_run, "s");
      ("simulator.run.cycles", f c.run_cycles, "sim_cycles");
      ("simulator.run.insts", f c.run_insts, "sim_insts");
      ("simulator.run.squashes", f c.squashes, "count");
      ( "simulator.run.ns_per_cycle",
        1e9 *. ratio (busy l_run) (f c.run_cycles),
        "ns/sim_cycle" );
      ("simulator.restore.calls", n l_restore, "count");
      ("simulator.restore.busy_s", busy l_restore, "s");
      ("simulator.load.busy_s", busy l_load, "s");
      ("input.calls", n l_input, "count");
      ("input.busy_s", busy l_input, "s");
      ("input.bytes", f c.input_bytes, "B");
      ("decoded.busy_s", busy l_decode, "s");
      ("decoded.per_program", ratio (f c.decodes) (f c.rounds), "count");
      ("leakage_model.calls", n l_model, "count");
      ("leakage_model.busy_s", busy l_model, "s");
      ("leakage_model.same_class_ratio", ratio (f c.same_class) (f c.mutants), "ratio");
      ("utrace.extract_busy_s", busy l_extract, "s");
      ("utrace.compare.calls", n l_compare, "count");
      ("utrace.compare.busy_s", busy l_compare, "s");
      ("validate.calls", n l_validate, "count");
      ("validate.busy_s", busy l_validate, "s");
      ("validate.confirm_ratio", ratio (f c.confirmed) (f c.validations), "ratio");
      ("validate.reruns", f c.reruns, "count");
      ("validate.cycles", f c.rerun_cycles, "sim_cycles");
      ("generator.calls", n l_generator, "count");
      ("generator.busy_s", busy l_generator, "s");
      ("mutate.calls", n l_mutate, "count");
      ("mutate.busy_s", busy l_mutate, "s");
      ("mutate.valid_ratio", ratio (f c.mutate_valid) (f c.mutate_calls), "ratio");
      ("corpus.busy_s", busy l_corpus, "s");
      ("corpus.admit_ratio", ratio (f c.admitted) (f c.recorded), "ratio");
      ("leakcheck.calls", n l_leakcheck, "count");
      ("leakcheck.busy_s", busy l_leakcheck, "s");
      ("triage.explain.calls", n l_explain, "count");
      ("triage.explain.busy_s", busy l_explain, "s");
      ("triage.bisect.replays", f c.bisect_replays, "count");
      ("triage.bisect.busy_s", busy l_bisect, "s");
      ("triage.cluster.busy_s", busy l_cluster, "s");
      ("gc.minor_words_per_input", e.E2e.minor_words /. f s.test_cases, "words");
      ("other.busy_s", other, "s");
      ("trace.wall_s", t.Traced.wall_s, "s");
      ("trace.overhead_frac", 1. -. (traced_ips /. s.inputs_per_s), "ratio");
    ]

let () =
  let w, seed, seconds, trace = parse_args () in
  (* the traced mode runs the workload three times (untraced, traced,
     traced again), so it runs it at half the size *)
  let seconds = if trace then max 1 (seconds / 2) else seconds in
  let specs =
    List.mapi
      (fun k p -> Workload.spec w ~seed ~rounds:(Workload.rounds p ~seconds) k p)
      w.Workload.presets
  in
  let e = E2e.run ~triage_reps:w.Workload.triage_reps specs in
  check_violations e;
  let s = summarize e in
  if s.detections = [] then fail "no reproduced violation: detect_s is undefined";
  print_workload w ~seed e s;
  let metrics =
    if not trace then e2e_metrics e s
    else begin
      let t = Traced.run specs in
      check_fidelity e t;
      check_repeat t (Traced.run specs);
      Spans.write t.Traced.spans (spans_path w ~seed);
      per_layer_metrics e s t @ outcome_metrics e s
    end
  in
  json_result ~attempted:s.rounds ~failed:s.discarded metrics
