(* The untraced run: the workload as a user runs AMuLeT end to end.  Warm
   one engine per preset, run a seeded campaign on each, then triage every
   violation found into one ranked report.  No span is recorded here; the
   end-to-end metrics come from this run. *)

open Amulet

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type preset_run = {
  spec : Run_spec.t;
  result : Campaign.result;
  wall_s : float;  (* host seconds inside Campaign.run *)
  cpu_s : float;  (* process CPU seconds inside Campaign.run *)
}

type t = {
  setup_s : float list;  (* host seconds of each set-up made *)
  runs : preset_run list;
  sources : (string * Violation_io.stored) list;
      (* every violation, in detection order, with its origin label *)
  detected_at : (string * float) list;
      (* origin -> seconds from its campaign's start to detection *)
  report : Triage.report;
  triage_s : float;  (* host seconds inside Triage.run, median of repeats *)
  minor_words : float;  (* allocated during the campaign phase *)
}

let origin (spec : Run_spec.t) i =
  Printf.sprintf "%s#%04d" spec.Run_spec.defense.Amulet_defenses.Defense.name i

(* One engine per preset, created and warmed exactly as Fuzzer.create
   would, so Campaign.run starts on a booted, checkpointed simulator. *)
let create_engines specs =
  List.map
    (fun (s : Run_spec.t) ->
      let stats = Stats.create () in
      let engine =
        Engine.create ~boot_insts:s.Run_spec.boot_insts
          ~format:s.Run_spec.trace_format ?sim_config:s.Run_spec.sim_config
          ~kind:s.Run_spec.engine ~mode:s.Run_spec.mode s.Run_spec.defense stats
      in
      Engine.warm engine;
      (engine, stats))
    specs

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let run ~triage_reps specs =
  (* Set-up is short, so one sample mostly measures whatever the host was
     doing at that instant.  It is repeated before each campaign, before
     triage and after it, spreading the samples over the run; the first
     set-up's engines run the campaigns. *)
  let setup_s = ref [] in
  let setup () =
    Gc.full_major ();
    let t0 = now () in
    let engines = create_engines specs in
    setup_s := (now () -. t0) :: !setup_s;
    engines
  in
  let engines = setup () in
  let minor = ref 0. in
  let runs =
    List.map2
      (fun spec engine ->
        ignore (setup ());
        (* keep one preset's GC debt off the next preset's clock *)
        Gc.full_major ();
        let minor0 = Gc.minor_words () in
        let cpu0 = Sys.time () in
        let t0 = now () in
        let result = Campaign.run ~engine spec in
        let wall_s = now () -. t0 in
        let cpu_s = Sys.time () -. cpu0 in
        minor := !minor +. (Gc.minor_words () -. minor0);
        { spec; result; wall_s; cpu_s })
      specs engines
  in
  let labelled =
    List.concat_map
      (fun r ->
        List.mapi (fun i v -> (origin r.spec i, v)) r.result.Campaign.violations)
      runs
  in
  let sources =
    List.map (fun (o, v) -> (o, Violation_io.of_violation v)) labelled
  in
  let detected_at =
    List.map (fun (o, v) -> (o, v.Violation.detection_seconds)) labelled
  in
  ignore (setup ());
  (* Triage is deterministic, so a workload whose triage pass is too short
     to average out host-speed swings repeats it and keeps the median. *)
  let triage () =
    Gc.full_major ();
    let t0 = now () in
    let report = Triage.run ~bisect:true sources in
    (report, now () -. t0)
  in
  let report, t = triage () in
  let repeats =
    List.init (triage_reps - 1) (fun _ ->
        let r, t = triage () in
        if Triage.report_to_json r <> Triage.report_to_json report then
          failwith "perfbench: a repeated triage produced another report";
        t)
  in
  let triage_s = median (t :: repeats) in
  ignore (setup ());
  {
    setup_s = List.rev !setup_s;
    runs;
    sources;
    detected_at;
    report;
    triage_s;
    minor_words = !minor;
  }
