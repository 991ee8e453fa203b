(** The executor: runs test cases on the simulator implementing the
    countermeasure under test and extracts microarchitectural traces.

    Two orthogonal axes:

    {b Mode} mirrors the paper's §3.2 (C3) and fixes the {e testing
    semantics}:
    - [Naive] starts {e every input} from pristine post-boot state (clean
      caches, reset predictors);
    - [Opt] reuses one simulator per {e program}, overwrites registers and
      memory in place between inputs, and primes the L1D before each input
      (filling every set with out-of-sandbox lines, or flushing, per the
      defense's harness style).  Predictor state persists across inputs,
      which widens prediction variety but requires violation validation
      (see {!Fuzzer}).

    {b Backend} fixes the {e implementation strategy} for reaching that
    state and is trace-invisible:
    - [Rebuild] reconstructs the simulator (paying the full startup cost,
      including the synthetic warm boot) whenever pristine state is needed;
    - [Pool] builds the simulator once, checkpoints the post-boot state
      with {!Simulator.snapshot}, and rewinds with {!Simulator.restore} —
      the pooled engine's warm-state reuse, byte-identical to [Rebuild]
      because the checkpoint captures exactly what a fresh boot produces. *)

open Amulet_uarch
open Amulet_defenses
open Amulet_obs

type mode = Naive | Opt

let mode_name = function Naive -> "naive" | Opt -> "opt"

type backend = Rebuild | Pool

let backend_name = function Rebuild -> "rebuild" | Pool -> "pool"

type t = {
  defense : Defense.t;
  sim_config : Config.t;
  mode : mode;
  backend : backend;
  format : Utrace.format;
  stats : Stats.t;
  boot_insts : int;
  chaos : Fault.chaos option;
  mutable sim : Simulator.t option;
  mutable boot_snapshot : Simulator.snapshot option;
  mutable sims_created : int;
  mutable restores : int;
  mutable decode_base : int;
      (* decodes performed by simulators already discarded, so {!decodes}
         stays monotonic across [Rebuild] replacements *)
  (* engine metrics, resolved once against the stats registry *)
  m_rebuilds : Obs.counter;
  m_restores : Obs.counter;
  m_rebuild_time : Obs.timer;
  m_restore_time : Obs.timer;
  m_prime_time : Obs.timer;
  m_reuse_depth : Obs.gauge;
      (* inputs served by the current pooled boot state *)
}

type outcome = {
  trace : Utrace.t;
  context : Simulator.context;  (** predictor state before the run *)
  run_fault : Fault.t option;
  cycles : int;
  sim_stats : Simulator.run_stats;
      (** per-run pipeline totals (squashes, speculative issues,
          mispredicts): deterministic feedback for guided generation *)
  events : Event.t list;  (** debug log of the run; [[]] unless [?log] *)
}

let create ?(boot_insts = Simulator.default_boot_insts) ?(format = Utrace.L1d_tlb)
    ?sim_config ?chaos ?(backend = Pool) ~mode (defense : Defense.t)
    (stats : Stats.t) =
  let sim_config =
    match sim_config with Some c -> c | None -> Defense.config defense
  in
  let chaos = Option.map Fault.arm chaos in
  let metrics = Stats.registry stats in
  {
    defense;
    sim_config;
    mode;
    backend;
    format;
    stats;
    boot_insts;
    chaos;
    sim = None;
    boot_snapshot = None;
    sims_created = 0;
    restores = 0;
    decode_base = 0;
    m_rebuilds = Obs.counter metrics "engine.sim.rebuilds";
    m_restores = Obs.counter metrics "engine.sim.restores";
    m_rebuild_time = Obs.timer metrics "engine.time.rebuild";
    m_restore_time = Obs.timer metrics "engine.time.restore";
    m_prime_time = Obs.timer metrics "engine.time.prime";
    m_reuse_depth = Obs.gauge metrics "engine.pool.reuse_depth";
  }

let mode t = t.mode
let backend t = t.backend
let sims_created t = t.sims_created
let restores t = t.restores

let decodes t =
  t.decode_base
  + match t.sim with Some s -> Simulator.decodes s | None -> 0

(* Bank the decode count of the simulator about to be replaced/dropped. *)
let retire_sim t =
  match t.sim with
  | Some s ->
      t.decode_base <- t.decode_base + Simulator.decodes s;
      t.sim <- None
  | None -> ()

let fresh_simulator t =
  retire_sim t;
  t.sims_created <- t.sims_created + 1;
  Obs.incr t.m_rebuilds;
  Stats.time t.stats Stats.Sim_startup (fun () ->
      Obs.time t.m_rebuild_time (fun () ->
          Simulator.create ~metrics:(Stats.registry t.stats)
            ~boot_insts:t.boot_insts ~pages:t.defense.Defense.sandbox_pages
            t.sim_config))

(* Rewind the pool simulator to its post-boot checkpoint (building it, and
   the checkpoint, on first use).  Equivalent to [fresh_simulator] without
   re-running the boot workload. *)
let pooled_sim t =
  match t.sim, t.boot_snapshot with
  | Some sim, Some snap ->
      Stats.time t.stats Stats.Sim_startup (fun () ->
          Obs.time t.m_restore_time (fun () -> Simulator.restore sim snap));
      t.restores <- t.restores + 1;
      Obs.incr t.m_restores;
      Obs.set_gauge t.m_reuse_depth (float_of_int t.restores);
      sim
  | _ ->
      let sim = fresh_simulator t in
      t.sim <- Some sim;
      t.boot_snapshot <- Some (Simulator.snapshot sim);
      sim

(** Begin a new test program.  This is where [Opt] mode pays for pristine
    state: a simulator rebuild ([Rebuild]) or a checkpoint rewind ([Pool]).
    [Naive] mode re-pristines per input instead. *)
let start_program t =
  match t.mode, t.backend with
  | Opt, Rebuild -> t.sim <- Some (fresh_simulator t)
  | Opt, Pool -> ignore (pooled_sim t)
  | Naive, Rebuild -> retire_sim t
  | Naive, Pool -> ()

(* Current simulator without rewinding it (context reruns restore their own
   microarchitectural state, so pristine boot state is not needed). *)
let get_sim t =
  match t.sim with
  | Some s -> s
  | None -> (
      match t.backend with
      | Pool -> pooled_sim t
      | Rebuild ->
          let s = fresh_simulator t in
          t.sim <- Some s;
          s)

(** Pre-build the pooled simulator and its checkpoint so the first test case
    doesn't pay the boot cost ([Rebuild]: no-op). *)
let warm t = match t.backend with Pool -> ignore (get_sim t) | Rebuild -> ()

let extract_trace t sim =
  Stats.time t.stats Stats.Utrace_extraction (fun () ->
      match t.format with
      | Utrace.L1d_tlb ->
          Utrace.State_snapshot
            {
              l1d = Simulator.l1d_tags sim;
              tlb = Simulator.tlb_pages sim;
              l1i =
                (if t.defense.Defense.include_l1i then Some (Simulator.l1i_tags sim)
                 else None);
            }
      | Utrace.Bp_state -> Utrace.Predictor_snapshot (Simulator.bp_state sim)
      | Utrace.Mem_order -> Utrace.Access_order (Simulator.access_order sim)
      | Utrace.Bp_order ->
          Utrace.Prediction_order (Simulator.branch_prediction_order sim)
      | Utrace.Pc_order -> Utrace.Pc_sequence (Simulator.execution_order sim))

let prime t sim =
  Stats.time t.stats Stats.Sim_simulate (fun () ->
      Obs.time t.m_prime_time (fun () ->
          match t.defense.Defense.priming with
          | Defense.Fill_sets -> ignore (Simulator.prime_with_fills sim)
          | Defense.Flush -> Simulator.prime_with_flush sim))

(* The chaos hook (robustness self-tests): one draw per test case may raise
   an injected crash or substitute an injected fault for the real outcome. *)
let chaos_fault t =
  match t.chaos with
  | None -> None
  | Some chaos -> (
      match Fault.sample chaos with
      | `None -> None
      | `Crash -> raise (Fault.Injected_crash "chaos: executor crash")
      | `Timeout ->
          Some (Fault.Deadline_exceeded { elapsed_ms = 0.; deadline_ms = 0. })
      | `Sim_fault -> Some (Fault.Injected "chaos: simulator fault"))

(* Run one input on [sim] (which has been primed) and extract its trace. *)
let run_loaded t sim flat (input : Input.t) =
  Simulator.load_state sim (Input.to_state input);
  Simulator.clear_access_order sim;
  let context = Simulator.snapshot_context sim in
  let stats_run =
    Stats.time t.stats Stats.Sim_simulate (fun () -> Simulator.run sim flat)
  in
  Stats.count_test_case t.stats;
  let trace = extract_trace t sim in
  let run_fault =
    match chaos_fault t with
    | Some _ as injected -> injected
    | None -> Option.map Fault.of_run_fault stats_run.Simulator.fault
  in
  {
    trace;
    context;
    run_fault;
    cycles = stats_run.cycles;
    sim_stats = stats_run;
    events = [];
  }

(* As [run_loaded], with the debug event log enabled for the run. *)
let run_logged t sim flat input =
  let log = Simulator.log sim in
  Event.clear log;
  Event.set_enabled log true;
  let outcome = run_loaded t sim flat input in
  Event.set_enabled log false;
  let events = Event.events log in
  Event.clear log;
  { outcome with events }

(** Execute one test case (program, input) and produce its trace.

    Without [?context]: a fresh run under the executor's mode ([Naive]
    rewinds/rebuilds to pristine state and flushes; [Opt] reuses the
    program's simulator and primes).

    With [?context]: a validation rerun (§3.2) from an exactly reproduced
    microarchitectural starting context (predictors, caches, TLB as
    snapshotted just before some earlier run), so any remaining trace
    difference between two inputs is caused by the inputs alone.

    [?log] enables the debug event log for this run and fills
    [outcome.events] (root-cause analysis path). *)
let run t ?context ?(log = false) flat (input : Input.t) =
  let runner = if log then run_logged else run_loaded in
  match context with
  | Some ctx ->
      let sim = get_sim t in
      if not log then Stats.count_validation t.stats;
      Simulator.restore_context sim ctx;
      runner t sim flat input
  | None -> (
      match t.mode with
      | Naive ->
          (* pristine post-boot state per input; clean caches; no fills *)
          let sim =
            match t.backend with
            | Pool -> pooled_sim t
            | Rebuild ->
                let sim = fresh_simulator t in
                t.sim <- Some sim;
                sim
          in
          Simulator.prime_with_flush sim;
          runner t sim flat input
      | Opt ->
          let sim = get_sim t in
          prime t sim;
          runner t sim flat input)
