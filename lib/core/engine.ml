(** The execution engine (see engine.mli).  [Pooled] is byte-identical to
    [Naive] because the shared post-boot checkpoint captures exactly what a
    fresh boot produces. *)

open Amulet_uarch
open Amulet_defenses
open Amulet_obs

type kind = Naive | Pooled

let kind_name = function Naive -> "naive" | Pooled -> "pooled"

type outcome = {
  trace : Utrace.t;
  context : Simulator.context;  (** predictor state before the run *)
  run_fault : Fault.t option;
  cycles : int;
  sim_stats : Simulator.run_stats;
      (** per-run pipeline totals (squashes, speculative issues,
          mispredicts): deterministic feedback for guided generation *)
  events : Event.t list;  (** debug log of the run; [[]] unless [?log] *)
  counters : Obs.Snapshot.t;
      (** registry delta over the run; empty unless [?log] *)
}

type batch = {
  outcomes : outcome option array;
  batch_fault : (Fault.t * Input.t) option;
}

type stats = {
  sims_created : int;
  snapshot_restores : int;
  batches : int;
  inputs_run : int;
  programs_decoded : int;
}

type t = {
  defense : Defense.t;
  sim_config : Config.t;
  mode : Executor.mode;
  kind : kind;
  format : Utrace.format;
  stats : Stats.t;
  boot_insts : int;
  chaos : Fault.chaos option;
  mutable sim : Simulator.t option;
  mutable boot_snapshot : Simulator.snapshot option;
  mutable sims_created : int;
  mutable restores : int;
  mutable decode_base : int;
      (* decodes performed by simulators already discarded, so the decode
         count stays monotonic across [Naive] rebuilds *)
  mutable batches : int;
  mutable inputs_run : int;
  (* engine metrics, resolved once against the stats registry *)
  m_rebuilds : Obs.counter;
  m_restores : Obs.counter;
  m_rebuild_time : Obs.timer;
  m_restore_time : Obs.timer;
  m_prime_time : Obs.timer;
  m_simulate_time : Obs.timer;
  m_utrace_time : Obs.timer;
  m_reuse_depth : Obs.gauge;
      (* inputs served by the current pooled boot state *)
  m_batches : Obs.counter;
  m_inputs : Obs.counter;
  m_batch_latency : Obs.histogram;
}

let create ?(boot_insts = Simulator.default_boot_insts) ?(format = Utrace.L1d_tlb)
    ?sim_config ?chaos ?(kind = Pooled) ~mode (defense : Defense.t)
    (stats : Stats.t) =
  let sim_config =
    match sim_config with Some c -> c | None -> Defense.config defense
  in
  let metrics = Stats.registry stats in
  {
    defense;
    sim_config;
    mode;
    kind;
    format;
    stats;
    boot_insts;
    chaos = Option.map Fault.arm chaos;
    sim = None;
    boot_snapshot = None;
    sims_created = 0;
    restores = 0;
    decode_base = 0;
    batches = 0;
    inputs_run = 0;
    m_rebuilds = Obs.counter metrics "engine.sim.rebuilds";
    m_restores = Obs.counter metrics "engine.sim.restores";
    m_rebuild_time = Obs.timer metrics "engine.time.rebuild";
    m_restore_time = Obs.timer metrics "engine.time.restore";
    m_prime_time = Obs.timer metrics "engine.time.prime";
    m_simulate_time = Obs.timer metrics "engine.time.simulate";
    m_utrace_time = Obs.timer metrics "engine.time.utrace";
    m_reuse_depth = Obs.gauge metrics "engine.pool.reuse_depth";
    m_batches = Obs.counter metrics "engine.batches";
    m_inputs = Obs.counter metrics "engine.inputs_run";
    m_batch_latency = Obs.histogram metrics "engine.batch.latency";
  }

let kind t = t.kind

let stats t : stats =
  {
    sims_created = t.sims_created;
    snapshot_restores = t.restores;
    batches = t.batches;
    inputs_run = t.inputs_run;
    programs_decoded =
      (t.decode_base
      + match t.sim with Some s -> Simulator.decodes s | None -> 0);
  }

(* Bank the decode count of the simulator about to be replaced/dropped. *)
let retire_sim t =
  match t.sim with
  | Some s ->
      t.decode_base <- t.decode_base + Simulator.decodes s;
      t.sim <- None
  | None -> ()

(* Build a simulator, replacing the current one: [Naive] boots it;
   [Pooled] restores the configuration's shared post-boot checkpoint into
   an unbooted one and keeps that checkpoint for later rewinds. *)
let rebuild t =
  retire_sim t;
  t.sims_created <- t.sims_created + 1;
  Obs.incr t.m_rebuilds;
  let sim =
    Obs.time t.m_rebuild_time (fun () ->
        let pages = t.defense.Defense.sandbox_pages in
        let create boot_insts =
          Simulator.create ~metrics:(Stats.registry t.stats) ~boot_insts ~pages
            t.sim_config
        in
        match t.kind with
        | Naive -> create t.boot_insts
        | Pooled ->
            let snap =
              Simulator.boot_checkpoint ~boot_insts:t.boot_insts ~pages t.sim_config
            in
            let sim = create 0 in
            Simulator.restore sim snap;
            t.boot_snapshot <- Some snap;
            sim)
  in
  t.sim <- Some sim;
  sim

(* Pristine post-boot state: [Naive] rebuilds; [Pooled] rewinds the pool
   simulator to the post-boot checkpoint (building it on first use), which
   is equivalent without re-running the boot workload. *)
let pristine t =
  match t.kind, t.sim, t.boot_snapshot with
  | Pooled, Some sim, Some snap ->
      Obs.time t.m_restore_time (fun () -> Simulator.restore sim snap);
      t.restores <- t.restores + 1;
      Obs.incr t.m_restores;
      Obs.set_gauge t.m_reuse_depth (float_of_int t.restores);
      sim
  | _ -> rebuild t

(** Begin a new test program.  This is where [Opt] mode pays for pristine
    state; [Naive] mode re-pristines per input instead. *)
let start_program t =
  match t.mode, t.kind with
  | Executor.Opt, _ -> ignore (pristine t)
  | Executor.Naive, Naive -> retire_sim t
  | Executor.Naive, Pooled -> ()

(* Current simulator without rewinding it (context reruns restore their own
   microarchitectural state, so pristine boot state is not needed). *)
let current_sim t = match t.sim with Some s -> s | None -> pristine t

let warm t = match t.kind with Pooled -> ignore (current_sim t) | Naive -> ()

let extract_trace t sim =
  Obs.time t.m_utrace_time (fun () ->
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
  Obs.time t.m_prime_time (fun () ->
      match t.defense.Defense.priming with
      | Defense.Fill_sets -> ignore (Simulator.prime_with_fills sim)
      | Defense.Flush -> Simulator.prime_with_flush sim)

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
  let stats_run = Obs.time t.m_simulate_time (fun () -> Simulator.run sim flat) in
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
    counters = Obs.Snapshot.empty;
  }

(* As [run_loaded], with the debug event log enabled for the run and the
   registry's delta over it recorded. *)
let run_logged t sim flat input =
  let registry = Stats.registry t.stats in
  let before = Obs.Snapshot.of_registry registry in
  let log = Simulator.log sim in
  Event.clear log;
  Event.set_enabled log true;
  let outcome = run_loaded t sim flat input in
  Event.set_enabled log false;
  let events = Event.events log in
  Event.clear log;
  let counters = Obs.Snapshot.diff ~older:before ~newer:(Obs.Snapshot.of_registry registry) in
  { outcome with events; counters }

(** Execute one test case (program, input) and produce its trace.

    Without [?context]: a fresh run under the engine's mode ([Naive]
    re-pristines and flushes; [Opt] reuses the program's simulator and
    primes).

    With [?context]: a validation rerun (§3.2) from an exactly reproduced
    microarchitectural starting context (predictors, caches, TLB as
    snapshotted just before some earlier run), so any remaining trace
    difference between two inputs is caused by the inputs alone.

    [?log] enables the debug event log for this run and fills
    [outcome.events] and [outcome.counters] (root-cause analysis path). *)
let run t ?context ?(log = false) flat (input : Input.t) =
  let runner = if log then run_logged else run_loaded in
  match context with
  | Some ctx ->
      let sim = current_sim t in
      if not log then Stats.count_validation t.stats;
      Simulator.restore_context sim ctx;
      runner t sim flat input
  | None -> (
      match t.mode with
      | Executor.Naive ->
          (* pristine post-boot state per input; clean caches; no fills *)
          let sim = pristine t in
          Simulator.prime_with_flush sim;
          runner t sim flat input
      | Executor.Opt ->
          let sim = current_sim t in
          prime t sim;
          runner t sim flat input)

type from = Fresh | Context of Simulator.context

type replay = { a : outcome; b : outcome; from : Simulator.context }

let replay t ?log from flat a b =
  let context =
    match from with
    | Context c -> Some c
    | Fresh ->
        start_program t;
        None
  in
  let oa = run t ?context ?log flat a in
  let ob = run t ?context ?log flat b in
  { a = oa; b = ob; from = Option.value context ~default:oa.context }

(* Definition 2.1 fixes the starting context mu: following the paper, each
   candidate context is tried in turn, and a difference that persists under
   one shared context is a real, input-caused leak. *)
let validate t flat a b contexts =
  List.find_map
    (fun ctx ->
      let r = replay t (Context ctx) flat a b in
      if Utrace.equal r.a.trace r.b.trace then None else Some r)
    contexts

let analysis ?boot_insts ?format ?sim_config ?metrics defense =
  let t =
    create ?boot_insts ?format ?sim_config ~mode:Executor.Opt defense
      (Stats.create ?metrics ())
  in
  start_program t;
  t

let run_batch t ?(check = fun () -> ()) flat inputs =
  let started = Obs.Clock.now_s () in
  start_program t;
  t.batches <- t.batches + 1;
  Obs.incr t.m_batches;
  let n = Array.length inputs in
  let outcomes = Array.make n None in
  let fault = ref None in
  let i = ref 0 in
  while !fault = None && !i < n do
    check ();
    let o = run t flat inputs.(!i) in
    t.inputs_run <- t.inputs_run + 1;
    Obs.incr t.m_inputs;
    outcomes.(!i) <- Some o;
    (match o.run_fault with
    | Some f -> fault := Some (f, inputs.(!i))
    | None -> ());
    incr i
  done;
  Obs.observe t.m_batch_latency (Obs.Clock.elapsed_s ~since:started);
  { outcomes; batch_fault = !fault }
