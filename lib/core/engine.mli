(** The execution engine: runs test cases on the simulator implementing the
    countermeasure under test and extracts microarchitectural traces.

    {b Mode} ({!Executor.mode}) fixes the testing semantics (paper §3.2,
    C3): [Naive] starts every input from pristine post-boot state; [Opt]
    reuses one simulator per program, overwriting registers/memory in
    place and priming the L1D per the defense's harness style.

    {b Kind} fixes how pristine state is reached and is trace-invisible:
    [Naive] rebuilds the simulator and pays the full warm boot every time
    (Table 2's model of restarting gem5 per test case); [Pooled] builds one
    unbooted simulator, restores the configuration's post-boot checkpoint
    ({!Amulet_uarch.Simulator.boot_checkpoint}) into it and rewinds to that
    checkpoint with {!Amulet_uarch.Simulator.restore} from then on.  The
    checkpoint is shared across the process, so pooled engines boot once
    per configuration per process, not once per engine. *)

open Amulet_isa
open Amulet_uarch
open Amulet_defenses

type kind = Naive | Pooled

val kind_name : kind -> string

type outcome = {
  trace : Utrace.t;
  context : Simulator.context;
      (** full μarch starting context (predictors + caches), snapshotted
          just before the run — the handle violation validation uses *)
  run_fault : Fault.t option;
  cycles : int;
  sim_stats : Simulator.run_stats;
      (** per-run pipeline totals (squashes, speculative issues,
          mispredicts): the deterministic μarch feedback signal guided
          generation keys on; derived from the pipeline's own counters, so
          present even when telemetry is detached *)
  events : Event.t list;
      (** debug log of the run; [[]] unless [?log] was set *)
  counters : Amulet_obs.Obs.Snapshot.t;
      (** the registry's delta over the run; empty unless [?log] was set *)
}

(** Result of one batched pass: per-input outcomes in input order.  A
    simulator fault stops the batch — later slots stay [None] — and is
    reported with the offending input. *)
type batch = {
  outcomes : outcome option array;
  batch_fault : (Fault.t * Input.t) option;
}

type stats = {
  sims_created : int;
      (** simulators built: each [Naive] one boots; a [Pooled] engine builds
          one and restores the shared post-boot checkpoint into it *)
  snapshot_restores : int;  (** checkpoint rewinds performed instead *)
  batches : int;
  inputs_run : int;  (** inputs executed through {!run_batch} *)
  programs_decoded : int;
      (** programs decoded into the shared {!Amulet_isa.Decoded} cache
          across every simulator this engine has owned; with amortization
          working this tracks distinct programs, not [inputs_run] *)
}

type t

val create :
  ?boot_insts:int ->
  ?format:Utrace.format ->
  ?sim_config:Config.t ->
  ?chaos:Fault.injector ->
  ?kind:kind ->
  mode:Executor.mode ->
  Defense.t ->
  Stats.t ->
  t
(** [kind] defaults to [Pooled].  [chaos], when set, arms a probabilistic
    fault injector: each test case may raise {!Fault.Injected_crash} or
    report an injected fault instead of its real outcome (robustness
    self-tests only).  The engine's metrics go to the stats' registry,
    among them one timer per region of the paper's Table 2:
    [engine.time.rebuild], [.restore], [.prime], [.simulate] and
    [.utrace]. *)

val kind : t -> kind

val start_program : t -> unit
(** Begin a new test program; where [Opt] mode pays for pristine state (a
    rebuild or a checkpoint rewind, per the kind). *)

val warm : t -> unit
(** Pre-build the pooled simulator from its post-boot checkpoint (booting
    the checkpoint if this is the process's first request for the
    configuration) so the first test case doesn't pay for it ([Naive]:
    no-op). *)

val run :
  t -> ?context:Simulator.context -> ?log:bool -> Program.flat -> Input.t ->
  outcome
(** Execute one test case.  Without [?context], a fresh run under the
    engine's mode; with [?context], a validation rerun from an exactly
    reproduced microarchitectural starting context.  [?log] (default
    [false]) enables the debug event log and fills [outcome.events] and
    [outcome.counters]. *)

type from =
  | Fresh  (** {!start_program}, then A and B run as a campaign runs them *)
  | Context of Simulator.context  (** both from this one context (§3.2) *)

type replay = { a : outcome; b : outcome; from : Simulator.context (** A's *) }

val replay : t -> ?log:bool -> from -> Program.flat -> Input.t -> Input.t -> replay
(** Run input A, then input B, from [from]: the one way any stored input
    pair is re-executed.  [?log] and the work counts are {!run}'s. *)

val validate :
  t -> Program.flat -> Input.t -> Input.t -> Simulator.context list -> replay option
(** The validation rule: {!replay} the pair from each context in turn
    (typically the inputs' own, A's first) and return the first replay
    whose traces still differ; [None] means the difference was context
    drift, not a leak. *)

val analysis :
  ?boot_insts:int ->
  ?format:Utrace.format ->
  ?sim_config:Config.t ->
  ?metrics:Amulet_obs.Obs.t ->
  Defense.t ->
  t
(** The engine analyses replay on: [Opt], [Pooled], a private {!Stats.t}
    over [metrics] (default detached), already started.  Being pooled, it
    restores the shared post-boot checkpoint: building one per violation
    (explain, bisection flips, shrink steps, signing, rehydrate, journal
    resume) costs a restore, and the process boots once per (config,
    sandbox pages, [boot_insts]) it meets. *)

val run_batch : t -> ?check:(unit -> unit) -> Program.flat -> Input.t array -> batch
(** {!start_program}, then execute all inputs of the program against the
    warm simulator in a single pass.  [check] runs before each input
    (deadline hook); whatever it raises propagates. *)

val stats : t -> stats
