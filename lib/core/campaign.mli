(** Testing campaigns: many fuzzing rounds against one defense, with the
    metrics the paper's evaluation reports (Tables 3, 4, 6).  Campaigns are
    described by a {!Run_spec.t}. *)

open Amulet_defenses

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
  duration : float;
  throughput : float;  (** test cases per second *)
  detection_times : float list;
  budget_exhausted : bool;
      (** the run stopped on [Run_spec.budget_ms], not by finishing its
          rounds or hitting [stop_after_violations] *)
  corpus : string option;
      (** final guided-fuzzing corpus checkpoint
          ({!Amulet_corpus.Corpus.to_string}); [None] for [Random] specs.
          A {!merge}d result keeps the first completed shard's corpus. *)
  metrics : Amulet_obs.Obs.Snapshot.t;
      (** telemetry delta accumulated over the campaign (empty unless a
          live registry was passed in) *)
}

val round_seed : int -> int -> int
(** [round_seed seed i]: the derived seed round [i] always runs on —
    identical whether the round is reached in one uninterrupted run or
    after any number of kill/resume cycles. *)

val run :
  ?on_violation:(Violation.t -> unit) ->
  ?journal_path:string ->
  ?checkpoint_every:int ->
  ?resume:Journal.t ->
  ?metrics:Amulet_obs.Obs.t ->
  ?engine:Engine.t * Stats.t ->
  Run_spec.t ->
  result
(** Run [spec.rounds] fuzzing rounds against [spec.defense].
    [journal_path] checkpoints progress atomically every [checkpoint_every]
    (default 10) rounds and at campaign end; [resume] continues from a
    loaded checkpoint instead of round 0 and, with the same spec, ends with
    the same totals as an uninterrupted run.  [metrics] (default noop) is
    threaded down to the fuzzer/engine/simulator counters; the
    campaign-local delta lands in [result.metrics].  [engine] injects a
    warmed engine + stats sink (see {!Fuzzer.create}); test cases are
    counted as a delta of the sink, so a sink shared across successive
    campaigns stays correct, and faults are counted by the campaign's own
    fuzzer.  When [spec.budget_ms] runs out — even mid-round — the
    campaign stops at the last {e completed} round boundary with a clean
    final checkpoint ([result.budget_exhausted] set), so a resume replays
    the interrupted round instead of double-counting it. *)

val merge :
  Defense.t ->
  fallback_contract:string ->
  elapsed:float ->
  crashed:int ->
  result list ->
  result
(** [merge defense ~fallback_contract ~elapsed ~crashed results]: the one
    sum of shard results, used by every parallel path ({!Sweep} rows,
    [fuzz -j]).  Counts, class tallies and fault counts add up, with
    [crashed] shards recorded as {!Fault.C_instance_crash}; violations and
    detection times concatenate in list order; the duration is the slowest
    shard's.  Total on [[]]: an all-crashed group yields zero work,
    [fallback_contract] as its contract name and [elapsed] as its
    duration. *)

val detected : result -> bool
val avg_detection_time : result -> float option
val unique_violations : result -> int
val pp : Format.formatter -> result -> unit
