(** The sweep orchestrator: run the whole defense matrix (AMuLeT §5) as one
    scheduled, sharded workload.

    A sweep is a list of {!job}s — each a {!Run_spec.t} naming a defense
    preset and a derived seed shard — executed on a work-stealing scheduler
    over OCaml domains.  Each domain keeps one warmed pooled {!Engine} per
    distinct defense config, so snapshot/restore reuse survives across jobs
    of the same defense; each job runs a fault-isolated campaign shard
    (reusing {!Campaign}'s fault taxonomy and journaling).  Shards merge
    deterministically — the merged violation set is byte-identical
    regardless of domain count or steal order, because shard seeds are
    fixed at job construction and the engine re-pristines per program. *)

open Amulet_defenses
module Obs = Amulet_obs.Obs

type job = {
  id : int;  (** merge position; {!run} reindexes jobs in list order *)
  shard : int;  (** shard index within the job's preset *)
  spec : Run_spec.t;
}

val select : string list -> (Defense.t list, string) result
(** Resolve preset names / ['*'] globs (case-insensitive) against
    {!Defense.all}; [[]] selects every preset.  [Error] names the first
    pattern matching nothing. *)

val jobs :
  ?presets:Defense.t list ->
  ?shards_per_preset:int ->
  ?rounds:int ->
  ?seed:int ->
  ?make_spec:(Defense.t -> Run_spec.t) ->
  unit ->
  job list
(** The default matrix: [shards_per_preset] (default 1) shards of [rounds]
    (default 20) rounds for every preset (default {!Defense.all}).
    [make_spec] supplies the base spec per defense (execution knobs,
    budgets); [jobs] then pins each shard's [rounds] and derived [seed] —
    the derivation depends only on (sweep seed, preset index, shard index),
    never on scheduling. *)

val instances : int -> Run_spec.t -> job list
(** [instances n spec]: the [fuzz -j n] jobs — [n] shards of [spec]'s one
    preset, shard [i] at seed [spec.seed + i * 7919] (shard 0 is the
    single-instance campaign). *)

type outcome =
  | Completed of Campaign.result
  | Crashed of Fault.exn_info
      (** the shard (or its whole domain) died outside round isolation *)

type shard = { job : job; outcome : outcome; wall_s : float }

type row = {
  result : Campaign.result;
      (** the preset's completed shards merged by {!Campaign.merge}, in job
          order; crashed shards count as {!Fault.C_instance_crash} *)
  shards : int;
  crashed_shards : int;
  wall_s : float;  (** summed shard wall clocks (compute, not elapsed) *)
  inputs_per_sec : float;  (** test cases per second of shard compute *)
  time_to_first_leak : float option;
      (** min across shards of the first detection's latency, seconds *)
}

type report = {
  rows : row list;  (** one per preset, in first-appearance job order *)
  shards : shard list;  (** every shard, in job order *)
  domains : int;
  jobs : int;
  crashed : int;
  wall_s : float;  (** elapsed wall clock of the whole sweep *)
  test_cases : int;
  metrics : Obs.Snapshot.t;
      (** merged per-domain registries (empty unless [metrics] was live) *)
}

(** One warmed engine per distinct defense config, private to one domain.
    {!run}'s domains each keep one, so a domain pays one simulator boot per
    configuration, not one per job.  Chaos-armed specs never share a cached
    engine (chaos arms at executor creation) — {!Engine_cache.get} returns
    [None] for them. *)
module Engine_cache : sig
  type t

  val create : unit -> t
  val get : t -> metrics:Obs.t -> Run_spec.t -> (Engine.t * Stats.t) option
end

val run :
  ?domains:int ->
  ?metrics:Obs.t ->
  ?journal_dir:string ->
  ?checkpoint_every:int ->
  job list ->
  report
(** Execute the jobs on [domains] (default 1) worker domains with work
    stealing.  [metrics], when live, gives each domain a private registry
    (merged into [report.metrics]).  [journal_dir], when set, checkpoints
    every shard to [shard_<id>_<defense>.json] inside it.  Total: a
    crashing shard or domain is recorded as {!Crashed} and the sweep
    completes. *)

(** The scheduling-independent identity of a sweep's findings: {!fingerprint}
    reduces a report's merged results to [Ident.row]s and digests those
    bytes. *)
module Ident : sig
  type v = {
    ctrace_hash : int64;
    hash_a : int64;  (** {!Utrace.hash} of the violating trace pair *)
    hash_b : int64;
    program_text : string;
    signature : string;
        (** detection-time root-cause signature ([""] when unclassified);
            counted by the report's per-row [distinct_signatures], {e not}
            part of the fingerprint bytes *)
  }

  type row = {
    defense : string;
    contract : string;
    rounds : int;
    discarded : int;
    test_cases : int;
    violations : v list;  (** in job order within the preset *)
  }

  val of_violation : Violation.t -> v

  val fingerprint : row list -> string
  (** Hex digest over the rows' bytes; wall-clock-free by construction.
      The [signature] field is excluded: classification must not perturb
      the determinism gate. *)
end

val fingerprint : report -> string
(** Hex digest over the deterministic content of the report — per-preset
    round/test-case/discard totals and every violation's identity
    (contract-trace hash, both microarchitectural trace hashes, program
    text) — excluding all wall-clock-dependent fields.  Equal fingerprints
    across [~domains:1] and [~domains:n] runs of the same jobs are the
    determinism guarantee CI enforces.  Equals {!Ident.fingerprint} over
    the report's rows. *)

val to_json : report -> string
(** The BENCH_sweep.json document (schema [amulet.sweep/1]). *)

val pp : Format.formatter -> report -> unit
(** The cross-defense text table. *)
