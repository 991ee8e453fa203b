(** Violation triage: the staged pipeline [load → cluster → bisect →
    shrink → report] that turns a raw violation stream (saved [.amulet]
    files, campaign journal directories, sweep journal shards) into
    a ranked report of distinct root causes, one reproducer each.

    This is the one entry point for everything downstream of detection:
    [amulet explain] is a one-element view of the same schema, and PoC emission writes standalone files that
    [amulet reproduce] replays.

    Clustering keys on the {e divergence signature}: the defense under
    test, the {!Analysis} leak class, the contract-trace divergence point,
    and the value-normalized shape of the microarchitectural trace diff.
    Two violations with the same signature leak through the same mechanism
    even when their concrete addresses differ.

    Bisection replays a cluster representative against single-flip
    variants of its defense preset's configuration — the [patched] bug
    flags first, then generic capacity/feature knobs — and names the first
    flip that makes the violation disappear: the responsible mechanism. *)

type status = Reproduced | Not_reproduced

val status_name : status -> string
(** ["reproduced"] / ["not_reproduced"]. *)

type ctrace_summary = {
  length_a : int;
  length_b : int;
  hash_a : int64;
  hash_b : int64;
  equal : bool;  (** equal contract traces: the violation's precondition *)
  first_divergence : (int * string * string) option;
      (** position and printed observations where the traces first differ
          (including one trace ending early, shown as ["<end>"]) *)
}

type mechanism_kind = Patched_flag | Config_knob

val mechanism_kind_name : mechanism_kind -> string

(** The responsible mechanism a bisection names: the single configuration
    flip under which the violation no longer reproduces. *)
type mechanism = {
  mech_name : string;  (** e.g. ["stt_patched_store_tlb"], ["nl_prefetcher=off"] *)
  mech_kind : mechanism_kind;
  mech_description : string;
  flips_tried : int;  (** candidates evaluated up to and including this one *)
}

(** The unified triage result for one violation — the single record (and
    JSON schema, [amulet.triage/1]) every analysis surface now shares. *)
type finding = {
  stored : Violation_io.stored;  (** the replayable artifact *)
  defense_name : string;
  contract_name : string;
  program_text : string;
  status : status;
      (** whether the microarchitectural traces still differ when both
          inputs re-run from one shared starting context *)
  signature : string;
      (** immutable divergence signature (the clustering key); computed
          here, never written back into {!Violation.t} *)
  leak_class : Analysis.leak_class option;  (** [None] when not reproduced *)
  ctrace : ctrace_summary;
  utrace_diff : string list;
  counters_a : Amulet_obs.Obs.Snapshot.t;
      (** [uarch.*] hardware-counter delta over execution A *)
  counters_b : Amulet_obs.Obs.Snapshot.t;
  counter_delta : Amulet_obs.Obs.Snapshot.t;
  mechanism : mechanism option;  (** filled by {!bisect} *)
  minimized : Minimize.result option;  (** filled by {!shrink} *)
}

(** {1 Stages} *)

val load : string list -> (string * Violation_io.stored) list
(** Gather the violation stream from a list of sources.  Each source may
    be a saved violation or PoC file, a campaign/shard journal, or a
    directory containing any mix of those ([.amulet] / [.json] entries —
    the layout [sweep --journal-dir] leaves behind).  Returns
    [(origin, stored)] pairs in deterministic (path-sorted, journal-order)
    order; quarantine files and unreadable entries are skipped.  Raises
    [Failure] if a named source does not exist. *)

val explain :
  ?l1d_ways:int ->
  ?mshrs:int ->
  ?sim_config:Amulet_uarch.Config.t ->
  Violation_io.stored ->
  finding
(** Rebuild the violation's executions: run input A fresh to obtain a
    starting context, re-run both inputs from that exact context with
    logging and live telemetry, collect both contract traces, classify,
    and compute the divergence signature.

    [sim_config], when given, fully overrides the defense's configuration
    (single-defense streams only).  [l1d_ways]/[mshrs] instead amplify
    {e each finding's own} defense config (§3.4) — the right knob for
    multi-preset streams from amplified campaigns. *)

val of_violation : ?sim_config:Amulet_uarch.Config.t -> Violation.t -> finding
(** As {!explain}, for an in-memory violation (its stored projection). *)

val bisect :
  ?l1d_ways:int ->
  ?mshrs:int ->
  ?sim_config:Amulet_uarch.Config.t ->
  finding ->
  finding
(** Name the responsible mechanism: revalidate the finding under
    single-flip variants of its defense configuration ([patched] bug flags
    first, then capacity/feature knobs) and record the first flip that
    kills the violation.  [mechanism] stays [None] when the finding does
    not reproduce under a fresh context or no flip is decisive. *)

val shrink :
  ?l1d_ways:int ->
  ?mshrs:int ->
  ?sim_config:Amulet_uarch.Config.t ->
  finding ->
  finding
(** Minimize the representative's program with {!Minimize} and record the
    result. *)

(** {1 Clusters and reports} *)

type cluster = {
  rank : int;  (** 1-based position in the ranked report *)
  cluster_signature : string;
  representative : finding;
      (** deterministically chosen member (smallest program text /
          identity), independent of source order *)
  members : string list;  (** origins of all members, sorted *)
  count : int;
}

type report = {
  clusters : cluster list;  (** ranked: largest first, ties by signature *)
  total : int;  (** findings consumed *)
  not_reproduced : int;  (** findings excluded because they did not replay *)
}

val singleton_report : origin:string -> finding -> report
(** The one-element report of a single finding (from [origin]): its own
    cluster when it reproduces, otherwise counted as not reproduced. *)

val cluster : (string * finding) list -> cluster list
(** Group reproduced findings by divergence signature and rank.  Stable
    under any permutation of the input list (shard order): ranking and representative choice depend only on content. *)

val run :
  ?l1d_ways:int ->
  ?mshrs:int ->
  ?sim_config:Amulet_uarch.Config.t ->
  ?bisect:bool ->
  ?shrink:bool ->
  ?progress:(string -> unit) ->
  (string * Violation_io.stored) list ->
  report
(** The whole pipeline over a loaded stream: explain every stored
    violation, cluster, then bisect (default [true]) and shrink (default
    [false]) each cluster representative.  [progress] receives one-line
    stage updates. *)

val report_to_json : report -> string
(** The [amulet.triage/1] document. *)

val finding_to_json : finding -> string
(** One finding in the same schema (the [finding] object of a report
    cluster; [amulet explain --json] emits a one-element report). *)

val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit

(** {1 Standalone proof-of-concept files}

    A PoC is a self-contained replayable artifact: the program, both
    inputs, the divergence signature, the bisected mechanism, and the
    expected contract-trace identity and microarchitectural diff.
    [amulet reproduce <file.poc.amulet>] replays it and checks the
    observed divergence against the recorded one. *)
module Poc : sig
  type t = {
    stored : Violation_io.stored;
    signature : string;
    leak_class : string option;
    mechanism : (string * mechanism_kind) option;
    cluster_size : int;
    expected_equal_ctrace : bool;
    expected_ctrace_hash : int64;
    expected_diff : string list;
  }

  val of_cluster : cluster -> t

  val to_string : t -> string
  (** The full file content.  [to_string] and {!parse} round-trip
      byte-identically: [to_string (parse (to_string p)) = to_string p]. *)

  val parse : string list -> t
  (** Parse the lines of a PoC file.  Raises {!Violation_io.Format_error}
      on malformed input. *)

  val load : string -> t

  val write : dir:string -> cluster -> string
  (** Write the cluster's PoC as [poc<rank>_<defense>.amulet] under [dir]
      (created if needed); returns the path. *)

  val replay :
    ?l1d_ways:int ->
    ?mshrs:int ->
    ?sim_config:Amulet_uarch.Config.t ->
    t ->
    [ `Match | `Diff_mismatch of string list | `Not_reproduced ]
  (** Re-execute the PoC the way {!explain} does and compare the observed
      microarchitectural diff to the recorded one. *)
end
