(** Crash-safe campaign journaling.

    A journal is a periodic checkpoint of campaign progress — seed, rounds
    completed, per-class fault counts, and every violation found so far in
    its {!Violation_io} stored form — written atomically (temp file then
    rename) so a kill at any instant leaves either the previous or the new
    checkpoint, never a torn file.  [amulet fuzz --resume <journal>]
    continues from the last checkpoint; because campaigns reseed the fuzzer
    per round from (seed, round index), the resumed run replays the exact
    remaining rounds and ends with the same totals as an uninterrupted
    run. *)

exception Format_error of string
(** The same exception as {!Violation_io.Format_error}: the [[campaign]]
    header and the embedded violations share its reader. *)

type t = {
  seed : int;
  n_programs : int;  (** target round count of the journaled campaign *)
  defense_name : string;
  contract_name : string;
  programs_run : int;  (** rounds completed at checkpoint time *)
  discarded : int;
  test_cases : int;
  fault_counts : (Fault.cls * int) list;
  detection_times : float list;
  corpus : string option;
      (** serialised guided-fuzzing corpus ({!Amulet_corpus.Corpus.to_string})
          captured at checkpoint time; [None] for random-generation
          campaigns.  Stored escaped on one [corpus=] line, so journals
          written by older builds (no key) and read by older builds
          (unknown keys ignored) stay compatible. *)
  violations : Violation_io.stored list;
}

val save : t -> string -> unit
(** Atomic, durable checkpoint: write [path].tmp in full, flush + fsync it,
    rename over [path], fsync the containing directory (best effort).  A
    kill or power cut at any instant leaves the previous or the new
    checkpoint, never a torn file. *)

val load : string -> t
(** Raises {!Format_error} on malformed input. *)

type recovery =
  | Resumed of t  (** the checkpoint loaded cleanly *)
  | Quarantined of { corrupt_path : string; error : string }
      (** the checkpoint was torn/corrupt; it was moved to [corrupt_path]
          for triage and the campaign should start from round 0 *)
  | Fresh  (** no checkpoint exists at that path *)

val recover : string -> recovery
(** Defensive load for resume paths ([fuzz --resume]): never raises on a damaged checkpoint — it
    quarantines the file aside ([path].corrupt) instead, so a crash that
    tore a journal costs at most that shard's progress, not the campaign. *)
