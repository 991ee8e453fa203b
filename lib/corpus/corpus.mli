(** Seed corpus + power-schedule scheduler for feedback-guided generation.

    Entries earn slots via novel coverage or violations, carry score
    (lineage energy) and age (rounds since novelty); the scheduler favours
    high-score young seeds and retires stale ones.  Fully deterministic:
    insertion-ordered, Rng-driven, no clocks, no hashtable iteration in
    decisions — same seed, same corpus, same fingerprint, regardless of
    engine or domain count. *)

open Amulet_isa

type params = {
  capacity : int;  (** max live entries; lowest-score evicted first *)
  max_age : int;  (** rounds without novelty before retirement *)
  mutate_fraction : float;
      (** probability a round mutates a seed vs. generating fresh *)
  energy : int;  (** max stacked mutation operators per mutant *)
  seed_programs : string list;
      (** initial seeds ({!Asm.parse_flat} or {!Asm.parse} syntax);
          lint-invalid seeds are counted in [rejected_seeds], not admitted *)
}

val default_params : params

type entry = {
  program : Program.flat;
  text : string;  (** canonical {!Asm.print_flat} form; the dedup key *)
  mutable score : int;
  mutable age : int;
  mutable trials : int;  (** times the scheduler picked this entry *)
}

type t

val create : ?params:params -> sandbox_bytes:int -> unit -> t
val params : t -> params
val coverage : t -> Coverage.t
val size : t -> int
val round : t -> int
val evictions : t -> int
val rejected_seeds : t -> int
val entries : t -> entry list
(** Insertion order, oldest first. *)

val top : t -> int -> entry list
(** Highest-score entries first (stable within equal scores). *)

type action = Fresh | Mutate of entry

val next : t -> Rng.t -> action
(** Schedule the next round: [Fresh] when the corpus is empty or the
    mutate-fraction coin says explore; otherwise a seed drawn with weight
    [(max 1 (1 + 2*score - age))²] — quadratic so high-score violation
    finders dominate the many novelty-only admissions.  Until the corpus
    holds a finder (score >= the violation bonus; planted seeds qualify),
    only a quarter of [mutate_fraction] is spent on mutation, keeping
    exploration fresh-draw-heavy while violations are still unseen. *)

val observe : t -> Coverage.feedback -> int
(** Record one run's feedback in the coverage map; returns the novel
    feature count. *)

val record :
  t ->
  ?parent:entry ->
  program:Program.flat ->
  novel:int ->
  violation:bool ->
  bonus:int ->
  unit ->
  unit
(** Account a tested program: admit on novelty or violation (score =
    novel + bonus + violation bonus), reward and rejuvenate the parent.
    [bonus] is mutation energy from the static [score] pre-analysis. *)

val tick : t -> unit
(** End-of-round: age all entries, retire those past [max_age]. *)

val to_string : t -> string
(** Text checkpoint (params, coverage map, entries); embedded in campaign
    journals and written by [fuzz --corpus-out]. *)

val of_string : string -> t
(** Inverse of {!to_string}; raises [Failure] on malformed input. *)

val pp : Format.formatter -> t -> unit
