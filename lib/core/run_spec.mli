(** The unified run specification: one flat record describing a fuzzing
    run end to end — what to test ([defense], [contract]), how long
    ([rounds], [stop_after_violations], per-round [deadline_ms], whole-run
    [budget_ms]), how to generate work ([n_base_inputs], [boosts_per_input],
    [generation], [seed]) and how to execute it ([mode], [engine],
    [trace_format], [boot_insts], [sim_config]).

    {!Fuzzer.create} (which keeps the spec itself), [Campaign.run] and
    [Sweep] all consume a [Run_spec.t], and the CLI builds one per
    subcommand.  Build specs with
    {!make} and refine them by functional update
    ([{ spec with seed = ... }] — every field is exposed). *)

open Amulet_contracts
open Amulet_defenses

type static_filter = Off | Screen | Score
(** Static pre-filter policy (see [Amulet_static.Leakcheck]): [Off] runs
    every generated program; [Screen] skips programs classified statically
    leak-free (sound — they cannot produce violations, so no violation is
    lost); [Score] regenerates a few times per round preferring programs
    with speculative transmitter sites, without skipping any round. *)

val static_filter_name : static_filter -> string
val static_filter_of_name : string -> static_filter option

type generation =
  | Random of Amulet_corpus.Generator.config
  | Guided of { base : Amulet_corpus.Generator.config; corpus : Amulet_corpus.Corpus.params }
      (** [Random] is the classic blind-random front end; [Guided] layers
          the coverage-feedback corpus, power-schedule seed scheduler and
          mutation engine of [Amulet_corpus] on the same base generator. *)

val random : ?config:Amulet_corpus.Generator.config -> unit -> generation
val guided :
  ?base:Amulet_corpus.Generator.config -> ?corpus:Amulet_corpus.Corpus.params -> unit ->
  generation

val generation_name : generation -> string
(** ["random"] or ["guided"]. *)

val generation_base : generation -> Amulet_corpus.Generator.config
val generation_corpus : generation -> Amulet_corpus.Corpus.params option

val map_generation_base :
  (Amulet_corpus.Generator.config -> Amulet_corpus.Generator.config) -> generation -> generation
(** Update the base generator config inside either strategy. *)

type t = {
  (* what to test *)
  defense : Defense.t;
  contract : Contract.t option;  (** override the defense's default *)
  (* how long *)
  rounds : int;  (** test programs per run (campaign rounds) *)
  seed : int;
  stop_after_violations : int option;
  classify : bool;  (** run root-cause signature classification *)
  deadline_ms : float option;  (** wall-clock budget per fuzzing round *)
  budget_ms : float option;
      (** wall-clock budget for the whole run; exhausting it stops the
          campaign at a round boundary with a clean journal checkpoint *)
  (* input population *)
  n_base_inputs : int;
  boosts_per_input : int;
  generation : generation;  (** how each round's test program is produced *)
  (* execution *)
  mode : Executor.mode;
  engine : Engine.kind;  (** how pristine state is reached (trace-invisible) *)
  trace_format : Utrace.format;
  boot_insts : int;
  sim_config : Amulet_uarch.Config.t option;  (** amplification override *)
  (* supervision *)
  quarantine_dir : string option;
  chaos : Fault.injector option;  (** fault injection (self-tests) *)
  isolate_rounds : bool;
  static_filter : static_filter;  (** static leakage pre-filter policy *)
}

val make :
  defense:Defense.t ->
  ?engine:Engine.kind ->
  ?seed:int ->
  ?rounds:int ->
  ?deadline_ms:float ->
  ?budget_ms:float ->
  ?inputs:int ->
  ?boosts:int ->
  ?contract:Contract.t ->
  ?stop_after:int ->
  ?classify:bool ->
  ?generation:generation ->
  ?mode:Executor.mode ->
  ?trace_format:Utrace.format ->
  ?boot_insts:int ->
  ?sim_config:Amulet_uarch.Config.t ->
  ?quarantine_dir:string ->
  ?chaos:Fault.injector ->
  ?isolate_rounds:bool ->
  ?static_filter:static_filter ->
  unit ->
  t
(** Builder with the defaults the stack has always used: 20 rounds, seed 42,
    10 base inputs x 4 boosts, [Opt] executor mode on the [Pooled] engine,
    L1D+TLB traces, the defense's own contract, classification on,
    [Random] generation with the default generator config. *)

val with_seed : t -> int -> t
val with_defense : t -> Defense.t -> t

val generator_config : t -> Amulet_corpus.Generator.config
(** Base generator config of the strategy. *)

val corpus_params : t -> Amulet_corpus.Corpus.params option
(** [Some] iff the spec is [Guided]. *)

val contract_name : t -> string
(** The contract this spec tests — knowable without running anything. *)

val pp : Format.formatter -> t -> unit
(** One-line summary (defense, contract, rounds, seed, engine, mode). *)
