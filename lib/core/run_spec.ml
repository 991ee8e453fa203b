open Amulet_contracts
open Amulet_defenses
module Generator = Amulet_corpus.Generator

(** Static pre-filter policy (see [Amulet_static.Leakcheck]): [Off] runs
    every generated program; [Screen] skips programs classified statically
    leak-free (sound: they cannot produce violations); [Score] regenerates a
    few times per round preferring programs with transmitter sites, without
    skipping any round. *)
type static_filter = Off | Screen | Score

let static_filter_name = function
  | Off -> "off"
  | Screen -> "screen"
  | Score -> "score"

let static_filter_of_name = function
  | "off" -> Some Off
  | "screen" -> Some Screen
  | "score" -> Some Score
  | _ -> None

(** The generation strategy: how each round's test program is produced.
    [Random] is the classic blind-random Revizor front end; [Guided] layers
    the coverage-feedback corpus, seed scheduler and mutation engine of
    [Amulet_corpus] on top of the same base generator. *)
type generation =
  | Random of Generator.config
  | Guided of { base : Generator.config; corpus : Amulet_corpus.Corpus.params }

let random ?(config = Generator.default) () = Random config

let guided ?(base = Generator.default)
    ?(corpus = Amulet_corpus.Corpus.default_params) () =
  Guided { base; corpus }

let generation_name = function Random _ -> "random" | Guided _ -> "guided"

let generation_base = function Random g -> g | Guided { base; _ } -> base

let generation_corpus = function
  | Random _ -> None
  | Guided { corpus; _ } -> Some corpus

let map_generation_base f = function
  | Random g -> Random (f g)
  | Guided g -> Guided { g with base = f g.base }

type t = {
  defense : Defense.t;
  contract : Contract.t option;
  rounds : int;
  seed : int;
  stop_after_violations : int option;
  classify : bool;
  deadline_ms : float option;
  budget_ms : float option;
  n_base_inputs : int;
  boosts_per_input : int;
  generation : generation;
  mode : Executor.mode;
  engine : Engine.kind;
  trace_format : Utrace.format;
  boot_insts : int;
  sim_config : Amulet_uarch.Config.t option;
  quarantine_dir : string option;
  chaos : Fault.injector option;
  isolate_rounds : bool;
  static_filter : static_filter;
}

let make ~defense ?(engine = Engine.Pooled) ?(seed = 42) ?(rounds = 20)
    ?deadline_ms ?budget_ms ?(inputs = 10) ?(boosts = 4) ?contract ?stop_after
    ?(classify = true) ?(generation = Random Generator.default)
    ?(mode = Executor.Opt) ?(trace_format = Utrace.L1d_tlb)
    ?(boot_insts = Amulet_uarch.Simulator.default_boot_insts) ?sim_config
    ?quarantine_dir ?chaos ?(isolate_rounds = true) ?(static_filter = Off) () =
  {
    defense;
    contract;
    rounds;
    seed;
    stop_after_violations = stop_after;
    classify;
    deadline_ms;
    budget_ms;
    n_base_inputs = inputs;
    boosts_per_input = boosts;
    generation;
    mode;
    engine;
    trace_format;
    boot_insts;
    sim_config;
    quarantine_dir;
    chaos;
    isolate_rounds;
    static_filter;
  }

let with_seed t seed = { t with seed }
let with_defense t defense = { t with defense }

let generator_config t = generation_base t.generation

let corpus_params t = generation_corpus t.generation

let contract_name t =
  match t.contract with
  | Some c -> c.Contract.name
  | None -> t.defense.Defense.contract.Contract.name

let pp ppf t =
  Format.fprintf ppf "%s vs %s: %d rounds, seed %d, %s engine, %s mode, %s gen"
    t.defense.Defense.name (contract_name t) t.rounds t.seed
    (Engine.kind_name t.engine) (Executor.mode_name t.mode)
    (generation_name t.generation)
