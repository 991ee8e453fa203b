(** Simulator facade: the unit the AMuLeT executor drives.

    Owns the persistent microarchitectural state (caches, TLB, predictors)
    plus the committed architectural state, and runs flattened programs
    through the out-of-order pipeline.  Creation is deliberately heavyweight
    (structure allocation plus a synthetic warm-boot workload), standing in
    for gem5's multi-second process startup; executors amortize it by
    reusing one simulator across inputs (paper §3.2, C3) or — the pooled
    engine — by restoring a post-boot checkpoint with {!restore} instead of
    re-running the boot workload.  Each configuration boots at most once
    per process: {!boot_checkpoint} keeps one shared checkpoint per
    configuration. *)

open Amulet_isa
open Amulet_emu

type t

type run_stats = {
  cycles : int;
  committed_insts : int;
  squashes : int;
  squashed_insts : int;  (** entries thrown away across all squashes *)
  spec_issued : int;  (** loads/stores issued while speculative *)
  mispredicts : int;
  fault : string option;
}
(** Per-run totals, derived from the pipeline's own deterministic counters
    (not the {!Amulet_obs} registry, which may be detached): the feedback
    signal coverage-guided generation keys on. *)

val default_boot_insts : int

val create :
  ?metrics:Amulet_obs.Obs.t -> ?boot_insts:int -> ?pages:int -> Config.t -> t
(** Create a simulator.  Raises [Invalid_argument] when a [pages]-page
    sandbox would reach {!prime_base} (more than 255 pages).
    [boot_insts > 0] runs the synthetic warm-boot workload, making creation
    cost realistic: the [Naive] engine pays it per rebuild, while pooled
    engines create with [~boot_insts:0] and {!restore} the configuration's
    {!boot_checkpoint}, so a process boots each configuration at most once.
    The boot program's pipeline and decoded code are dropped afterwards: a
    booted simulator holds no more than an unbooted one.  [metrics]
    (default noop) receives the [uarch.*] hardware counters; the boot
    workload is excluded from them so that engines booting different
    numbers of simulators still accumulate identical counts.  Counting is
    trace-invisible. *)

val boots : unit -> int
(** Boot workloads run in this process so far, across all domains: a
    deterministic count kept outside any {!Amulet_obs} registry. *)

val config : t -> Config.t
val log : t -> Event.log

val metrics : t -> Amulet_obs.Obs.t
(** The registry the simulator counts into ([Obs.noop] when none given). *)

val arch_state : t -> State.t

val load_state : t -> State.t -> unit
(** Overwrite registers and sandbox memory in place — the Opt-executor path
    that avoids restarting the simulator. *)

val run : t -> Program.flat -> run_stats
(** Run a test program to completion over the current architectural state. *)

val prime_base : int
(** Base address of the priming region: disjoint from the sandbox but
    mapping onto the same L1 sets. *)

val prime_with_fills : t -> run_stats
(** Fill every L1D set with out-of-sandbox lines, then reset the TLB and
    L1I.  Applies the fill program's cache effects directly
    ({!Memsys.prime_lines}): no simulated work, so the returned stats are
    all zero.  Under [Config.nl_prefetcher], whose install order depends on
    MSHR timing, it runs {!simulate_fill_program} instead. *)

val simulate_fill_program : t -> run_stats
(** Prime by running the fill program (one dependent load per L1D way)
    through the pipeline, which costs simulated cycles and instructions.
    Leaves the caches, TLB, L1I and predictors exactly as
    {!prime_with_fills} does: the reference it is tested against. *)

val prime_with_flush : t -> unit
(** Prime by direct invalidation (clean caches, no simulated work). *)

(** {2 Microarchitectural state extraction} *)

val l1d_tags : t -> int list
val l1i_tags : t -> int list
val tlb_pages : t -> int list
val bp_state : t -> int array
val cache_digest : t -> Digest.t
(** Digest of the L1D and L2 tags and replacement state. *)

val access_order : t -> (int * int) list
val clear_access_order : t -> unit
val branch_prediction_order : t -> (int * bool * int) list
val execution_order : t -> int list

(** {2 Predictor/cache context snapshots (violation validation, §3.2)} *)

type context

val snapshot_context : t -> context
val restore_context : t -> context -> unit

(** {2 Full checkpoints (boot once per configuration per process)} *)

type snapshot
(** A full post-boot checkpoint: microarchitectural context plus the
    committed architectural state.  Restoring is equivalent to a fresh
    [create] with the same configuration, minus the boot workload.  A
    snapshot is immutable: {!restore} copies out of it and never writes to
    it, so one snapshot is shared by every simulator, in any domain, that
    restores it. *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

val boot_checkpoint : ?boot_insts:int -> ?pages:int -> Config.t -> snapshot
(** The post-boot checkpoint of [create ~boot_insts ~pages cfg] (defaults
    as {!create}'s).  The first request for a (config, pages, boot length)
    key, compared structurally, boots a scratch simulator on a noop
    registry and snapshots it; every later request in the process returns
    that same snapshot.  Safe to call from several domains: concurrent
    requests for one key share one boot.  Entries are never evicted (one
    per distinct configuration, each a few KB plus the sandbox image). *)

(** {2 Reset hooks} *)

val reset_predictors : t -> unit
val flush_caches : t -> unit
val reset_tlb : t -> unit
val reset_l1i : t -> unit

val decodes : t -> int
(** Programs decoded into the shared {!Amulet_isa.Decoded} cache over this
    simulator's lifetime (boot and prime programs included): with the cache
    working, this stays proportional to the number of distinct programs,
    not the number of inputs. *)
