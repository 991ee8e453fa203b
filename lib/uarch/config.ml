(** Simulator configuration: structure sizes, latencies and the secure
    speculation countermeasure under test.

    Leakage amplification (paper §3.4) works by shrinking structures —
    [l1d_ways], [mshrs] — to raise contention; the Table 6 bench sweeps
    these knobs. *)

(** Per-defense configuration.  Each [patched_*] flag removes one of the
    implementation bugs that the paper's campaigns discovered in the
    artifact; the unpatched default reproduces the released implementation. *)

type invisispec_cfg = {
  iv_patched_eviction : bool;
      (** UV1 fix: speculative loads no longer trigger L1 replacements *)
}

type cleanupspec_cfg = {
  cs_patched_store_cleanup : bool;
      (** UV3 fix: record cleanup metadata for speculative stores *)
  cs_patched_split_cleanup : bool;
      (** UV4 fix: track both halves of line-crossing requests *)
}

type stt_cfg = {
  stt_patched_store_tlb : bool;
      (** KV3 fix: block TLB fills by tainted-address stores *)
}

type speclfb_cfg = {
  lfb_patched_first_load : bool;
      (** UV6 fix: do not clear [isReallyUnsafe] for the first speculative
          load in the load-store queue *)
}

type defense =
  | Baseline
  | Invisispec of invisispec_cfg
  | Cleanupspec of cleanupspec_cfg
  | Stt of stt_cfg
  | Speclfb of speclfb_cfg
  | Delay_on_miss
      (** selective delay: speculative loads that miss the L1 wait until
          they are safe (Sakalis et al.); hits proceed *)
  | Ghostminion
      (** strictness-ordered speculative buffer: like InvisiSpec, but
          speculative fills use dedicated MSHRs and a dedicated controller
          queue so younger speculative work can never delay older accesses
          (Ainsworth's fix for the speculative-interference attacks) *)

let defense_name = function
  | Baseline -> "baseline"
  | Invisispec _ -> "invisispec"
  | Cleanupspec _ -> "cleanupspec"
  | Stt _ -> "stt"
  | Speclfb _ -> "speclfb"
  | Delay_on_miss -> "delay-on-miss"
  | Ghostminion -> "ghostminion"

type t = {
  (* core *)
  fetch_width : int;
  issue_width : int;
  commit_width : int;
  rob_size : int;
  redirect_penalty : int;  (** cycles between mispredict resolution and refetch *)
  imul_latency : int;
  branch_latency : int;
      (** execute-stage latency of conditional branches; sets the size of the
          speculation window in which transient loads can issue *)
  (* memory system *)
  line_bytes : int;
  l1d_sets : int;
  l1d_ways : int;
  l1i_sets : int;
  l1i_ways : int;
  l2_sets : int;
  l2_ways : int;
  mshrs : int;
  l1_latency : int;
  l2_latency : int;
  mem_latency : int;
  queue_bandwidth : int;
      (** L1D controller queue items processed per cycle; the queue is
          in-order, so a blocked head stalls everything behind it *)
  nl_prefetcher : bool;
      (** next-line L1D prefetcher, trained by every load (including
          speculative ones) — the "new microarchitectural feature" study of
          the paper's §5.2: prefetches install unconditionally, so they can
          launder transient access patterns past an otherwise secure
          defense *)
  tlb_entries : int;
  (* predictors *)
  bp_history_bits : int;
  bp_table_bits : int;  (** log2 of PHT entries *)
  btb_bits : int;  (** log2 of BTB entries *)
  mdp_bits : int;  (** log2 of memory-dependence predictor entries *)
  (* CleanupSpec: cycles the cache controller is busy per cleanup (the
     unXpec timing channel, KV2) *)
  cleanup_latency : int;
  drain_cycles : int;
      (** memory-system cycles simulated after the test's Exit commits:
          long enough for ordinary expose/fill handshakes to land, shorter
          than a memory fetch, so MSHR-starved requests (the UV2 observable)
          still miss the final-state snapshot *)
  (* safety *)
  max_cycles : int;
  deadlock_cycles : int;
  defense : defense;
}

let default =
  {
    fetch_width = 4;
    issue_width = 4;
    commit_width = 4;
    rob_size = 64;
    redirect_penalty = 2;
    imul_latency = 3;
    branch_latency = 4;
    line_bytes = 64;
    l1d_sets = 64;
    l1d_ways = 8;
    l1i_sets = 64;
    l1i_ways = 8;
    l2_sets = 512;
    l2_ways = 16;
    mshrs = 256;
    l1_latency = 2;
    l2_latency = 12;
    mem_latency = 60;
    queue_bandwidth = 16;
    nl_prefetcher = false;
    tlb_entries = 64;
    bp_history_bits = 10;
    bp_table_bits = 10;
    btb_bits = 8;
    mdp_bits = 8;
    cleanup_latency = 8;
    drain_cycles = 20;
    max_cycles = 200_000;
    deadlock_cycles = 10_000;
    defense = Baseline;
  }

let with_defense defense t = { t with defense }

(** Amplification helper: shrink contended structures (paper §3.4). *)
let amplified ?(l1d_ways = default.l1d_ways) ?(mshrs = default.mshrs) t =
  { t with l1d_ways; mshrs }

let l1d_bytes t = t.l1d_sets * t.l1d_ways * t.line_bytes

let pp fmt t =
  Format.fprintf fmt
    "%s: L1D %d sets x %d ways, %d MSHRs, ROB %d, TLB %d entries"
    (defense_name t.defense) t.l1d_sets t.l1d_ways t.mshrs t.rob_size
    t.tlb_entries
