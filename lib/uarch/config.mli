(** Simulator configuration: structure sizes, latencies and the secure
    speculation countermeasure under test.

    The record fields are exposed because defense presets, the bench harness
    and the CLI all build configurations by functional update
    ([{ default with ... }]). *)

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
  | Ghostminion

val defense_name : defense -> string

type t = {
  (* core *)
  fetch_width : int;
  issue_width : int;
  commit_width : int;
  rob_size : int;
  redirect_penalty : int;
  imul_latency : int;
  branch_latency : int;
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
  nl_prefetcher : bool;
  tlb_entries : int;
  (* predictors *)
  bp_history_bits : int;
  bp_table_bits : int;
  btb_bits : int;
  mdp_bits : int;
  cleanup_latency : int;
  drain_cycles : int;
  (* safety *)
  max_cycles : int;
  deadlock_cycles : int;
  defense : defense;
}

val default : t
val with_defense : defense -> t -> t

val amplified : ?l1d_ways:int -> ?mshrs:int -> t -> t
(** Amplification helper: shrink contended structures (paper §3.4). *)

val l1d_bytes : t -> int
val pp : Format.formatter -> t -> unit
