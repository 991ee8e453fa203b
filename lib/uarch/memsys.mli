(** The simulated memory system: L1I / L1D / L2 tag hierarchy, MSHRs, an
    in-order L1D controller queue, the D-TLB, and the defense-specific
    structures (InvisiSpec's speculative buffer, SpecLFB's line-fill buffer,
    CleanupSpec's undo metadata and cleanup engine). *)

open Amulet_isa

type t

type req_kind = Demand_load | Spec_load | Store_install | Expose | Prime | Prefetch

val create : ?metrics:Amulet_obs.Obs.t -> Config.t -> Event.log -> t
(** [metrics] (default noop) receives the cache/TLB counters plus
    [uarch.mshr.allocs] and [uarch.mshr.full_stalls]. *)

val line_of : t -> int -> int
(** Line-aligned address containing the given byte address. *)

val lines_of_access : t -> addr:int -> width:Width.t -> int list
(** Lines touched by an access (two when it crosses a line boundary). *)

val request_access :
  t ->
  now:int ->
  rob_id:int ->
  pc:int ->
  addr:int ->
  width:Width.t ->
  kind:req_kind ->
  spec:bool ->
  int
(** Submit the cache request(s) for a data access; returns the number of
    line requests issued (responses to wait for). *)

val request_expose : t -> now:int -> rob_id:int -> line:int -> unit
(** Submit an expose / LFB-promote request for one line. *)

val cancel : t -> now:int -> rob_id:int -> unit
(** Cancel the in-flight work of a squashed instruction. *)

val tick : t -> now:int -> unit
(** Advance to cycle [now]: complete ready MSHRs, drain the controller
    queues up to the configured bandwidth (with head-of-line blocking). *)

val take_responses : t -> now:int -> (int * int) list
(** Responses due at or before [now]: list of (rob_id, line). *)

val tlb_access : t -> now:int -> addr:int -> tainted:bool -> by_store:bool -> unit

val l1d_has_line : t -> int -> bool
(** Presence probe without replacement-state update (Delay-on-Miss's
    hit/miss decision). *)

val fetch_touch : t -> now:int -> pc:int -> unit

val release_spec_entries : t -> rob_id:int -> unit
(** Drop the speculative-buffer / LFB entries of an instruction whose expose
    has been issued. *)

val l1d_tags : t -> int list
val l1i_tags : t -> int list
val tlb_pages : t -> int list

val access_order : t -> (int * int) list
(** (pc, addr) of data accesses, oldest first. *)

val clear_access_order : t -> unit

val reset_transient : t -> unit
(** Drain bookkeeping between test cases without touching cache contents. *)

val flush_caches : t -> unit
(** Invalidate L1D/L1I/L2 and the TLB (clean-cache initialization, §3.5). *)

val reset_tlb : t -> unit
val reset_l1i : t -> unit

val prime_lines : t -> int array -> unit
(** Apply, without simulating them, the L1D/L2 effects of a chain of
    dependent non-speculative loads to the given lines in order: per line an
    L1D lookup, then on a miss an L2 lookup and the L1D and L2 installs.
    Exact only when the chain would issue one load at a time with no
    prefetcher.  Counts cache hits, misses and evictions, but records no
    MSHR allocations or debug events. *)

val cache_digest : t -> Digest.t
(** Digest of the L1D and L2 tags, LRU stamps and LRU clocks. *)

val inflight : t -> int
(** In-flight + queued requests (drain detection). *)

type snapshot
(** Persistent memory-system state: cache tag arrays and the TLB.  Transient
    state (queues, MSHRs, responses, buffers) is not captured — restore it
    with {!reset_transient}. *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
