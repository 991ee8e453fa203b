(** The simulated memory system: L1I / L1D / L2 tag hierarchy, MSHRs, an
    in-order L1D controller queue, the D-TLB, and the defense-specific
    structures (InvisiSpec's speculative buffer, SpecLFB's line-fill buffer,
    CleanupSpec's undo metadata and cleanup engine).

    Only tags and timing are modeled; data lives in the architectural memory
    image (see {!Cache}).  The in-order controller queue is load-bearing for
    the UV2 speculative-interference leak: a request at the head that cannot
    obtain an MSHR blocks everything behind it. *)

open Amulet_isa

type req_kind = Demand_load | Spec_load | Store_install | Expose | Prime | Prefetch

let kind_to_event = function
  | Demand_load -> Event.Demand_load
  | Spec_load -> Event.Spec_load
  | Store_install -> Event.Store
  | Expose -> Event.Expose
  | Prime -> Event.Prime
  | Prefetch -> Event.Prefetch

type request = {
  rob_id : int;  (** -1 for background traffic *)
  pc : int;
  kind : req_kind;
  line : int;
  spec : bool;  (** issued under speculation *)
  split_second : bool;  (** second half of a line-crossing access *)
  mutable cancelled : bool;
}

type queue_item = Req of request | Cleanup_op of { line : int; restore : int option }

type mshr = {
  m_line : int;
  m_ready_at : int;
  mutable m_waiters : request list;
}

(* CleanupSpec undo metadata for one cache request. *)
type cleanup_meta = {
  mc_line : int;
  mc_cleanable : bool;
  mc_reason : string;  (** why not cleanable, for the debug log *)
  mutable mc_installed : bool;
  mutable mc_victim : int option;
  mutable mc_squashed : bool;
}

type t = {
  cfg : Config.t;
  log : Event.log;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  tlb : Tlb.t;
  queue : queue_item Queue.t;
  ghost_queue : queue_item Queue.t;
      (** GhostMinion: speculative requests travel on their own queue so
          their head-of-line blocking cannot delay older accesses *)
  mutable busy_until : int;  (** cleanup engine occupancy *)
  mutable mshrs : mshr list;
  mutable ghost_mshrs : mshr list;
      (** GhostMinion: dedicated MSHRs for speculative fills *)
  mutable next_mshr_ready : int;
      (** min [m_ready_at] over both MSHR pools ([max_int] when empty), so
          an idle tick is a single comparison instead of two list walks *)
  mutable responses : (int * int * int) list;  (** (due, rob_id, line) *)
  mutable next_resp_due : int;  (** min due cycle ([max_int] when empty) *)
  mutable spec_buffer : (int * int * bool ref) list;  (** (rob, line, ready) *)
  mutable lfb : (int * int * bool ref) list;
  cleanup_meta : (int, cleanup_meta list ref) Hashtbl.t;  (** by rob id *)
  mutable access_order : (int * int) list;  (** (pc, addr), newest first *)
  mutable last_stalled_line : int;  (** event-dedup for MSHR stalls *)
  m_mshr_allocs : Amulet_obs.Obs.counter;
  m_mshr_full_stalls : Amulet_obs.Obs.counter;
}

let create ?(metrics = Amulet_obs.Obs.noop) (cfg : Config.t) (log : Event.log)
    =
  {
    cfg;
    log;
    l1d =
      Cache.create ~metrics ~name:"L1D" ~sets:cfg.l1d_sets ~ways:cfg.l1d_ways
        ~line_bytes:cfg.line_bytes ();
    l1i =
      Cache.create ~metrics ~name:"L1I" ~sets:cfg.l1i_sets ~ways:cfg.l1i_ways
        ~line_bytes:cfg.line_bytes ();
    l2 =
      Cache.create ~metrics ~name:"L2" ~sets:cfg.l2_sets ~ways:cfg.l2_ways
        ~line_bytes:cfg.line_bytes ();
    tlb = Tlb.create ~metrics ~entries:cfg.tlb_entries ();
    queue = Queue.create ();
    ghost_queue = Queue.create ();
    busy_until = 0;
    mshrs = [];
    ghost_mshrs = [];
    next_mshr_ready = max_int;
    responses = [];
    next_resp_due = max_int;
    spec_buffer = [];
    lfb = [];
    cleanup_meta = Hashtbl.create 64;
    access_order = [];
    last_stalled_line = -1;
    m_mshr_allocs = Amulet_obs.Obs.counter metrics "uarch.mshr.allocs";
    m_mshr_full_stalls =
      Amulet_obs.Obs.counter metrics "uarch.mshr.full_stalls";
  }

let line_of t addr = Cache.line_of t.l1d addr

(** Lines touched by an access of [width] bytes at [addr] (two when the
    access crosses a line boundary). *)
let lines_of_access t ~addr ~width =
  let first = line_of t addr in
  let last = line_of t (addr + Width.bytes width - 1) in
  if first = last then [ first ] else [ first; last ]

(* ------------------------------------------------------------------ *)
(* Request submission                                                  *)
(* ------------------------------------------------------------------ *)

let record_access t ~pc ~addr = t.access_order <- (pc, addr) :: t.access_order

let enqueue t req =
  match t.cfg.defense, req.kind with
  | Config.Ghostminion, Spec_load -> Queue.add (Req req) t.ghost_queue
  | _ -> Queue.add (Req req) t.queue

(** Submit the cache request(s) for a data access.  Returns the number of
    line requests issued (responses to wait for). *)
let request_access t ~now ~rob_id ~pc ~addr ~width ~kind ~spec =
  let first = line_of t addr in
  let last = line_of t (addr + Width.bytes width - 1) in
  (match kind with
  | Demand_load | Spec_load | Store_install -> record_access t ~pc ~addr
  | Expose | Prime | Prefetch -> ());
  let submit line split_second =
    if t.log.Event.enabled then
      Event.record t.log
        (Event.Mem_access
           { cycle = now; pc; kind = kind_to_event kind; addr; line; spec });
    enqueue t { rob_id; pc; kind; line; spec; split_second; cancelled = false }
  in
  if first = last then begin
    (* the common case: no intermediate line list *)
    submit first false;
    1
  end
  else begin
    if t.log.Event.enabled then
      Event.record t.log
        (Event.Split_access { cycle = now; pc; line1 = first; line2 = last });
    submit first false;
    submit last true;
    2
  end

(** Submit an expose / LFB-promote request for one line. *)
let request_expose t ~now ~rob_id ~line =
  if t.log.Event.enabled then
    Event.record t.log (Event.Expose_issued { cycle = now; line });
  enqueue t
    { rob_id; pc = 0; kind = Expose; line; spec = false; split_second = false; cancelled = false }

(* ------------------------------------------------------------------ *)
(* CleanupSpec metadata                                                *)
(* ------------------------------------------------------------------ *)

let cleanupspec_cfg t =
  match t.cfg.defense with Config.Cleanupspec c -> Some c | _ -> None

let add_meta t rob_id meta =
  let cell =
    match Hashtbl.find_opt t.cleanup_meta rob_id with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.add t.cleanup_meta rob_id c;
        c
  in
  cell := meta :: !cell

(* Record undo metadata when a speculative CleanupSpec request misses.  The
   UV3 and UV4 implementation bugs are reproduced here: speculative stores
   and the second halves of split requests get non-cleanable metadata unless
   the corresponding patch flag is set. *)
let record_cleanup_meta t (req : request) =
  match cleanupspec_cfg t with
  | None -> ()
  | Some _ when not req.spec -> ()
  | Some cs ->
      let cleanable, reason =
        if req.split_second && not cs.cs_patched_split_cleanup then
          false, "split request not tracked"
        else
          match req.kind with
          | Store_install when not cs.cs_patched_store_cleanup ->
              false, "writeCallback missing metadata"
          | Demand_load | Spec_load | Store_install -> true, ""
          | Expose | Prime | Prefetch -> false, "background"
      in
      add_meta t req.rob_id
        {
          mc_line = req.line;
          mc_cleanable = cleanable;
          mc_reason = reason;
          mc_installed = false;
          mc_victim = None;
          mc_squashed = false;
        }

let enqueue_cleanup t ~line ~restore =
  Queue.add (Cleanup_op { line; restore }) t.queue

(** Squash notification for CleanupSpec: schedule cleanups for installed
    speculative state of [rob_id]; flag the unclean leftovers (UV3/UV4). *)
let squash_cleanup t ~now ~rob_id =
  match Hashtbl.find_opt t.cleanup_meta rob_id with
  | None -> ()
  | Some cell ->
      List.iter
        (fun m ->
          if not m.mc_cleanable then begin
            if t.log.Event.enabled then
              Event.record t.log
                (Event.Cleanup_missing
                   { cycle = now; line = m.mc_line; reason = m.mc_reason })
          end
          else if m.mc_installed then
            enqueue_cleanup t ~line:m.mc_line ~restore:m.mc_victim
          else m.mc_squashed <- true)
        !cell;
      (* keep entries with pending fills (they self-clean at fill time) *)
      cell := List.filter (fun m -> m.mc_cleanable && not m.mc_installed) !cell

(* ------------------------------------------------------------------ *)
(* Squash cancellation                                                 *)
(* ------------------------------------------------------------------ *)

(** Cancel the in-flight work of a squashed instruction.  Requests already
    holding an MSHR continue (and, for baseline-style kinds, still install —
    this is precisely the Spectre leak); queued requests are dropped;
    speculative-buffer and LFB entries are discarded. *)
let cancel t ~now ~rob_id =
  List.iter
    (fun q ->
      Queue.iter
        (function
          | Req r when r.rob_id = rob_id -> r.cancelled <- true
          | Req _ | Cleanup_op _ -> ())
        q)
    [ t.queue; t.ghost_queue ];
  let cancel_waiters m =
    List.iter (fun r -> if r.rob_id = rob_id then r.cancelled <- true) m.m_waiters
  in
  List.iter cancel_waiters t.mshrs;
  List.iter cancel_waiters t.ghost_mshrs;
  t.spec_buffer <- List.filter (fun (rob, _, _) -> rob <> rob_id) t.spec_buffer;
  t.lfb <- List.filter (fun (rob, _, _) -> rob <> rob_id) t.lfb;
  squash_cleanup t ~now ~rob_id

(* ------------------------------------------------------------------ *)
(* Fills and the controller queue                                      *)
(* ------------------------------------------------------------------ *)

let install_l1d t ~now line =
  (match Cache.install t.l1d line with
  | None -> ()
  | Some victim ->
      if t.log.Event.enabled then
        Event.record t.log
          (Event.Cache_evict { cycle = now; cache = "L1D"; line = victim }));
  if t.log.Event.enabled then
    Event.record t.log (Event.Cache_install { cycle = now; cache = "L1D"; line })

(* Complete one MSHR: install (per waiter kinds) and schedule responses. *)
let complete_mshr t ~now (m : mshr) =
  let installing_kind = function
    | Demand_load | Store_install | Prime | Expose | Prefetch -> true
    | Spec_load -> false
  in
  let victim_before = Cache.victim_of t.l1d m.m_line in
  let installs = List.exists (fun r -> installing_kind r.kind) m.m_waiters in
  if installs then begin
    let was_present = Cache.probe t.l1d m.m_line in
    install_l1d t ~now m.m_line;
    ignore (Cache.install t.l2 m.m_line);
    (* update CleanupSpec metadata of every waiter on this line *)
    List.iter
      (fun r ->
        match Hashtbl.find_opt t.cleanup_meta r.rob_id with
        | None -> ()
        | Some cell ->
            List.iter
              (fun meta ->
                if meta.mc_line = m.m_line && not meta.mc_installed then begin
                  meta.mc_installed <- true;
                  meta.mc_victim <- (if was_present then None else victim_before);
                  (* squashed while the fill was in flight: undo immediately *)
                  if meta.mc_squashed then
                    enqueue_cleanup t ~line:meta.mc_line ~restore:meta.mc_victim
                end)
              !cell)
      m.m_waiters
  end;
  (* speculative-only fills deliver data to the spec buffer / LFB without
     touching L1 or L2: InvisiSpec's loads are invisible to the whole cache
     hierarchy, and SpecLFB holds unsafe lines outside the caches *)
  List.iter
    (fun (r : request) ->
      (match r.kind with
      | Spec_load -> (
          match t.cfg.defense with
          | Config.Invisispec _ | Config.Ghostminion ->
              List.iter
                (fun (rob, line, ready) ->
                  if rob = r.rob_id && line = m.m_line && not !ready then begin
                    ready := true;
                    if t.log.Event.enabled then
                      Event.record t.log (Event.Spec_buffer_fill { cycle = now; line })
                  end)
                t.spec_buffer
          | Config.Speclfb _ ->
              List.iter
                (fun (rob, line, ready) ->
                  if rob = r.rob_id && line = m.m_line then ready := true)
                t.lfb
          | Config.Baseline | Config.Cleanupspec _ | Config.Stt _
          | Config.Delay_on_miss ->
              ())
      | Demand_load | Store_install | Expose | Prime | Prefetch -> ());
      if not r.cancelled && r.rob_id >= 0 then begin
        t.responses <- (now, r.rob_id, m.m_line) :: t.responses;
        if now < t.next_resp_due then t.next_resp_due <- now
      end)
    m.m_waiters

let respond_at t ~due ~rob_id ~line =
  if rob_id >= 0 then begin
    t.responses <- (due, rob_id, line) :: t.responses;
    if due < t.next_resp_due then t.next_resp_due <- due
  end

(* InvisiSpec spec-buffer lookup: a ready entry for this line (any owner). *)
let spec_buffer_hit t line =
  List.exists (fun (_, l, ready) -> l = line && !ready) t.spec_buffer

let lfb_hit t line = List.exists (fun (_, l, ready) -> l = line && !ready) t.lfb

(* GhostMinion gives speculative fills their own MSHR pool. *)
let uses_ghost_pool t (req : request) =
  t.cfg.defense = Config.Ghostminion && req.kind = Spec_load

let mshr_for t (req : request) =
  let pool = if uses_ghost_pool t req then t.ghost_mshrs else t.mshrs in
  List.find_opt (fun m -> m.m_line = req.line) pool

let free_mshr_available t (req : request) =
  if uses_ghost_pool t req then List.length t.ghost_mshrs < t.cfg.mshrs
  else List.length t.mshrs < t.cfg.mshrs

(* Allocate an MSHR for [req]; L2 probe determines the fill latency.
   Exposes carry their data from the speculative buffer, so they complete in
   an L1-L2 handshake rather than a memory fetch — but they still occupy an
   MSHR, which is what the UV2 interference leak contends on. *)
let allocate_mshr t ~now (req : request) =
  let l2_hit = Cache.touch t.l2 req.line in
  let latency =
    if req.kind = Expose then t.cfg.l2_latency
    else if l2_hit then t.cfg.l2_latency
    else t.cfg.mem_latency
  in
  let m = { m_line = req.line; m_ready_at = now + latency; m_waiters = [ req ] } in
  if uses_ghost_pool t req then t.ghost_mshrs <- m :: t.ghost_mshrs
  else t.mshrs <- m :: t.mshrs;
  if m.m_ready_at < t.next_mshr_ready then t.next_mshr_ready <- m.m_ready_at;
  Amulet_obs.Obs.incr t.m_mshr_allocs;
  if t.log.Event.enabled then
    Event.record t.log (Event.Mshr_alloc { cycle = now; line = req.line })

(* Process one queue head item.  Returns [`Done] if it was consumed,
   [`Blocked] if the queue must stall (head-of-line blocking). *)
let process_head t ~now (item : queue_item) =
  match item with
  | Cleanup_op { line; restore } ->
      t.busy_until <- now + t.cfg.cleanup_latency;
      ignore (Cache.invalidate t.l1d line);
      if t.log.Event.enabled then
        Event.record t.log (Event.Cleanup { cycle = now; line; restored = restore });
      (match restore with
      | None -> ()
      | Some victim -> ignore (Cache.install t.l1d victim));
      `Done
  | Req r when r.cancelled -> `Done
  | Req r -> (
      (* next-line prefetcher (extension study): every load, speculative or
         not, trains a prefetch of the following line; prefetches install
         unconditionally, outside any defense's protection *)
      (match r.kind with
      | (Demand_load | Spec_load) when t.cfg.Config.nl_prefetcher ->
          let next = r.line + t.cfg.Config.line_bytes in
          if not (Cache.probe t.l1d next) then begin
            Event.record t.log
              (Event.Mem_access
                 {
                   cycle = now;
                   pc = r.pc;
                   kind = Event.Prefetch;
                   addr = next;
                   line = next;
                   spec = r.spec;
                 });
            Queue.add
              (Req
                 {
                   rob_id = -1;
                   pc = r.pc;
                   kind = Prefetch;
                   line = next;
                   spec = r.spec;
                   split_second = false;
                   cancelled = false;
                 })
              t.queue
          end
      | _ -> ());
      let l1_hit =
        match r.kind with
        | Spec_load -> (
            (* InvisiSpec/GhostMinion: hits are invisible (no LRU update);
               SpecLFB and others update replacement state on hits *)
            match t.cfg.defense with
            | Config.Invisispec _ | Config.Ghostminion -> Cache.probe t.l1d r.line
            | _ -> Cache.touch t.l1d r.line)
        | Demand_load | Store_install | Expose | Prime | Prefetch ->
            Cache.touch t.l1d r.line
      in
      if l1_hit then begin
        respond_at t ~due:(now + t.cfg.l1_latency) ~rob_id:r.rob_id ~line:r.line;
        `Done
      end
      else if r.kind = Spec_load && spec_buffer_hit t r.line then begin
        respond_at t ~due:(now + t.cfg.l1_latency) ~rob_id:r.rob_id ~line:r.line;
        `Done
      end
      else if r.kind = Spec_load && lfb_hit t r.line then begin
        respond_at t ~due:(now + t.cfg.l1_latency) ~rob_id:r.rob_id ~line:r.line;
        `Done
      end
      else begin
        (* L1 miss path. UV1: the unpatched InvisiSpec implementation
           triggers an L1 replacement for speculative misses on full sets. *)
        (match t.cfg.defense, r.kind with
        | Config.Invisispec { iv_patched_eviction = false }, Spec_load ->
            if not (Cache.has_free_way t.l1d r.line) then (
              match Cache.force_replacement t.l1d r.line with
              | Some victim ->
                  if t.log.Event.enabled then
                    Event.record t.log
                      (Event.Spec_eviction { cycle = now; line = r.line; victim })
              | None -> ())
        | _ -> ());
        match mshr_for t r with
        | Some m ->
            m.m_waiters <- r :: m.m_waiters;
            record_cleanup_meta t r;
            `Done
        | None ->
            if free_mshr_available t r then begin
              (* SpecLFB: a speculative miss allocates a line-fill-buffer
                 entry instead of installing into L1 *)
              (match t.cfg.defense, r.kind with
              | Config.Speclfb _, Spec_load ->
                  t.lfb <- (r.rob_id, r.line, ref false) :: t.lfb
              | (Config.Invisispec _ | Config.Ghostminion), Spec_load ->
                  t.spec_buffer <- (r.rob_id, r.line, ref false) :: t.spec_buffer
              | _ -> ());
              record_cleanup_meta t r;
              allocate_mshr t ~now r;
              `Done
            end
            else begin
              Amulet_obs.Obs.incr t.m_mshr_full_stalls;
              if t.last_stalled_line <> r.line then begin
                if t.log.Event.enabled then
                  Event.record t.log
                    (Event.Mshr_stall
                       { cycle = now; kind = kind_to_event r.kind; line = r.line });
                t.last_stalled_line <- r.line
              end;
              `Blocked
            end
      end)

(** Advance the memory system to cycle [now]: complete ready MSHRs, then
    drain the controller queue (up to the configured bandwidth, with
    head-of-line blocking). *)
let drain_queue t ~now q =
  let budget = ref t.cfg.queue_bandwidth in
  let blocked = ref false in
  while (not !blocked) && !budget > 0 && not (Queue.is_empty q)
        && t.busy_until <= now do
    let item = Queue.peek q in
    match process_head t ~now item with
    | `Done ->
        ignore (Queue.pop q);
        decr budget
    | `Blocked -> blocked := true
  done

(* closure-free min scans: these run only when something completes, but the
   cached minimum they maintain is what makes the every-cycle checks in
   [tick]/[take_responses] a single integer comparison *)
let rec min_ready acc = function
  | [] -> acc
  | m :: rest ->
      min_ready (if m.m_ready_at < acc then m.m_ready_at else acc) rest

let rec min_due acc = function
  | [] -> acc
  | (d, _, _) :: rest -> min_due (if d < acc then d else acc) rest

let tick t ~now =
  (* MSHR completions, both pools.  The cached next-ready cycle keeps the
     common nothing-completes cycle allocation-free and list-walk-free. *)
  if t.next_mshr_ready <= now then begin
    let ready, pending = List.partition (fun m -> m.m_ready_at <= now) t.mshrs in
    t.mshrs <- pending;
    let gready, gpending = List.partition (fun m -> m.m_ready_at <= now) t.ghost_mshrs in
    t.ghost_mshrs <- gpending;
    t.next_mshr_ready <- min_ready (min_ready max_int pending) gpending;
    List.iter (fun m -> complete_mshr t ~now m)
      (List.sort (fun a b -> compare a.m_ready_at b.m_ready_at) (ready @ gready));
    t.last_stalled_line <- -1
  end;
  (* controller queues: the ghost queue drains independently, so a blocked
     speculative head can never delay non-speculative traffic *)
  if t.busy_until <= now then begin
    drain_queue t ~now t.queue;
    drain_queue t ~now t.ghost_queue
  end

(** Responses due at or before [now]: list of (rob_id, line). *)
let take_responses t ~now =
  if t.next_resp_due > now then []
  else begin
    let due, later = List.partition (fun (d, _, _) -> d <= now) t.responses in
    t.responses <- later;
    t.next_resp_due <- min_due max_int later;
    List.rev_map (fun (_, rob, line) -> (rob, line)) due
  end

(* ------------------------------------------------------------------ *)
(* TLB and instruction fetch                                           *)
(* ------------------------------------------------------------------ *)

let tlb_access t ~now ~addr ~tainted ~by_store =
  let page = Tlb.page_of_addr addr in
  match Tlb.access t.tlb page with
  | `Hit -> ()
  | `Miss ->
      if t.log.Event.enabled then
        Event.record t.log (Event.Tlb_fill { cycle = now; page; tainted; by_store })

(** Presence probe without replacement-state update (Delay-on-Miss's
    hit/miss decision). *)
let l1d_has_line t line = Cache.probe t.l1d line

let fetch_touch t ~now ~pc =
  let line = Cache.line_of t.l1i pc in
  if not (Cache.touch t.l1i line) then begin
    ignore (Cache.install t.l1i line);
    if t.log.Event.enabled then
      Event.record t.log (Event.Cache_install { cycle = now; cache = "L1I"; line })
  end

(* ------------------------------------------------------------------ *)
(* State extraction and reset hooks                                    *)
(* ------------------------------------------------------------------ *)

let l1d_tags t = Cache.tags t.l1d
let l1i_tags t = Cache.tags t.l1i
let tlb_pages t = Tlb.pages t.tlb
let access_order t = List.rev t.access_order
let clear_access_order t = t.access_order <- []

(** Drop the speculative-buffer / LFB entries of an instruction whose expose
    has been issued (the data now travels through the normal fill path). *)
let release_spec_entries t ~rob_id =
  t.spec_buffer <- List.filter (fun (rob, _, _) -> rob <> rob_id) t.spec_buffer;
  t.lfb <- List.filter (fun (rob, _, _) -> rob <> rob_id) t.lfb

(** Drain bookkeeping between test cases without touching cache contents. *)
let reset_transient t =
  Queue.clear t.queue;
  Queue.clear t.ghost_queue;
  t.mshrs <- [];
  t.ghost_mshrs <- [];
  t.next_mshr_ready <- max_int;
  t.responses <- [];
  t.next_resp_due <- max_int;
  t.spec_buffer <- [];
  t.lfb <- [];
  Hashtbl.reset t.cleanup_meta;
  t.busy_until <- 0;
  t.last_stalled_line <- -1

(** The simulator invalidation hook (used for CleanupSpec / SpecLFB-style
    clean-cache initialization, §3.5). *)
let flush_caches t =
  Cache.reset t.l1d;
  Cache.reset t.l1i;
  Cache.reset t.l2;
  Tlb.reset t.tlb

let reset_tlb t = Tlb.reset t.tlb
let reset_l1i t = Cache.reset t.l1i

(** Apply the cache effects of a chain of dependent, non-speculative demand
    loads, one per line in order, without simulating them.  Each load reaches
    the controller only after the previous one has filled, so every line
    goes through exactly the sequence a lone [Demand_load] does: an L1D
    lookup and, on a miss, an L2 lookup (MSHR allocation) followed by the
    L1D and L2 installs (MSHR completion).  No MSHR or event-log traffic is
    produced; the caller must ensure no prefetcher would have run. *)
let prime_lines t lines =
  Array.iter
    (fun line ->
      if not (Cache.touch t.l1d line) then begin
        ignore (Cache.touch t.l2 line);
        ignore (Cache.install t.l1d line);
        ignore (Cache.install t.l2 line)
      end)
    lines

(** Digest of the L1D and L2 tag and replacement state (see
    {!Cache.digest}). *)
let cache_digest t = Digest.string (Cache.digest t.l1d ^ Cache.digest t.l2)

(** Number of in-flight + queued requests (used to decide when the system
    has drained). *)
let inflight t =
  List.length t.mshrs + List.length t.ghost_mshrs + Queue.length t.queue
  + Queue.length t.ghost_queue

(* ------------------------------------------------------------------ *)
(* Snapshots (persistent tag/replacement state only)                   *)
(* ------------------------------------------------------------------ *)

(** Persistent memory-system state: cache tag arrays and the TLB.  Transient
    state (queues, MSHRs, responses, buffers) is not captured — restore it
    with {!reset_transient}, which every run already performs. *)
type snapshot = {
  snap_l1d : Cache.snapshot;
  snap_l1i : Cache.snapshot;
  snap_l2 : Cache.snapshot;
  snap_tlb : Tlb.snapshot;
}

let snapshot t =
  {
    snap_l1d = Cache.snapshot t.l1d;
    snap_l1i = Cache.snapshot t.l1i;
    snap_l2 = Cache.snapshot t.l2;
    snap_tlb = Tlb.snapshot t.tlb;
  }

let restore t s =
  Cache.restore t.l1d s.snap_l1d;
  Cache.restore t.l1i s.snap_l1i;
  Cache.restore t.l2 s.snap_l2;
  Tlb.restore t.tlb s.snap_tlb
