(** Simulator facade: the unit the AMuLeT executor drives.

    Owns the persistent microarchitectural state (caches, TLB, predictors)
    plus the committed architectural state, and runs flattened programs
    through the out-of-order pipeline.  Creation is deliberately heavyweight
    (structure allocation plus a synthetic warm-boot workload), standing in
    for gem5's multi-second process startup; the AMuLeT-Opt executor
    amortizes it by reusing one simulator across all inputs of a program,
    overwriting registers and memory in place (paper §3.2, C3). *)

open Amulet_isa
open Amulet_emu

type t = {
  cfg : Config.t;
  log : Event.log;
  metrics : Amulet_obs.Obs.t;
  perf : Perf.t;  (** counter handles resolved once, shared by all runs *)
  ms : Memsys.t;
  bp : Branch_pred.t;
  mdp : Mdp.t;
  mutable arch : State.t;
  mutable pipe : Pipeline.t option;
      (** the reusable pipeline: built on first run, rewound with
          {!Pipeline.reset} for every run after *)
  mutable dec_cache : Decoded.t option;
      (** last decoded test program, keyed by physical equality of the flat;
          one slot suffices because executors run all inputs of a program
          back to back (the prime program has its own slot below) *)
  prime_lines : int array;
      (** the fill program's load addresses, in program order *)
  mutable prime_dec : Decoded.t option;
  mutable decodes : int;  (** programs decoded over this simulator's life *)
  m_decodes : Amulet_obs.Obs.counter;
  mutable orders_live : bool;
      (** order traces of the last run live in [pipe] (extracted lazily);
          false after a restore *)
}

type run_stats = {
  cycles : int;
  committed_insts : int;
  squashes : int;
  squashed_insts : int;
  spec_issued : int;
  mispredicts : int;
  fault : string option;
}

(* ------------------------------------------------------------------ *)
(* Warm boot (the synthetic startup workload)                          *)
(* ------------------------------------------------------------------ *)

(* A boot program exercising the whole core: dependent ALU chains, memory
   traffic and branches — the simulator analogue of gem5 initializing Ruby,
   loading the binary and warming its event queues. *)
let boot_program ~insts =
  let body = ref [] in
  let n = max 16 (insts / 8) in
  for i = n downto 1 do
    let disp = i * 8 mod 2048 in
    body :=
      Inst.Binop (Inst.Add, Width.W64, Operand.Reg Reg.RAX, Operand.Imm (Int64.of_int i))
      :: Inst.Mov (Width.W64, Operand.mem ~disp Reg.sandbox_base, Operand.Reg Reg.RAX)
      :: Inst.Mov (Width.W64, Operand.Reg Reg.RBX, Operand.mem ~disp Reg.sandbox_base)
      :: Inst.Binop (Inst.Xor, Width.W64, Operand.Reg Reg.RCX, Operand.Reg Reg.RBX)
      :: Inst.Cmp (Width.W64, Operand.Reg Reg.RCX, Operand.Imm 0L)
      :: Inst.Setcc (Cond.NZ, Operand.Reg Reg.RDX)
      :: Inst.Shift (Inst.Shl, Width.W64, Operand.Reg Reg.RDX, 1)
      :: Inst.Unop (Inst.Inc, Width.W64, Operand.Reg Reg.RSI)
      :: !body
  done;
  Program.flatten (Program.make [ { Program.label = "boot"; body = !body } ])

let default_boot_insts = 20_000

(* ------------------------------------------------------------------ *)
(* The priming region                                                  *)
(* ------------------------------------------------------------------ *)

(** Base address of the priming region: disjoint from the sandbox but
    mapping onto the same L1 sets. *)
let prime_base = 0x10_0000

(* One line per (way, set), way-major: [ways]-per-set addresses from outside
   the sandbox that together fill every L1D set. *)
let prime_addrs (cfg : Config.t) =
  Array.init (cfg.l1d_ways * cfg.l1d_sets) (fun i ->
      let way = i / cfg.l1d_sets and set = i mod cfg.l1d_sets in
      prime_base + (way * 0x1000) + (set * cfg.line_bytes))

(** A program of plain loads that fills every L1D set (paper §3.2, C2:
    starting from fully-occupied sets makes both installs and evictions
    visible).  Each load is [mov r15, [r15+addr]]: out-of-sandbox reads
    return 0, so R15 stays 0 and every load depends on the one before. *)
let prime_program (cfg : Config.t) =
  let body =
    Array.to_list
      (Array.map
         (fun addr ->
           Inst.Mov (Width.W64, Operand.Reg Reg.R15, Operand.mem ~disp:addr Reg.R15))
         (prime_addrs cfg))
  in
  Program.flatten (Program.make [ { Program.label = "prime"; body } ])

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* The hot path: rewind the persistent pipeline over a pre-decoded program. *)
let run_decoded t (dec : Decoded.t) : run_stats =
  let p =
    match t.pipe with
    | Some p -> p
    | None ->
        let p = Pipeline.create ~perf:t.perf t.cfg t.ms t.bp t.mdp t.log t.arch dec in
        t.pipe <- Some p;
        p
  in
  Pipeline.reset p ~arch:t.arch dec;
  let r = Pipeline.run p in
  t.orders_live <- true;
  (* drain per-run transient state; persistent state (caches, predictors)
     survives for the next run *)
  Memsys.reset_transient t.ms;
  {
    cycles = r.Pipeline.cycles;
    committed_insts = r.Pipeline.committed_insts;
    squashes = r.Pipeline.squashes;
    squashed_insts = r.Pipeline.squashed_insts;
    spec_issued = r.Pipeline.spec_issued;
    mispredicts = r.Pipeline.mispredicts;
    fault = r.Pipeline.fault;
  }

let note_decode t =
  t.decodes <- t.decodes + 1;
  Amulet_obs.Obs.incr t.m_decodes

(* Decode [flat] once per program: repeat runs of the same flat (every input
   of a test case) hit the cache. *)
let decode_for t flat =
  match t.dec_cache with
  | Some d when Decoded.flat d == flat -> d
  | _ ->
      let d = Decoded.decode flat in
      t.dec_cache <- Some d;
      note_decode t;
      d

let run_flat t flat : run_stats = run_decoded t (decode_for t flat)

(* Boot workloads run in this process, across all domains. *)
let boot_count = Atomic.make 0

(** Create a simulator.  [boot_insts > 0] runs the synthetic warm-boot
    workload, making creation cost realistic (the [Naive] engine pays it
    per rebuild; pooled engines restore {!boot_checkpoint} instead). *)
let create ?(metrics = Amulet_obs.Obs.noop) ?(boot_insts = default_boot_insts)
    ?(pages = 1) (cfg : Config.t) =
  let arch = State.create ~pages () in
  (* the fill loads must read zeros: a sandbox reaching the priming region
     would feed input bytes into their address chain *)
  if Memory.limit arch.State.mem > prime_base then
    invalid_arg
      (Printf.sprintf
         "Simulator.create: a %d-page sandbox reaches the priming region at 0x%x"
         pages prime_base);
  let log = Event.create () in
  let t =
    {
      cfg;
      log;
      metrics;
      perf = Perf.create metrics;
      ms = Memsys.create ~metrics cfg log;
      bp =
        Branch_pred.create ~metrics ~history_bits:cfg.bp_history_bits
          ~table_bits:cfg.bp_table_bits ~btb_bits:cfg.btb_bits ();
      mdp = Mdp.create ~bits:cfg.mdp_bits;
      arch;
      pipe = None;
      dec_cache = None;
      prime_lines = prime_addrs cfg;
      prime_dec = None;
      decodes = 0;
      m_decodes = Amulet_obs.Obs.counter metrics "engine.sim.decodes";
      orders_live = false;
    }
  in
  if boot_insts > 0 then begin
    (* the boot workload is excluded from hardware counters: engines boot
       a different number of simulators (naive: many; pooled: one), and
       counting boot would make otherwise-identical campaigns diverge *)
    let was_enabled = Amulet_obs.Obs.is_enabled metrics in
    Amulet_obs.Obs.set_enabled metrics false;
    Fun.protect
      ~finally:(fun () -> Amulet_obs.Obs.set_enabled metrics was_enabled)
      (fun () ->
        let boot = boot_program ~insts:boot_insts in
        ignore (run_flat t boot);
        Atomic.incr boot_count;
        (* boot effects must not leak into the first test case *)
        Memsys.flush_caches t.ms;
        Branch_pred.reset t.bp;
        Mdp.reset t.mdp;
        t.arch <- State.create ~pages ();
        (* the pipeline arena sized for the boot program and its decoded
           code are most of a booted simulator's memory; the first test
           program builds a pipeline of its own size *)
        t.pipe <- None;
        t.dec_cache <- None;
        t.orders_live <- false)
  end;
  t

let boots () = Atomic.get boot_count

let config t = t.cfg
let log t = t.log
let metrics t = t.metrics
let arch_state t = t.arch

(* ------------------------------------------------------------------ *)
(* Test-case state management (the AMuLeT-Opt in-place overwrite)      *)
(* ------------------------------------------------------------------ *)

(** Overwrite registers and sandbox memory in place from [state] — the
    Opt-executor path that avoids restarting the simulator. *)
let load_state t (state : State.t) =
  Array.blit state.State.regs 0 t.arch.State.regs 0 (Array.length state.State.regs);
  t.arch.State.flags <- state.State.flags;
  Memory.blit ~src:state.State.mem ~dst:t.arch.State.mem

(** Run a test program to completion over the current architectural state. *)
let run t (flat : Program.flat) : run_stats = run_flat t flat

(* ------------------------------------------------------------------ *)
(* Cache priming                                                       *)
(* ------------------------------------------------------------------ *)

(* The prime program is a pure function of the config: build and decode it
   once per simulator.  It keeps its own cache slot so that alternating
   prime/test runs (a simulated prime before every input) don't thrash the
   single-entry test-program slot. *)
let prime_decoded t =
  match t.prime_dec with
  | Some d -> d
  | None ->
      let d = Decoded.decode (prime_program t.cfg) in
      t.prime_dec <- Some d;
      note_decode t;
      d

(** Prime the L1D by running the fill program through the pipeline.  R15 is
    zeroed for absolute addressing and the TLB/L1I are reset afterwards via
    simulator hooks, as the real harness does. *)
let simulate_fill_program t =
  let saved_r15 = State.read_reg t.arch Reg.R15 in
  State.write_reg t.arch Reg.R15 0L;
  let stats = run_decoded t (prime_decoded t) in
  State.write_reg t.arch Reg.R15 saved_r15;
  Memsys.reset_tlb t.ms;
  Memsys.reset_l1i t.ms;
  stats

let no_work =
  {
    cycles = 0;
    committed_insts = 0;
    squashes = 0;
    squashed_insts = 0;
    spec_issued = 0;
    mispredicts = 0;
    fault = None;
  }

(** Prime the L1D with the fill program's cache effects.  The fill program
    has no branches and no stores, so none of its loads is speculative and
    the predictors never train; its R15 chain makes the loads reach the
    memory system one at a time, in program order.  Replaying that order
    with {!Memsys.prime_lines} is therefore exact, and the L2 — never reset
    between inputs — evolves as it would under simulation.  A next-line
    prefetcher makes install order depend on MSHR timing, so it still
    simulates. *)
let prime_with_fills t =
  if t.cfg.Config.nl_prefetcher then
    simulate_fill_program t
  else begin
    Memsys.prime_lines t.ms t.prime_lines;
    Memsys.reset_tlb t.ms;
    Memsys.reset_l1i t.ms;
    no_work
  end

(** Prime by direct invalidation (the simulator hook used for CleanupSpec
    and SpecLFB in §3.5): clean caches, no simulated instructions. *)
let prime_with_flush t = Memsys.flush_caches t.ms

(* ------------------------------------------------------------------ *)
(* Microarchitectural state extraction                                 *)
(* ------------------------------------------------------------------ *)

let l1d_tags t = Memsys.l1d_tags t.ms
let l1i_tags t = Memsys.l1i_tags t.ms
let tlb_pages t = Memsys.tlb_pages t.ms

let bp_state t =
  Array.append (Branch_pred.state_words t.bp) (Mdp.state_words t.mdp)

let cache_digest t = Memsys.cache_digest t.ms
let access_order t = Memsys.access_order t.ms
let clear_access_order t = Memsys.clear_access_order t.ms

(* Order traces are materialized lazily from the persistent pipeline's
   scratch buffers: only utrace formats that actually observe ordering pay
   for the list construction. *)
let branch_prediction_order t =
  match t.pipe with
  | Some p when t.orders_live -> Pipeline.branch_prediction_order p
  | _ -> []

let execution_order t =
  match t.pipe with
  | Some p when t.orders_live -> Pipeline.execution_order p
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Predictor context snapshots (violation validation, §3.2)            *)
(* ------------------------------------------------------------------ *)

type context = {
  ctx_bp : Branch_pred.snapshot;
  ctx_mdp : Mdp.snapshot;
  ctx_ms : Memsys.snapshot;
}

let snapshot_context t =
  {
    ctx_bp = Branch_pred.snapshot t.bp;
    ctx_mdp = Mdp.snapshot t.mdp;
    ctx_ms = Memsys.snapshot t.ms;
  }

let restore_context t ctx =
  Branch_pred.restore t.bp ctx.ctx_bp;
  Mdp.restore t.mdp ctx.ctx_mdp;
  Memsys.restore t.ms ctx.ctx_ms

(* ------------------------------------------------------------------ *)
(* Full checkpoints (the pooled engine's boot-state reuse)             *)
(* ------------------------------------------------------------------ *)

(** A full post-boot checkpoint: microarchitectural context plus the
    committed architectural state (registers, flags, memory image).
    Restoring one is equivalent to a fresh [create] with the same
    configuration, minus the boot workload — which is exactly how the
    pooled execution engine amortizes simulator startup. *)
type snapshot = {
  s_ctx : context;
  s_regs : State.reg_snapshot;
  s_mem : Memory.t;  (** private copy, never aliased by the live state *)
}

let snapshot t =
  {
    s_ctx = snapshot_context t;
    s_regs = State.snapshot_regs t.arch;
    s_mem = Memory.copy t.arch.State.mem;
  }

let restore t (s : snapshot) =
  restore_context t s.s_ctx;
  State.restore_regs t.arch s.s_regs;
  Memory.blit ~src:s.s_mem ~dst:t.arch.State.mem;
  Memsys.reset_transient t.ms;
  Memsys.clear_access_order t.ms;
  t.orders_live <- false

(* One post-boot checkpoint per (config, pages, boot length) per process,
   compared structurally.  Each entry has its own lock, held while the
   first request boots, so a second domain asking for the same key waits
   for that boot instead of running its own, while other keys boot in
   parallel.  Sharing is safe because every restore only reads the
   snapshot. *)
type boot_entry = { lock : Mutex.t; mutable snap : snapshot option }

let boot_table : (Config.t * int * int, boot_entry) Hashtbl.t = Hashtbl.create 16
let boot_table_lock = Mutex.create ()

let boot_checkpoint ?(boot_insts = default_boot_insts) ?(pages = 1) cfg =
  let key = (cfg, pages, boot_insts) in
  let entry =
    Mutex.protect boot_table_lock (fun () ->
        match Hashtbl.find_opt boot_table key with
        | Some e -> e
        | None ->
            let e = { lock = Mutex.create (); snap = None } in
            Hashtbl.add boot_table key e;
            e)
  in
  Mutex.protect entry.lock (fun () ->
      match entry.snap with
      | Some s -> s
      | None ->
          let s = snapshot (create ~boot_insts ~pages cfg) in
          entry.snap <- Some s;
          s)

let reset_predictors t =
  Branch_pred.reset t.bp;
  Mdp.reset t.mdp

let flush_caches t = Memsys.flush_caches t.ms
let reset_tlb t = Memsys.reset_tlb t.ms
let reset_l1i t = Memsys.reset_l1i t.ms

let decodes t = t.decodes
