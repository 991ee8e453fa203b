(** The out-of-order core.

    A cycle-driven dataflow pipeline in the style of gem5's O3CPU, reduced to
    the mechanisms speculation leaks need: fetch along the predicted path,
    register renaming with undo-log recovery, a reorder buffer with in-order
    commit, a load-store queue with store-to-load forwarding and
    memory-dependence speculation, and squash on branch mispredictions and
    memory-order violations.  Wrong-path instructions compute {e real} values
    from renamed operands (instruction semantics are shared with the
    architectural emulator via {!Amulet_emu.Exec}), so their cache, TLB and
    MSHR side effects are faithful.

    Secure-speculation countermeasures hook in at three points: the request
    kind chosen when a load issues (InvisiSpec / SpecLFB), squash
    notifications (CleanupSpec), and issue gating (STT taint tracking).

    The hot loop is built for reuse: the ROB is a preallocated ring buffer
    over an id-indexed entry arena, per-instruction classification comes
    from the shared {!Decoded} program cache, the
    {!Amulet_emu.Exec.machine} closures are built once per pipeline,
    debug-event payloads are only materialized when the log is enabled, and
    {!reset} rewinds all of it so steady-state runs reuse every structure
    instead of reallocating them.  test/golden/hot_loop.tsv pins its traces,
    cycle counts and run stats on fixed-seed cases. *)

open Amulet_isa
open Amulet_emu

type src = Committed of int64 | Producer of int
type flag_src = Fcommitted of Flags.t | Fproducer of int
type status = Dispatched | Executing | Done

(* Sentinels for the optional ints of the original implementation; an index
   can legitimately be any small negative number (a malformed branch target
   must still fault as "fetch escaped"), so [min_int] is used, not [-1]. *)
let no_index = min_int
let no_pc = min_int

type entry = {
  id : int;  (** arena slot; dispatch order within a run *)
  producer_tag : src;  (** [Producer id], allocated once per slot *)
  fproducer_tag : flag_src;  (** [Fproducer id], allocated once per slot *)
  mutable dec : Decoded.dinfo;
  srcs : src array;  (** parallel to [dec.src_regs] *)
  mutable fsrc : flag_src;  (** meaningful iff [dec.reads_flags] *)
  prev_renames : src array;
      (** undo log for squash recovery, parallel to [dec.dst_regs]; every
          slot holds the pre-dispatch mapping *)
  mutable prev_flag_rename : flag_src;  (** meaningful iff [dec.writes_flags] *)
  mutable status : status;
  res_set : bool array;  (** parallel to [dec.dst_regs] *)
  res_val : int64 array;
  mutable has_flags_result : bool;
  mutable flags_result : Flags.t;
  mutable has_maddr : bool;
  mutable maddr : int;
  mutable ea_known : bool;
      (** effective address computed (sources were ready); caches the
          [Exec.mem_request] result across issue retries *)
  mutable ea : int;
  mutable n_wait : int;
      (** producers (register or flags sources) not yet [Done]; issue
          eligibility is [n_wait = 0], maintained by completion wakeups
          instead of per-cycle operand polling *)
  mutable waiters : int array;
      (** ids of younger entries waiting on this one (may repeat for
          multi-source consumers); grow-only scratch, reused across runs *)
  mutable n_waiters : int;
  mutable has_load_value : bool;
  mutable load_value : int64;
  mutable has_store_value : bool;
  mutable store_value : int64;
  mutable requested : bool;  (** cache access in flight or finished *)
  mutable pending_lines : int;
  mutable was_spec : bool;  (** issued under speculation *)
  mutable exposed : bool;  (** InvisiSpec/SpecLFB: made visible to caches *)
  mutable bypassed : bool;  (** load issued past unresolved older stores *)
  mutable done_at : int;  (** completion cycle for fixed-latency execution *)
  mutable predicted_taken : bool;
  mutable bp_history : int;
  mutable resolved : bool;  (** branches: actual direction known *)
  mutable actual_next : int;  (** next instruction index; [no_index] unset *)
  mutable tainted : bool;  (** STT data taint *)
  mutable taint_logged : bool;
  mutable retired : bool;
  mutable in_rob : bool;
}

type run_result = {
  cycles : int;
  committed_insts : int;
  squashes : int;
  squashed_insts : int;
  spec_issued : int;
  mispredicts : int;
  fault : string option;
}

type t = {
  cfg : Config.t;
  ms : Memsys.t;
  bp : Branch_pred.t;
  mdp : Mdp.t;
  log : Event.log;
  mutable arch : State.t;  (** committed architectural state *)
  mutable flat : Program.flat;
  mutable code : Decoded.dinfo array;
  mutable pool : entry array;  (** entry arena, indexed by id; reused by reset *)
  rob : entry array;  (** ring buffer of capacity [cfg.rob_size] *)
  mutable rob_head : int;
  mutable rob_len : int;
  rename : src array;
  mutable flag_rename : flag_src;
  mutable next_id : int;
  mutable cycle : int;
  mutable fetch_index : int;  (** [no_index] once Exit has been fetched *)
  mutable fetch_resume_at : int;
  mutable post_exit_pc : int;  (** [no_pc] when not prefetching past Exit *)
  mutable halted : bool;
  mutable fault : string option;
  mutable committed_insts : int;
  mutable squashes : int;
  mutable squashed_insts : int;
  mutable spec_issued : int;
  mutable mispredicts : int;
  mutable last_commit_cycle : int;
  mutable next_done_at : int;
      (** min [done_at] over Executing fixed-latency entries ([max_int] when
          none): with [wake_complete], lets an idle cycle skip the
          completion scan.  A stale (too-small) value only costs a wasted
          scan, never a missed completion. *)
  mutable wake_complete : bool;
      (** a memory response reached [pending_lines = 0] this cycle, so some
          load may be completion-ready *)
  (* growable scratch buffers for the two order traces, oldest first *)
  mutable exec_buf : int array;
  mutable exec_len : int;
  mutable bp_pc : int array;
  mutable bp_taken : bool array;
  mutable bp_tgt : int array;
  mutable bp_len : int;
  perf : Perf.t;  (** hardware counters; trace-invisible *)
  mutable cur : entry;  (** entry the cached machine closures act on *)
  mutable mc : Exec.machine option;  (** built once, reads [cur] *)
  mutable addr_reader : (Reg.t -> int64) option;  (** built once, reads [cur] *)
}

let new_entry id =
  {
    id;
    producer_tag = Producer id;
    fproducer_tag = Fproducer id;
    dec = Decoded.dummy;
    srcs = Array.make Decoded.max_srcs (Committed 0L);
    fsrc = Fcommitted Flags.initial;
    prev_renames = Array.make Decoded.max_dsts (Committed 0L);
    prev_flag_rename = Fcommitted Flags.initial;
    status = Done;
    res_set = Array.make Decoded.max_dsts false;
    res_val = Array.make Decoded.max_dsts 0L;
    has_flags_result = false;
    flags_result = Flags.initial;
    has_maddr = false;
    maddr = 0;
    ea_known = false;
    ea = 0;
    n_wait = 0;
    waiters = Array.make 4 0;
    n_waiters = 0;
    has_load_value = false;
    load_value = 0L;
    has_store_value = false;
    store_value = 0L;
    requested = false;
    pending_lines = 0;
    was_spec = false;
    exposed = false;
    bypassed = false;
    done_at = max_int;
    predicted_taken = false;
    bp_history = 0;
    resolved = true;
    actual_next = no_index;
    tainted = false;
    taint_logged = false;
    retired = true;
    in_rob = false;
  }

let reset t ~arch (dec : Decoded.t) =
  t.arch <- arch;
  t.flat <- Decoded.flat dec;
  t.code <- Decoded.code dec;
  for i = 0 to Reg.count - 1 do
    t.rename.(i) <- Committed (State.read_reg arch (Reg.of_index i))
  done;
  t.flag_rename <- Fcommitted arch.State.flags;
  t.next_id <- 0;
  t.cycle <- 0;
  t.fetch_index <- 0;
  t.fetch_resume_at <- 0;
  t.post_exit_pc <- no_pc;
  t.halted <- false;
  t.fault <- None;
  t.committed_insts <- 0;
  t.squashes <- 0;
  t.squashed_insts <- 0;
  t.spec_issued <- 0;
  t.mispredicts <- 0;
  t.last_commit_cycle <- 0;
  t.next_done_at <- max_int;
  t.wake_complete <- false;
  t.rob_head <- 0;
  t.rob_len <- 0;
  t.exec_len <- 0;
  t.bp_len <- 0

let create ?(perf = Perf.noop) (cfg : Config.t) (ms : Memsys.t)
    (bp : Branch_pred.t) (mdp : Mdp.t) (log : Event.log) (arch : State.t)
    (dec : Decoded.t) =
  let pool = Array.init 256 new_entry in
  let t =
    {
      cfg;
      ms;
      bp;
      mdp;
      log;
      arch;
      flat = Decoded.flat dec;
      code = Decoded.code dec;
      pool;
      rob = Array.make (max cfg.rob_size 1) pool.(0);
      rob_head = 0;
      rob_len = 0;
      rename = Array.make Reg.count (Committed 0L);
      flag_rename = Fcommitted Flags.initial;
      next_id = 0;
      cycle = 0;
      fetch_index = 0;
      fetch_resume_at = 0;
      post_exit_pc = no_pc;
      halted = false;
      fault = None;
      committed_insts = 0;
      squashes = 0;
      squashed_insts = 0;
      spec_issued = 0;
      mispredicts = 0;
      last_commit_cycle = 0;
      next_done_at = max_int;
      wake_complete = false;
      exec_buf = Array.make 256 0;
      exec_len = 0;
      bp_pc = Array.make 64 0;
      bp_taken = Array.make 64 false;
      bp_tgt = Array.make 64 0;
      bp_len = 0;
      perf;
      cur = pool.(0);
      mc = None;
      addr_reader = None;
    }
  in
  reset t ~arch dec;
  t

let find t id = t.pool.(id)
(* [rob_head + k] never exceeds [2n - 2], so a conditional subtract replaces
   the integer division a [mod] would cost on every ROB scan step. *)
let rob_at t k =
  let n = Array.length t.rob in
  let i = t.rob_head + k in
  t.rob.(if i >= n then i - n else i)

let disasm inst = Inst.to_string inst

(* ------------------------------------------------------------------ *)
(* Order-trace scratch buffers                                         *)
(* ------------------------------------------------------------------ *)

let push_exec t pc =
  if t.exec_len = Array.length t.exec_buf then begin
    let nb = Array.make (2 * t.exec_len) 0 in
    Array.blit t.exec_buf 0 nb 0 t.exec_len;
    t.exec_buf <- nb
  end;
  t.exec_buf.(t.exec_len) <- pc;
  t.exec_len <- t.exec_len + 1

let push_bpred t pc taken target =
  if t.bp_len = Array.length t.bp_pc then begin
    let n = t.bp_len in
    let np = Array.make (2 * n) 0
    and nt = Array.make (2 * n) false
    and ng = Array.make (2 * n) 0 in
    Array.blit t.bp_pc 0 np 0 n;
    Array.blit t.bp_taken 0 nt 0 n;
    Array.blit t.bp_tgt 0 ng 0 n;
    t.bp_pc <- np;
    t.bp_taken <- nt;
    t.bp_tgt <- ng
  end;
  t.bp_pc.(t.bp_len) <- pc;
  t.bp_taken.(t.bp_len) <- taken;
  t.bp_tgt.(t.bp_len) <- target;
  t.bp_len <- t.bp_len + 1

(* ------------------------------------------------------------------ *)
(* Value plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let value_of_src t r = function
  | Committed v -> v
  | Producer id ->
      let p = find t id in
      let nd = Array.length p.dec.Decoded.dst_regs in
      let rec go j =
        if j >= nd then
          invalid_arg "Pipeline: producer has no result for register"
        else if p.dec.Decoded.dst_regs.(j) == r && p.res_set.(j) then
          p.res_val.(j)
        else go (j + 1)
      in
      go 0

let read_reg_of_entry t (e : entry) r =
  let srcs = e.dec.Decoded.src_regs in
  let n = Array.length srcs in
  let rec go j =
    if j >= n then
      invalid_arg ("Pipeline: unexpected register read " ^ Reg.name r)
    else if srcs.(j) == r then value_of_src t r e.srcs.(j)
    else go (j + 1)
  in
  go 0

let flags_of_entry t (e : entry) =
  if not e.dec.Decoded.reads_flags then Flags.initial
  else
    match e.fsrc with
    | Fcommitted f -> f
    | Fproducer id ->
        let p = find t id in
        if p.has_flags_result then p.flags_result
        else invalid_arg "Pipeline: flags producer has no result"

let merge_reg_value ~old w v =
  match w with
  | Width.W64 -> v
  | Width.W32 -> Width.truncate Width.W32 v
  | Width.W16 | Width.W8 ->
      Int64.logor (Int64.logand old (Int64.lognot (Width.mask w))) (Width.truncate w v)

(* Store [v] into the first result slot whose register is [r]; duplicate
   destinations (XCHG r, r) therefore collapse onto one slot holding the
   final value, exactly like the old single-entry assoc list. *)
let set_result (e : entry) r v =
  let dsts = e.dec.Decoded.dst_regs in
  let n = Array.length dsts in
  let rec go j =
    if j >= n then invalid_arg "Pipeline: write to undeclared destination"
    else if dsts.(j) == r then begin
      e.res_val.(j) <- v;
      e.res_set.(j) <- true
    end
    else go (j + 1)
  in
  go 0

let has_result (e : entry) r =
  let dsts = e.dec.Decoded.dst_regs in
  let n = Array.length dsts in
  let rec go j =
    if j >= n then false
    else if dsts.(j) == r && e.res_set.(j) then true
    else go (j + 1)
  in
  go 0

(* The register reader over the in-flight entry [t.cur]; built once. *)
let addr_reader t =
  match t.addr_reader with
  | Some f -> f
  | None ->
      let f r = read_reg_of_entry t t.cur r in
      t.addr_reader <- Some f;
      f

(* The Exec.machine view over [t.cur]; built once per pipeline instead of
   once per completing instruction. *)
let machine t =
  match t.mc with
  | Some m -> m
  | None ->
      let m =
        {
          Exec.read_reg = addr_reader t;
          write_reg =
            (fun w r v ->
              let e = t.cur in
              let old =
                match w with
                | Width.W8 | Width.W16 -> read_reg_of_entry t e r
                | Width.W32 | Width.W64 -> 0L
              in
              set_result e r (merge_reg_value ~old w v));
          read_flags = (fun () -> flags_of_entry t t.cur);
          write_flags =
            (fun f ->
              let e = t.cur in
              e.flags_result <- f;
              e.has_flags_result <- true);
          load =
            (fun _w _addr ->
              let e = t.cur in
              if e.has_load_value then e.load_value
              else invalid_arg "Pipeline: load value not captured");
          store =
            (fun _w _addr v ->
              let e = t.cur in
              e.store_value <- v;
              e.has_store_value <- true);
        }
      in
      t.mc <- Some m;
      m

(* Read [width] bytes at [addr]: committed memory overlaid with the store
   data of older, already-executed in-flight stores (store-to-load
   forwarding).  Bytes outside the sandbox read as zero, matching the
   emulator. *)
let overlay_read t (load : entry) addr width =
  let mem = t.arch.State.mem in
  let n = Width.bytes width in
  let v = ref 0L in
  for i = n - 1 downto 0 do
    let a = addr + i in
    let byte = ref (Memory.read_byte mem a) in
    if Memory.in_bounds mem a then
      (* oldest first, so the newest overlapping store wins by overwrite *)
      for k = 0 to t.rob_len - 1 do
        let e = rob_at t k in
        if e.id < load.id && e.has_maddr && e.has_store_value then
          match e.dec.Decoded.mem with
          | Some (sw, (`Store | `Rmw)) ->
              let sa = e.maddr in
              if a >= sa && a < sa + Width.bytes sw then
                byte :=
                  Int64.to_int (Int64.shift_right_logical e.store_value (8 * (a - sa)))
                  land 0xFF
          | Some (_, `Load) | None -> ()
      done;
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int !byte)
  done;
  !v

let ranges_overlap a1 n1 a2 n2 = a1 < a2 + n2 && a2 < a1 + n1

(* ------------------------------------------------------------------ *)
(* Speculation and taint                                               *)
(* ------------------------------------------------------------------ *)

(* An instruction is speculative while an older branch is unresolved or an
   older store has an unresolved address (the "Futuristic" threat model of
   InvisiSpec/STT collapses to this for our squash sources).  The ring is
   id-ascending, so the scan stops at the first entry no older than [e]. *)
let is_speculative t (e : entry) =
  let spec = ref false in
  let k = ref 0 in
  let continue_ = ref true in
  while !continue_ && !k < t.rob_len do
    let o = rob_at t !k in
    if o.id >= e.id then continue_ := false
    else begin
      if
        (o.dec.Decoded.is_cond_branch && not o.resolved)
        || (o.dec.Decoded.is_store && not o.has_maddr)
      then begin
        spec := true;
        continue_ := false
      end;
      incr k
    end
  done;
  !spec

let producer_tainted t = function
  | Committed _ -> false
  | Producer id ->
      let p = find t id in
      p.tainted && not p.retired

let flag_producer_tainted t (e : entry) =
  e.dec.Decoded.reads_flags
  &&
  match e.fsrc with
  | Fproducer id ->
      let p = find t id in
      p.tainted && not p.retired
  | Fcommitted _ -> false

(* STT taint recomputation, oldest-to-youngest, every cycle: a speculative
   load's result is tainted; taint propagates through the dataflow; taint
   clears automatically when the defining load reaches its visibility point
   (no older unresolved branches / stores). *)
let recompute_taints t =
  for k = 0 to t.rob_len - 1 do
    let e = rob_at t k in
    let src_taint = ref (flag_producer_tainted t e) in
    let n = Array.length e.dec.Decoded.src_regs in
    for j = 0 to n - 1 do
      if producer_tainted t e.srcs.(j) then src_taint := true
    done;
    let access_taint = e.dec.Decoded.is_load && is_speculative t e in
    e.tainted <- access_taint || !src_taint
  done

let address_tainted t (e : entry) =
  let addr_regs = e.dec.Decoded.addr_regs in
  let srcs = e.dec.Decoded.src_regs in
  let nsrc = Array.length srcs in
  let tainted = ref false in
  for j = 0 to Array.length addr_regs - 1 do
    let r = addr_regs.(j) in
    let rec go k =
      if k >= nsrc then ()
      else if srcs.(k) == r then begin
        if producer_tainted t e.srcs.(k) then tainted := true
      end
      else go (k + 1)
    in
    go 0
  done;
  !tainted

(* ------------------------------------------------------------------ *)
(* Dispatch / fetch                                                    *)
(* ------------------------------------------------------------------ *)

let rob_full t = t.rob_len >= t.cfg.rob_size

let grow_pool t =
  let old = t.pool in
  let n = Array.length old in
  t.pool <- Array.init (2 * n) (fun i -> if i < n then old.(i) else new_entry i)

let dispatch t (d : Decoded.dinfo) =
  let id = t.next_id in
  t.next_id <- id + 1;
  if id >= Array.length t.pool then grow_pool t;
  let e = t.pool.(id) in
  e.dec <- d;
  let nsrc = Array.length d.Decoded.src_regs in
  for j = 0 to nsrc - 1 do
    e.srcs.(j) <- t.rename.(Reg.index d.Decoded.src_regs.(j))
  done;
  if d.Decoded.reads_flags then e.fsrc <- t.flag_rename;
  let ndst = Array.length d.Decoded.dst_regs in
  (* capture the whole undo log before touching the map, so duplicate
     destinations all record the pre-dispatch mapping *)
  for j = 0 to ndst - 1 do
    e.prev_renames.(j) <- t.rename.(Reg.index d.Decoded.dst_regs.(j))
  done;
  for j = 0 to ndst - 1 do
    t.rename.(Reg.index d.Decoded.dst_regs.(j)) <- e.producer_tag
  done;
  if d.Decoded.writes_flags then begin
    e.prev_flag_rename <- t.flag_rename;
    t.flag_rename <- e.fproducer_tag
  end;
  e.n_waiters <- 0;
  e.n_wait <- 0;
  (let wait_on id =
     let p = t.pool.(id) in
     if p.status <> Done then begin
       e.n_wait <- e.n_wait + 1;
       if p.n_waiters >= Array.length p.waiters then begin
         let bigger = Array.make (2 * Array.length p.waiters) 0 in
         Array.blit p.waiters 0 bigger 0 p.n_waiters;
         p.waiters <- bigger
       end;
       p.waiters.(p.n_waiters) <- e.id;
       p.n_waiters <- p.n_waiters + 1
     end
   in
   for j = 0 to nsrc - 1 do
     match e.srcs.(j) with Producer id -> wait_on id | Committed _ -> ()
   done;
   if d.Decoded.reads_flags then
     match e.fsrc with Fproducer id -> wait_on id | Fcommitted _ -> ());
  e.status <- Dispatched;
  for j = 0 to Decoded.max_dsts - 1 do
    e.res_set.(j) <- false
  done;
  e.has_flags_result <- false;
  e.has_maddr <- false;
  e.ea_known <- false;
  e.has_load_value <- false;
  e.has_store_value <- false;
  e.requested <- false;
  e.pending_lines <- 0;
  e.was_spec <- false;
  e.exposed <- false;
  e.bypassed <- false;
  e.done_at <- max_int;
  e.predicted_taken <- false;
  e.bp_history <- 0;
  e.resolved <- not d.Decoded.is_cond_branch;
  e.actual_next <- no_index;
  e.tainted <- false;
  e.taint_logged <- false;
  e.retired <- false;
  e.in_rob <- true;
  (let n = Array.length t.rob in
   let i = t.rob_head + t.rob_len in
   t.rob.(if i >= n then i - n else i) <- e);
  t.rob_len <- t.rob_len + 1;
  Amulet_obs.Obs.incr t.perf.Perf.fetched;
  if t.log.Event.enabled then
    Event.record t.log
      (Event.Fetched { cycle = t.cycle; pc = d.Decoded.pc; disasm = disasm d.Decoded.inst });
  (* instructions with no execution stage complete at dispatch *)
  (match d.Decoded.kind with
  | Decoded.Dnext ->
      e.status <- Done;
      e.actual_next <- d.Decoded.index + 1;
      push_exec t d.Decoded.pc
  | Decoded.Dexit ->
      e.status <- Done;
      push_exec t d.Decoded.pc
  | Decoded.Djump target ->
      e.status <- Done;
      e.actual_next <- target;
      push_exec t d.Decoded.pc
  | Decoded.Plain -> ());
  e

let fetch_stage t =
  if t.halted then ()
  else if t.cycle < t.fetch_resume_at then ()
  else if t.fetch_index = no_index then begin
    (* past the end of the test: the front-end keeps prefetching
       sequential lines into L1I until Exit commits (KV1/KV2) *)
    if t.post_exit_pc <> no_pc then begin
      Memsys.fetch_touch t.ms ~now:t.cycle ~pc:t.post_exit_pc;
      t.post_exit_pc <- t.post_exit_pc + t.cfg.line_bytes
    end
  end
  else begin
    let idx = ref t.fetch_index in
    let fetched = ref 0 in
    let continue_ = ref true in
    while !continue_ && !fetched < t.cfg.fetch_width && not (rob_full t) do
      let i = !idx in
      if i = no_index then continue_ := false
      else if i < 0 || i >= Array.length t.code then begin
        t.fault <- Some (Printf.sprintf "fetch escaped code region (index %d)" i);
        t.halted <- true;
        continue_ := false
      end
      else begin
        let d = t.code.(i) in
        Memsys.fetch_touch t.ms ~now:t.cycle ~pc:d.Decoded.pc;
        let e = dispatch t d in
        incr fetched;
        match d.Decoded.kind with
        | Decoded.Dexit ->
            idx := no_index;
            t.post_exit_pc <- d.Decoded.pc + t.flat.Program.inst_size;
            continue_ := false
        | Decoded.Djump target -> idx := target
        | Decoded.Plain when d.Decoded.is_cond_branch && d.Decoded.has_abs_target ->
            let taken = Branch_pred.predict t.bp ~pc:d.Decoded.pc in
            e.predicted_taken <- taken;
            e.bp_history <- Branch_pred.history t.bp;
            Branch_pred.speculate_history t.bp ~taken;
            let next = if taken then d.Decoded.branch_abs else i + 1 in
            let target_pc = Program.pc_of_index t.flat next in
            push_bpred t d.Decoded.pc taken target_pc;
            if t.log.Event.enabled then
              Event.record t.log
                (Event.Predicted
                   { cycle = t.cycle; pc = d.Decoded.pc; taken; target = target_pc });
            idx := next
        | Decoded.Plain | Decoded.Dnext -> idx := i + 1
      end
    done;
    t.fetch_index <- !idx
  end

(* ------------------------------------------------------------------ *)
(* Squash                                                              *)
(* ------------------------------------------------------------------ *)

(* Squash all entries with id >= bound, newest first (undo-log recovery).
   The ring is id-ascending, so the squashed entries are a suffix. *)
let squash_from t ~bound ~reason =
  let keep = ref t.rob_len in
  while !keep > 0 && (rob_at t (!keep - 1)).id >= bound do
    decr keep
  done;
  let gone = t.rob_len - !keep in
  if gone > 0 then begin
    t.squashes <- t.squashes + 1;
    t.squashed_insts <- t.squashed_insts + gone;
    Amulet_obs.Obs.incr t.perf.Perf.squashes;
    Amulet_obs.Obs.add t.perf.Perf.squashed_insts gone;
    for k = t.rob_len - 1 downto !keep do
      let e = rob_at t k in
      let dsts = e.dec.Decoded.dst_regs in
      for j = 0 to Array.length dsts - 1 do
        t.rename.(Reg.index dsts.(j)) <- e.prev_renames.(j)
      done;
      if e.dec.Decoded.writes_flags then t.flag_rename <- e.prev_flag_rename;
      Memsys.cancel t.ms ~now:t.cycle ~rob_id:e.id;
      e.in_rob <- false;
      if t.log.Event.enabled then
        Event.record t.log
          (Event.Squashed { cycle = t.cycle; pc = e.dec.Decoded.pc; reason })
    done;
    (* branch history repair: rewind to the oldest squashed branch *)
    (let rec oldest_branch k =
       if k >= t.rob_len then ()
       else
         let e = rob_at t k in
         if e.dec.Decoded.is_cond_branch then Branch_pred.set_history t.bp e.bp_history
         else oldest_branch (k + 1)
     in
     oldest_branch !keep);
    t.rob_len <- !keep
  end

let redirect_fetch t ~index =
  t.fetch_index <- index;
  t.post_exit_pc <- no_pc;
  t.fetch_resume_at <- t.cycle + 1 + t.cfg.redirect_penalty

(* ------------------------------------------------------------------ *)
(* Issue                                                               *)
(* ------------------------------------------------------------------ *)

let exec_latency t inst =
  match inst with
  | Inst.Imul _ -> t.cfg.imul_latency
  | Inst.Jcc _ -> t.cfg.branch_latency
  | _ -> 1

(* SpecLFB UV6: `isReallyUnsafe` is cleared when there is no older unsafe
   (speculative) load in the load-store queue. *)
let speclfb_has_older_unsafe_load t (e : entry) =
  let found = ref false in
  let k = ref 0 in
  let continue_ = ref true in
  while !continue_ && !k < t.rob_len do
    let o = rob_at t !k in
    if o.id >= e.id then continue_ := false
    else begin
      if o.dec.Decoded.is_load && is_speculative t o then begin
        found := true;
        continue_ := false
      end;
      incr k
    end
  done;
  !found

(* Memory-ordering readiness of a load against older stores. Returns
   [`Ready of bypassed] or [`Wait]. *)
let load_ordering_ready t (e : entry) addr width =
  let bypassed = ref false in
  let blocked = ref false in
  (* the ring is id-ascending: stop at the first entry no older than [e] *)
  let k = ref 0 in
  let continue_ = ref true in
  while !continue_ && !k < t.rob_len do
    let o = rob_at t !k in
    incr k;
    if o.id >= e.id then continue_ := false
    else if (not !blocked) && o.dec.Decoded.is_store then
      if not o.has_maddr then begin
        (* older store address unknown: consult the predictor *)
        if Mdp.predict_bypass t.mdp ~pc:e.dec.Decoded.pc then bypassed := true
        else blocked := true
      end
      else if not o.has_store_value then begin
        (* address known, data not yet produced (e.g. an RMW waiting on
           its own load): wait only on overlap *)
        let sw =
          match o.dec.Decoded.mem with Some (w, _) -> Width.bytes w | None -> 0
        in
        if ranges_overlap addr (Width.bytes width) o.maddr sw then blocked := true
      end
  done;
  if !blocked then `Wait else `Ready !bypassed

let stt_cfg t = match t.cfg.defense with Config.Stt c -> Some c | _ -> None

let taint_block t (e : entry) =
  if not e.taint_logged then begin
    e.taint_logged <- true;
    if t.log.Event.enabled then
      Event.record t.log (Event.Taint_blocked { cycle = t.cycle; pc = e.dec.Decoded.pc })
  end

(* Try to begin execution of entry [e]; true if it issued.  [spec] is
   [is_speculative t e], computed incrementally by the issue scan (the only
   intra-cycle change to a prefix entry's squash-source status during issue
   is a store learning its address, which the scan observes in order). *)
let try_issue t ~spec:spec_above (e : entry) =
  let d = e.dec in
  if e.n_wait > 0 then false
  else
    match d.Decoded.mem with
    | None ->
        e.status <- Executing;
        e.done_at <- t.cycle + exec_latency t d.Decoded.inst;
        if e.done_at < t.next_done_at then t.next_done_at <- e.done_at;
        push_exec t d.Decoded.pc;
        true
    | Some (width, dir) -> (
        (* the sources are ready, so the effective address is final: compute
           it once and reuse it across issue retries (a load stalled on
           memory ordering re-enters here every cycle) *)
        let addr =
          if e.ea_known then e.ea
          else begin
            t.cur <- e;
            match Exec.mem_request ~read_reg:(addr_reader t) d.Decoded.inst with
            | Some (a, _, _) ->
                e.ea <- a;
                e.ea_known <- true;
                a
            | None -> invalid_arg "Pipeline: memory entry without request"
          end
        in
        let a_tainted = stt_cfg t <> None && address_tainted t e in
        match dir with
        | `Load | `Rmw -> (
            (* STT gates loads with tainted addresses *)
            if a_tainted then begin
              taint_block t e;
              false
            end
            else
              match load_ordering_ready t e addr width with
              | `Wait -> false
              | `Ready bypassed
                when t.cfg.defense = Config.Delay_on_miss
                     && (spec_above || bypassed)
                     && List.exists
                          (fun line -> not (Memsys.l1d_has_line t.ms line))
                          (Memsys.lines_of_access t.ms ~addr ~width) ->
                  (* selective delay: a speculative miss waits for safety *)
                  ignore bypassed;
                  false
              | `Ready bypassed ->
                  e.maddr <- addr;
                  e.has_maddr <- true;
                  e.bypassed <- bypassed;
                  let spec = spec_above || bypassed in
                  e.was_spec <- spec;
                  if spec then begin
                    t.spec_issued <- t.spec_issued + 1;
                    Amulet_obs.Obs.incr t.perf.Perf.spec_issued
                  end;
                  Memsys.tlb_access t.ms ~now:t.cycle ~addr ~tainted:false
                    ~by_store:false;
                  e.load_value <- overlay_read t e addr width;
                  e.has_load_value <- true;
                  let kind =
                    match t.cfg.defense with
                    | Config.Invisispec _ | Config.Ghostminion ->
                        if spec then Memsys.Spec_load else Memsys.Demand_load
                    | Config.Speclfb cfg ->
                        if not spec then Memsys.Demand_load
                        else if
                          cfg.Config.lfb_patched_first_load
                          || speclfb_has_older_unsafe_load t e
                        then Memsys.Spec_load
                        else begin
                          (* UV6: the first speculative load in the LSQ is
                             treated as safe and installs normally *)
                          if t.log.Event.enabled then
                            Event.record t.log
                              (Event.Lfb_unprotected
                                 {
                                   cycle = t.cycle;
                                   pc = d.Decoded.pc;
                                   line = Memsys.line_of t.ms addr;
                                 });
                          Memsys.Demand_load
                        end
                    | Config.Baseline | Config.Cleanupspec _ | Config.Stt _
                    | Config.Delay_on_miss ->
                        Memsys.Demand_load
                  in
                  e.pending_lines <-
                    Memsys.request_access t.ms ~now:t.cycle ~rob_id:e.id
                      ~pc:d.Decoded.pc ~addr ~width ~kind ~spec;
                  e.requested <- true;
                  e.status <- Executing;
                  e.done_at <- max_int;
                  push_exec t d.Decoded.pc;
                  true)
        | `Store -> (
            (* STT: the KV3 bug lets tainted stores execute (and fill the
               TLB); the patched variant gates them like loads *)
            match stt_cfg t with
            | Some { Config.stt_patched_store_tlb = true } when a_tainted ->
                taint_block t e;
                false
            | _ ->
                e.maddr <- addr;
                e.has_maddr <- true;
                e.was_spec <- spec_above;
                if e.was_spec then begin
                  t.spec_issued <- t.spec_issued + 1;
                  Amulet_obs.Obs.incr t.perf.Perf.spec_issued
                end;
                Memsys.tlb_access t.ms ~now:t.cycle ~addr ~tainted:a_tainted
                  ~by_store:true;
                (* CleanupSpec lets speculative stores modify the cache at
                   execute (undo is supposed to clean them: UV3/UV4) *)
                (match t.cfg.defense with
                | Config.Cleanupspec _ ->
                    ignore
                      (Memsys.request_access t.ms ~now:t.cycle ~rob_id:e.id
                         ~pc:d.Decoded.pc ~addr ~width ~kind:Memsys.Store_install
                         ~spec:e.was_spec)
                | _ -> ());
                e.status <- Executing;
                e.done_at <- t.cycle + 1;
                if e.done_at < t.next_done_at then t.next_done_at <- e.done_at;
                push_exec t d.Decoded.pc;
                true))

let issue_stage t =
  (* a fence stalls everything younger, and once [issue_width] entries have
     issued the rest of the scan is a no-op: stop early in both cases.
     [spec_above] incrementally tracks whether any older entry is still a
     squash source (see {!try_issue}). *)
  let issued = ref 0 in
  let k = ref 0 in
  let spec_above = ref false in
  while !k < t.rob_len && !issued < t.cfg.issue_width do
    let e = rob_at t !k in
    if e.dec.Decoded.is_fence then k := t.rob_len
    else begin
      if e.status = Dispatched && try_issue t ~spec:!spec_above e then
        incr issued;
      if
        (e.dec.Decoded.is_cond_branch && not e.resolved)
        || (e.dec.Decoded.is_store && not e.has_maddr)
      then spec_above := true;
      incr k
    end
  done

(* ------------------------------------------------------------------ *)
(* Completion, branch resolution, memory-order violations              *)
(* ------------------------------------------------------------------ *)

(* A store (or RMW) has produced its address+data: younger loads that
   already captured a value from overlapping bytes read stale data. *)
let check_memdep_violation t (s : entry) =
  match s.dec.Decoded.mem with
  | Some (sw, (`Store | `Rmw)) when s.has_maddr ->
      let sa = s.maddr in
      let victim = ref None in
      let k = ref 0 in
      while !victim = None && !k < t.rob_len do
        let l = rob_at t !k in
        if
          l.id > s.id && l.dec.Decoded.is_load && l.has_load_value && l.has_maddr
          &&
          match l.dec.Decoded.mem with
          | Some (lw, (`Load | `Rmw)) ->
              ranges_overlap sa (Width.bytes sw) l.maddr (Width.bytes lw)
          | Some (_, `Store) | None -> false
        then victim := Some l;
        incr k
      done;
      (match !victim with
      | None -> ()
      | Some l ->
          Mdp.train_violation t.mdp ~pc:l.dec.Decoded.pc;
          if t.log.Event.enabled then
            Event.record t.log
              (Event.Squashed
                 { cycle = t.cycle; pc = l.dec.Decoded.pc; reason = Event.Memdep_violation });
          squash_from t ~bound:l.id ~reason:Event.Memdep_violation;
          redirect_fetch t ~index:l.dec.Decoded.index)
  | _ -> ()

let resolve_branch t (e : entry) =
  let actual_next =
    if e.actual_next = no_index then invalid_arg "unresolved branch"
    else e.actual_next
  in
  let taken = actual_next <> e.dec.Decoded.index + 1 in
  let predicted_next =
    if e.predicted_taken then
      if e.dec.Decoded.has_abs_target then e.dec.Decoded.branch_abs
      else invalid_arg "Pipeline: unresolved branch"
    else e.dec.Decoded.index + 1
  in
  Branch_pred.train t.bp ~pc:e.dec.Decoded.pc ~history:e.bp_history ~taken
    ~target:(Program.pc_of_index t.flat actual_next);
  e.resolved <- true;
  if actual_next <> predicted_next then begin
    t.mispredicts <- t.mispredicts + 1;
    Amulet_obs.Obs.incr t.perf.Perf.mispredicts;
    squash_from t ~bound:(e.id + 1) ~reason:Event.Branch_mispredict;
    (* repair history: the branch's own bit was wrong *)
    Branch_pred.set_history t.bp e.bp_history;
    Branch_pred.speculate_history t.bp ~taken;
    redirect_fetch t ~index:actual_next
  end

(* Run the shared semantics for entry [e] and mark it done. *)
let complete t (e : entry) =
  t.cur <- e;
  let outcome = Exec.step (machine t) e.dec.Decoded.inst in
  (match outcome with
  | Exec.Next -> e.actual_next <- e.dec.Decoded.index + 1
  | Exec.Jump i -> e.actual_next <- i
  | Exec.Exited -> e.actual_next <- no_index);
  (* instructions that conditionally skip their write (CMOVcc not taken,
     zero-count shifts) must still supply a result to consumers *)
  let dsts = e.dec.Decoded.dst_regs in
  for j = 0 to Array.length dsts - 1 do
    let r = dsts.(j) in
    if not (has_result e r) then set_result e r (read_reg_of_entry t e r)
  done;
  e.status <- Done;
  for k = 0 to e.n_waiters - 1 do
    let w = t.pool.(e.waiters.(k)) in
    w.n_wait <- w.n_wait - 1
  done;
  if t.log.Event.enabled then
    Event.record t.log
      (Event.Executed
         {
           cycle = t.cycle;
           pc = e.dec.Decoded.pc;
           disasm = disasm e.dec.Decoded.inst;
           spec = e.was_spec;
         });
  if e.dec.Decoded.is_cond_branch then resolve_branch t e;
  if e.dec.Decoded.is_store then check_memdep_violation t e

let completion_ready t (e : entry) =
  e.status = Executing
  &&
  match e.dec.Decoded.mem with
  | Some (_, (`Load | `Rmw)) -> e.requested && e.pending_lines = 0
  | Some (_, `Store) | None -> e.done_at <= t.cycle

(* Complete everything ready this cycle, oldest first.  Completing an entry
   never makes an older one ready (readiness depends only on responses and
   fixed latencies), so a single forward pass suffices — except when a
   completion squashes (mispredict, memory-order violation): the ROB changed
   under us and the scan restarts.

   An entry only becomes ready when a memory response lands
   ([wake_complete], set by [apply_responses]) or the clock reaches a
   fixed-latency [done_at] ([next_done_at], min-tracked at issue and
   recomputed exactly by each scan) — any other cycle skips the scan
   entirely, which is what keeps miss-stall cycles cheap. *)
let complete_stage t =
  if t.wake_complete || t.next_done_at <= t.cycle then begin
    t.wake_complete <- false;
    let next = ref max_int in
    let k = ref 0 in
    while !k < t.rob_len do
      let e = rob_at t !k in
      if completion_ready t e then begin
        let squashes_before = t.squashes in
        complete t e;
        if t.squashes <> squashes_before then begin
          k := 0;
          next := max_int
        end
        else incr k
      end
      else begin
        (if e.status = Executing then
           match e.dec.Decoded.mem with
           | Some (_, (`Load | `Rmw)) -> ()
           | Some (_, `Store) | None ->
               if e.done_at < !next then next := e.done_at);
        incr k
      end
    done;
    t.next_done_at <- !next
  end

let apply_responses t =
  match Memsys.take_responses t.ms ~now:t.cycle with
  | [] -> ()
  | responses ->
      List.iter
        (fun (rob_id, _line) ->
          (* store installs carry rob_id = -1; squashed ids are out of the
             ROB *)
          if rob_id >= 0 && rob_id < t.next_id then begin
            let e = t.pool.(rob_id) in
            if
              e.status = Executing && e.pending_lines > 0 && (not e.retired)
              && e.in_rob
            then begin
              e.pending_lines <- e.pending_lines - 1;
              if e.pending_lines = 0 then t.wake_complete <- true
            end
          end)
        responses

(* ------------------------------------------------------------------ *)
(* Commit                                                              *)
(* ------------------------------------------------------------------ *)

let commit_entry t (e : entry) =
  let dsts = e.dec.Decoded.dst_regs in
  let nd = Array.length dsts in
  for j = 0 to nd - 1 do
    if e.res_set.(j) then State.write_reg t.arch dsts.(j) e.res_val.(j)
  done;
  if e.has_flags_result then t.arch.State.flags <- e.flags_result;
  (match e.dec.Decoded.mem with
  | Some (w, (`Store | `Rmw)) when e.has_maddr ->
      let addr = e.maddr in
      if not e.has_store_value then
        invalid_arg "Pipeline: committing store without data";
      Memory.write t.arch.State.mem w addr e.store_value;
      (* cache install at commit for defenses that do not allow speculative
         stores into the cache (CleanupSpec installed at execute) *)
      (match t.cfg.defense with
      | Config.Cleanupspec _ -> ()
      | Config.Baseline | Config.Invisispec _ | Config.Stt _ | Config.Speclfb _
      | Config.Delay_on_miss | Config.Ghostminion ->
          ignore
            (Memsys.request_access t.ms ~now:t.cycle ~rob_id:(-1) ~pc:e.dec.Decoded.pc
               ~addr ~width:w ~kind:Memsys.Store_install ~spec:false))
  | _ -> ());
  if e.bypassed then Mdp.train_correct t.mdp ~pc:e.dec.Decoded.pc;
  (* release the rename mapping if still pointing at this entry *)
  for j = 0 to nd - 1 do
    if e.res_set.(j) then
      match t.rename.(Reg.index dsts.(j)) with
      | Producer id when id = e.id ->
          t.rename.(Reg.index dsts.(j)) <- Committed e.res_val.(j)
      | _ -> ()
  done;
  (match t.flag_rename with
  | Fproducer id when id = e.id && e.has_flags_result ->
      t.flag_rename <- Fcommitted e.flags_result
  | _ -> ());
  e.retired <- true;
  t.committed_insts <- t.committed_insts + 1;
  Amulet_obs.Obs.incr t.perf.Perf.retired;
  t.last_commit_cycle <- t.cycle;
  if t.log.Event.enabled then
    Event.record t.log
      (Event.Committed
         { cycle = t.cycle; pc = e.dec.Decoded.pc; disasm = disasm e.dec.Decoded.inst })

(* InvisiSpec / SpecLFB: once a speculatively-issued load reaches its safe
   point (no older squash sources remain), expose it to the cache hierarchy:
   an Expose request installs the speculative-buffer / LFB line into L1.
   This happens before commit, matching the defenses' "Futuristic" modes;
   a stalled Expose that has not completed when the test ends leaves the
   line out of the final cache state (the UV2 observable). *)
let expose_stage t =
  match t.cfg.defense with
  | Config.Invisispec _ | Config.Speclfb _ | Config.Ghostminion ->
      (* one oldest-to-youngest pass: [spec_above] carries "some older entry
         is still a squash source", which is exactly [is_speculative] for
         the current entry without re-scanning the ROB prefix per candidate.
         Nothing below the first squash source can expose, so the scan stops
         there. *)
      let spec_above = ref false in
      let k = ref 0 in
      while (not !spec_above) && !k < t.rob_len do
        let e = rob_at t !k in
        if
          e.status = Done && e.was_spec && (not e.exposed)
          && e.dec.Decoded.is_load
        then begin
          e.exposed <- true;
          (match e.dec.Decoded.mem with
          | Some (w, _) when e.has_maddr ->
              List.iter
                (fun line -> Memsys.request_expose t.ms ~now:t.cycle ~rob_id:e.id ~line)
                (Memsys.lines_of_access t.ms ~addr:e.maddr ~width:w)
          | _ -> ());
          Memsys.release_spec_entries t.ms ~rob_id:e.id
        end;
        if
          (e.dec.Decoded.is_cond_branch && not e.resolved)
          || (e.dec.Decoded.is_store && not e.has_maddr)
        then spec_above := true;
        incr k
      done
  | Config.Baseline | Config.Cleanupspec _ | Config.Stt _ | Config.Delay_on_miss
    ->
      ()

let commit_stage t =
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < t.cfg.commit_width do
    if t.rob_len = 0 then continue_ := false
    else begin
      let head = t.rob.(t.rob_head) in
      if head.status = Done && head.resolved then begin
        commit_entry t head;
        head.in_rob <- false;
        t.rob_head <-
          (let i = t.rob_head + 1 in
           if i >= Array.length t.rob then 0 else i);
        t.rob_len <- t.rob_len - 1;
        incr n;
        if head.dec.Decoded.kind = Decoded.Dexit then begin
          t.halted <- true;
          continue_ := false
        end
      end
      else continue_ := false
    end
  done

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let step_cycle t =
  t.cycle <- t.cycle + 1;
  Amulet_obs.Obs.incr t.perf.Perf.cycles;
  Amulet_obs.Obs.add t.perf.Perf.rob_occupancy t.rob_len;
  Memsys.tick t.ms ~now:t.cycle;
  apply_responses t;
  if stt_cfg t <> None then recompute_taints t;
  complete_stage t;
  expose_stage t;
  issue_stage t;
  fetch_stage t;
  commit_stage t;
  if t.cycle - t.last_commit_cycle > t.cfg.deadlock_cycles then begin
    t.fault <- Some "pipeline deadlock";
    t.halted <- true
  end

let run t : run_result =
  Amulet_obs.Obs.incr t.perf.Perf.runs;
  while (not t.halted) && t.fault = None && t.cycle < t.cfg.max_cycles do
    step_cycle t
  done;
  if (not t.halted) && t.fault = None then t.fault <- Some "cycle limit exceeded";
  (* post-exit drain: short-latency fills (exposes, L2 handshakes) land in
     the final state; memory-latency and MSHR-starved requests do not *)
  for _ = 1 to t.cfg.drain_cycles do
    t.cycle <- t.cycle + 1;
    Memsys.tick t.ms ~now:t.cycle
  done;
  {
    cycles = t.cycle;
    committed_insts = t.committed_insts;
    squashes = t.squashes;
    squashed_insts = t.squashed_insts;
    spec_issued = t.spec_issued;
    mispredicts = t.mispredicts;
    fault = t.fault;
  }

let branch_prediction_order t =
  let rec go k acc =
    if k < 0 then acc
    else go (k - 1) ((t.bp_pc.(k), t.bp_taken.(k), t.bp_tgt.(k)) :: acc)
  in
  go (t.bp_len - 1) []

let execution_order t = Array.to_list (Array.sub t.exec_buf 0 t.exec_len)
let cycles t = t.cycle
