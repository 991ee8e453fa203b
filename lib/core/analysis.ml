(** Violation analysis (paper §3.3): root-cause support and unique-violation
    identification.

    The paper's workflow re-runs a violating test pair with gem5 debug logs
    enabled, diffs memory accesses side by side, traces the leaking address
    back through the program dataflow, and then filters future duplicates by
    a signature (a pattern in the debug logs).  This module automates all
    three steps over the simulator's structured event log. *)

open Amulet_isa
open Amulet_uarch

(* ------------------------------------------------------------------ *)
(* Signatures: the known leak classes of the paper                     *)
(* ------------------------------------------------------------------ *)

(** Leak classes in the paper's naming (§4.5–§4.8 plus the baseline
    Spectre variants). *)
type leak_class =
  | Spectre_v1_install  (** baseline: transient load installs a line *)
  | Spectre_v1_evict  (** baseline: transient load evicts a primed line *)
  | Spectre_v4  (** store-bypass (memory-dependence) leak *)
  | Spec_eviction_uv1  (** InvisiSpec: spec miss triggers L1 replacement *)
  | Mshr_interference_uv2  (** InvisiSpec: expose stalled by MSHR contention *)
  | Store_not_cleaned_uv3  (** CleanupSpec: speculative store not cleaned *)
  | Split_not_cleaned_uv4  (** CleanupSpec: split request not cleaned *)
  | Too_much_cleaning_uv5  (** CleanupSpec: non-spec load cleaned away *)
  | Unxpec_kv2  (** CleanupSpec: cleanup-latency L1I channel *)
  | Tainted_store_tlb_kv3  (** STT: tainted store fills the D-TLB *)
  | First_load_unprotected_uv6  (** SpecLFB: first spec load not delayed *)
  | Prefetcher_leak
      (** extension study (§5.2): a prefetch trained by a transient access
          installs outside the defense's protection *)
  | Unknown

let class_name = function
  | Spectre_v1_install -> "spectre-v1 (speculative install)"
  | Spectre_v1_evict -> "spectre-v1 (speculative eviction)"
  | Spectre_v4 -> "spectre-v4 (store bypass)"
  | Spec_eviction_uv1 -> "UV1: speculative L1D eviction"
  | Mshr_interference_uv2 -> "UV2: same-core speculative interference (MSHR)"
  | Store_not_cleaned_uv3 -> "UV3: speculative store not cleaned"
  | Split_not_cleaned_uv4 -> "UV4: split request not cleaned"
  | Too_much_cleaning_uv5 -> "UV5: too much cleaning"
  | Unxpec_kv2 -> "KV2: unXpec (cleanup-latency L1I channel)"
  | Tainted_store_tlb_kv3 -> "KV3: tainted store fills TLB"
  | First_load_unprotected_uv6 -> "UV6: first speculative load unprotected"
  | Prefetcher_leak -> "prefetcher leak: transient access trained a prefetch"
  | Unknown -> "unclassified"

(* Facts extracted from one event log. *)
type log_facts = {
  spec_evictions : bool;
  mshr_stall_expose : bool;
  mshr_stall_any : bool;
  cleanup_missing_store : bool;
  cleanup_missing_split : bool;
  cleaned_lines : int list;
  nonspec_access_lines : int list;  (** architectural loads and stores *)
  spec_access_lines : int list;
  tainted_store_tlb : bool;
  lfb_unprotected : bool;
  spec_trained_prefetch : bool;
  memdep_squash : bool;
  branch_squash : bool;
  l1i_installs_after_exec : int;
}

let facts_of (events : Event.t list) : log_facts =
  let spec_evictions = ref false in
  let mshr_stall_expose = ref false in
  let mshr_stall_any = ref false in
  let cleanup_missing_store = ref false in
  let cleanup_missing_split = ref false in
  let cleaned = ref [] in
  let nonspec_loads = ref [] in
  let spec_lines = ref [] in
  let tainted_store_tlb = ref false in
  let lfb_unprotected = ref false in
  let spec_trained_prefetch = ref false in
  let memdep_squash = ref false in
  let branch_squash = ref false in
  let l1i_installs = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      match e with
      | Event.Spec_eviction _ -> spec_evictions := true
      | Event.Mshr_stall { kind = Event.Expose; _ } ->
          mshr_stall_expose := true;
          mshr_stall_any := true
      | Event.Mshr_stall _ -> mshr_stall_any := true
      | Event.Cleanup_missing { reason; _ } ->
          if String.length reason >= 5 && String.sub reason 0 5 = "split" then
            cleanup_missing_split := true
          else cleanup_missing_store := true
      | Event.Cleanup { line; _ } -> cleaned := line :: !cleaned
      | Event.Mem_access
          { kind = Event.Demand_load | Event.Store; spec = false; line; _ } ->
          nonspec_loads := line :: !nonspec_loads
      | Event.Mem_access { kind = Event.Prefetch; spec = true; _ } ->
          spec_trained_prefetch := true
      | Event.Mem_access { spec = true; line; _ } -> spec_lines := line :: !spec_lines
      | Event.Tlb_fill { tainted = true; by_store = true; _ } ->
          tainted_store_tlb := true
      | Event.Lfb_unprotected _ -> lfb_unprotected := true
      | Event.Squashed { reason = Event.Memdep_violation; _ } -> memdep_squash := true
      | Event.Squashed { reason = Event.Branch_mispredict; _ } -> branch_squash := true
      | Event.Cache_install { cache = "L1I"; _ } -> incr l1i_installs
      | Event.Mem_access _ | Event.Fetched _ | Event.Predicted _
      | Event.Executed _ | Event.Cache_install _ | Event.Cache_evict _
      | Event.Mshr_alloc _ | Event.Spec_buffer_fill _ | Event.Expose_issued _
      | Event.Split_access _ | Event.Taint_blocked _ | Event.Committed _
      | Event.Tlb_fill _ ->
          ())
    events;
  {
    spec_evictions = !spec_evictions;
    mshr_stall_expose = !mshr_stall_expose;
    mshr_stall_any = !mshr_stall_any;
    cleanup_missing_store = !cleanup_missing_store;
    cleanup_missing_split = !cleanup_missing_split;
    cleaned_lines = !cleaned;
    nonspec_access_lines = !nonspec_loads;
    spec_access_lines = !spec_lines;
    tainted_store_tlb = !tainted_store_tlb;
    lfb_unprotected = !lfb_unprotected;
    spec_trained_prefetch = !spec_trained_prefetch;
    memdep_squash = !memdep_squash;
    branch_squash = !branch_squash;
    l1i_installs_after_exec = !l1i_installs;
  }

(** Classify a violation from the event logs of its two runs, following the
    paper's signature rules (§3.3b).  Order matters: the most specific
    defense-bug signatures win over the generic Spectre classes. *)
let classify ~(defense : Amulet_defenses.Defense.t) (events_a : Event.t list)
    (events_b : Event.t list) : leak_class =
  let fa = facts_of events_a and fb = facts_of events_b in
  let either f = f fa || f fb in
  let is_invisispec =
    match defense.Amulet_defenses.Defense.defense with
    | Config.Invisispec _ -> true
    | _ -> false
  in
  if either (fun f -> f.spec_evictions) then Spec_eviction_uv1
  else if either (fun f -> f.mshr_stall_expose) then Mshr_interference_uv2
  else if is_invisispec && either (fun f -> f.mshr_stall_any) then
    (* speculative fills holding scarce MSHRs delayed other requests past
       the end of the test: the same-core interference family *)
    Mshr_interference_uv2
  else if either (fun f -> f.cleanup_missing_store) then Store_not_cleaned_uv3
  else if either (fun f -> f.cleanup_missing_split) then Split_not_cleaned_uv4
  else if
    (* UV5: a cleanup invalidated a line that architectural execution (a
       non-speculative load or store) had touched *)
    either (fun f ->
        List.exists (fun l -> List.mem l f.nonspec_access_lines) f.cleaned_lines)
  then Too_much_cleaning_uv5
  else if either (fun f -> f.tainted_store_tlb) then Tainted_store_tlb_kv3
  else if either (fun f -> f.lfb_unprotected) then First_load_unprotected_uv6
  else if
    (* a transiently-trained prefetch on a cache-protecting defense: the
       prefetch installs what the defense would have hidden *)
    (match defense.Amulet_defenses.Defense.defense with
    | Config.Invisispec _ | Config.Speclfb _ | Config.Ghostminion
    | Config.Delay_on_miss ->
        true
    | _ -> false)
    && either (fun f -> f.spec_trained_prefetch)
  then Prefetcher_leak
  else if
    (match defense.Amulet_defenses.Defense.defense with
    | Config.Cleanupspec _ -> true
    | _ -> false)
    && defense.Amulet_defenses.Defense.include_l1i
    && fa.l1i_installs_after_exec <> fb.l1i_installs_after_exec
  then Unxpec_kv2
  else if either (fun f -> f.memdep_squash) then Spectre_v4
  else if either (fun f -> f.branch_squash) then
    (* distinguish install- vs evict-visible Spectre-v1 by whether the two
       runs' speculative lines appear directly in the trace difference *)
    if either (fun f -> f.spec_access_lines <> []) then Spectre_v1_install
    else Spectre_v1_evict
  else Unknown

(* Classification is pure, so this is the one place a signature is
   attached. *)
let sign ?boot_insts ?sim_config ?format (v : Violation.t) =
  let defense = Violation_io.resolve_defense v.Violation.defense_name in
  let r =
    Engine.replay
      (Engine.analysis ?boot_insts ?sim_config ?format defense)
      ~log:true (Engine.Context v.Violation.context) v.Violation.program
      v.Violation.input_a v.Violation.input_b
  in
  let c = classify ~defense r.Engine.a.Engine.events r.Engine.b.Engine.events in
  (c, Violation.with_signature (class_name c) v)

(* ------------------------------------------------------------------ *)
(* Side-by-side diff (the paper's root-cause script)                   *)
(* ------------------------------------------------------------------ *)

type op_row = { row_cycle : int; row_pc : int; row_kind : string; row_addr : int }

let rows_of events =
  List.filter_map
    (fun (e : Event.t) ->
      match e with
      | Event.Mem_access { cycle; pc; kind; addr; spec; _ } ->
          Some
            {
              row_cycle = cycle;
              row_pc = pc;
              row_kind = Event.mem_kind_name kind ^ (if spec then "(s)" else "");
              row_addr = addr;
            }
      | Event.Cleanup { cycle; line; _ } ->
          Some { row_cycle = cycle; row_pc = 0; row_kind = "Undo"; row_addr = line }
      | Event.Squashed { cycle; pc; _ } ->
          Some { row_cycle = cycle; row_pc = pc; row_kind = "Squash"; row_addr = 0 }
      | _ -> None)
    events

(** Print the two runs' memory operations side by side, highlighting
    differing rows with [*] — the layout of the paper's Tables 9/10. *)
let pp_side_by_side fmt (events_a : Event.t list) (events_b : Event.t list) =
  let ra = Array.of_list (rows_of events_a) in
  let rb = Array.of_list (rows_of events_b) in
  let n = max (Array.length ra) (Array.length rb) in
  Format.fprintf fmt "%-38s | %-38s@." "Input A (cycle pc type addr)"
    "Input B (cycle pc type addr)";
  for i = 0 to n - 1 do
    let cell r =
      if i < Array.length r then
        let x = r.(i) in
        Printf.sprintf "%5d 0x%06x %-8s 0x%x" x.row_cycle x.row_pc x.row_kind x.row_addr
      else ""
    in
    let ca = cell ra and cb = cell rb in
    let marker = if ca <> cb then "*" else " " in
    Format.fprintf fmt "%s%-37s | %-38s@." marker ca cb
  done

(* ------------------------------------------------------------------ *)
(* Dataflow walk-back (find the mis-speculated source of a leak)       *)
(* ------------------------------------------------------------------ *)

(** Static use-def walk: starting from the address registers of the
    instruction at [index], follow defs backwards and report the chain of
    instruction indices that feed the leaking address.  This is the
    "trace back along the program data flow" step of §3.3a. *)
let dataflow_back (flat : Program.flat) ~index : int list =
  let wanted = ref [] in
  (match Inst.mem_access (Program.get flat index) with
  | Some (m, _, _) -> wanted := Operand.address_regs (Operand.Mem m)
  | None -> ());
  let chain = ref [] in
  let i = ref (index - 1) in
  while !i >= 0 && !wanted <> [] do
    let inst = Program.get flat !i in
    let dests = Inst.dest_regs inst in
    let hits = List.filter (fun r -> List.memq r !wanted) dests in
    if hits <> [] then begin
      chain := !i :: !chain;
      wanted :=
        List.filter (fun r -> not (List.memq r hits)) !wanted
        @ List.filter (fun r -> not (Reg.equal r Reg.sandbox_base)) (Inst.source_regs inst)
    end;
    decr i
  done;
  !chain

(** Identify the instruction most likely responsible for a state-snapshot
    difference: the youngest speculative access in either log whose line
    appears in the trace diff. *)
let leaking_access (events : Event.t list) ~(diff_lines : int list) =
  List.fold_left
    (fun acc (e : Event.t) ->
      match e with
      | Event.Mem_access { pc; line; spec = true; _ } when List.mem line diff_lines ->
          Some pc
      | _ -> acc)
    None events
