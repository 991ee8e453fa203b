(** The executable leakage model.

    Runs a test case on the sequential emulator under a given contract,
    producing the contract trace (per the observation clause), exploring
    mispredicted branch directions (per the execution clause) and, when
    requested, the input-taint information used for input boosting.  This is
    the AMuLeT analogue of Revizor's Unicorn-based model. *)

open Amulet_isa
open Amulet_emu

type result = {
  ctrace : Observation.trace;
  ctrace_hash : int64;
  shape_hash : int64;  (** digest of observation kinds only, for coverage *)
  taint : Taint.t option;
  arch_steps : int;  (** instructions retired on the architectural path *)
  spec_steps : int;  (** instructions explored on mispredicted paths *)
  fault : string option;
}

(** Collect the contract trace of [flat] starting from [state] (which the
    caller has initialized with the test input; it is mutated by execution).
    [collect_taint] additionally runs the taint tracker for boosting. *)
let collect ?(collect_taint = false) ?(max_steps = 10_000) ?decoded
    (c : Contract.t) (flat : Program.flat) (state : State.t) : result =
  (* A decode for a different program would make [fuse_stop] meaningless. *)
  let decoded =
    match decoded with
    | Some d when Decoded.flat d == flat -> Some d
    | Some _ | None -> None
  in
  let obs = ref [] in
  let emit o = obs := o :: !obs in
  let taint = if collect_taint then Some (Taint.create state.State.mem) else None in
  (match taint with
  | Some tctx when c.Contract.expose_initial_regs -> Taint.mark_all_regs_relevant tctx
  | Some _ | None -> ());
  let spec_steps = ref 0 in
  let emu = Emulator.create flat state in
  if c.Contract.expose_initial_regs then
    List.iter
      (fun r ->
        emit (Observation.Reg_value (Reg.index r, State.read_reg state r)))
      Reg.all;
  let on_inst ~pc ~index:_ inst =
    if c.Contract.observe_pc then emit (Observation.Pc pc);
    match taint with
    | None -> ()
    | Some t ->
        let request = Exec.mem_request ~read_reg:(State.read_reg state) inst in
        Taint.step t ~inst ~request
          ~observe_values:c.Contract.observe_loaded_values
  in
  let on_mem ~kind ~pc:_ ~addr ~width:_ ~value =
    if c.Contract.observe_addresses then
      emit
        (match kind with
        | `Load -> Observation.Load_addr addr
        | `Store -> Observation.Store_addr addr);
    match kind with
    | `Load -> if c.Contract.observe_loaded_values then emit (Observation.Load_value value)
    | `Store -> ()
  in
  let hooks = { Emulator.on_inst = Some on_inst; on_mem = Some on_mem } in
  (* Wrong-path excursion bookkeeping: [run_path depth budget] executes until
     exit or budget exhaustion, recursing into mispredicted directions of
     conditional branches while depth allows. [budget = None] is the
     unbounded architectural path (still capped by [max_steps]). *)
  let window, nesting =
    match c.Contract.speculation with
    | Contract.No_speculation -> 0, 0
    | Contract.Conditional_branches { window; nesting } -> window, nesting
  in
  let total = ref 0 in
  let rec run_path depth budget =
    let continue_ = ref true in
    let budget = ref budget in
    while !continue_ do
      if Emulator.exited emu || !total >= max_steps then continue_ := false
      else begin
        (match !budget with
        | Some b when b <= 0 -> continue_ := false
        | Some _ | None -> ());
        if !continue_ then begin
          let index = Emulator.current_index emu in
          let in_code = index >= 0 && index < Program.length flat in
          (* Straight-line fast path: when the pre-decode proves the run
             [index, fuse_stop) is branch/exit-free, fuse it into one
             emulator call.  Hooks still fire per instruction, so the trace
             is identical; only the per-step control logic is skipped (a
             fused run cannot contain a [Jcc], so no exploration point is
             bypassed). *)
          let fused =
            match decoded with
            | Some d when in_code ->
                let stop = (Decoded.info d index).Decoded.fuse_stop in
                if stop > index then begin
                  let fuel = max_steps - !total in
                  let fuel =
                    match !budget with Some b -> min fuel b | None -> fuel
                  in
                  let executed = Emulator.run_straight ~hooks emu ~stop ~fuel in
                  total := !total + executed;
                  if depth > 0 then spec_steps := !spec_steps + executed;
                  (match !budget with
                  | Some b -> budget := Some (b - executed)
                  | None -> ());
                  executed > 0
                end
                else false
            | Some _ | None -> false
          in
          if not fused then begin
            (* Explore the mispredicted direction before executing a branch. *)
            (if in_code && depth < nesting then
               match Program.get flat index with
               | Inst.Jcc (_, Inst.Abs target) as jcc ->
                   let taken = Exec.branch_taken jcc state.State.flags in
                   let wrong = if taken then index + 1 else target in
                   let cp = Emulator.checkpoint emu in
                   emit (Observation.Spec_enter (Program.pc_of_index flat index));
                   Emulator.set_index emu wrong;
                   run_path (depth + 1) (Some window);
                   emit Observation.Spec_exit;
                   Emulator.restore emu cp
               | _ -> ());
            (* Execute the instruction for real on this path. *)
            let before = Emulator.steps emu in
            (match Emulator.step ~hooks emu with
            | `Exit -> continue_ := false
            | `Continue -> ());
            let executed = Emulator.steps emu - before in
            total := !total + executed;
            if depth > 0 then spec_steps := !spec_steps + executed;
            match !budget with
            | Some b -> budget := Some (b - executed)
            | None -> ()
          end
        end
      end
    done
  in
  run_path 0 None;
  Emulator.commit emu;
  let fault =
    match Emulator.fault emu with
    | Some _ as f -> f
    | None -> if !total >= max_steps then Some "step limit exceeded" else None
  in
  let ctrace = List.rev !obs in
  {
    ctrace;
    ctrace_hash = Observation.hash_trace ctrace;
    shape_hash = Observation.shape_hash ctrace;
    taint;
    arch_steps = !total - !spec_steps;
    spec_steps = !spec_steps;
    fault;
  }
