(** Violation minimization.

    Fuzzer-found programs carry dozens of irrelevant instructions; this
    module shrinks a violation to its essence by repeatedly replacing
    instructions with [NOP] while the violation persists — the usual
    delta-debugging step a human performs during the paper's §3.3 root-cause
    analysis, automated.

    An instruction is kept only if removing it either breaks the
    contract-trace equality of the two inputs (the pair would no longer be a
    test for leakage) or makes their microarchitectural traces agree (the
    leak disappears). *)

open Amulet_isa
open Amulet_contracts

type result = {
  minimized : Program.flat;
  removed : int;  (** instructions replaced by NOP *)
  kept : int;  (** non-NOP instructions remaining (incl. Exit) *)
}

(* Does the violation still reproduce on [flat] for this input pair?  Both
   contract-equality and a validated microarchitectural difference must
   hold: the pair is replayed fresh on a new engine (same defense/config as
   the original), then validated from each input's starting context. *)
let still_violates ~defense ~contract ~sim_config flat (a : Input.t) (b : Input.t) =
  let ctrace i = Leakage_model.collect contract flat (Input.to_state i) in
  let ra = ctrace a and rb = ctrace b in
  ra.Leakage_model.fault = None
  && rb.Leakage_model.fault = None
  && Int64.equal ra.Leakage_model.ctrace_hash rb.Leakage_model.ctrace_hash
  &&
  let e = Engine.analysis ~boot_insts:200 ?sim_config defense in
  let r = Engine.replay e Engine.Fresh flat a b in
  Engine.validate e flat a b [ r.Engine.a.Engine.context; r.Engine.b.Engine.context ]
  <> None

let nop_count flat =
  Array.fold_left
    (fun acc i -> if i = Inst.Nop then acc + 1 else acc)
    0 flat.Program.code

(** Minimize [s]'s program for its input pair.  [sim_config] must match the
    configuration the violation was found under (amplified structures
    etc.). *)
let minimize ?sim_config (s : Violation_io.stored) : result =
  let defense = Violation_io.resolve_defense s.Violation_io.defense_name in
  let contract = Violation_io.resolve_contract defense s.Violation_io.contract_name in
  let original = s.Violation_io.program in
  let code = Array.copy original.Program.code in
  let flat () = { original with Program.code = Array.copy code } in
  let check () =
    still_violates ~defense ~contract ~sim_config (flat ())
      s.Violation_io.input_a s.Violation_io.input_b
  in
  let removed = ref 0 in
  (* newest-first: late instructions are most often incidental *)
  for i = Array.length code - 1 downto 0 do
    match code.(i) with
    | Inst.Exit | Inst.Nop -> ()
    | inst ->
        code.(i) <- Inst.Nop;
        if check () then incr removed else code.(i) <- inst
  done;
  let minimized = flat () in
  {
    minimized;
    removed = !removed;
    kept = Array.length code - nop_count minimized;
  }
