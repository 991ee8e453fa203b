(* Tests for leakage contracts and the leakage model: observation clauses,
   the speculative execution clause, determinism, and the refinement
   relationships between the contracts of Table 1. *)

open Amulet_isa
open Amulet_emu
open Amulet_contracts
module Rng = Amulet_corpus.Rng
module Generator = Amulet_corpus.Generator

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let state_of ?(pages = 1) ?(regs = []) ?(mem = []) () =
  let st = State.create ~pages () in
  State.write_reg st Reg.sandbox_base (Int64.of_int (Memory.base st.State.mem));
  List.iter (fun (r, v) -> State.write_reg st r v) regs;
  List.iter
    (fun (off, v) -> Memory.write st.State.mem Width.W64 (Memory.base st.State.mem + off) v)
    mem;
  st

let collect ?collect_taint contract src st =
  Leakage_model.collect ?collect_taint contract (Program.flatten (Asm.parse src)) st

let count_obs pred trace = List.length (List.filter pred trace)

(* ------------------------------------------------------------------ *)
(* Observation clauses                                                 *)
(* ------------------------------------------------------------------ *)

let simple_src = {|
  MOV RAX, qword ptr [R14 + 8]
  MOV qword ptr [R14 + 16], RAX
  ADD RBX, 1
|}

let test_ctseq_observations () =
  let r = collect Contract.ct_seq simple_src (state_of ()) in
  Alcotest.(check (option string)) "no fault" None r.Leakage_model.fault;
  let tr = r.Leakage_model.ctrace in
  checki "4 pcs (incl. exit)" 4 (count_obs (function Observation.Pc _ -> true | _ -> false) tr);
  checki "1 load addr" 1 (count_obs (function Observation.Load_addr _ -> true | _ -> false) tr);
  checki "1 store addr" 1 (count_obs (function Observation.Store_addr _ -> true | _ -> false) tr);
  checki "no values" 0 (count_obs (function Observation.Load_value _ -> true | _ -> false) tr);
  checki "no reg exposure" 0 (count_obs (function Observation.Reg_value _ -> true | _ -> false) tr)

let test_archseq_observations () =
  let st = state_of ~mem:[ 8, 0xCAFEL ] () in
  let r = collect Contract.arch_seq simple_src st in
  let tr = r.Leakage_model.ctrace in
  checki "1 loaded value" 1
    (count_obs (function Observation.Load_value 0xCAFEL -> true | _ -> false) tr);
  checki "register file exposed" Reg.count
    (count_obs (function Observation.Reg_value _ -> true | _ -> false) tr)

let branch_src = {|
.bb0:
  CMP RAX, 0
  JNZ .other
  MOV RBX, qword ptr [R14 + 64]
.other:
  EXIT
|}

let test_ctcond_explores_wrong_path () =
  (* RAX != 0: branch taken, the load is NOT on the architectural path but
     CT-COND explores it *)
  let seq = collect Contract.ct_seq branch_src (state_of ~regs:[ Reg.RAX, 1L ] ()) in
  let cond = collect Contract.ct_cond branch_src (state_of ~regs:[ Reg.RAX, 1L ] ()) in
  let loads tr = count_obs (function Observation.Load_addr _ -> true | _ -> false) tr in
  checki "ct-seq misses transient load" 0 (loads seq.Leakage_model.ctrace);
  checki "ct-cond sees transient load" 1 (loads cond.Leakage_model.ctrace);
  checkb "spec markers present" true
    (List.exists (function Observation.Spec_enter _ -> true | _ -> false)
       cond.Leakage_model.ctrace);
  checkb "spec steps counted" true (cond.Leakage_model.spec_steps > 0)

let test_ctcond_window_bounded () =
  (* the wrong path is bounded by the speculation window *)
  let contract = Contract.with_cond_speculation ~window:2 ~nesting:1 Contract.ct_seq in
  let r = collect contract branch_src (state_of ~regs:[ Reg.RAX, 1L ] ()) in
  checkb "spec steps bounded" true (r.Leakage_model.spec_steps <= 2)

let test_ctcond_nesting () =
  let src = {|
.bb0:
  CMP RAX, 0
  JNZ .a
  NOP
.a:
  CMP RBX, 0
  JNZ .b
  NOP
.b:
  EXIT
|} in
  let shallow = Contract.with_cond_speculation ~window:20 ~nesting:1 Contract.ct_seq in
  let deep = Contract.with_cond_speculation ~window:20 ~nesting:2 Contract.ct_seq in
  let st () = state_of ~regs:[ Reg.RAX, 1L; Reg.RBX, 1L ] () in
  let spec_enters r =
    count_obs (function Observation.Spec_enter _ -> true | _ -> false) r.Leakage_model.ctrace
  in
  let s1 = spec_enters (collect shallow src (st ())) in
  let s2 = spec_enters (collect deep src (st ())) in
  checkb "deeper nesting explores more" true (s2 > s1)

(* ------------------------------------------------------------------ *)
(* Determinism and rollback isolation                                  *)
(* ------------------------------------------------------------------ *)

let determinism_prop =
  QCheck2.Test.make ~name:"contract traces are deterministic" ~count:80
    QCheck2.Gen.(pair (int_bound 1000000) (oneofl [ 0; 1; 2 ]))
    (fun (seed, which) ->
      let open Amulet in
      let contract =
        match which with 0 -> Contract.ct_seq | 1 -> Contract.ct_cond | _ -> Contract.arch_seq
      in
      let rng = Rng.create ~seed in
      let flat = Generator.generate_flat rng in
      let input = Input.generate rng ~pages:1 in
      let r1 = Leakage_model.collect contract flat (Input.to_state input) in
      let r2 = Leakage_model.collect contract flat (Input.to_state input) in
      Int64.equal r1.Leakage_model.ctrace_hash r2.Leakage_model.ctrace_hash)

(* Exploring speculation must not corrupt the architectural result: CT-COND
   and CT-SEQ leave identical final states. *)
let rollback_isolation_prop =
  QCheck2.Test.make ~name:"speculative exploration rolls back cleanly" ~count:80
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let open Amulet in
      let rng = Rng.create ~seed in
      let flat = Generator.generate_flat rng in
      let input = Input.generate rng ~pages:1 in
      let st_seq = Input.to_state input and st_cond = Input.to_state input in
      let r_seq = Leakage_model.collect Contract.ct_seq flat st_seq in
      let r_cond = Leakage_model.collect Contract.ct_cond flat st_cond in
      (r_seq.Leakage_model.fault <> None || r_cond.Leakage_model.fault <> None)
      || Int64.equal (State.hash st_seq) (State.hash st_cond))

(* CT-COND refines CT-SEQ: equal CT-COND traces imply equal CT-SEQ traces. *)
let refinement_prop =
  QCheck2.Test.make ~name:"CT-COND refines CT-SEQ classes" ~count:50
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let open Amulet in
      let rng = Rng.create ~seed in
      let flat = Generator.generate_flat rng in
      let a = Input.generate rng ~pages:1 in
      let b = Input.generate rng ~pages:1 in
      let h c i = (Leakage_model.collect c flat (Input.to_state i)).Leakage_model.ctrace_hash in
      (* if CT-COND traces match, CT-SEQ traces must match too *)
      (not (Int64.equal (h Contract.ct_cond a) (h Contract.ct_cond b)))
      || Int64.equal (h Contract.ct_seq a) (h Contract.ct_seq b))

let test_archseq_distinguishes_values () =
  let src = "MOV RAX, qword ptr [R14 + 8]" in
  let r1 = collect Contract.arch_seq src (state_of ~mem:[ 8, 1L ] ()) in
  let r2 = collect Contract.arch_seq src (state_of ~mem:[ 8, 2L ] ()) in
  checkb "values split classes" false
    (Int64.equal r1.Leakage_model.ctrace_hash r2.Leakage_model.ctrace_hash);
  let r1 = collect Contract.ct_seq src (state_of ~mem:[ 8, 1L ] ()) in
  let r2 = collect Contract.ct_seq src (state_of ~mem:[ 8, 2L ] ()) in
  checkb "ct-seq ignores values" true
    (Int64.equal r1.Leakage_model.ctrace_hash r2.Leakage_model.ctrace_hash)

let test_contract_lookup () =
  checkb "find ct-seq" true (Contract.find "ct-seq" = Some Contract.ct_seq);
  checkb "find CT-COND" true (Contract.find "CT-COND" = Some Contract.ct_cond);
  checkb "find arch-seq" true (Contract.find "ARCH-SEQ" = Some Contract.arch_seq);
  checkb "unknown" true (Contract.find "nope" = None)

let test_observation_hash_order_sensitive () =
  let a = [ Observation.Pc 1; Observation.Pc 2 ] in
  let b = [ Observation.Pc 2; Observation.Pc 1 ] in
  checkb "order matters" false
    (Int64.equal (Observation.hash_trace a) (Observation.hash_trace b));
  checkb "equal traces equal hashes" true
    (Int64.equal (Observation.hash_trace a) (Observation.hash_trace a))

(* boosting must also preserve ARCH-SEQ traces, which expose the register
   file: mutants may only vary memory the contract never observes *)
let archseq_boost_soundness_prop =
  QCheck2.Test.make ~name:"taint-directed mutation preserves ARCH-SEQ ctrace" ~count:40
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let open Amulet in
      let rng = Rng.create ~seed in
      let flat = Generator.generate_flat rng in
      let input = Input.generate rng ~pages:1 in
      let r =
        Leakage_model.collect ~collect_taint:true Contract.arch_seq flat
          (Input.to_state input)
      in
      match r.Leakage_model.fault, r.Leakage_model.taint with
      | Some _, _ | _, None -> true
      | None, Some taint ->
          let mutant = Input.mutate_free rng taint input in
          (* registers are contract-observed, so they must be untouched *)
          Array.for_all2 Int64.equal input.Input.regs mutant.Input.regs
          &&
          let r' = Leakage_model.collect Contract.arch_seq flat (Input.to_state mutant) in
          r'.Leakage_model.fault <> None
          || Int64.equal r.Leakage_model.ctrace_hash r'.Leakage_model.ctrace_hash)

let () =
  Alcotest.run "contracts"
    [
      ( "observation-clauses",
        [
          Alcotest.test_case "ct-seq" `Quick test_ctseq_observations;
          Alcotest.test_case "arch-seq" `Quick test_archseq_observations;
          Alcotest.test_case "arch-seq distinguishes values" `Quick
            test_archseq_distinguishes_values;
          Alcotest.test_case "contract lookup" `Quick test_contract_lookup;
          Alcotest.test_case "hash order-sensitive" `Quick
            test_observation_hash_order_sensitive;
        ] );
      ( "execution-clauses",
        [
          Alcotest.test_case "ct-cond wrong path" `Quick test_ctcond_explores_wrong_path;
          Alcotest.test_case "window bounded" `Quick test_ctcond_window_bounded;
          Alcotest.test_case "nesting" `Quick test_ctcond_nesting;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest determinism_prop;
          QCheck_alcotest.to_alcotest rollback_isolation_prop;
          QCheck_alcotest.to_alcotest refinement_prop;
          QCheck_alcotest.to_alcotest archseq_boost_soundness_prop;
        ] );
    ]
