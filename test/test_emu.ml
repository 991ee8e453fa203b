(* Tests for the emulator library: sandbox memory, architectural state,
   instruction semantics, the sequential emulator with checkpoints, and the
   input-taint tracker. *)

open Amulet_isa
open Amulet_emu
module Rng = Amulet_corpus.Rng
module Generator = Amulet_corpus.Generator

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check64 = Alcotest.check Alcotest.int64

(* run an assembly snippet over a fresh 1-page state with initial registers *)
let run_asm ?(pages = 1) ?(regs = []) ?(mem = []) src =
  let flat = Program.flatten (Asm.parse src) in
  let st = State.create ~pages () in
  State.write_reg st Reg.sandbox_base (Int64.of_int (Memory.base st.State.mem));
  List.iter (fun (r, v) -> State.write_reg st r v) regs;
  List.iter (fun (off, w, v) -> Memory.write st.State.mem w (Memory.base st.State.mem + off) v) mem;
  let emu = Emulator.execute flat st in
  Alcotest.(check (option string)) "no fault" None (Emulator.fault emu);
  st

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let test_memory_rw () =
  let m = Memory.create ~pages:1 () in
  Memory.write m Width.W64 (Memory.base m) 0x1122334455667788L;
  check64 "w64" 0x1122334455667788L (Memory.read m Width.W64 (Memory.base m));
  check64 "w8 le" 0x88L (Memory.read m Width.W8 (Memory.base m));
  check64 "w16 le" 0x7788L (Memory.read m Width.W16 (Memory.base m));
  check64 "w32 offset" 0x11223344L (Memory.read m Width.W32 (Memory.base m + 4))

let test_memory_out_of_bounds () =
  let m = Memory.create ~pages:1 () in
  Memory.write m Width.W64 0x100 0xdeadbeefL;
  check64 "oob read is zero" 0L (Memory.read m Width.W64 0x100);
  (* partially out of bounds: the in-bounds bytes persist *)
  let last = Memory.limit m - 4 in
  Memory.write m Width.W64 last 0x1122334455667788L;
  check64 "partial write keeps low bytes" 0x55667788L (Memory.read m Width.W32 last);
  check64 "beyond end reads zero" 0L (Memory.read m Width.W32 (last + 4))

let test_memory_journal () =
  let m = Memory.create ~pages:1 () in
  Memory.write m Width.W64 (Memory.base m) 0xAAAAL;
  Memory.set_journaling m true;
  let mark = Memory.mark m in
  Memory.write m Width.W64 (Memory.base m) 0xBBBBL;
  Memory.write m Width.W32 (Memory.base m + 64) 0xCCCCL;
  Memory.rollback m mark;
  check64 "rollback restores" 0xAAAAL (Memory.read m Width.W64 (Memory.base m));
  check64 "rollback zeroes" 0L (Memory.read m Width.W32 (Memory.base m + 64))

(* A mark taken before clear_journal refers to journal state that no longer
   exists: rolling back to it must fail loudly (Invalid_argument), not
   corrupt memory via an assert or a bogus replay. *)
let test_memory_stale_mark () =
  let m = Memory.create ~pages:1 () in
  Memory.set_journaling m true;
  Memory.write m Width.W64 (Memory.base m) 0x1L;
  let stale = Memory.mark m in
  Memory.write m Width.W64 (Memory.base m) 0x2L;
  Memory.clear_journal m;
  (match Memory.rollback m stale with
  | () -> Alcotest.fail "rollback to a stale mark must raise"
  | exception Invalid_argument _ -> ());
  (* the failed rollback left the memory untouched and usable *)
  check64 "memory intact after rejected rollback" 0x2L
    (Memory.read m Width.W64 (Memory.base m));
  let fresh = Memory.mark m in
  Memory.write m Width.W64 (Memory.base m) 0x3L;
  Memory.rollback m fresh;
  check64 "fresh mark still works" 0x2L (Memory.read m Width.W64 (Memory.base m))

let test_memory_word_accessors () =
  let m = Memory.create ~pages:2 () in
  checki "words" (2 * 4096 / 8) (Memory.words m);
  Memory.write_word m 5 0x1234L;
  check64 "word rw" 0x1234L (Memory.read_word m 5);
  check64 "byte view" 0x34L (Memory.read m Width.W8 (Memory.base m + 40))

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let test_state_width_writes () =
  let st = State.create ~pages:1 () in
  State.write_reg st Reg.RAX 0x1122334455667788L;
  State.write_reg_width st Width.W8 Reg.RAX 0xFFL;
  check64 "w8 merges" 0x11223344556677FFL (State.read_reg st Reg.RAX);
  State.write_reg_width st Width.W16 Reg.RAX 0xAAAAL;
  check64 "w16 merges" 0x112233445566AAAAL (State.read_reg st Reg.RAX);
  State.write_reg_width st Width.W32 Reg.RAX 0xBBBBBBBBL;
  check64 "w32 zero-extends" 0xBBBBBBBBL (State.read_reg st Reg.RAX);
  State.write_reg_width st Width.W64 Reg.RAX (-1L);
  check64 "w64 replaces" (-1L) (State.read_reg st Reg.RAX)

(* ------------------------------------------------------------------ *)
(* Exec semantics golden tests                                         *)
(* ------------------------------------------------------------------ *)

let test_exec_arith () =
  let st = run_asm ~regs:[ Reg.RAX, 10L; Reg.RBX, 3L ] {|
  SUB RAX, RBX
  ADD RAX, 100
  IMUL RAX, RBX
|} in
  check64 "(10-3+100)*3" 321L (State.read_reg st Reg.RAX)

let test_exec_logic_and_shift () =
  let st = run_asm ~regs:[ Reg.RAX, 0b1100L; Reg.RBX, 0b1010L ] {|
  AND RAX, RBX
  SHL RAX, 2
  XOR RAX, 1
  NOT RAX
|} in
  check64 "~(((12&10)<<2)^1)" (Int64.lognot 0b100001L) (State.read_reg st Reg.RAX)

let test_exec_memory_roundtrip () =
  let st = run_asm ~regs:[ Reg.RAX, 0xDEADL ] {|
  MOV qword ptr [R14 + 16], RAX
  MOV RBX, qword ptr [R14 + 16]
  ADD qword ptr [R14 + 16], RBX
  MOV RCX, qword ptr [R14 + 16]
|} in
  check64 "load back" 0xDEADL (State.read_reg st Reg.RBX);
  check64 "rmw doubled" (Int64.mul 0xDEADL 2L) (State.read_reg st Reg.RCX)

let test_exec_widths () =
  let st =
    run_asm
      ~mem:[ 0, Width.W64, 0x1122334455667788L ]
      ~regs:[ Reg.RBX, 0xFFFFFFFFFFFFFFFFL ]
      {|
  MOV RAX, byte ptr [R14]
  MOV RBX, word ptr [R14 + 2]
|}
  in
  check64 "byte load zero-extends into 64-bit write" 0x88L (State.read_reg st Reg.RAX);
  (* 16-bit load merges into the register's upper bits *)
  check64 "word load merges" 0xFFFFFFFFFFFF5566L (State.read_reg st Reg.RBX)

let test_exec_cmov_setcc () =
  let st = run_asm ~regs:[ Reg.RAX, 5L; Reg.RBX, 9L; Reg.RCX, 100L ] {|
  CMP RAX, 5
  SETZ RDX
  CMOVZ RSI, RBX
  CMP RAX, 6
  CMOVZ RSI, RCX
|} in
  check64 "setz" 1L (State.read_reg st Reg.RDX);
  check64 "cmov taken then not" 9L (State.read_reg st Reg.RSI)

let test_exec_branches () =
  let st = run_asm ~regs:[ Reg.RAX, 0L ] {|
.bb0:
  CMP RAX, 0
  JNZ .skip
  MOV RBX, 111
  JMP .end
.skip:
  MOV RBX, 222
.end:
  EXIT
|} in
  check64 "fallthrough path" 111L (State.read_reg st Reg.RBX);
  let st = run_asm ~regs:[ Reg.RAX, 7L ] {|
.bb0:
  CMP RAX, 0
  JNZ .skip
  MOV RBX, 111
  JMP .end
.skip:
  MOV RBX, 222
.end:
  EXIT
|} in
  check64 "taken path" 222L (State.read_reg st Reg.RBX)

let test_exec_neg_inc_dec_flags () =
  let st = run_asm ~regs:[ Reg.RAX, 0L; Reg.RBX, 0xFFL ] {|
  NEG RBX
  SETC RCX
  INC RAX
  SETC RDX
|} in
  check64 "neg" (Int64.neg 0xFFL) (State.read_reg st Reg.RBX);
  check64 "neg sets CF for nonzero" 1L (State.read_reg st Reg.RCX);
  (* INC must preserve CF (still set from NEG) *)
  check64 "inc preserves CF" 1L (State.read_reg st Reg.RDX)

let test_exec_shift_edge_cases () =
  let st = run_asm ~regs:[ Reg.RAX, 0x8000000000000000L; Reg.RBX, 0x8000000000000000L ] {|
  SAR RAX, 63
  SHR RBX, 63
|} in
  check64 "sar fills sign" (-1L) (State.read_reg st Reg.RAX);
  check64 "shr fills zero" 1L (State.read_reg st Reg.RBX)

let test_exec_lea_no_memory_access () =
  (* LEA of an out-of-sandbox address must not fault or touch memory *)
  let st = run_asm ~regs:[ Reg.RBX, 0xFFFF_FFFFL ] {|
  LEA RAX, [R14 + RBX + 100]
|} in
  let expected = Int64.add (Int64.add (State.read_reg st Reg.R14) 0xFFFF_FFFFL) 100L in
  check64 "lea computes address" (Int64.logand expected 0x7FFF_FFFF_FFFFL)
    (State.read_reg st Reg.RAX)

(* ------------------------------------------------------------------ *)
(* Emulator mechanics                                                  *)
(* ------------------------------------------------------------------ *)

let test_emulator_hooks () =
  let flat = Program.flatten (Asm.parse {|
  MOV RAX, qword ptr [R14 + 8]
  MOV qword ptr [R14 + 16], RAX
|}) in
  let st = State.create ~pages:1 () in
  State.write_reg st Reg.sandbox_base (Int64.of_int (Memory.base st.State.mem));
  let insts = ref [] and mems = ref [] in
  let hooks =
    {
      Emulator.on_inst = Some (fun ~pc ~index:_ _ -> insts := pc :: !insts);
      on_mem = Some (fun ~kind ~pc:_ ~addr ~width:_ ~value:_ -> mems := (kind, addr) :: !mems);
    }
  in
  ignore (Emulator.execute ~hooks flat st);
  checki "3 instructions observed" 3 (List.length !insts);
  checki "2 memory accesses" 2 (List.length !mems);
  let base = Memory.base st.State.mem in
  (match List.rev !mems with
  | [ (`Load, a1); (`Store, a2) ] ->
      checki "load addr" (base + 8) a1;
      checki "store addr" (base + 16) a2
  | _ -> Alcotest.fail "unexpected memory hook sequence")

let test_emulator_checkpoint () =
  let flat = Program.flatten (Asm.parse {|
  MOV RAX, 1
  MOV qword ptr [R14], RAX
  MOV RAX, 2
  MOV qword ptr [R14 + 8], RAX
|}) in
  let st = State.create ~pages:1 () in
  State.write_reg st Reg.sandbox_base (Int64.of_int (Memory.base st.State.mem));
  let emu = Emulator.create flat st in
  ignore (Emulator.step emu);
  ignore (Emulator.step emu);
  let cp = Emulator.checkpoint emu in
  ignore (Emulator.step emu);
  ignore (Emulator.step emu);
  check64 "before restore" 2L (State.read_reg st Reg.RAX);
  check64 "mem written" 2L (Memory.read st.State.mem Width.W64 (Memory.base st.State.mem + 8));
  Emulator.restore emu cp;
  check64 "regs restored" 1L (State.read_reg st Reg.RAX);
  check64 "mem rolled back" 0L (Memory.read st.State.mem Width.W64 (Memory.base st.State.mem + 8));
  checki "index restored" 2 (Emulator.current_index emu);
  Emulator.commit emu

let test_emulator_step_limit () =
  (* a backward jump loops forever; the step limit must catch it *)
  let flat =
    { Program.code = [| Inst.Jmp (Inst.Abs 0); Inst.Exit |]; code_base = 0x400000; inst_size = 4 }
  in
  let st = State.create ~pages:1 () in
  let emu = Emulator.create flat st in
  ignore (Emulator.run ~max_steps:100 emu);
  checkb "faulted" true (Emulator.fault emu <> None)

(* ------------------------------------------------------------------ *)
(* Taint tracking                                                      *)
(* ------------------------------------------------------------------ *)

let taint_of_asm ?(observe_values = false) ?(pages = 1) src =
  let flat = Program.flatten (Asm.parse src) in
  let st = State.create ~pages () in
  State.write_reg st Reg.sandbox_base (Int64.of_int (Memory.base st.State.mem));
  let taint = Taint.create st.State.mem in
  let emu = Emulator.create flat st in
  let hooks =
    {
      Emulator.on_inst =
        Some
          (fun ~pc:_ ~index:_ inst ->
            let request = Exec.mem_request ~read_reg:(State.read_reg st) inst in
            Taint.step taint ~inst ~request ~observe_values);
      on_mem = None;
    }
  in
  ignore (Emulator.run ~hooks emu);
  taint

let test_taint_address_relevant () =
  let taint = taint_of_asm {|
  AND RBX, 4088
  MOV RAX, qword ptr [R14 + RBX]
|} in
  checkb "address register relevant" true (Taint.is_relevant_reg taint Reg.RBX);
  checkb "unrelated register free" false (Taint.is_relevant_reg taint Reg.RCX)

let test_taint_branch_relevant () =
  let taint = taint_of_asm {|
  CMP RDX, 17
  JZ .x
  NOP
.x:
  EXIT
|} in
  checkb "branch condition source relevant" true (Taint.is_relevant_reg taint Reg.RDX)

let test_taint_data_free_under_ctseq () =
  (* loaded data that only flows to a register is NOT relevant for an
     address-observing contract *)
  let taint = taint_of_asm {|
  MOV RAX, qword ptr [R14 + 8]
  ADD RAX, 1
|} in
  checkb "loaded word free" false (Taint.is_relevant_word taint 1);
  (* ... but it IS relevant when values are observed (ARCH-SEQ) *)
  let taint = taint_of_asm ~observe_values:true {|
  MOV RAX, qword ptr [R14 + 8]
|} in
  checkb "loaded word relevant under arch-seq" true (Taint.is_relevant_word taint 1)

let test_taint_propagation_through_store () =
  (* secret -> store -> load -> address: the secret becomes relevant *)
  let taint = taint_of_asm {|
  MOV qword ptr [R14 + 32], RSI
  MOV RBX, qword ptr [R14 + 32]
  AND RBX, 4088
  MOV RAX, qword ptr [R14 + RBX]
|} in
  checkb "stored source becomes address-relevant" true
    (Taint.is_relevant_reg taint Reg.RSI)

let test_taint_flags_propagation () =
  let taint = taint_of_asm {|
  ADD RDI, 5
  SETZ RCX
  AND RCX, 4088
  MOV RAX, qword ptr [R14 + RCX]
|} in
  checkb "flag source relevant via setcc" true (Taint.is_relevant_reg taint Reg.RDI)

(* The lazy word labels on stt's 128-page sandbox: a word's own atom exists
   only once a step reaches the word. *)
let words_128 = 128 * Memory.page_size / 8

let test_taint_untouched_word_load () =
  let taint = taint_of_asm ~observe_values:true ~pages:128 {|
  MOV RAX, qword ptr [R14 + 480000]
|} in
  Alcotest.(check (list int)) "exactly the loaded word" [ 60000 ]
    (Taint.relevant_words taint)

let test_taint_partial_store_keeps_own_atom () =
  (* a 4-byte store covers half the word: its other half still comes from
     the input, so the word's own atom must survive next to RSI's *)
  let taint = taint_of_asm ~pages:128 {|
  MOV dword ptr [R14 + 400000], RSI
  MOV RBX, qword ptr [R14 + 400000]
  AND RBX, 4088
  MOV RAX, qword ptr [R14 + RBX]
|} in
  checkb "store source relevant" true (Taint.is_relevant_reg taint Reg.RSI);
  checkb "partly stored word relevant" true (Taint.is_relevant_word taint 50000)

let test_taint_full_store_replaces_own_atom () =
  let taint = taint_of_asm ~pages:128 {|
  MOV qword ptr [R14 + 400000], RSI
  MOV RBX, qword ptr [R14 + 400000]
  AND RBX, 4088
  MOV RAX, qword ptr [R14 + RBX]
|} in
  checkb "store source relevant" true (Taint.is_relevant_reg taint Reg.RSI);
  checkb "overwritten word free" false (Taint.is_relevant_word taint 50000)

let test_taint_relevant_words_ascending () =
  (* words reached out of order, near both ends of the sandbox *)
  let taint = taint_of_asm ~observe_values:true ~pages:128 {|
  MOV RAX, qword ptr [R14 + 524280]
  MOV RAX, qword ptr [R14 + 16]
  MOV RAX, qword ptr [R14 + 0]
  MOV RAX, dword ptr [R14 + 262148]
  MOV RAX, qword ptr [R14 + 4]
|} in
  let words = Taint.relevant_words taint in
  Alcotest.(check (list int)) "ascending" [ 0; 1; 2; 32768; 65535 ] words;
  let marked = Array.make words_128 false in
  List.iter (fun k -> marked.(k) <- true) words;
  for k = 0 to words_128 - 1 do
    if marked.(k) <> Taint.is_relevant_word taint k then
      Alcotest.failf "word %d: relevant_words and is_relevant_word disagree" k
  done

(* boosting soundness: mutants of free atoms keep the contract trace *)
let taint_soundness_prop =
  QCheck2.Test.make ~name:"taint-directed mutation preserves CT-SEQ ctrace" ~count:60
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let open Amulet in
      let open Amulet_contracts in
      let rng = Rng.create ~seed in
      let flat = Generator.generate_flat rng in
      let input = Input.generate rng ~pages:1 in
      let r =
        Leakage_model.collect ~collect_taint:true Contract.ct_seq flat
          (Input.to_state input)
      in
      match r.Leakage_model.fault, r.Leakage_model.taint with
      | Some _, _ | _, None -> true (* discarded programs are vacuously fine *)
      | None, Some taint ->
          let mutant = Input.mutate_free rng taint input in
          let r' = Leakage_model.collect Contract.ct_seq flat (Input.to_state mutant) in
          r'.Leakage_model.fault <> None
          || Int64.equal r.Leakage_model.ctrace_hash r'.Leakage_model.ctrace_hash)

let () =
  Alcotest.run ~and_exit:false "emu"
    [
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "out of bounds" `Quick test_memory_out_of_bounds;
          Alcotest.test_case "journal rollback" `Quick test_memory_journal;
          Alcotest.test_case "stale mark rejected" `Quick test_memory_stale_mark;
          Alcotest.test_case "word accessors" `Quick test_memory_word_accessors;
        ] );
      ( "state",
        [ Alcotest.test_case "width-aware writes" `Quick test_state_width_writes ] );
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_exec_arith;
          Alcotest.test_case "logic and shifts" `Quick test_exec_logic_and_shift;
          Alcotest.test_case "memory roundtrip" `Quick test_exec_memory_roundtrip;
          Alcotest.test_case "widths" `Quick test_exec_widths;
          Alcotest.test_case "cmov/setcc" `Quick test_exec_cmov_setcc;
          Alcotest.test_case "branches" `Quick test_exec_branches;
          Alcotest.test_case "neg/inc/dec flags" `Quick test_exec_neg_inc_dec_flags;
          Alcotest.test_case "shift edges" `Quick test_exec_shift_edge_cases;
          Alcotest.test_case "lea no access" `Quick test_exec_lea_no_memory_access;
        ] );
      ( "emulator",
        [
          Alcotest.test_case "hooks" `Quick test_emulator_hooks;
          Alcotest.test_case "checkpoint/rollback" `Quick test_emulator_checkpoint;
          Alcotest.test_case "step limit" `Quick test_emulator_step_limit;
        ] );
      ( "taint",
        [
          Alcotest.test_case "address relevance" `Quick test_taint_address_relevant;
          Alcotest.test_case "branch relevance" `Quick test_taint_branch_relevant;
          Alcotest.test_case "value observation" `Quick test_taint_data_free_under_ctseq;
          Alcotest.test_case "store propagation" `Quick test_taint_propagation_through_store;
          Alcotest.test_case "flags propagation" `Quick test_taint_flags_propagation;
          Alcotest.test_case "128 pages: untouched word load" `Quick
            test_taint_untouched_word_load;
          Alcotest.test_case "128 pages: partial store keeps own atom" `Quick
            test_taint_partial_store_keeps_own_atom;
          Alcotest.test_case "128 pages: full store replaces own atom" `Quick
            test_taint_full_store_replaces_own_atom;
          Alcotest.test_case "128 pages: relevant_words ascending" `Quick
            test_taint_relevant_words_ascending;
          QCheck_alcotest.to_alcotest taint_soundness_prop;
        ] );
    ]

(* appended coverage: arithmetic-flag oracles and RMW decomposition *)

(* Oracle for ADD flags using 65-bit arithmetic emulated with unsigned
   comparisons: an independent derivation the implementation must match. *)
let add_flags_oracle_prop =
  QCheck2.Test.make ~name:"ADD flags match 65-bit oracle" ~count:500
    QCheck2.Gen.(triple (oneofl Width.all) (map Int64.of_int int) (map Int64.of_int int))
    (fun (w, a, b) ->
      let a = Width.truncate w a and b = Width.truncate w b in
      let r = Width.truncate w (Int64.add a b) in
      let f = Flags.of_add w a b r in
      (* carry: unsigned sum exceeds the width's range *)
      let expected_cf =
        match w with
        | Width.W64 -> Int64.unsigned_compare r a < 0
        | _ ->
            let full = Int64.add a b in
            Int64.unsigned_compare full (Width.mask w) > 0
      in
      (* overflow: same-sign operands, different-sign result *)
      let sa = Width.is_negative w a
      and sb = Width.is_negative w b
      and sr = Width.is_negative w r in
      let expected_of = sa = sb && sr <> sa in
      f.Flags.cf = expected_cf && f.Flags.of_ = expected_of
      && f.Flags.zf = Int64.equal r 0L
      && f.Flags.sf = sr)

let sub_flags_oracle_prop =
  QCheck2.Test.make ~name:"SUB flags match oracle" ~count:500
    QCheck2.Gen.(triple (oneofl Width.all) (map Int64.of_int int) (map Int64.of_int int))
    (fun (w, a, b) ->
      let a = Width.truncate w a and b = Width.truncate w b in
      let r = Width.truncate w (Int64.sub a b) in
      let f = Flags.of_sub w a b r in
      let sa = Width.is_negative w a
      and sb = Width.is_negative w b
      and sr = Width.is_negative w r in
      f.Flags.cf = (Int64.unsigned_compare a b < 0)
      && f.Flags.of_ = (sa <> sb && sr <> sa)
      && f.Flags.zf = Int64.equal r 0L
      && f.Flags.sf = sr)

(* A memory-destination binop must behave exactly like the explicit
   load / op / store sequence. *)
let rmw_decomposition_prop =
  QCheck2.Test.make ~name:"RMW = load; op; store" ~count:300
    QCheck2.Gen.(
      quad
        (oneofl [ Inst.Add; Inst.Sub; Inst.And; Inst.Or; Inst.Xor ])
        (oneofl Width.all)
        (map Int64.of_int int)
        (pair (int_bound 500) (map Int64.of_int int)))
    (fun (op, w, data, (off, init)) ->
      let off = off * 8 in
      let rmw =
        Program.flatten
          (Program.make
             [
               {
                 Program.label = "a";
                 body =
                   [ Inst.Binop (op, w, Operand.mem ~disp:off Reg.sandbox_base, Operand.Reg Reg.RBX) ];
               };
             ])
      in
      let decomposed =
        Program.flatten
          (Program.make
             [
               {
                 Program.label = "a";
                 body =
                   [
                     Inst.Mov (w, Operand.Reg Reg.RCX, Operand.mem ~disp:off Reg.sandbox_base);
                     Inst.Binop (op, w, Operand.Reg Reg.RCX, Operand.Reg Reg.RBX);
                     Inst.Mov (w, Operand.mem ~disp:off Reg.sandbox_base, Operand.Reg Reg.RCX);
                   ];
               };
             ])
      in
      let run flat =
        let st = State.create ~pages:1 () in
        State.write_reg st Reg.sandbox_base (Int64.of_int (Memory.base st.State.mem));
        State.write_reg st Reg.RBX data;
        Memory.write st.State.mem Width.W64 (Memory.base st.State.mem + off) init;
        ignore (Emulator.execute flat st);
        Memory.read st.State.mem Width.W64 (Memory.base st.State.mem + off), st.State.flags
      in
      let m1, f1 = run rmw in
      let m2, f2 = run decomposed in
      Int64.equal m1 m2 && Flags.equal f1 f2)

(* byte-level little-endian consistency across widths *)
let width_composition_prop =
  QCheck2.Test.make ~name:"wide reads compose from narrow reads" ~count:300
    QCheck2.Gen.(pair (map Int64.of_int int) (int_bound 400))
    (fun (v, off) ->
      let m = Memory.create ~pages:1 () in
      let addr = Memory.base m + (off * 8) in
      Memory.write m Width.W64 addr v;
      let b i = Memory.read m Width.W8 (addr + i) in
      let composed =
        List.fold_left
          (fun acc i -> Int64.logor acc (Int64.shift_left (b i) (8 * i)))
          0L [ 0; 1; 2; 3; 4; 5; 6; 7 ]
      in
      Int64.equal composed v
      && Int64.equal (Memory.read m Width.W32 addr) (Width.truncate Width.W32 v)
      && Int64.equal (Memory.read m Width.W16 (addr + 2))
           (Width.truncate Width.W16 (Int64.shift_right_logical v 16)))

let test_exec_adc_sbb () =
  (* 128-bit add via ADD/ADC: low halves carry into the high halves *)
  let st = run_asm
      ~regs:[ Reg.RAX, -1L; Reg.RBX, 0L; Reg.RCX, 1L; Reg.RDX, 0L ] {|
  ADD RAX, RCX
  ADC RBX, RDX
|} in
  check64 "low" 0L (State.read_reg st Reg.RAX);
  check64 "high gets carry" 1L (State.read_reg st Reg.RBX);
  (* borrow chain with SBB *)
  let st = run_asm ~regs:[ Reg.RAX, 0L; Reg.RBX, 5L; Reg.RCX, 1L; Reg.RDX, 2L ] {|
  SUB RAX, RCX
  SBB RBX, RDX
|} in
  check64 "low borrow" (-1L) (State.read_reg st Reg.RAX);
  check64 "high minus borrow" 2L (State.read_reg st Reg.RBX)

let test_exec_rotates () =
  let st = run_asm ~regs:[ Reg.RAX, 0x8000000000000001L; Reg.RBX, 0x1L ] {|
  ROL RAX, 1
  ROR RBX, 1
|} in
  check64 "rol wraps msb" 0x3L (State.read_reg st Reg.RAX);
  check64 "ror wraps lsb" 0x8000000000000000L (State.read_reg st Reg.RBX);
  (* rotates preserve ZF: set ZF via CMP, rotate, then JZ must still see it *)
  let st = run_asm ~regs:[ Reg.RAX, 0L; Reg.RCX, 3L ] {|
.bb0:
  CMP RAX, 0
  ROL RCX, 2
  JZ .z
  MOV RDX, 1
  JMP .end
.z:
  MOV RDX, 2
.end:
  EXIT
|} in
  check64 "zf preserved across rotate" 2L (State.read_reg st Reg.RDX);
  check64 "rotate applied" 12L (State.read_reg st Reg.RCX)

let test_exec_bswap () =
  let st = run_asm ~regs:[ Reg.RAX, 0x1122334455667788L ] "BSWAP RAX" in
  check64 "bswap64" 0x8877665544332211L (State.read_reg st Reg.RAX)

let test_exec_movzx_movsx () =
  let st = run_asm ~mem:[ 0, Width.W16, 0x8001L ] {|
  MOVZX RAX, word ptr [R14]
  MOVSX RBX, word ptr [R14]
|} in
  check64 "movzx zero-extends" 0x8001L (State.read_reg st Reg.RAX);
  check64 "movsx sign-extends" 0xFFFFFFFFFFFF8001L (State.read_reg st Reg.RBX)

let test_exec_xchg () =
  let st = run_asm ~regs:[ Reg.RAX, 1L; Reg.RBX, 2L ] "XCHG RAX, RBX" in
  check64 "a" 2L (State.read_reg st Reg.RAX);
  check64 "b" 1L (State.read_reg st Reg.RBX);
  (* self-exchange is the identity *)
  let st = run_asm ~regs:[ Reg.RCX, 7L ] "XCHG RCX, RCX" in
  check64 "self" 7L (State.read_reg st Reg.RCX)

(* ADC against a 3-operand big-int oracle *)
let adc_oracle_prop =
  QCheck2.Test.make ~name:"ADC matches add-with-carry oracle" ~count:400
    QCheck2.Gen.(triple (map Int64.of_int int) (map Int64.of_int int) bool)
    (fun (a, b, c) ->
      let run c0 =
        let st = State.create ~pages:1 () in
        State.write_reg st Reg.RAX a;
        State.write_reg st Reg.RBX b;
        st.State.flags <- { Flags.initial with Flags.cf = c0 };
        let flat = Program.flatten (Asm.parse "ADC RAX, RBX") in
        ignore (Emulator.execute flat st);
        State.read_reg st Reg.RAX, st.State.flags.Flags.cf
      in
      let r, cf = run c in
      let expected = Int64.add (Int64.add a b) (if c then 1L else 0L) in
      (* carry oracle via unsigned comparison on the 3-way sum *)
      let s1 = Int64.add a b in
      let c1 = Int64.unsigned_compare s1 a < 0 in
      let c2 = c && Int64.equal s1 (-1L) in
      Int64.equal r expected && cf = (c1 || c2))

let () =
  Alcotest.run "emu-extra"
    [
      ( "extended-isa",
        [
          Alcotest.test_case "adc/sbb chains" `Quick test_exec_adc_sbb;
          Alcotest.test_case "rotates" `Quick test_exec_rotates;
          Alcotest.test_case "bswap" `Quick test_exec_bswap;
          Alcotest.test_case "movzx/movsx" `Quick test_exec_movzx_movsx;
          Alcotest.test_case "xchg" `Quick test_exec_xchg;
          QCheck_alcotest.to_alcotest adc_oracle_prop;
        ] );
      ( "oracles",
        [
          QCheck_alcotest.to_alcotest add_flags_oracle_prop;
          QCheck_alcotest.to_alcotest sub_flags_oracle_prop;
          QCheck_alcotest.to_alcotest rmw_decomposition_prop;
          QCheck_alcotest.to_alcotest width_composition_prop;
        ] );
    ]
