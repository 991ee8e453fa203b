(* Tests for the ISA library: registers, widths, flags, conditions,
   instructions, programs, the assembler and the binary encoder. *)

open Amulet_isa

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* QCheck generators for ISA values                                     *)
(* ------------------------------------------------------------------ *)

let gen_reg = QCheck2.Gen.map Reg.of_index (QCheck2.Gen.int_bound (Reg.count - 1))
let gen_width = QCheck2.Gen.oneofl Width.all
let gen_cond = QCheck2.Gen.oneofl Cond.all

let gen_mem =
  let open QCheck2.Gen in
  let* base = gen_reg in
  let* index = opt gen_reg in
  let* scale = oneofl [ 1; 2; 4; 8 ] in
  let* disp = int_range (-2048) 2048 in
  return { Operand.base; index; scale; disp }

let gen_operand =
  let open QCheck2.Gen in
  oneof
    [
      map (fun r -> Operand.Reg r) gen_reg;
      map (fun i -> Operand.Imm i) (map Int64.of_int int);
      map (fun m -> Operand.Mem m) gen_mem;
    ]

let gen_reg_or_imm =
  let open QCheck2.Gen in
  oneof
    [
      map (fun r -> Operand.Reg r) gen_reg;
      map (fun i -> Operand.Imm i) (map Int64.of_int int);
    ]

(* an instruction generator producing only well-formed instructions (at most
   one memory operand, register destinations where required) *)
let gen_inst =
  let open QCheck2.Gen in
  let binop = oneofl [ Inst.Add; Inst.Sub; Inst.And; Inst.Or; Inst.Xor ] in
  let unop = oneofl [ Inst.Not; Inst.Neg; Inst.Inc; Inst.Dec ] in
  let shift = oneofl [ Inst.Shl; Inst.Shr; Inst.Sar ] in
  oneof
    [
      return Inst.Nop;
      return Inst.Fence;
      return Inst.Exit;
      (let* op = binop in
       let* w = gen_width in
       let* dst = oneof [ map (fun r -> Operand.Reg r) gen_reg; map (fun m -> Operand.Mem m) gen_mem ] in
       let* src = match dst with Operand.Mem _ -> gen_reg_or_imm | _ -> gen_operand in
       return (Inst.Binop (op, w, dst, src)));
      (let* w = gen_width in
       let* dst = oneof [ map (fun r -> Operand.Reg r) gen_reg; map (fun m -> Operand.Mem m) gen_mem ] in
       let* src = match dst with Operand.Mem _ -> gen_reg_or_imm | _ -> gen_operand in
       return (Inst.Mov (w, dst, src)));
      (let* w = gen_width in
       let* a = map (fun r -> Operand.Reg r) gen_reg in
       let* b = gen_operand in
       return (Inst.Cmp (w, a, b)));
      (let* w = gen_width in
       let* a = map (fun r -> Operand.Reg r) gen_reg in
       let* b = gen_reg_or_imm in
       return (Inst.Test (w, a, b)));
      (let* u = unop in
       let* w = gen_width in
       let* dst = oneof [ map (fun r -> Operand.Reg r) gen_reg; map (fun m -> Operand.Mem m) gen_mem ] in
       return (Inst.Unop (u, w, dst)));
      (let* k = shift in
       let* w = gen_width in
       let* dst = map (fun r -> Operand.Reg r) gen_reg in
       let* n = int_range 0 63 in
       return (Inst.Shift (k, w, dst, n)));
      (let* w = gen_width in
       let* r = gen_reg in
       let* src = gen_operand in
       return (Inst.Imul (w, r, src)));
      (let* r = gen_reg in
       let* m = gen_mem in
       return (Inst.Lea (r, m)));
      (let* c = gen_cond in
       let* dst = oneof [ map (fun r -> Operand.Reg r) gen_reg; map (fun m -> Operand.Mem m) gen_mem ] in
       return (Inst.Setcc (c, dst)));
      (let* c = gen_cond in
       let* w = gen_width in
       let* r = gen_reg in
       let* src = gen_operand in
       return (Inst.Cmovcc (c, w, r, src)));
      (let* t = int_bound 100 in
       return (Inst.Jmp (Inst.Abs t)));
      (let* c = gen_cond in
       let* t = int_bound 100 in
       return (Inst.Jcc (c, Inst.Abs t)));
    ]

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_reg_roundtrip () =
  List.iter
    (fun r -> checkb "index roundtrip" true (Reg.equal r (Reg.of_index (Reg.index r))))
    Reg.all;
  List.iter
    (fun r -> checkb "name roundtrip" true (Reg.equal r (Reg.of_name (Reg.name r))))
    Reg.all;
  checki "count" Reg.count (List.length Reg.all)

let test_width_masks () =
  checki "w8 bytes" 1 (Width.bytes Width.W8);
  checki "w64 bits" 64 (Width.bits Width.W64);
  check Alcotest.int64 "truncate w16" 0x1234L (Width.truncate Width.W16 0xA1234L);
  check Alcotest.int64 "sign extend w8 negative" (-1L) (Width.sign_extend Width.W8 0xFFL);
  check Alcotest.int64 "sign extend w8 positive" 0x7FL (Width.sign_extend Width.W8 0x7FL);
  checkb "is_negative w32" true (Width.is_negative Width.W32 0x8000_0000L);
  checkb "is_negative w32 pos" false (Width.is_negative Width.W32 0x7FFF_FFFFL)

let test_flags_add_sub () =
  let f = Flags.of_add Width.W8 0xFFL 1L 0x0L in
  checkb "add carry" true f.Flags.cf;
  checkb "add zero" true f.Flags.zf;
  let f = Flags.of_add Width.W8 0x7FL 1L 0x80L in
  checkb "add overflow" true f.Flags.of_;
  checkb "add sign" true f.Flags.sf;
  let f = Flags.of_sub Width.W64 0L 1L (-1L) in
  checkb "sub borrow" true f.Flags.cf;
  checkb "sub sign" true f.Flags.sf;
  let f = Flags.of_sub Width.W64 5L 5L 0L in
  checkb "sub equal -> zf" true f.Flags.zf;
  checkb "sub equal -> cf clear" false f.Flags.cf

let test_flags_parity () =
  checkb "parity 0 even" true (Flags.parity_of 0L);
  checkb "parity 3 even" true (Flags.parity_of 3L);
  checkb "parity 1 odd" false (Flags.parity_of 1L);
  checkb "parity 7 odd" false (Flags.parity_of 7L)

let test_cond_eval () =
  let f = { Flags.zf = true; sf = false; cf = false; of_ = false; pf = true } in
  checkb "Z" true (Cond.eval Cond.Z f);
  checkb "NZ" false (Cond.eval Cond.NZ f);
  checkb "LE (zf)" true (Cond.eval Cond.LE f);
  checkb "G" false (Cond.eval Cond.G f);
  checkb "BE (zf)" true (Cond.eval Cond.BE f);
  let f = { Flags.zf = false; sf = true; cf = true; of_ = false; pf = false } in
  checkb "L (sf<>of)" true (Cond.eval Cond.L f);
  checkb "A (cf)" false (Cond.eval Cond.A f);
  checkb "C" true (Cond.eval Cond.C f)

let test_cond_complement () =
  (* each condition and its complement partition flag space *)
  let pairs =
    [ Cond.Z, Cond.NZ; Cond.S, Cond.NS; Cond.C, Cond.NC; Cond.O, Cond.NO;
      Cond.P, Cond.NP; Cond.L, Cond.GE; Cond.LE, Cond.G; Cond.BE, Cond.A ]
  in
  for bits = 0 to 31 do
    let f = Flags.of_int bits in
    List.iter
      (fun (c, nc) ->
        checkb "complement" true (Cond.eval c f <> Cond.eval nc f))
      pairs
  done

let test_inst_classification () =
  let load = Inst.Mov (Width.W64, Operand.Reg Reg.RAX, Operand.mem Reg.R14) in
  let store = Inst.Mov (Width.W64, Operand.mem Reg.R14, Operand.Reg Reg.RAX) in
  let rmw = Inst.Binop (Inst.Add, Width.W64, Operand.mem Reg.R14, Operand.Reg Reg.RAX) in
  checkb "load is load" true (Inst.is_load load);
  checkb "load not store" false (Inst.is_store load);
  checkb "store is store" true (Inst.is_store store);
  checkb "store not load" false (Inst.is_load store);
  checkb "rmw both" true (Inst.is_load rmw && Inst.is_store rmw);
  checkb "jcc is branch" true (Inst.is_cond_branch (Inst.Jcc (Cond.Z, Inst.Abs 0)));
  checkb "jmp not cond" false (Inst.is_cond_branch (Inst.Jmp (Inst.Abs 0)))

let test_inst_sources_dests () =
  let i = Inst.Binop (Inst.Add, Width.W64, Operand.Reg Reg.RAX, Operand.Reg Reg.RBX) in
  checkb "add reads dst" true (List.mem Reg.RAX (Inst.source_regs i));
  checkb "add reads src" true (List.mem Reg.RBX (Inst.source_regs i));
  checkb "add writes dst" true (List.mem Reg.RAX (Inst.dest_regs i));
  let load =
    Inst.Mov (Width.W64, Operand.Reg Reg.RAX,
              Operand.mem ~index:(Some Reg.RBX) Reg.R14)
  in
  checkb "load reads base" true (List.mem Reg.R14 (Inst.source_regs load));
  checkb "load reads index" true (List.mem Reg.RBX (Inst.source_regs load));
  checkb "w64 mov does not read dst" false (List.mem Reg.RAX (Inst.source_regs load));
  let load8 = Inst.Mov (Width.W8, Operand.Reg Reg.RAX, Operand.mem Reg.R14) in
  checkb "w8 mov reads dst (merge)" true (List.mem Reg.RAX (Inst.source_regs load8))

let test_inst_flags_io () =
  checkb "cmp writes flags" true (Inst.writes_flags (Inst.Cmp (Width.W64, Operand.Reg Reg.RAX, Operand.Imm 0L)));
  checkb "not does not write flags" false
    (Inst.writes_flags (Inst.Unop (Inst.Not, Width.W64, Operand.Reg Reg.RAX)));
  checkb "shift 0 does not write flags" false
    (Inst.writes_flags (Inst.Shift (Inst.Shl, Width.W64, Operand.Reg Reg.RAX, 0)));
  checkb "shift 1 writes flags" true
    (Inst.writes_flags (Inst.Shift (Inst.Shl, Width.W64, Operand.Reg Reg.RAX, 1)));
  checkb "jcc reads flags" true (Inst.reads_flags (Inst.Jcc (Cond.Z, Inst.Abs 0)));
  checkb "inc reads flags (CF preserved)" true
    (Inst.reads_flags (Inst.Unop (Inst.Inc, Width.W64, Operand.Reg Reg.RAX)))

(* ------------------------------------------------------------------ *)
(* Program tests                                                       *)
(* ------------------------------------------------------------------ *)

let test_flatten_appends_exit () =
  let p = Program.make [ { Program.label = "a"; body = [ Inst.Nop ] } ] in
  let f = Program.flatten p in
  checki "length" 2 (Program.length f);
  checkb "last is exit" true (Program.get f 1 = Inst.Exit)

let test_flatten_resolves_labels () =
  let p =
    Program.make
      [
        { Program.label = "a"; body = [ Inst.Jcc (Cond.Z, Inst.Label "b") ] };
        { Program.label = "b"; body = [ Inst.Exit ] };
      ]
  in
  let f = Program.flatten p in
  (match Program.get f 0 with
  | Inst.Jcc (_, Inst.Abs 1) -> ()
  | i -> Alcotest.failf "bad resolution: %s" (Inst.to_string i));
  checkb "is dag" true (Program.is_dag f)

let test_flatten_unknown_label () =
  let p = Program.make [ { Program.label = "a"; body = [ Inst.Jmp (Inst.Label "nope") ] } ] in
  Alcotest.check_raises "unknown label" (Program.Unknown_label "nope") (fun () ->
      ignore (Program.flatten p))

let test_pc_mapping () =
  let p = Program.make [ { Program.label = "a"; body = [ Inst.Nop; Inst.Nop; Inst.Exit ] } ] in
  let f = Program.flatten p in
  checki "pc of 0" Program.code_base_default (Program.pc_of_index f 0);
  check (Alcotest.option Alcotest.int) "index of pc" (Some 2)
    (Program.index_of_pc f (Program.code_base_default + 8));
  check (Alcotest.option Alcotest.int) "misaligned" None
    (Program.index_of_pc f (Program.code_base_default + 3));
  check (Alcotest.option Alcotest.int) "out of range" None
    (Program.index_of_pc f (Program.code_base_default + 400))

(* ------------------------------------------------------------------ *)
(* Assembler tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_asm_basic () =
  let p = Asm.parse {|
.bb0:
  AND RBX, 0b111111111000000
  MOV RAX, qword ptr [R14 + RBX]
  CMP RAX, 0x10
  JNZ .bb1
  ADD RAX, 5
.bb1:
  EXIT
|} in
  let f = Program.flatten p in
  checki "6 instructions" 6 (Program.length f);
  (match Program.get f 0 with
  | Inst.Binop (Inst.And, Width.W64, Operand.Reg Reg.RBX, Operand.Imm m) ->
      check Alcotest.int64 "mask" 0x7FC0L m
  | i -> Alcotest.failf "bad inst 0: %s" (Inst.to_string i));
  (match Program.get f 1 with
  | Inst.Mov (Width.W64, Operand.Reg Reg.RAX, Operand.Mem m) ->
      checkb "base" true (Reg.equal m.Operand.base Reg.R14);
      checkb "index" true (m.Operand.index = Some Reg.RBX)
  | i -> Alcotest.failf "bad inst 1: %s" (Inst.to_string i));
  match Program.get f 3 with
  | Inst.Jcc (Cond.NZ, Inst.Abs 5) -> ()
  | i -> Alcotest.failf "bad inst 3: %s" (Inst.to_string i)

let test_asm_memory_forms () =
  let p = Asm.parse "MOV word ptr [R14 + RBX*2 + 8], RCX" in
  match (Program.flatten p).Program.code.(0) with
  | Inst.Mov (Width.W16, Operand.Mem m, Operand.Reg Reg.RCX) ->
      checki "scale" 2 m.Operand.scale;
      checki "disp" 8 m.Operand.disp
  | i -> Alcotest.failf "bad parse: %s" (Inst.to_string i)

let test_asm_negative_disp () =
  let p = Asm.parse "LEA RAX, [R14 + RBX - 16]" in
  match (Program.flatten p).Program.code.(0) with
  | Inst.Lea (Reg.RAX, m) -> checki "disp" (-16) m.Operand.disp
  | i -> Alcotest.failf "bad parse: %s" (Inst.to_string i)

let test_asm_cond_mnemonics () =
  List.iter
    (fun (s, c) ->
      let p = Asm.parse (Printf.sprintf "J%s .bb0\n.bb0:\n  EXIT" s) in
      match (Program.flatten p).Program.code.(0) with
      | Inst.Jcc (c', _) -> checkb ("J" ^ s) true (Cond.equal c c')
      | i -> Alcotest.failf "bad parse: %s" (Inst.to_string i))
    [ "Z", Cond.Z; "NE", Cond.NZ; "S", Cond.S; "P", Cond.P; "LE", Cond.LE; "A", Cond.A ]

let test_asm_errors () =
  let bad s =
    match Asm.parse s with
    | exception Asm.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  bad "FROB RAX";
  bad "MOV RAX";
  bad "MOV RAX, qword ptr [R14";
  bad "ADD RAX, RBX, RCX";
  bad "JMP RAX"

(* print/parse round trip over generated programs (64-bit reg ops and
   memory ops keep widths in the canonical syntax); odd seeds use a
   fence-rich config so LFENCE goes through the trip too *)
let asm_roundtrip_prop =
  QCheck2.Test.make ~name:"asm print/parse roundtrip (generated programs)" ~count:500
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Amulet_corpus.Rng.create ~seed in
      let cfg =
        if seed mod 2 = 1 then
          { Amulet_corpus.Generator.default with Amulet_corpus.Generator.fence_fraction = 0.1 }
        else Amulet_corpus.Generator.default
      in
      let p = Amulet_corpus.Generator.generate ~cfg rng in
      let text = Asm.print p in
      let p' = Asm.parse text in
      Program.flatten p = Program.flatten p')

(* extreme immediates survive the trip: Int64.min_int prints as
   -9223372036854775808 whose absolute part exceeds Int64.max_int, so the
   parser needs the unsigned fallback *)
let test_asm_extreme_imm () =
  List.iter
    (fun imm ->
      let src = Printf.sprintf ".bb0:\n  MOV RAX, %Ld\n  EXIT\n" imm in
      let p = Asm.parse src in
      match (Program.flatten p).Program.code.(0) with
      | Inst.Mov (Width.W64, Operand.Reg Reg.RAX, Operand.Imm i) ->
          Alcotest.check Alcotest.int64 "imm value" imm i;
          checkb "reprint stable" true
            (Program.flatten (Asm.parse (Asm.print p)) = Program.flatten p)
      | i -> Alcotest.failf "bad parse: %s" (Inst.to_string i))
    [ Int64.min_int; Int64.max_int; -1L; 0L; 0x7FFFFFFF_FFFFFFFEL ]

(* ------------------------------------------------------------------ *)
(* Encoder tests                                                       *)
(* ------------------------------------------------------------------ *)

let encode_roundtrip_prop =
  QCheck2.Test.make ~name:"encode/decode instruction roundtrip" ~count:500
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 30) gen_inst)
    (fun insts ->
      let flat = { Program.code = Array.of_list insts; code_base = 0x400000; inst_size = 4 } in
      let decoded = Encoder.decode (Encoder.encode flat) in
      decoded.Program.code = flat.Program.code
      && decoded.Program.code_base = flat.Program.code_base)

let test_encoder_rejects_labels () =
  let flat =
    { Program.code = [| Inst.Jmp (Inst.Label "x") |]; code_base = 0; inst_size = 4 }
  in
  match Encoder.encode flat with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_decoder_rejects_garbage () =
  let bad s =
    match Encoder.decode s with
    | exception Encoder.Decode_error _ -> ()
    | _ -> Alcotest.failf "expected decode error"
  in
  bad "";
  bad "NOPE";
  bad "AMLT\x01\x00\x00\x00";
  (* truncated *)
  let good = Encoder.encode { Program.code = [| Inst.Nop; Inst.Exit |]; code_base = 0; inst_size = 4 } in
  bad (String.sub good 0 (String.length good - 1) ^ "\xFF")

let () =
  Alcotest.run "isa"
    [
      ( "reg-width-flags",
        [
          Alcotest.test_case "reg roundtrip" `Quick test_reg_roundtrip;
          Alcotest.test_case "width masks" `Quick test_width_masks;
          Alcotest.test_case "flags add/sub" `Quick test_flags_add_sub;
          Alcotest.test_case "flags parity" `Quick test_flags_parity;
          Alcotest.test_case "cond eval" `Quick test_cond_eval;
          Alcotest.test_case "cond complement" `Quick test_cond_complement;
        ] );
      ( "instructions",
        [
          Alcotest.test_case "classification" `Quick test_inst_classification;
          Alcotest.test_case "sources/dests" `Quick test_inst_sources_dests;
          Alcotest.test_case "flags io" `Quick test_inst_flags_io;
        ] );
      ( "programs",
        [
          Alcotest.test_case "flatten appends exit" `Quick test_flatten_appends_exit;
          Alcotest.test_case "flatten resolves labels" `Quick test_flatten_resolves_labels;
          Alcotest.test_case "unknown label" `Quick test_flatten_unknown_label;
          Alcotest.test_case "pc mapping" `Quick test_pc_mapping;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "basic program" `Quick test_asm_basic;
          Alcotest.test_case "memory forms" `Quick test_asm_memory_forms;
          Alcotest.test_case "negative disp" `Quick test_asm_negative_disp;
          Alcotest.test_case "cond mnemonics" `Quick test_asm_cond_mnemonics;
          Alcotest.test_case "parse errors" `Quick test_asm_errors;
          Alcotest.test_case "extreme immediates" `Quick test_asm_extreme_imm;
          QCheck_alcotest.to_alcotest asm_roundtrip_prop;
        ] );
      ( "encoder",
        [
          QCheck_alcotest.to_alcotest encode_roundtrip_prop;
          Alcotest.test_case "rejects labels" `Quick test_encoder_rejects_labels;
          Alcotest.test_case "rejects garbage" `Quick test_decoder_rejects_garbage;
        ] );
    ]
