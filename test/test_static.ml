(* Tests for the static-analysis subsystem: CFG construction, the generic
   dataflow engine, taint/reaching/speculation passes, the well-formedness
   lint, the leak classifier — and its soundness gate: every curated
   released-bug reproducer must classify as potentially leaky, and a
   screening campaign must report exactly the violations an unfiltered one
   does. *)

open Amulet_isa
open Amulet_static
module Obs = Amulet_obs.Obs

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let flat_of_asm src = Program.flatten (Asm.parse src)

let flat_of_insts insts =
  { Program.code = Array.of_list insts; code_base = 0x400000; inst_size = 4 }

(* The canonical Spectre-v1 gadget (also the shape of the figure-4/8
   reproducers): bounds check, mispredicted branch, tainted transient load. *)
let spectre_v1 =
  {|
.bb0:
  AND RDI, 0b1111111000
  CMP RAX, qword ptr [R14 + RDI]
  JNZ .done
  AND RBX, 0b1111111000
  MOV RCX, qword ptr [R14 + RBX]
.done:
  EXIT
|}

(* Masked loads, no branch, no store: provably leak-free. *)
let straightline_clean =
  {|
.bb0:
  AND RDI, 0b1111111000
  MOV RAX, qword ptr [R14 + RDI]
  AND RAX, 0b1111111000
  MOV RBX, qword ptr [R14 + RAX]
  EXIT
|}

(* ------------------------------------------------------------------ *)
(* CFG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cfg_blocks () =
  let flat = flat_of_asm spectre_v1 in
  let cfg = Cfg.build flat in
  (* blocks: [0..3) cond-branch block, [3..5) fallthrough, [5..6) exit *)
  checki "3 blocks" 3 (Cfg.num_blocks cfg);
  let b0 = Cfg.block cfg 0 in
  checki "b0 start" 0 b0.Cfg.start;
  checki "b0 stop" 3 b0.Cfg.stop;
  checkb "b0 -> b1 and b2" true (List.sort compare b0.Cfg.succs = [ 1; 2 ]);
  let b2 = Cfg.block cfg 2 in
  checkb "exit block has no succs" true (b2.Cfg.succs = []);
  checkb "dag" true (Cfg.is_dag cfg);
  checkb "all reachable" true (Cfg.unreachable cfg = []);
  checki "rpo covers all blocks" 3 (List.length cfg.Cfg.rpo);
  checki "rpo starts at entry" 0 (List.hd cfg.Cfg.rpo)

let test_cfg_cycle_and_dead_code () =
  (* backward branch: a cycle the CFG must represent without diverging *)
  let flat =
    flat_of_insts
      [ Inst.Nop; Inst.Jcc (Cond.Z, Inst.Abs 0); Inst.Exit; Inst.Nop; Inst.Exit ]
  in
  let cfg = Cfg.build flat in
  checkb "not a dag" false (Cfg.is_dag cfg);
  checkb "has dead blocks" true (Cfg.unreachable cfg <> [])

(* ------------------------------------------------------------------ *)
(* Dataflow engine (backward use: liveness)                            *)
(* ------------------------------------------------------------------ *)

module RegSet = Set.Make (struct
  type t = Reg.t

  let compare = Reg.compare
end)

module Live = Dataflow.Make (struct
  type t = RegSet.t

  let bottom = RegSet.empty
  let join = RegSet.union
  let equal = RegSet.equal
end)

let test_backward_liveness () =
  (* 0: MOV RAX, 1      rax dead here (rewritten at 1 before any use)
     1: MOV RAX, RBX    rbx live-in at 0..1
     2: MOV [R14], RAX  rax live-in at 2
     3: EXIT *)
  let flat =
    flat_of_insts
      [
        Inst.Mov (Width.W64, Operand.Reg Reg.RAX, Operand.Imm 1L);
        Inst.Mov (Width.W64, Operand.Reg Reg.RAX, Operand.Reg Reg.RBX);
        Inst.Mov (Width.W64, Operand.mem Reg.R14, Operand.Reg Reg.RAX);
        Inst.Exit;
      ]
  in
  let cfg = Cfg.build flat in
  let transfer _i inst live =
    let live = List.fold_left (fun s r -> RegSet.remove r s) live (Inst.dest_regs inst) in
    List.fold_left (fun s r -> RegSet.add r s) live (Inst.source_regs inst)
  in
  let r = Live.backward cfg ~init:RegSet.empty ~transfer in
  checkb "rax dead before 0" false (RegSet.mem Reg.RAX r.Live.before.(0));
  checkb "rbx live before 0" true (RegSet.mem Reg.RBX r.Live.before.(0));
  checkb "rax live before 2" true (RegSet.mem Reg.RAX r.Live.before.(2));
  checkb "rbx dead before 2" false (RegSet.mem Reg.RBX r.Live.before.(2))

let test_forward_fixpoint_on_cycle () =
  (* the engine must terminate on cyclic flow (lint rejects it, but the
     analysis itself stays total) *)
  let flat =
    flat_of_insts
      [ Inst.Unop (Inst.Inc, Width.W64, Operand.Reg Reg.RAX);
        Inst.Jcc (Cond.Z, Inst.Abs 0); Inst.Exit ]
  in
  let cfg = Cfg.build flat in
  let t = Taint_flow.analyze cfg in
  checkb "terminates; rax tainted" true (Taint_flow.value_before t 1 Reg.RAX).Taint_flow.tainted

(* ------------------------------------------------------------------ *)
(* Reaching definitions                                                *)
(* ------------------------------------------------------------------ *)

let test_reaching () =
  let flat =
    flat_of_insts
      [
        Inst.Setcc (Cond.Z, Operand.Reg Reg.RAX);  (* reads entry flags *)
        Inst.Cmp (Width.W64, Operand.Reg Reg.RBX, Operand.Imm 0L);
        Inst.Jcc (Cond.Z, Inst.Abs 4);  (* flags now defined by 1 *)
        Inst.Mov (Width.W64, Operand.Reg Reg.RBX, Operand.Imm 7L);
        Inst.Mov (Width.W64, Operand.Reg Reg.RCX, Operand.Reg Reg.RBX);
        Inst.Exit;
      ]
  in
  let r = Reaching.analyze (Cfg.build flat) in
  checkb "flags entry-only at 0" true (Reaching.flags_entry_only r 0);
  checkb "flags defined at 2" false (Reaching.flags_entry_only r 2);
  (* at 4, RBX may come from entry (branch taken) or from 3 (fallthrough) *)
  checkb "rbx entry def may reach 4" true (Reaching.may_read_entry r 4 Reg.RBX);
  checkb "rbx def 3 may reach 4" true
    (Reaching.IntSet.mem 3 (Reaching.reg_defs r 4 Reg.RBX))

(* ------------------------------------------------------------------ *)
(* Taint propagation                                                   *)
(* ------------------------------------------------------------------ *)

let test_taint_kills_and_bounds () =
  let flat =
    flat_of_insts
      [
        Inst.Mov (Width.W64, Operand.Reg Reg.RAX, Operand.Imm 5L);
        Inst.Binop (Inst.Xor, Width.W64, Operand.Reg Reg.RBX, Operand.Reg Reg.RBX);
        Inst.Binop (Inst.And, Width.W64, Operand.Reg Reg.RCX, Operand.Imm 4088L);
        Inst.Mov (Width.W64, Operand.Reg Reg.RDX, Operand.mem Reg.R14);
        Inst.Binop (Inst.Add, Width.W64, Operand.Reg Reg.RAX, Operand.Reg Reg.RDX);
        Inst.Exit;
      ]
  in
  let t = Taint_flow.analyze (Cfg.build flat) in
  let v i r = Taint_flow.value_before t i r in
  checkb "rax tainted at entry" true (v 0 Reg.RAX).Taint_flow.tainted;
  checkb "mov imm kills rax" false (v 1 Reg.RAX).Taint_flow.tainted;
  checkb "xor self kills rbx" false (v 2 Reg.RBX).Taint_flow.tainted;
  checkb "and keeps rcx tainted" true (v 3 Reg.RCX).Taint_flow.tainted;
  Alcotest.check (Alcotest.option Alcotest.int) "and bounds rcx" (Some 4088)
    (v 3 Reg.RCX).Taint_flow.max;
  checkb "loaded data tainted" true (v 4 Reg.RDX).Taint_flow.tainted;
  (* 4: ADD RAX, RDX re-taints RAX *)
  checkb "taint flows back into rax" true (v 5 Reg.RAX).Taint_flow.tainted

(* ------------------------------------------------------------------ *)
(* Speculation reachability                                            *)
(* ------------------------------------------------------------------ *)

let test_spec_window_and_fence () =
  let nops n = List.init n (fun _ -> Inst.Nop) in
  let flat =
    flat_of_insts
      ([ Inst.Jcc (Cond.Z, Inst.Abs 1) ] @ nops 6 @ [ Inst.Exit ])
  in
  let spec = Spec_reach.analyze ~window:4 (Cfg.build flat) in
  checkb "inside window" true spec.Spec_reach.transient.(4);
  checkb "beyond window" false spec.Spec_reach.transient.(6);
  (* a fence drains the window *)
  let flat =
    flat_of_insts
      ([ Inst.Jcc (Cond.Z, Inst.Abs 1); Inst.Nop; Inst.Fence ] @ nops 3
      @ [ Inst.Exit ])
  in
  let spec = Spec_reach.analyze ~window:16 (Cfg.build flat) in
  checkb "fence itself reached" true spec.Spec_reach.transient.(2);
  checkb "nothing past fence" false spec.Spec_reach.transient.(3)

let test_bypass_exposure () =
  let flat =
    flat_of_insts
      [
        Inst.Mov (Width.W64, Operand.mem Reg.R14, Operand.Imm 0L);
        Inst.Mov (Width.W64, Operand.Reg Reg.RAX, Operand.mem Reg.R14);
        Inst.Fence;
        Inst.Mov (Width.W64, Operand.Reg Reg.RBX, Operand.mem Reg.R14);
        Inst.Exit;
      ]
  in
  let spec = Spec_reach.analyze ~window:16 (Cfg.build flat) in
  checkb "load after store exposed" true spec.Spec_reach.bypass_exposed.(1);
  checkb "load after fence not exposed" false spec.Spec_reach.bypass_exposed.(3);
  checkb "store itself not a bypass site" false spec.Spec_reach.bypass_exposed.(0)

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

let has_code report code =
  List.exists (fun d -> d.Lint.code = code) report.Lint.diags

let test_lint_named_errors () =
  let report flat = Lint.check flat in
  let r =
    report (flat_of_insts [ Inst.Jcc (Cond.Z, Inst.Abs 99); Inst.Exit ])
  in
  checkb "branch-out-of-range" true (has_code r "branch-out-of-range");
  let r =
    report (flat_of_insts [ Inst.Nop; Inst.Jmp (Inst.Abs 0); Inst.Exit ])
  in
  checkb "non-dag" true (has_code r "non-dag-control-flow");
  let r = report (flat_of_insts [ Inst.Jmp (Inst.Label "x"); Inst.Exit ]) in
  checkb "unresolved-label" true (has_code r "unresolved-label");
  let bad_scale =
    Inst.Mov
      ( Width.W64,
        Operand.Reg Reg.RAX,
        Operand.Mem { Operand.base = Reg.R14; index = Some Reg.RBX; scale = 3; disp = 0 } )
  in
  let r = report (flat_of_insts [ bad_scale; Inst.Exit ]) in
  checkb "invalid-scale" true (has_code r "invalid-scale");
  let r =
    report
      (flat_of_insts
         [ Inst.Mov (Width.W64, Operand.Reg Reg.R14, Operand.Imm 0L); Inst.Exit ])
  in
  checkb "sandbox-base-overwrite" true (has_code r "sandbox-base-overwrite");
  let r =
    report
      (flat_of_insts
         [ Inst.Mov (Width.W64, Operand.Mem { Operand.base = Reg.R14; index = None; scale = 1; disp = 0 },
                     Operand.Mem { Operand.base = Reg.R14; index = None; scale = 1; disp = 8 });
           Inst.Exit ])
  in
  checkb "two-memory-operands" true (has_code r "two-memory-operands");
  let r =
    report
      (flat_of_insts
         [ Inst.Shift (Inst.Shl, Width.W64, Operand.Reg Reg.RAX, 300); Inst.Exit ])
  in
  checkb "shift-count-unencodable" true (has_code r "shift-count-unencodable");
  checkb "errors gate" false (Lint.ok r)

let test_lint_warnings () =
  (* unmasked tainted index: executable (emulator wraps) but suspicious *)
  let r =
    Lint.check
      (flat_of_insts
         [ Inst.Mov (Width.W64, Operand.Reg Reg.RAX,
                     Operand.mem ~index:(Some Reg.RBX) Reg.R14);
           Inst.Exit ])
  in
  checkb "unmasked-address is warning" true (has_code r "unmasked-address");
  checkb "warnings do not gate" true (Lint.ok r);
  (* mask larger than the sandbox *)
  let r =
    Lint.check ~sandbox_bytes:4096
      (flat_of_insts
         [ Inst.Binop (Inst.And, Width.W64, Operand.Reg Reg.RBX, Operand.Imm 8191L);
           Inst.Mov (Width.W64, Operand.Reg Reg.RAX,
                     Operand.mem ~index:(Some Reg.RBX) Reg.R14);
           Inst.Exit ])
  in
  checkb "sandbox-overflow" true (has_code r "sandbox-overflow");
  (* flags read with no prior writer *)
  let r =
    Lint.check (flat_of_insts [ Inst.Setcc (Cond.Z, Operand.Reg Reg.RAX); Inst.Exit ])
  in
  checkb "constant-predicate" true (has_code r "constant-predicate");
  (* well-masked access is silent *)
  let r = Lint.check (flat_of_asm straightline_clean) in
  checki "clean program: no errors" 0 r.Lint.errors;
  checkb "clean program: no containment warning" false
    (has_code r "sandbox-overflow" || has_code r "unmasked-address")

(* ------------------------------------------------------------------ *)
(* Leak classification                                                 *)
(* ------------------------------------------------------------------ *)

let test_leakcheck_spectre_v1 () =
  let t = Leakcheck.analyze (flat_of_asm spectre_v1) in
  checkb "leaky" true t.Leakcheck.leaky;
  checkb "has a transient transmitter" true
    (List.exists (fun s -> s.Leakcheck.transient) t.Leakcheck.transmitters);
  checkb "score positive" true (Leakcheck.score t > 0);
  checki "one speculation window" 1 (List.length t.Leakcheck.windows)

let test_leakcheck_clean () =
  let t = Leakcheck.analyze (flat_of_asm straightline_clean) in
  checkb "leak-free" false t.Leakcheck.leaky;
  checki "no transmitters" 0 (List.length t.Leakcheck.transmitters);
  (* the tainted-address loads are architectural, reported as flows *)
  checkb "arch flows reported" true (t.Leakcheck.arch_flows <> [])

let test_leakcheck_fence_kills_leak () =
  (* same gadget as spectre_v1 but fenced after the branch: the transient
     load can no longer execute speculatively *)
  let fenced =
    {|
.bb0:
  AND RDI, 0b1111111000
  CMP RAX, qword ptr [R14 + RDI]
  JNZ .done
  LFENCE
  AND RBX, 0b1111111000
  MOV RCX, qword ptr [R14 + RBX]
.done:
  EXIT
|}
  in
  let t = Leakcheck.analyze (flat_of_asm fenced) in
  checkb "fenced gadget leak-free" false t.Leakcheck.leaky

let test_leakcheck_spectre_v4 () =
  (* branch-free: leaks only via store-bypass; the bypass rule must flag it *)
  let v4 =
    {|
.bb0:
  AND RDI, 0b1111111000
  MOV RSI, qword ptr [R14 + RDI]
  AND RSI, 0b1111111000
  MOV qword ptr [R14 + RSI], 0
  MOV RBX, qword ptr [R14 + 128]
  AND RBX, 0b1111111000
  MOV RCX, qword ptr [R14 + RBX]
  EXIT
|}
  in
  let t = Leakcheck.analyze (flat_of_asm v4) in
  checkb "v4 leaky" true t.Leakcheck.leaky;
  checkb "via bypass, not a branch window" true
    (List.exists
       (fun s -> s.Leakcheck.bypass && not s.Leakcheck.transient)
       t.Leakcheck.transmitters)

(* ------------------------------------------------------------------ *)
(* Soundness gate: reproducers must never screen out                   *)
(* ------------------------------------------------------------------ *)

let test_soundness_gate () =
  List.iter
    (fun (r : Amulet.Reproducers.t) ->
      let flat = Amulet.Reproducers.flat r in
      let sandbox_bytes =
        r.Amulet.Reproducers.defense.Amulet_defenses.Defense.sandbox_pages * 4096
      in
      let t = Leakcheck.analyze ~sandbox_bytes flat in
      checkb
        (Printf.sprintf "%s classified potentially leaky" r.Amulet.Reproducers.name)
        true t.Leakcheck.leaky;
      checki
        (Printf.sprintf "%s lint errors" r.Amulet.Reproducers.name)
        0 t.Leakcheck.lint.Lint.errors)
    Amulet.Reproducers.all

(* ------------------------------------------------------------------ *)
(* Generator property: 1k seeds, zero lint errors                      *)
(* ------------------------------------------------------------------ *)

let generator_lint_prop =
  QCheck2.Test.make ~name:"generated programs pass the lint (no errors)"
    ~count:1000
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Amulet_corpus.Rng.create ~seed in
      let flat = Amulet_corpus.Generator.generate_flat rng in
      let report =
        Lint.check ~sandbox_bytes:(Amulet_corpus.Generator.default.Amulet_corpus.Generator.sandbox_pages * 4096) flat
      in
      if not (Lint.ok report) then
        QCheck2.Test.fail_reportf "seed %d:@.%a@.%a" seed Program.pp_flat flat
          Lint.pp report
      else true)

let test_generate_lint_free () =
  let rng = Amulet_corpus.Rng.create ~seed:7 in
  for _ = 1 to 20 do
    let flat = Amulet_corpus.Generator.generate_lint_free rng in
    checki "lint-free" 0 (Lint.check flat).Lint.errors
  done

(* ------------------------------------------------------------------ *)
(* Screen-vs-off equivalence: the filter must lose no violation        *)
(* ------------------------------------------------------------------ *)

let violation_idents (r : Amulet.Campaign.result) =
  List.sort compare
    (List.map
       (fun (v : Amulet.Violation.t) ->
         Printf.sprintf "%Lx/%Lx/%Lx %s" v.Amulet.Violation.ctrace_hash
           v.Amulet.Violation.trace_a_hash v.Amulet.Violation.trace_b_hash
           v.Amulet.Violation.program_text)
       r.Amulet.Campaign.violations)

let test_screen_equivalence () =
  (* a fence-rich population where some programs are provably leak-free:
     the case screening exists for.  (Under the default config virtually
     every generated program carries a speculative gadget — screening there
     is a no-op by design, not a bug.) *)
  let gen =
    {
      Amulet_corpus.Generator.default with
      Amulet_corpus.Generator.blocks = 3;
      fence_fraction = 0.25;
      mem_fraction = 0.25;
    }
  in
  let spec filter =
    Amulet.Run_spec.make ~defense:Amulet_defenses.Defense.baseline ~rounds:50
      ~seed:2024 ~classify:false ~inputs:8 ~boosts:4 ~boot_insts:200
      ~generation:(Amulet.Run_spec.random ~config:gen ()) ~static_filter:filter ()
  in
  let m_off = Obs.create () and m_screen = Obs.create () in
  let off = Amulet.Campaign.run ~metrics:m_off (spec Amulet.Run_spec.Off) in
  let screen =
    Amulet.Campaign.run ~metrics:m_screen (spec Amulet.Run_spec.Screen)
  in
  checkb "found at least one violation" true
    (off.Amulet.Campaign.violations <> []);
  Alcotest.(check (list string))
    "identical violation sets" (violation_idents off) (violation_idents screen);
  let screened =
    Obs.Snapshot.counter_value screen.Amulet.Campaign.metrics "static.screened"
  in
  checkb "screened some rounds" true (screened > 0);
  checkb "screening simulated fewer inputs" true
    (screen.Amulet.Campaign.test_cases < off.Amulet.Campaign.test_cases)

let () =
  Alcotest.run "static"
    [
      ( "cfg",
        [
          Alcotest.test_case "blocks and successors" `Quick test_cfg_blocks;
          Alcotest.test_case "cycles and dead code" `Quick test_cfg_cycle_and_dead_code;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "backward liveness" `Quick test_backward_liveness;
          Alcotest.test_case "fixpoint on cycle" `Quick test_forward_fixpoint_on_cycle;
        ] );
      ( "passes",
        [
          Alcotest.test_case "reaching definitions" `Quick test_reaching;
          Alcotest.test_case "taint kills and bounds" `Quick test_taint_kills_and_bounds;
          Alcotest.test_case "speculation window and fence" `Quick test_spec_window_and_fence;
          Alcotest.test_case "store-bypass exposure" `Quick test_bypass_exposure;
        ] );
      ( "lint",
        [
          Alcotest.test_case "named errors" `Quick test_lint_named_errors;
          Alcotest.test_case "warnings" `Quick test_lint_warnings;
        ] );
      ( "leakcheck",
        [
          Alcotest.test_case "spectre v1 gadget" `Quick test_leakcheck_spectre_v1;
          Alcotest.test_case "clean straight-line" `Quick test_leakcheck_clean;
          Alcotest.test_case "fence kills the leak" `Quick test_leakcheck_fence_kills_leak;
          Alcotest.test_case "spectre v4 (bypass)" `Quick test_leakcheck_spectre_v4;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "reproducers never screen out" `Quick test_soundness_gate;
        ] );
      ( "generator",
        [
          QCheck_alcotest.to_alcotest generator_lint_prop;
          Alcotest.test_case "generate_lint_free" `Quick test_generate_lint_free;
        ] );
      ( "filter",
        [
          Alcotest.test_case "screen equals off" `Slow test_screen_equivalence;
        ] );
    ]
