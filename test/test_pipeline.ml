(* Tests for the out-of-order pipeline: architectural equivalence with the
   sequential emulator (the load-bearing correctness property), speculation
   behaviours (Spectre-v1 and v4 on the baseline), and robustness. *)

open Amulet_isa
open Amulet_emu
open Amulet_uarch
open Amulet_defenses
module Rng = Amulet_corpus.Rng
module Generator = Amulet_corpus.Generator

let checkb = Alcotest.check Alcotest.bool
let check64 = Alcotest.check Alcotest.int64

let sim_of ?(cfg = Config.default) ?(pages = 1) () =
  Simulator.create ~boot_insts:0 ~pages cfg

(* run [flat] from [state] on both the emulator and the pipeline; compare
   final architectural state.  A fault agrees only with a fault: one that
   only one side hits (a pipeline deadlock, say) is a difference. *)
let arch_equivalent ?(cfg = Config.default) ?(pages = 1) flat (mk_state : unit -> State.t) =
  let st_e = mk_state () in
  let emu = Emulator.execute flat st_e in
  let sim = sim_of ~cfg ~pages () in
  Simulator.load_state sim (mk_state ());
  let stats = Simulator.run sim flat in
  match Emulator.fault emu, stats.Simulator.fault with
  | Some _, Some _ -> `Fault
  | Some _, None | None, Some _ -> `Different
  | None, None ->
      let st_p = Simulator.arch_state sim in
      if
        Array.for_all2 Int64.equal st_p.State.regs st_e.State.regs
        && Flags.equal st_p.State.flags st_e.State.flags
        && Memory.equal st_p.State.mem st_e.State.mem
      then `Equal
      else `Different

let defense_configs =
  [
    "baseline", Defense.config Defense.baseline;
    "invisispec", Defense.config Defense.invisispec;
    "invisispec-patched", Defense.config Defense.invisispec_patched;
    "cleanupspec", Defense.config Defense.cleanupspec;
    "cleanupspec-patched", Defense.config Defense.cleanupspec_patched;
    "stt", Defense.config Defense.stt;
    "speclfb", Defense.config Defense.speclfb;
    "delay-on-miss", Defense.config Defense.delay_on_miss;
    "ghostminion", Defense.config Defense.ghostminion;
    "amplified", Defense.config ~l1d_ways:2 ~mshrs:2 Defense.invisispec_patched;
  ]

(* the big one: for random programs and inputs, under every defense, the
   pipeline must compute exactly the emulator's architectural result *)
let equivalence_prop (name, cfg) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "pipeline = emulator [%s]" name)
    ~count:60
    QCheck2.Gen.(int_bound 10_000_000)
    (fun seed ->
      let open Amulet in
      let rng = Rng.create ~seed in
      let flat = Generator.generate_flat rng in
      let input = Input.generate rng ~pages:1 in
      match arch_equivalent ~cfg flat (fun () -> Input.to_state input) with
      | `Equal | `Fault -> true
      | `Different -> false)

(* unaligned/line-crossing accesses stress the split-request path *)
let equivalence_unaligned_prop =
  QCheck2.Test.make ~name:"pipeline = emulator [unaligned accesses]" ~count:60
    QCheck2.Gen.(int_bound 10_000_000)
    (fun seed ->
      let open Amulet in
      let rng = Rng.create ~seed in
      let gcfg = { Generator.default with Generator.unaligned_fraction = 0.8 } in
      let flat = Generator.generate_flat ~cfg:gcfg rng in
      let input = Input.generate rng ~pages:1 in
      match arch_equivalent flat (fun () -> Input.to_state input) with
      | `Equal | `Fault -> true
      | `Different -> false)

(* ------------------------------------------------------------------ *)
(* Spectre behaviours on the baseline                                  *)
(* ------------------------------------------------------------------ *)

let spectre_v1_src = {|
.bb0:
  AND RBX, 0b111111111000000
  CMP RAX, 0
  JNZ .done
  MOV RCX, qword ptr [R14 + RBX]
.done:
  MOV RDX, qword ptr [R14 + 3584]
  EXIT
|}

let mk_state rax rbx =
  let st = State.create ~pages:1 () in
  State.write_reg st Reg.RAX rax;
  State.write_reg st Reg.RBX rbx;
  State.write_reg st Reg.sandbox_base (Int64.of_int (Memory.base st.State.mem));
  st

(* run with priming; return sandbox lines present in the final L1D *)
let sandbox_lines_after ?(cfg = Config.default) src st =
  let flat = Program.flatten (Asm.parse src) in
  let sim = sim_of ~cfg () in
  ignore (Simulator.prime_with_fills sim);
  Simulator.load_state sim st;
  let stats = Simulator.run sim flat in
  Alcotest.(check (option string)) "no fault" None stats.Simulator.fault;
  List.filter (fun l -> l < Simulator.prime_base) (Simulator.l1d_tags sim)

let test_spectre_v1_transient_install () =
  (* rax=1: branch taken; the load runs only transiently (predicted
     not-taken) yet its line lands in the cache *)
  let lines = sandbox_lines_after spectre_v1_src (mk_state 1L 0x200L) in
  checkb "transient line installed (baseline leak)" true (List.mem 0x1200 lines);
  (* and the line differs with the (transient) input *)
  let lines' = sandbox_lines_after spectre_v1_src (mk_state 1L 0x400L) in
  checkb "input-dependent" true (List.mem 0x1400 lines' && not (List.mem 0x1200 lines'))

let test_spectre_v1_squash_restores_arch_state () =
  let flat = Program.flatten (Asm.parse spectre_v1_src) in
  match arch_equivalent flat (fun () -> mk_state 1L 0x200L) with
  | `Equal -> ()
  | `Different -> Alcotest.fail "squash corrupted architectural state"
  | `Fault -> Alcotest.fail "unexpected fault"

let spectre_v4_src = {|
.bb0:
  AND RDI, 0b111111111000000
  MOV RSI, qword ptr [R14 + RDI]
  AND RSI, 0b11111000000
  MOV qword ptr [R14 + RSI + 0], 0
  MOV RBX, qword ptr [R14 + 128]
  AND RBX, 0b111111111000000
  MOV RCX, qword ptr [R14 + RBX]
  EXIT
|}

let test_spectre_v4_store_bypass () =
  (* the store's address depends on a slow load, so the younger load of
     [R14+128] bypasses it (cold MDP) and reads the stale secret, which is
     then transmitted via the last load's line *)
  let st secret =
    let st = mk_state 0L 0L in
    State.write_reg st Reg.RDI 0x40L;
    Memory.write st.State.mem Width.W64 (Memory.base st.State.mem + 0x40) 0x80L;
    (* stale secret at [R14+128]; the store will overwrite it with 0 *)
    Memory.write st.State.mem Width.W64 (Memory.base st.State.mem + 128) secret;
    st
  in
  let lines_a = sandbox_lines_after spectre_v4_src (st 0x200L) in
  let lines_b = sandbox_lines_after spectre_v4_src (st 0x600L) in
  checkb "stale value leaked via transient line" true
    (List.mem 0x1200 lines_a && List.mem 0x1600 lines_b);
  (* the architectural result is still correct (the bypassing load replays) *)
  let flat = Program.flatten (Asm.parse spectre_v4_src) in
  match arch_equivalent flat (fun () -> st 0x200L) with
  | `Equal -> ()
  | `Different -> Alcotest.fail "memory-dependence replay corrupted state"
  | `Fault -> Alcotest.fail "unexpected fault"

let test_fence_blocks_transient_load () =
  let src = {|
.bb0:
  AND RBX, 0b111111111000000
  CMP RAX, 0
  JNZ .done
  LFENCE
  MOV RCX, qword ptr [R14 + RBX]
.done:
  MOV RDX, qword ptr [R14 + 3584]
  EXIT
|} in
  let lines = sandbox_lines_after src (mk_state 1L 0x200L) in
  checkb "lfence kills the transient load" false (List.mem 0x1200 lines)

(* ------------------------------------------------------------------ *)
(* Robustness                                                          *)
(* ------------------------------------------------------------------ *)

let test_deadlock_detected () =
  (* an instruction window that can never complete must be caught by the
     watchdog, not hang: a backward jump loops commit forever, but the
     cycle limit / fetch escape catches it *)
  let flat =
    { Program.code = [| Inst.Jmp (Inst.Abs 0); Inst.Exit |]; code_base = 0x400000; inst_size = 4 }
  in
  let cfg = { Config.default with Config.max_cycles = 5_000 } in
  let sim = sim_of ~cfg () in
  Simulator.load_state sim (mk_state 0L 0L);
  let stats = Simulator.run sim flat in
  checkb "faulted rather than hung" true (stats.Simulator.fault <> None)

let test_prime_fills_cache () =
  let sim = sim_of () in
  ignore (Simulator.prime_with_fills sim);
  let cfg = Config.default in
  Alcotest.check Alcotest.int "cache full after priming"
    (cfg.Config.l1d_sets * cfg.Config.l1d_ways)
    (List.length (Simulator.l1d_tags sim));
  checkb "all prime lines" true
    (List.for_all (fun l -> l >= Simulator.prime_base) (Simulator.l1d_tags sim));
  checkb "tlb reset after priming" true (Simulator.tlb_pages sim = [])

let test_flush_hook () =
  let sim = sim_of () in
  ignore (Simulator.prime_with_fills sim);
  Simulator.prime_with_flush sim;
  checkb "flush empties" true (Simulator.l1d_tags sim = [])

let test_run_stats_sane () =
  let flat = Program.flatten (Asm.parse "ADD RAX, 1\nADD RAX, 2") in
  let sim = sim_of () in
  Simulator.load_state sim (mk_state 0L 0L);
  let stats = Simulator.run sim flat in
  Alcotest.check Alcotest.int "3 committed (incl exit)" 3 stats.Simulator.committed_insts;
  checkb "cycles positive" true (stats.Simulator.cycles > 0);
  check64 "result" 3L (State.read_reg (Simulator.arch_state sim) Reg.RAX)

(* ------------------------------------------------------------------ *)
(* Direct priming against the simulated fill program                   *)
(* ------------------------------------------------------------------ *)

(* everything a prime may touch: L1D/L2 tags and replacement state, the
   TLB, the L1I and the predictors *)
let primed_state sim =
  ( Simulator.cache_digest sim,
    Simulator.tlb_pages sim,
    Simulator.l1i_tags sim,
    Simulator.bp_state sim )

(* Every fill-primed preset, plain and amplified: from the same state, the
   direct prime and the pipeline-run fill program must leave identical
   caches (tags and LRU order), TLB, L1I and predictors.  Test runs between
   primes leave sandbox lines in both cache levels, as a campaign does. *)
let test_direct_prime_matches_fill_program () =
  let fill_presets =
    List.filter (fun d -> d.Defense.priming = Defense.Fill_sets) Defense.all
  in
  List.iter
    (fun (d : Defense.t) ->
      List.iter
        (fun (label, cfg) ->
          let pages = d.Defense.sandbox_pages in
          let sim = Simulator.create ~boot_insts:0 ~pages cfg in
          let rng = Rng.create ~seed:41 in
          for round = 1 to 4 do
            let what = Printf.sprintf "%s %s round %d" d.Defense.name label round in
            let ctx = Simulator.snapshot_context sim in
            let simulated = Simulator.simulate_fill_program sim in
            let expected = primed_state sim in
            Simulator.restore_context sim ctx;
            let direct = Simulator.prime_with_fills sim in
            checkb (what ^ ": fill program simulated") true
              (simulated.Simulator.cycles > 0);
            Alcotest.check Alcotest.int (what ^ ": direct prime costs no cycles") 0
              direct.Simulator.cycles;
            checkb (what ^ ": identical primed state") true
              (primed_state sim = expected);
            let flat = Generator.generate_flat rng in
            Simulator.load_state sim
              (Amulet.Input.to_state (Amulet.Input.generate rng ~pages));
            ignore (Simulator.run sim flat)
          done)
        [
          "default", Defense.config d;
          "l1d_ways=2", Defense.config ~l1d_ways:2 d;
          "mshrs=2", Defense.config ~mshrs:2 d;
        ])
    fill_presets

(* the one configuration that keeps the simulated prime *)
let test_simulated_prime_kept () =
  let cfg = { (Defense.config Defense.invisispec) with Config.nl_prefetcher = true } in
  let stats = Simulator.prime_with_fills (sim_of ~cfg ()) in
  checkb "next-line prefetcher: prime simulated" true
    (stats.Simulator.cycles > 0 && stats.Simulator.committed_insts > 0)

(* the fill loads read zeros only while the sandbox stays below the
   priming region *)
let test_sandbox_below_prime_region () =
  ignore (sim_of ~pages:255 ());
  match sim_of ~pages:256 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a 256-page sandbox overlapping the priming region was accepted"

let () =
  Alcotest.run ~and_exit:false "pipeline"
    [
      ( "equivalence",
        List.map equivalence_prop defense_configs
        |> List.map QCheck_alcotest.to_alcotest
        |> fun l -> l @ [ QCheck_alcotest.to_alcotest equivalence_unaligned_prop ] );
      ( "speculation",
        [
          Alcotest.test_case "spectre-v1 transient install" `Quick
            test_spectre_v1_transient_install;
          Alcotest.test_case "spectre-v1 squash clean" `Quick
            test_spectre_v1_squash_restores_arch_state;
          Alcotest.test_case "spectre-v4 store bypass" `Quick test_spectre_v4_store_bypass;
          Alcotest.test_case "lfence barrier" `Quick test_fence_blocks_transient_load;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "priming fills cache" `Quick test_prime_fills_cache;
          Alcotest.test_case "flush hook" `Quick test_flush_hook;
          Alcotest.test_case "run stats" `Quick test_run_stats_sane;
        ] );
      ( "priming",
        [
          Alcotest.test_case "direct prime = fill program" `Quick
            test_direct_prime_matches_fill_program;
          Alcotest.test_case "simulated prime kept" `Quick
            test_simulated_prime_kept;
          Alcotest.test_case "sandbox below priming region" `Quick
            test_sandbox_below_prime_region;
        ] );
    ]

(* appended coverage: defense mechanics inside the pipeline, the PC-sequence
   observer, and issue-gating behaviours *)

let test_invisispec_expose_installs_after_safety () =
  (* a speculative load on the CORRECT path must eventually be exposed and
     installed; on the WRONG path its line must never appear *)
  let src = {|
.bb0:
  AND RSI, 0b111111000000
  CMP RAX, qword ptr [R14 + RSI]
  JNZ .done
  AND RBX, 0b111111000000
  MOV RCX, qword ptr [R14 + RBX]
.done:
  MOV RDX, qword ptr [R14 + 3584]
  AND RDX, 0b111111000000
  MOV RDI, qword ptr [R14 + RDX + 2048]
  EXIT
|} in
  let cfg = Defense.config Defense.invisispec_patched in
  let flat = Program.flatten (Asm.parse src) in
  let run rax =
    let st = mk_state rax 0x200L in
    State.write_reg st Reg.RSI 0x80L;
    let sim = sim_of ~cfg () in
    ignore (Simulator.prime_with_fills sim);
    Simulator.load_state sim st;
    ignore (Simulator.run sim flat);
    List.filter (fun l -> l < Simulator.prime_base) (Simulator.l1d_tags sim)
  in
  (* rax = mem value (0): branch not taken, load architectural -> exposed *)
  let arch_lines = run 0L in
  checkb "arch spec load exposed and installed" true (List.mem 0x1200 arch_lines);
  (* rax <> 0: branch taken, load transient -> spec buffer dropped *)
  let wrong_lines = run 1L in
  checkb "transient load invisible (patched InvisiSpec)" false
    (List.mem 0x1200 wrong_lines)

let test_stt_blocks_tainted_transmitter () =
  (* under STT a transiently-loaded value must not reach the cache via a
     dependent load's address *)
  let src = {|
.bb0:
  AND RSI, 0b111111000000
  CMP RAX, qword ptr [R14 + RSI]
  JNZ .done
  MOV RBX, qword ptr [R14 + 8]
  AND RBX, 0b111111000000
  MOV RCX, qword ptr [R14 + RBX]
.done:
  MOV RDX, qword ptr [R14 + 3584]
  AND RDX, 0b111111000000
  MOV RDI, qword ptr [R14 + RDX + 2048]
  EXIT
|} in
  let flat = Program.flatten (Asm.parse src) in
  let lines_with cfg secret =
    let st = mk_state 1L 0L in
    Memory.write st.State.mem Width.W64 (Memory.base st.State.mem + 8) secret;
    let sim = sim_of ~cfg () in
    ignore (Simulator.prime_with_fills sim);
    Simulator.load_state sim st;
    ignore (Simulator.run sim flat);
    List.filter (fun l -> l < Simulator.prime_base) (Simulator.l1d_tags sim)
  in
  let baseline_lines = lines_with (Defense.config Defense.baseline) 0x200L in
  checkb "baseline leaks the dependent line" true (List.mem 0x1200 baseline_lines);
  let stt_lines = lines_with (Defense.config Defense.stt) 0x200L in
  checkb "stt blocks the tainted transmitter" false (List.mem 0x1200 stt_lines)

let test_pc_sequence_observer () =
  (* the PC-sequence trace includes wrong-path instructions *)
  let flat = Program.flatten (Asm.parse spectre_v1_src) in
  let run rbx =
    let sim = sim_of () in
    ignore (Simulator.prime_with_fills sim);
    Simulator.load_state sim (mk_state 1L rbx);
    ignore (Simulator.run sim flat);
    Simulator.execution_order sim
  in
  let pcs = run 0x200L in
  (* the transient load at index 3 (pc base+12) executed despite the squash *)
  checkb "wrong-path pc recorded" true (List.mem (Program.code_base_default + 12) pcs);
  checkb "exit recorded" true (pcs <> [])

let test_rob_capacity_blocks_fetch () =
  (* more independent instructions than the ROB holds: the program must
     still complete correctly, just in waves *)
  let body =
    List.init 100 (fun i ->
        Inst.Binop (Inst.Add, Width.W64, Operand.Reg Reg.RAX, Operand.Imm (Int64.of_int i)))
  in
  let flat = Program.flatten (Program.make [ { Program.label = "big"; body } ]) in
  match arch_equivalent flat (fun () -> mk_state 0L 0L) with
  | `Equal -> ()
  | `Different -> Alcotest.fail "rob-pressure corrupted state"
  | `Fault -> Alcotest.fail "unexpected fault"

let test_split_access_pipeline_correctness () =
  (* an 8-byte access straddling a line boundary is architecturally exact *)
  let src = {|
  MOV qword ptr [R14 + 60], RBX
  MOV RCX, qword ptr [R14 + 60]
|} in
  let flat = Program.flatten (Asm.parse src) in
  match arch_equivalent flat (fun () -> mk_state 0L 0x1122334455667788L) with
  | `Equal -> ()
  | `Different -> Alcotest.fail "split access mismatch"
  | `Fault -> Alcotest.fail "unexpected fault"

let () =
  Alcotest.run "pipeline-extra"
    [
      ( "defense-mechanics",
        [
          Alcotest.test_case "invisispec expose" `Quick
            test_invisispec_expose_installs_after_safety;
          Alcotest.test_case "stt transmitter gate" `Quick
            test_stt_blocks_tainted_transmitter;
        ] );
      ( "observers",
        [ Alcotest.test_case "pc sequence" `Quick test_pc_sequence_observer ] );
      ( "capacity",
        [
          Alcotest.test_case "rob pressure" `Quick test_rob_capacity_blocks_fetch;
          Alcotest.test_case "split access" `Quick test_split_access_pipeline_correctness;
        ] );
    ]
