(* Tests for the AMuLeT core: RNG, inputs, the program generator, trace
   formats, the executor, the fuzzer round logic and violation analysis. *)

open Amulet
open Amulet_isa
open Amulet_defenses
module Rng = Amulet_corpus.Rng
module Generator = Amulet_corpus.Generator

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* RNG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.check Alcotest.int64 "same stream" (Rng.next64 a) (Rng.next64 b)
  done;
  let c = Rng.create ~seed:43 in
  checkb "different seed different stream" false
    (Int64.equal (Rng.next64 (Rng.create ~seed:42)) (Rng.next64 c))

let test_rng_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

(* The per-byte draw loop the bulk fills replace; kept here only as the
   reference they must match draw for draw. *)
let ref_fill rng b off len =
  for i = off to off + len - 1 do
    Bytes.set b i (Char.chr (Rng.int rng 256))
  done

let ref_fill_words rng b ~keep =
  for k = 0 to (Bytes.length b / 8) - 1 do
    if not (keep k) then ref_fill rng b (k * 8) 8
  done

(* same bytes written, and the same state left for the next draw *)
let same_stream ~fill ~reference seed b =
  let a = Rng.create ~seed and r = Rng.create ~seed in
  let ba = Bytes.copy b and br = Bytes.copy b in
  fill a ba;
  reference r br;
  Bytes.equal ba br && Int64.equal (Rng.next64 a) (Rng.next64 r)

let rng_fill_bytes_prop =
  QCheck2.Test.make ~name:"fill_bytes = per-byte draws" ~count:300
    QCheck2.Gen.(quad (int_bound 10_000_000) (int_bound 200) nat nat)
    (fun (seed, n, o, l) ->
      let off = o mod (n + 1) in
      let len = l mod (n - off + 1) in
      same_stream seed (Bytes.make n '\xAA')
        ~fill:(fun rng b -> Rng.fill_bytes rng b off len)
        ~reference:(fun rng b -> ref_fill rng b off len))

let test_rng_fill_bounds () =
  let rng = Rng.create ~seed:3 in
  let b = Bytes.create 16 in
  List.iter
    (fun (off, len) ->
      match Rng.fill_bytes rng b off len with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "fill_bytes accepted off=%d len=%d" off len)
    [ (-1, 1); (0, -1); (0, 17); (16, 1); (max_int, 1) ]

let test_rng_weighted () =
  let rng = Rng.create ~seed:7 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3000 do
    let v = Rng.weighted rng [ (1, `A); (9, `B) ] in
    Hashtbl.replace counts v (1 + Option.value (Hashtbl.find_opt counts v) ~default:0)
  done;
  let a = Option.value (Hashtbl.find_opt counts `A) ~default:0 in
  let b = Option.value (Hashtbl.find_opt counts `B) ~default:0 in
  checkb "weights respected" true (b > a * 4)

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let test_input_to_state_pins_base () =
  let rng = Rng.create ~seed:1 in
  let i = Input.generate rng ~pages:2 in
  let st = Input.to_state i in
  Alcotest.check Alcotest.int64 "r14 = sandbox base"
    (Int64.of_int (Amulet_emu.Memory.base st.Amulet_emu.State.mem))
    (Amulet_emu.State.read_reg st Reg.sandbox_base);
  checki "pages" 2 (Input.pages i)

let test_input_load_size_mismatch () =
  let small = Input.generate (Rng.create ~seed:1) ~pages:1 in
  let st = Amulet_emu.State.create ~pages:128 () in
  match Input.load st small with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a 1-page input loaded into a 128-page state"

let test_input_hash_sensitivity () =
  let rng = Rng.create ~seed:1 in
  let a = Input.generate rng ~pages:1 in
  let b = Input.generate rng ~pages:1 in
  checkb "different inputs different hash" false (Int64.equal (Input.hash a) (Input.hash b));
  (* the FNV digest names inputs in reports: its value is pinned *)
  Alcotest.check Alcotest.int64 "pinned hash" 0xcd14d9855b085fb4L (Input.hash a);
  checkb "equal to itself" true (Input.equal a a);
  checkb "not equal to other" false (Input.equal a b)

(* Input.generate and Input.mutate_free against the per-byte reference,
   on the smallest sandbox and on stt's 128 pages.  [ref_reg] is
   [Input]'s register draw, which the bulk fills leave as it is. *)
let ref_reg rng ~mem_bytes =
  let low = Int64.logand (Rng.next64 rng) (Int64.of_int (mem_bytes - 1)) in
  if Rng.bool rng ~p:0.25 then Int64.logor low (Int64.shift_left (Rng.next64 rng) 32)
  else low

(* A taint whose relevant words are exactly [words]: one observed 8-byte
   load of each, as ARCH-SEQ records it. *)
let taint_of_words mem words =
  let load = (Program.flatten (Asm.parse "MOV RAX, qword ptr [R14]")).Program.code.(0) in
  let t = Amulet_emu.Taint.create mem in
  List.iter
    (fun k ->
      let request = Some (Amulet_emu.Memory.base mem + (8 * k), Width.W64, `Load) in
      Amulet_emu.Taint.step t ~inst:load ~request ~observe_values:true)
    words;
  t

(* mutate_free's run-wise redraw against the per-word reference walk *)
let check_mutate_free ~seed base taint =
  let mem_bytes = Bytes.length base.Input.mem in
  let a = Rng.create ~seed and r = Rng.create ~seed in
  let mutant = Input.mutate_free a taint base in
  let regs = Array.copy base.Input.regs in
  List.iter
    (fun reg ->
      if not (Amulet_emu.Taint.is_relevant_reg taint reg)
         && not (Reg.equal reg Reg.sandbox_base)
      then regs.(Reg.index reg) <- ref_reg r ~mem_bytes)
    Reg.all;
  let mem = Bytes.copy base.Input.mem in
  ref_fill_words r mem ~keep:(Amulet_emu.Taint.is_relevant_word taint);
  checkb "mutate_free: same input" true (Input.equal mutant { Input.regs; mem });
  checkb "mutate_free: same next draw" true
    (Int64.equal (Rng.next64 a) (Rng.next64 r))

let test_input_bulk_draws_match_reference () =
  let open Amulet_contracts in
  List.iter
    (fun pages ->
      let mem_bytes = pages * Amulet_emu.Memory.page_size in
      let words = mem_bytes / 8 in
      let a = Rng.create ~seed:pages and r = Rng.create ~seed:pages in
      let input = Input.generate a ~pages in
      let regs = Array.init Reg.count (fun _ -> ref_reg r ~mem_bytes) in
      let mem = Bytes.create mem_bytes in
      ref_fill r mem 0 mem_bytes;
      checkb "generate: same input" true (Input.equal input { Input.regs; mem });
      checkb "generate: same next draw" true (Int64.equal (Rng.next64 a) (Rng.next64 r));
      (* a program's taint with both relevant and free words: ARCH-SEQ pins
         loaded data as well as addresses *)
      let rec tainted seed =
        let g = Rng.create ~seed in
        let flat = Generator.generate_flat g in
        let base = Input.generate g ~pages in
        let res =
          Leakage_model.collect ~collect_taint:true Contract.arch_seq flat
            (Input.to_state base)
        in
        match res.Leakage_model.fault, res.Leakage_model.taint with
        | None, Some t when Amulet_emu.Taint.relevant_words t <> [] -> (base, t)
        | _ -> tainted (seed + 1)
      in
      let base, taint = tainted 1 in
      check_mutate_free ~seed:99 base taint;
      (* relevant-word sets of every shape: none, either end, adjacent
         runs, all words on one page, and random masks of varied density *)
      let mem = (Input.to_state base).Amulet_emu.State.mem in
      let g = Rng.create ~seed:(1000 + pages) in
      let random_mask () =
        let density = 1 + Rng.int g 256 in
        List.filter (fun _ -> Rng.int g 512 < density) (List.init words Fun.id)
      in
      let masks =
        [ []; [ 0 ]; [ words - 1 ]; [ 0; words - 1 ]; [ 1; 2; 3; words - 2 ] ]
        @ (if pages = 1 then [ List.init words Fun.id ] else [])
        @ List.init 20 (fun _ -> random_mask ())
      in
      List.iteri
        (fun i ks -> check_mutate_free ~seed:i base (taint_of_words mem ks))
        masks)
    [ 1; 128 ]

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let generator_wellformed_prop =
  QCheck2.Test.make ~name:"generated programs are well-formed DAGs" ~count:200
    QCheck2.Gen.(int_bound 10_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let p = Generator.generate rng in
      let flat = Program.flatten p in
      (* forward control flow only *)
      Program.is_dag flat
      (* never writes the sandbox base or the harness scratch register *)
      && Array.for_all
           (fun inst ->
             not (List.memq Reg.sandbox_base (Inst.dest_regs inst))
             && not (List.memq Reg.R15 (Inst.dest_regs inst)))
           flat.Program.code
      (* ends in Exit *)
      && Program.get flat (Program.length flat - 1) = Inst.Exit)

(* every memory access in a generated program is immediately preceded by an
   AND mask on its index register (the sandbox instrumentation) *)
let generator_sandboxing_prop =
  QCheck2.Test.make ~name:"generated memory accesses are sandbox-masked" ~count:100
    QCheck2.Gen.(int_bound 10_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let p = Generator.generate rng in
      List.for_all
        (fun { Program.body; _ } ->
          let rec scan prev = function
            | [] -> true
            | inst :: rest ->
                let ok =
                  match Inst.mem_access inst with
                  | None -> true
                  | Some (m, _, _) -> (
                      Reg.equal m.Operand.base Reg.sandbox_base
                      &&
                      match m.Operand.index, prev with
                      | Some idx, Some (Inst.Binop (Inst.And, _, Operand.Reg r, Operand.Imm _))
                        ->
                          Reg.equal idx r
                      | None, _ -> true
                      | Some _, _ -> false)
                in
                ok && scan (Some inst) rest
          in
          scan None body)
        p.Program.blocks)

(* generated programs emulate without faulting (sandboxing works) *)
let generator_runs_prop =
  QCheck2.Test.make ~name:"generated programs run cleanly on the emulator" ~count:100
    QCheck2.Gen.(int_bound 10_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let flat = Generator.generate_flat rng in
      let input = Input.generate rng ~pages:1 in
      let emu = Amulet_emu.Emulator.execute flat (Input.to_state input) in
      Amulet_emu.Emulator.fault emu = None)

(* ------------------------------------------------------------------ *)
(* Traces                                                              *)
(* ------------------------------------------------------------------ *)

let test_utrace_equal_hash () =
  let a = Utrace.State_snapshot { l1d = [ 1; 2 ]; tlb = [ 3 ]; l1i = None } in
  let b = Utrace.State_snapshot { l1d = [ 1; 2 ]; tlb = [ 3 ]; l1i = None } in
  let c = Utrace.State_snapshot { l1d = [ 1; 4 ]; tlb = [ 3 ]; l1i = None } in
  checkb "equal" true (Utrace.equal a b);
  checkb "hash equal" true (Int64.equal (Utrace.hash a) (Utrace.hash b));
  checkb "different" false (Utrace.equal a c);
  checkb "hash different" false (Int64.equal (Utrace.hash a) (Utrace.hash c))

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_utrace_diff () =
  let a = Utrace.State_snapshot { l1d = [ 0x1000; 0x2000 ]; tlb = [ 1 ]; l1i = None } in
  let b = Utrace.State_snapshot { l1d = [ 0x1000; 0x3000 ]; tlb = [ 1; 2 ]; l1i = None } in
  let d = String.concat "\n" (Utrace.diff a b) in
  checkb "mentions A-only line" true (contains_substring d "0x2000");
  checkb "mentions B-only line" true (contains_substring d "0x3000");
  checkb "equal traces have empty diff" true (Utrace.diff a a = [])

let test_utrace_formats_lookup () =
  checkb "default" true (Utrace.format_of_string "l1d+tlb" = Some Utrace.L1d_tlb);
  checkb "bp" true (Utrace.format_of_string "bp-state" = Some Utrace.Bp_state);
  checkb "mem order" true (Utrace.format_of_string "mem-order" = Some Utrace.Mem_order);
  checkb "unknown" true (Utrace.format_of_string "x" = None);
  checkb "pc order (extension)" true (Utrace.format_of_string "pc-order" = Some Utrace.Pc_order);
  checki "4 paper formats" 4 (List.length Utrace.all_formats);
  checki "1 extension format" 1 (List.length Utrace.extension_formats)

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)
(* ------------------------------------------------------------------ *)

let spectre_src = {|
.bb0:
  AND RBX, 0b111111111000000
  CMP RAX, 0
  JNZ .done
  MOV RCX, qword ptr [R14 + RBX]
.done:
  MOV RDX, qword ptr [R14 + 64]
  EXIT
|}

let test_executor_determinism_with_context () =
  let stats = Stats.create () in
  let ex = Engine.create ~boot_insts:200 ~mode:Executor.Opt Defense.baseline stats in
  Engine.start_program ex;
  let flat = Program.flatten (Asm.parse spectre_src) in
  let rng = Rng.create ~seed:3 in
  let input = Input.generate rng ~pages:1 in
  let o = Engine.run ex flat input in
  let t1 = (Engine.run ex ~context:o.Engine.context flat input).Engine.trace in
  let t2 = (Engine.run ex ~context:o.Engine.context flat input).Engine.trace in
  checkb "same input same context same trace" true (Utrace.equal t1 t2)

let test_executor_naive_vs_opt_equivalent_results () =
  (* both modes must run the program correctly (they differ in cost and
     cache priming, not semantics) *)
  let flat = Program.flatten (Asm.parse "ADD RAX, 1") in
  let rng = Rng.create ~seed:3 in
  let input = Input.generate rng ~pages:1 in
  List.iter
    (fun mode ->
      let ex = Engine.create ~boot_insts:200 ~mode Defense.baseline (Stats.create ()) in
      Engine.start_program ex;
      let o = Engine.run ex flat input in
      Alcotest.(check (option string)) "no fault" None (Option.map Fault.to_string o.Engine.run_fault))
    [ Executor.Naive; Executor.Opt ]

let test_stats_accounting () =
  let s = Stats.create () in
  Stats.count_test_case s;
  Stats.count_test_case s;
  checki "test cases" 2 (Stats.test_cases s)

(* ------------------------------------------------------------------ *)
(* Fuzzer round                                                        *)
(* ------------------------------------------------------------------ *)

let test_fuzzer_finds_spectre_in_crafted_program () =
  let fz =
    Fuzzer.create
      (Run_spec.make ~defense:Defense.baseline ~seed:17 ~inputs:8 ~boosts:5
         ~boot_insts:300 ())
  in
  match Fuzzer.test_program fz (Program.flatten (Asm.parse spectre_src)) with
  | Fuzzer.Found v ->
      checkb "traces differ" false (Utrace.equal v.Violation.trace_a v.Violation.trace_b);
      checkb "ctrace hash recorded" true (not (Int64.equal v.Violation.ctrace_hash 0L))
  | Fuzzer.No_violation _ -> Alcotest.fail "expected a violation"
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded r -> Alcotest.failf "discarded: %s" (Fault.to_string r)

let test_fuzzer_clean_on_straightline_code () =
  (* no speculation sources: no violations possible *)
  let src = {|
  AND RBX, 4088
  MOV RAX, qword ptr [R14 + RBX]
  ADD RAX, 1
  MOV qword ptr [R14 + RBX], RAX
|} in
  let fz =
    Fuzzer.create
      (Run_spec.make ~defense:Defense.baseline ~seed:9 ~inputs:6 ~boosts:4
         ~boot_insts:300 ())
  in
  match Fuzzer.test_program fz (Program.flatten (Asm.parse src)) with
  | Fuzzer.No_violation _ -> ()
  | Fuzzer.Found _ -> Alcotest.fail "straight-line code cannot violate CT-SEQ"
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded r -> Alcotest.failf "discarded: %s" (Fault.to_string r)

let test_campaign_counters () =
  let r =
    Campaign.run
      (Run_spec.make ~defense:Defense.baseline ~rounds:3 ~classify:false
         ~inputs:3 ~boosts:2 ~boot_insts:200 ())
  in
  checki "programs" 3 r.Campaign.programs_run;
  checkb "test cases counted" true (r.Campaign.test_cases > 0);
  checkb "throughput positive" true (r.Campaign.throughput > 0.)

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let test_dataflow_back () =
  let flat = Program.flatten (Asm.parse {|
  MOV RBX, qword ptr [R14 + 8]
  AND RBX, 4088
  ADD RCX, 1
  MOV RAX, qword ptr [R14 + RBX]
|}) in
  (* the load at index 3 depends on RBX defined at 1 and 0 *)
  let chain = Analysis.dataflow_back flat ~index:3 in
  checkb "finds mask" true (List.mem 1 chain);
  checkb "finds original load" true (List.mem 0 chain);
  checkb "skips unrelated" false (List.mem 2 chain)

let test_side_by_side_renders () =
  let open Amulet_uarch in
  let events =
    [
      Event.Mem_access
        { cycle = 1; pc = 0x400000; kind = Event.Demand_load; addr = 0x1000; line = 0x1000; spec = false };
      Event.Squashed { cycle = 2; pc = 0x400004; reason = Event.Branch_mispredict };
    ]
  in
  let out = Format.asprintf "%a" (fun f () -> Analysis.pp_side_by_side f events []) () in
  checkb "renders rows" true (String.length out > 0)

let test_fuzzer_naive_mode_also_finds () =
  let fz =
    Fuzzer.create
      (Run_spec.make ~defense:Defense.baseline ~seed:17 ~inputs:8 ~boosts:5
         ~boot_insts:100 ~mode:Executor.Naive ())
  in
  match Fuzzer.test_program fz (Program.flatten (Asm.parse spectre_src)) with
  | Fuzzer.Found _ -> ()
  | Fuzzer.No_violation _ ->
      (* naive mode starts from clean caches: install-visible leaks only;
         this crafted program leaks via installs, so it must be found *)
      Alcotest.fail "naive executor missed the install-visible leak"
  | Fuzzer.Screened -> Alcotest.fail "unexpectedly screened"
  | Fuzzer.Discarded r -> Alcotest.failf "discarded: %s" (Fault.to_string r)

let test_campaign_stop_after () =
  let r =
    Campaign.run
      (Run_spec.make ~defense:Defense.baseline ~rounds:50 ~stop_after:1
         ~seed:2024 ~classify:false ~inputs:8 ~boosts:4 ~boot_insts:200 ())
  in
  checki "stops at first violation" 1 (List.length r.Campaign.violations);
  checkb "did not run all programs" true (r.Campaign.programs_run < 50)

let test_reproducers_registry () =
  checki "9 reproducers" 9 (List.length Reproducers.all);
  List.iter
    (fun r ->
      (* each reproducer parses, flattens and is registered by name *)
      let flat = Reproducers.flat r in
      checkb (r.Reproducers.name ^ " nonempty") true (Program.length flat > 0);
      checkb (r.Reproducers.name ^ " findable") true
        (Reproducers.find r.Reproducers.name = Some r))
    Reproducers.all;
  checkb "unknown reproducer" true (Reproducers.find "nope" = None)

let test_violation_render_mentions_signature () =
  match Reproducers.hunt ~seed:2 Reproducers.figure8 with
  | None -> Alcotest.fail "figure8 hunt failed"
  | Some v ->
      let text = Violation.to_string v in
      checkb "signature in rendering" true
        (contains_substring text "UV6");
      checkb "program in rendering" true (contains_substring text "MOV")

let () =
  Alcotest.run ~and_exit:false "core"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "weighted" `Quick test_rng_weighted;
          Alcotest.test_case "fill bounds" `Quick test_rng_fill_bounds;
          QCheck_alcotest.to_alcotest rng_fill_bytes_prop;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "to_state pins base" `Quick test_input_to_state_pins_base;
          Alcotest.test_case "hash sensitivity" `Quick test_input_hash_sensitivity;
          Alcotest.test_case "load rejects a size mismatch" `Quick
            test_input_load_size_mismatch;
          Alcotest.test_case "bulk draws match reference" `Quick
            test_input_bulk_draws_match_reference;
        ] );
      ( "generator",
        [
          QCheck_alcotest.to_alcotest generator_wellformed_prop;
          QCheck_alcotest.to_alcotest generator_sandboxing_prop;
          QCheck_alcotest.to_alcotest generator_runs_prop;
        ] );
      ( "traces",
        [
          Alcotest.test_case "equal/hash" `Quick test_utrace_equal_hash;
          Alcotest.test_case "diff" `Quick test_utrace_diff;
          Alcotest.test_case "format lookup" `Quick test_utrace_formats_lookup;
        ] );
      ( "executor",
        [
          Alcotest.test_case "context determinism" `Quick test_executor_determinism_with_context;
          Alcotest.test_case "naive vs opt" `Quick test_executor_naive_vs_opt_equivalent_results;
          Alcotest.test_case "stats" `Quick test_stats_accounting;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "finds spectre" `Slow test_fuzzer_finds_spectre_in_crafted_program;
          Alcotest.test_case "clean straight-line" `Slow test_fuzzer_clean_on_straightline_code;
          Alcotest.test_case "campaign counters" `Slow test_campaign_counters;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "dataflow back" `Quick test_dataflow_back;
          Alcotest.test_case "side-by-side" `Quick test_side_by_side_renders;
        ] );
    ]

let () =
  Alcotest.run ~and_exit:false "core-extra"
    [
      ( "fuzzer-modes",
        [
          Alcotest.test_case "naive finds install leak" `Slow test_fuzzer_naive_mode_also_finds;
          Alcotest.test_case "campaign stop-after" `Slow test_campaign_stop_after;
        ] );
      ( "reproducers",
        [
          Alcotest.test_case "registry" `Quick test_reproducers_registry;
          Alcotest.test_case "violation rendering" `Slow test_violation_render_mentions_signature;
        ] );
    ]

(* violation persistence and minimization *)
let find_speclfb_violation () =
  let fz =
    Fuzzer.create
      (Run_spec.make ~defense:Defense.speclfb ~seed:17 ~inputs:8 ~boosts:5
         ~boot_insts:300 ())
  in
  let rec go n =
    if n = 0 then Alcotest.fail "no speclfb violation found"
    else match Fuzzer.round fz with Fuzzer.Found v -> v | _ -> go (n - 1)
  in
  go 20

let test_violation_io_roundtrip () =
  let v = find_speclfb_violation () in
  let stored = Violation_io.of_violation v in
  let path = Filename.temp_file "amulet" ".violation" in
  Violation_io.save stored path;
  let loaded = Violation_io.load path in
  Sys.remove path;
  checkb "defense survives" true
    (loaded.Violation_io.defense_name = stored.Violation_io.defense_name);
  checkb "contract survives" true
    (loaded.Violation_io.contract_name = stored.Violation_io.contract_name);
  checkb "program survives" true
    (loaded.Violation_io.program.Program.code = v.Violation.program.Program.code);
  checkb "input a survives" true (Input.equal loaded.Violation_io.input_a v.Violation.input_a);
  checkb "input b survives" true (Input.equal loaded.Violation_io.input_b v.Violation.input_b)

let test_violation_io_reanalyze () =
  let v = find_speclfb_violation () in
  let stored = Violation_io.of_violation v in
  let f = Triage.explain stored in
  checkb "reproduces under fresh context" true
    (f.Triage.status = Triage.Reproduced);
  checkb "classified" true
    (f.Triage.leak_class = Some Analysis.First_load_unprotected_uv6)

let test_minimize_shrinks_and_preserves () =
  let v = find_speclfb_violation () in
  let m = Minimize.minimize (Violation_io.of_violation v) in
  checkb "removed something" true (m.Minimize.removed > 0);
  checkb "kept the essentials" true (m.Minimize.kept >= 2);
  (* the minimized program must still violate *)
  let defense = Defense.speclfb in
  checkb "still violates" true
    (Minimize.still_violates ~defense ~contract:v.Violation.contract ~sim_config:None
       m.Minimize.minimized v.Violation.input_a v.Violation.input_b);
  (* and must still contain a conditional branch and a load *)
  let code = m.Minimize.minimized.Program.code in
  checkb "keeps a branch" true
    (Array.exists (fun i -> Inst.is_cond_branch i) code);
  checkb "keeps a load" true (Array.exists Inst.is_load code)

let test_violation_io_rejects_garbage () =
  let path = Filename.temp_file "amulet" ".violation" in
  Out_channel.with_open_text path (fun oc -> output_string oc "not a violation\n");
  (match Violation_io.load path with
  | exception Violation_io.Format_error _ -> ()
  | _ -> Alcotest.fail "expected Format_error");
  Sys.remove path

let () =
  Alcotest.run "core-io"
    [
      ( "violation-io",
        [
          Alcotest.test_case "save/load roundtrip" `Slow test_violation_io_roundtrip;
          Alcotest.test_case "reanalyze" `Slow test_violation_io_reanalyze;
          Alcotest.test_case "rejects garbage" `Quick test_violation_io_rejects_garbage;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "shrinks and preserves" `Slow
            test_minimize_shrinks_and_preserves;
        ] );
    ]
