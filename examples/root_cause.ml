(* Root-cause analysis workflow (paper §3.3, Figures 4/9 and Tables 9/10):
   find a violation, re-run the violating input pair with the debug log
   enabled, print the side-by-side memory-operation diff, walk the program
   dataflow back from the leaking access, and classify the violation by its
   log signature.

   Run with:  dune exec examples/root_cause.exe *)

open Amulet
open Amulet_isa
open Amulet_defenses

let () =
  Format.printf "Hunting a CleanupSpec violation to root-cause...@.@.";
  let defense = Defense.cleanupspec in
  let fz =
    Fuzzer.create (Run_spec.make ~defense ~seed:5 ~inputs:10 ~boosts:6 ())
  in
  let r = Reproducers.uv3 in
  match Fuzzer.test_program fz (Reproducers.flat r) with
  | Fuzzer.No_violation _ | Fuzzer.Discarded _ | Fuzzer.Screened ->
      Format.printf "no violation found; try another seed@."
  | Fuzzer.Found v ->
      Format.printf "%a@." Violation.pp v;
      (* Step 1: re-run both inputs with the debug log enabled. *)
      let replay =
        Engine.replay
          (Engine.analysis ~boot_insts:1000 defense)
          ~log:true (Engine.Context v.Violation.context) v.Violation.program
          v.Violation.input_a v.Violation.input_b
      in
      let events_a = replay.Engine.a.Engine.events in
      let events_b = replay.Engine.b.Engine.events in
      (* Step 2: side-by-side comparison of memory operations (the layout of
         the paper's Tables 9 and 10; differing rows are starred). *)
      Format.printf "--- side-by-side memory operations ---@.";
      Format.printf "%a@." (fun f () -> Analysis.pp_side_by_side f events_a events_b) ();
      (* Step 3: find the access responsible for the trace difference and
         walk the dataflow back to the mis-speculated source. *)
      let diff_lines =
        match v.Violation.trace_a, v.Violation.trace_b with
        | Utrace.State_snapshot { l1d = la; _ }, Utrace.State_snapshot { l1d = lb; _ } ->
            List.filter (fun l -> not (List.mem l lb)) la
            @ List.filter (fun l -> not (List.mem l la)) lb
        | _ -> []
      in
      (match Analysis.leaking_access events_a ~diff_lines with
      | None -> Format.printf "(no speculative access matches the diff)@."
      | Some pc ->
          Format.printf "leaking speculative access at pc 0x%x@." pc;
          (match Program.index_of_pc v.Violation.program pc with
          | None -> ()
          | Some index ->
              Format.printf "dataflow back from the leaking address:@.";
              List.iter
                (fun i ->
                  Format.printf "  @%d 0x%x: %s@." i
                    (Program.pc_of_index v.Violation.program i)
                    (Inst.to_string (Program.get v.Violation.program i)))
                (Analysis.dataflow_back v.Violation.program ~index)));
      (* Step 4: signature classification (unique-violation filtering). *)
      let c = Analysis.classify ~defense events_a events_b in
      Format.printf "signature: %s@." (Analysis.class_name c)
