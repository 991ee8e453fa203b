(* The benchmark's workloads.  Each runs the paper defaults (Opt mode,
   pooled engine, L1D+TLB traces, 10 base inputs x 4 boosts, the defense's
   own contract) against two released presets; README.md says why each pair
   was chosen and which layers it is meant to move. *)

open Amulet
open Amulet_defenses

type preset = {
  defense : Defense.t;
  rounds_per_min : int;
      (* rounds per 60 s of --seconds, sized so a trace-0 run takes about
         --seconds on a busy 2-vCPU x86-64 host; the work is a function of
         the arguments only, never of elapsed time *)
}

type t = {
  name : string;
  guided : bool;
  presets : preset list;
  triage_reps : int;  (* Triage.run passes; the median time is reported *)
}

let preset name rounds_per_min =
  match Defense.find name with
  | Some defense -> { defense; rounds_per_min }
  | None -> failwith ("perfbench: unknown defense preset " ^ name)

let all =
  [
    (* Fill-primed presets: priming dominates; stt adds the 128-page input
       path.  An stt round costs an order of magnitude more than an
       invisispec round; the round counts give both presets a comparable
       share of campaign time. *)
    {
      name = "fill";
      guided = false;
      presets = [ preset "invisispec" 96; preset "stt" 8 ];
      (* few violations: one triage pass lasts about 2 s *)
      triage_reps = 3;
    };
    (* Flush-primed 1-page presets: the control for priming and large-input
       changes. *)
    {
      name = "flush";
      guided = false;
      presets = [ preset "cleanupspec" 800; preset "speclfb" 880 ];
      triage_reps = 1;
    };
    (* The flush presets again, coverage-guided with static scoring: the
       only workload that runs mutate, corpus and leakcheck. *)
    {
      name = "guided";
      guided = true;
      presets = [ preset "cleanupspec" 440; preset "speclfb" 440 ];
      triage_reps = 1;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Rounds for one preset: proportional to the run length, at least 1. *)
let rounds p ~seconds = max 1 (p.rounds_per_min * seconds / 60)

(* Campaign seed of the k-th preset: distinct per preset, fixed by the
   workload seed. *)
let preset_seed ~seed k = (seed * 7919) + k

(* Detection-time classification is off: Triage.explain classifies every
   violation again for the report, and signing at detection costs a
   simulator boot per violation inside the campaign, which would make
   inputs_per_s a count of violations found. *)
let spec w ~seed ~rounds k p =
  let generation, static_filter =
    if w.guided then (Run_spec.guided (), Run_spec.Score)
    else (Run_spec.random (), Run_spec.Off)
  in
  Run_spec.make ~defense:p.defense ~seed:(preset_seed ~seed k) ~rounds
    ~classify:false ~generation ~static_filter ()
