(** Violation triage: the staged pipeline [load → cluster → bisect →
    shrink → report].

    The stream side consumes whatever a campaign leaves behind — saved
    [.amulet] violation files, PoC files, crash-safe journals, or whole
    journal directories from [sweep --journal-dir] — and reduces
    it to distinct root causes.  The analysis side is the one shared
    implementation behind [amulet explain], [amulet triage] and PoC
    replay: re-execute the pair from one shared context with logging and
    telemetry, summarize the contract traces, diff the microarchitectural
    traces, classify, and derive the divergence signature.

    Signatures are value-normalized so that two findings leaking through
    the same mechanism at different addresses cluster together; bisection
    then names the mechanism by flipping one configuration knob at a time
    until the violation disappears. *)

open Amulet_isa
open Amulet_contracts
open Amulet_defenses
open Amulet_uarch
module Obs = Amulet_obs.Obs
module Json = Amulet_obs.Json

type status = Reproduced | Not_reproduced

let status_name = function
  | Reproduced -> "reproduced"
  | Not_reproduced -> "not_reproduced"

type ctrace_summary = {
  length_a : int;
  length_b : int;
  hash_a : int64;
  hash_b : int64;
  equal : bool;
  first_divergence : (int * string * string) option;
}

type mechanism_kind = Patched_flag | Config_knob

let mechanism_kind_name = function
  | Patched_flag -> "patched-flag"
  | Config_knob -> "config-knob"

type mechanism = {
  mech_name : string;
  mech_kind : mechanism_kind;
  mech_description : string;
  flips_tried : int;
}

type finding = {
  stored : Violation_io.stored;
  defense_name : string;
  contract_name : string;
  program_text : string;
  status : status;
  signature : string;
  leak_class : Analysis.leak_class option;
  ctrace : ctrace_summary;
  utrace_diff : string list;
  counters_a : Obs.Snapshot.t;
  counters_b : Obs.Snapshot.t;
  counter_delta : Obs.Snapshot.t;
  mechanism : mechanism option;
  minimized : Minimize.result option;
}

(* ------------------------------------------------------------------ *)
(* Divergence signatures                                               *)
(* ------------------------------------------------------------------ *)

(* Compact class token for signature strings (the long class_name is kept
   for human-facing fields). *)
let short_class = function
  | Analysis.Spectre_v1_install -> "v1-install"
  | Analysis.Spectre_v1_evict -> "v1-evict"
  | Analysis.Spectre_v4 -> "v4"
  | Analysis.Spec_eviction_uv1 -> "uv1"
  | Analysis.Mshr_interference_uv2 -> "uv2"
  | Analysis.Store_not_cleaned_uv3 -> "uv3"
  | Analysis.Split_not_cleaned_uv4 -> "uv4"
  | Analysis.Too_much_cleaning_uv5 -> "uv5"
  | Analysis.Unxpec_kv2 -> "kv2"
  | Analysis.Tainted_store_tlb_kv3 -> "kv3"
  | Analysis.First_load_unprotected_uv6 -> "uv6"
  | Analysis.Prefetcher_leak -> "prefetch"
  | Analysis.Unknown -> "unknown"

(* Value-normalize one diff line: hex literals and decimal runs collapse
   to '#', and runs of adjacent values collapse to a single '#', so the
   shape depends on which structures diverged, not on concrete addresses
   or on how many lines a set happened to spill. *)
let normalize_line line =
  let n = String.length line in
  let buf = Buffer.create n in
  let is_digit c = c >= '0' && c <= '9' in
  let is_hex c =
    is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  in
  let i = ref 0 in
  let last_hash = ref false in
  let pending_space = ref false in
  let flush_space () =
    if !pending_space then Buffer.add_char buf ' ';
    pending_space := false
  in
  while !i < n do
    let c = line.[!i] in
    if c = '0' && !i + 1 < n && line.[!i + 1] = 'x' then begin
      i := !i + 2;
      while !i < n && is_hex line.[!i] do incr i done;
      if !last_hash then pending_space := false
      else begin
        flush_space ();
        Buffer.add_char buf '#';
        last_hash := true
      end
    end
    else if is_digit c then begin
      while !i < n && is_digit line.[!i] do incr i done;
      if !last_hash then pending_space := false
      else begin
        flush_space ();
        Buffer.add_char buf '#';
        last_hash := true
      end
    end
    else if c = ' ' then begin
      pending_space := true;
      incr i
    end
    else begin
      flush_space ();
      Buffer.add_char buf c;
      last_hash := false;
      incr i
    end
  done;
  Buffer.contents buf

let diff_shape lines =
  let normalized = String.concat "\n" (List.map normalize_line lines) in
  String.sub (Digest.to_hex (Digest.string normalized)) 0 8

let signature_of ~defense_name ~(status : status)
    ~(leak_class : Analysis.leak_class option) ~(ctrace : ctrace_summary)
    ~utrace_diff =
  let cls =
    match status, leak_class with
    | Not_reproduced, _ -> "dead"
    | Reproduced, Some c -> short_class c
    | Reproduced, None -> "unknown"
  in
  let div =
    if ctrace.equal then "eq"
    else
      match ctrace.first_divergence with
      | Some (i, _, _) -> string_of_int i
      | None -> "len"
  in
  Printf.sprintf "%s/%s/ct:%s/sh:%s" defense_name cls div
    (diff_shape utrace_diff)

(* ------------------------------------------------------------------ *)
(* Explain: one finding from one stored violation                      *)
(* ------------------------------------------------------------------ *)

let obs_to_string o = Format.asprintf "%a" Observation.pp o

(* First position where the two observation lists disagree, with both
   sides printed (a trace ending early shows as "<end>"). *)
let first_divergence ta tb =
  let rec go i a b =
    match a, b with
    | [], [] -> None
    | oa :: a', ob :: b' ->
        if Observation.equal oa ob then go (i + 1) a' b'
        else Some (i, obs_to_string oa, obs_to_string ob)
    | oa :: _, [] -> Some (i, obs_to_string oa, "<end>")
    | [], ob :: _ -> Some (i, "<end>", obs_to_string ob)
  in
  go 0 ta tb

let summarize_ctraces (ra : Leakage_model.result) (rb : Leakage_model.result) =
  {
    length_a = List.length ra.Leakage_model.ctrace;
    length_b = List.length rb.Leakage_model.ctrace;
    hash_a = ra.Leakage_model.ctrace_hash;
    hash_b = rb.Leakage_model.ctrace_hash;
    equal =
      Observation.equal_trace ra.Leakage_model.ctrace rb.Leakage_model.ctrace;
    first_divergence =
      first_divergence ra.Leakage_model.ctrace rb.Leakage_model.ctrace;
  }

let uarch_only =
  Obs.Snapshot.filter (fun n ->
      String.length n >= 6 && String.sub n 0 6 = "uarch.")

(* An explicit [sim_config] overrides everything (single-defense streams);
   [l1d_ways]/[mshrs] amplify each finding's own defense config, which is
   the only knob that makes sense across a multi-preset stream. *)
let resolve_config ?l1d_ways ?mshrs ?sim_config defense =
  match sim_config with
  | Some c -> Some c
  | None -> (
      match l1d_ways, mshrs with
      | None, None -> None
      | _ -> Some (Defense.config ?l1d_ways ?mshrs defense))

let explain ?l1d_ways ?mshrs ?sim_config (s : Violation_io.stored) : finding =
  let defense = Violation_io.resolve_defense s.Violation_io.defense_name in
  let contract =
    Violation_io.resolve_contract defense s.Violation_io.contract_name
  in
  let sim_config = resolve_config ?l1d_ways ?mshrs ?sim_config defense in
  let flat = s.Violation_io.program in
  let e = Engine.analysis ?sim_config ~metrics:(Obs.create ()) defense in
  let a = s.Violation_io.input_a and b = s.Violation_io.input_b in
  (* replay fresh only to capture A's starting context, which both inputs
     then share: exactly the validation discipline of the fuzzer *)
  let from = (Engine.replay e Engine.Fresh flat a b).Engine.from in
  let r = Engine.replay e ~log:true (Engine.Context from) flat a b in
  let oa = r.Engine.a and ob = r.Engine.b in
  let counters_a = uarch_only oa.Engine.counters in
  let counters_b = uarch_only ob.Engine.counters in
  let ra = Leakage_model.collect contract flat (Input.to_state a) in
  let rb = Leakage_model.collect contract flat (Input.to_state b) in
  let reproduced = not (Utrace.equal oa.Engine.trace ob.Engine.trace) in
  let status = if reproduced then Reproduced else Not_reproduced in
  let ctrace = summarize_ctraces ra rb in
  let utrace_diff = Utrace.diff oa.Engine.trace ob.Engine.trace in
  let leak_class =
    if reproduced then
      Some (Analysis.classify ~defense oa.Engine.events ob.Engine.events)
    else None
  in
  {
    stored = s;
    defense_name = s.Violation_io.defense_name;
    contract_name = s.Violation_io.contract_name;
    program_text = Format.asprintf "%a" Program.pp_flat flat;
    status;
    signature =
      signature_of ~defense_name:s.Violation_io.defense_name ~status
        ~leak_class ~ctrace ~utrace_diff;
    leak_class;
    ctrace;
    utrace_diff;
    counters_a;
    counters_b;
    counter_delta = Obs.Snapshot.diff ~older:counters_a ~newer:counters_b;
    mechanism = None;
    minimized = None;
  }

let of_violation ?sim_config (v : Violation.t) : finding =
  explain ?sim_config (Violation_io.of_violation v)

(* ------------------------------------------------------------------ *)
(* Bisection: name the responsible mechanism                           *)
(* ------------------------------------------------------------------ *)

(* Single-flip variants of the configuration under test.  The defense's
   own [patched] bug flags come first — they are the most specific
   explanation a bisection can give — followed by generic capacity and
   feature knobs whose relief tells a coarser story (contention,
   conflict pressure, prefetching, cleanup timing). *)
let flip_candidates (base : Config.t) =
  let flag name desc d = (name, Patched_flag, desc, Config.with_defense d base) in
  let knob name desc cfg = (name, Config_knob, desc, cfg) in
  let flags =
    match base.Config.defense with
    | Config.Baseline | Config.Delay_on_miss | Config.Ghostminion -> []
    | Config.Invisispec c ->
        if c.Config.iv_patched_eviction then []
        else
          [
            flag "iv_patched_eviction"
              "UV1 fix: speculative loads no longer trigger L1 replacements"
              (Config.Invisispec { Config.iv_patched_eviction = true });
          ]
    | Config.Cleanupspec c ->
        (if c.Config.cs_patched_store_cleanup then []
         else
           [
             flag "cs_patched_store_cleanup"
               "UV3 fix: record cleanup metadata for speculative stores"
               (Config.Cleanupspec
                  { c with Config.cs_patched_store_cleanup = true });
           ])
        @
        if c.Config.cs_patched_split_cleanup then []
        else
          [
            flag "cs_patched_split_cleanup"
              "UV4 fix: track both halves of line-crossing requests"
              (Config.Cleanupspec
                 { c with Config.cs_patched_split_cleanup = true });
          ]
    | Config.Stt c ->
        if c.Config.stt_patched_store_tlb then []
        else
          [
            flag "stt_patched_store_tlb"
              "KV3 fix: block TLB fills by tainted-address stores"
              (Config.Stt { Config.stt_patched_store_tlb = true });
          ]
    | Config.Speclfb c ->
        if c.Config.lfb_patched_first_load then []
        else
          [
            flag "lfb_patched_first_load"
              "UV6 fix: keep the first speculative load in the LSQ protected"
              (Config.Speclfb { Config.lfb_patched_first_load = true });
          ]
  in
  let knobs =
    (if base.Config.nl_prefetcher then
       [
         knob "nl_prefetcher=off"
           "disabling the next-line prefetcher kills the channel \
            (prefetch trained by a transient access)"
           { base with Config.nl_prefetcher = false };
       ]
     else [])
    @ (match base.Config.defense with
      | Config.Cleanupspec _ ->
          [
            knob "cleanup_latency=0"
              "instantaneous rollback cleanup kills the channel \
               (cleanup-latency timing)"
              { base with Config.cleanup_latency = 0 };
          ]
      | _ -> [])
    @ [
        knob "mshrs*4"
          "relieving MSHR contention kills the channel (same-core \
           speculative interference)"
          { base with Config.mshrs = base.Config.mshrs * 4 };
        knob "l1d_ways*2"
          "relieving L1D conflict pressure kills the channel \
           (eviction-based)"
          { base with Config.l1d_ways = base.Config.l1d_ways * 2 };
      ]
  in
  flags @ knobs

let bisect ?l1d_ways ?mshrs ?sim_config (f : finding) : finding =
  match f.status with
  | Not_reproduced -> f
  | Reproduced ->
      let s = f.stored in
      let defense = Violation_io.resolve_defense s.Violation_io.defense_name in
      let contract =
        Violation_io.resolve_contract defense s.Violation_io.contract_name
      in
      let base =
        match resolve_config ?l1d_ways ?mshrs ?sim_config defense with
        | Some c -> c
        | None -> Defense.config defense
      in
      let still cfg =
        Minimize.still_violates ~defense ~contract ~sim_config:(Some cfg)
          s.Violation_io.program s.Violation_io.input_a s.Violation_io.input_b
      in
      (* a bisection is only meaningful against a fresh-context baseline
         that still violates; context-bound findings keep [mechanism = None] *)
      if not (still base) then f
      else begin
        let tried = ref 0 in
        let rec go = function
          | [] -> None
          | (name, kind, desc, cfg) :: rest ->
              incr tried;
              if not (still cfg) then
                Some
                  {
                    mech_name = name;
                    mech_kind = kind;
                    mech_description = desc;
                    flips_tried = !tried;
                  }
              else go rest
        in
        { f with mechanism = go (flip_candidates base) }
      end

let shrink ?l1d_ways ?mshrs ?sim_config (f : finding) : finding =
  match f.status with
  | Not_reproduced -> f
  | Reproduced ->
      let sim_config =
        resolve_config ?l1d_ways ?mshrs ?sim_config
          (Violation_io.resolve_defense f.stored.Violation_io.defense_name)
      in
      { f with minimized = Some (Minimize.minimize ?sim_config f.stored) }

(* ------------------------------------------------------------------ *)
(* Clustering                                                          *)
(* ------------------------------------------------------------------ *)

type cluster = {
  rank : int;
  cluster_signature : string;
  representative : finding;
  members : string list;
  count : int;
}

(* Content-only key for the deterministic representative choice: the
   member that sorts smallest wins, whatever order the stream arrived
   in. *)
let member_key (f : finding) =
  let id =
    match f.stored.Violation_io.identity with
    | Some (c, a, b) -> Printf.sprintf "%Lx|%Lx|%Lx" c a b
    | None -> ""
  in
  (String.length f.program_text, f.program_text, id)

let cluster (findings : (string * finding) list) : cluster list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((_, f) as m) ->
      match f.status with
      | Not_reproduced -> ()
      | Reproduced ->
          let ms = Option.value (Hashtbl.find_opt tbl f.signature) ~default:[] in
          Hashtbl.replace tbl f.signature (m :: ms))
    findings;
  let unranked =
    Hashtbl.fold
      (fun signature ms acc ->
        let representative =
          snd
            (List.fold_left
               (fun best m ->
                 if compare (member_key (snd m)) (member_key (snd best)) < 0
                 then m
                 else best)
               (List.hd ms) (List.tl ms))
        in
        ( signature,
          representative,
          List.sort compare (List.map fst ms),
          List.length ms )
        :: acc)
      tbl []
  in
  let ranked =
    List.sort
      (fun (s1, _, _, n1) (s2, _, _, n2) ->
        if n1 <> n2 then compare n2 n1 else compare s1 s2)
      unranked
  in
  List.mapi
    (fun i (cluster_signature, representative, members, count) ->
      { rank = i + 1; cluster_signature; representative; members; count })
    ranked

type report = {
  clusters : cluster list;
  total : int;
  not_reproduced : int;
}

let singleton_report ~origin (f : finding) : report =
  match f.status with
  | Reproduced ->
      {
        clusters =
          [
            {
              rank = 1;
              cluster_signature = f.signature;
              representative = f;
              members = [ origin ];
              count = 1;
            };
          ];
        total = 1;
        not_reproduced = 0;
      }
  | Not_reproduced -> { clusters = []; total = 1; not_reproduced = 1 }

(* ------------------------------------------------------------------ *)
(* Standalone PoC files                                                *)
(* ------------------------------------------------------------------ *)

module Poc = struct
  type t = {
    stored : Violation_io.stored;
    signature : string;
    leak_class : string option;
    mechanism : (string * mechanism_kind) option;
    cluster_size : int;
    expected_equal_ctrace : bool;
    expected_ctrace_hash : int64;
    expected_diff : string list;
  }

  let of_cluster (c : cluster) : t =
    let f = c.representative in
    {
      stored =
        { f.stored with Violation_io.signature = Some c.cluster_signature };
      signature = c.cluster_signature;
      leak_class = Option.map Analysis.class_name f.leak_class;
      mechanism =
        Option.map (fun m -> (m.mech_name, m.mech_kind)) f.mechanism;
      cluster_size = c.count;
      expected_equal_ctrace = f.ctrace.equal;
      expected_ctrace_hash = f.ctrace.hash_a;
      expected_diff = f.utrace_diff;
    }

  (* A stored violation whose [meta] carries the PoC keys, followed by the
     [expected.*] sections. *)
  let to_string (p : t) =
    let extra =
      (match p.leak_class with Some c -> [ ("class", c) ] | None -> [])
      @ (match p.mechanism with
        | Some (name, kind) ->
            [ ("mechanism", name); ("mechanism_kind", mechanism_kind_name kind) ]
        | None -> [])
      @ [ ("cluster_size", string_of_int p.cluster_size) ]
    in
    Violation_io.render Violation_io.Poc
      (Violation_io.stored_sections ~extra
         ~trailer:[ ("reproduce", "amulet reproduce <this-file>") ]
         { p.stored with Violation_io.signature = Some p.signature }
      @ [
          ( "expected.ctrace",
            Violation_io.key_value_lines
              [
                ("equal", string_of_bool p.expected_equal_ctrace);
                ("hash", Printf.sprintf "0x%Lx" p.expected_ctrace_hash);
              ] );
          ("expected.utrace", List.map (fun l -> "  " ^ l) p.expected_diff);
        ])

  let parse (lines : string list) : t =
    let doc = Violation_io.parse_doc Violation_io.Poc lines in
    let stored =
      Violation_io.stored_of_sections
        ~extra:(String.starts_with ~prefix:"expected.")
        doc
    in
    let meta = Violation_io.key_values (Violation_io.section doc "meta") in
    let ctrace =
      Violation_io.key_values (Violation_io.section doc "expected.ctrace")
    in
    let diff =
      List.filter_map
        (fun l ->
          if String.starts_with ~prefix:"  " l then
            Some (String.sub l 2 (String.length l - 2))
          else if String.trim l = "" then None
          else raise (Violation_io.Format_error ("bad expected diff line: " ^ l)))
        (Violation_io.section doc "expected.utrace")
    in
    let signature =
      match stored.Violation_io.signature with
      | Some s -> s
      | None -> raise (Violation_io.Format_error "PoC without signature")
    in
    let mechanism =
      match Hashtbl.find_opt meta "mechanism" with
      | None -> None
      | Some name ->
          let kind =
            match Hashtbl.find_opt meta "mechanism_kind" with
            | Some "patched-flag" -> Patched_flag
            | Some "config-knob" -> Config_knob
            | Some k ->
                raise
                  (Violation_io.Format_error ("bad mechanism kind: " ^ k))
            | None -> Config_knob
          in
          Some (name, kind)
    in
    {
      stored;
      signature;
      leak_class = Hashtbl.find_opt meta "class";
      mechanism;
      cluster_size =
        (match Hashtbl.find_opt meta "cluster_size" with
        | Some n -> ( match int_of_string_opt n with Some n -> n | None -> 1)
        | None -> 1);
      expected_equal_ctrace =
        (match Hashtbl.find_opt ctrace "equal" with
        | Some v -> v = "true"
        | None -> true);
      expected_ctrace_hash =
        (match Hashtbl.find_opt ctrace "hash" with
        | None -> 0L
        | Some v -> (
            match Int64.of_string_opt v with
            | Some h -> h
            | None -> raise (Violation_io.Format_error ("bad hash: " ^ v))));
      expected_diff = diff;
    }

  let load path : t =
    parse (In_channel.with_open_text path In_channel.input_lines)

  let write ~dir (c : cluster) : string =
    Violation_io.mkdir_p dir;
    let path =
      Filename.concat dir
        (Printf.sprintf "poc%d_%s.amulet" c.rank
           c.representative.defense_name)
    in
    Out_channel.with_open_text path (fun out ->
        output_string out (to_string (of_cluster c)));
    path

  let replay ?l1d_ways ?mshrs ?sim_config (p : t) =
    let f = explain ?l1d_ways ?mshrs ?sim_config p.stored in
    match f.status with
    | Not_reproduced -> `Not_reproduced
    | Reproduced ->
        if f.utrace_diff = p.expected_diff then `Match
        else `Diff_mismatch f.utrace_diff
end

(* ------------------------------------------------------------------ *)
(* Loading the stream                                                  *)
(* ------------------------------------------------------------------ *)

(* Quarantine files, foreign formats and corrupt entries yield nothing. *)
let stored_of_file path : (string * Violation_io.stored) list =
  try
    match Violation_io.kind_of_file path with
    | Some Violation_io.Violation -> [ (path, Violation_io.load path) ]
    | Some Violation_io.Poc -> [ (path, (Poc.load path).Poc.stored) ]
    | Some Violation_io.Journal ->
        List.mapi
          (fun i s -> (Printf.sprintf "%s#%d" path i, s))
          (Journal.load path).Journal.violations
    | Some Violation_io.Quarantine | None -> []
  with Violation_io.Format_error _ | Sys_error _ -> []

let load (paths : string list) : (string * Violation_io.stored) list =
  List.concat_map
    (fun path ->
      if not (Sys.file_exists path) then
        failwith ("triage: no such source: " ^ path)
      else if Sys.is_directory path then begin
        let entries = Sys.readdir path in
        Array.sort compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat path e in
               if Sys.is_directory p then [] else stored_of_file p)
      end
      else stored_of_file path)
    paths

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)
(* ------------------------------------------------------------------ *)

(* The optional flags of [run] shadow the stage functions by design (the
   API reads [~bisect:false]); keep the stages reachable under aliases. *)
let bisect_stage = bisect
let shrink_stage = shrink

let run ?l1d_ways ?mshrs ?sim_config ?(bisect = true) ?(shrink = false)
    ?(progress = fun (_ : string) -> ())
    (sources : (string * Violation_io.stored) list) : report =
  let n = List.length sources in
  progress (Printf.sprintf "explaining %d finding(s)" n);
  let findings =
    List.map
      (fun (origin, s) -> (origin, explain ?l1d_ways ?mshrs ?sim_config s))
      sources
  in
  let dead =
    List.length
      (List.filter (fun (_, f) -> f.status = Not_reproduced) findings)
  in
  let clusters = cluster findings in
  progress
    (Printf.sprintf "%d distinct cluster(s), %d not reproduced"
       (List.length clusters) dead);
  let refine c =
    let rep = c.representative in
    let rep =
      if bisect then begin
        progress
          (Printf.sprintf "bisecting cluster %d (%s)" c.rank
             c.cluster_signature);
        bisect_stage ?l1d_ways ?mshrs ?sim_config rep
      end
      else rep
    in
    let rep =
      if shrink then begin
        progress (Printf.sprintf "shrinking cluster %d" c.rank);
        shrink_stage ?l1d_ways ?mshrs ?sim_config rep
      end
      else rep
    in
    { c with representative = rep }
  in
  { clusters = List.map refine clusters; total = n; not_reproduced = dead }

(* ------------------------------------------------------------------ *)
(* JSON (amulet.triage/1)                                              *)
(* ------------------------------------------------------------------ *)

let mechanism_json = function
  | None -> Json.Null
  | Some m ->
      Json.Obj
        [
          ("name", Json.Str m.mech_name);
          ("kind", Json.Str (mechanism_kind_name m.mech_kind));
          ("description", Json.Str m.mech_description);
          ("flips_tried", Json.Int m.flips_tried);
        ]

let finding_json (f : finding) =
  let hash h = Json.Str (Printf.sprintf "0x%Lx" h) in
  Json.Obj
    [
      ("defense", Json.Str f.defense_name);
      ("contract", Json.Str f.contract_name);
      ("status", Json.Str (status_name f.status));
      ("signature", Json.Str f.signature);
      ( "leak_class",
        Json.option (fun c -> Json.Str (Analysis.class_name c)) f.leak_class );
      ( "contract_traces",
        Json.Obj
          [
            ("length_a", Json.Int f.ctrace.length_a);
            ("length_b", Json.Int f.ctrace.length_b);
            ("hash_a", hash f.ctrace.hash_a);
            ("hash_b", hash f.ctrace.hash_b);
            ("equal", Json.Bool f.ctrace.equal);
            ( "first_divergence",
              Json.option
                (fun (i, a, b) ->
                  Json.Obj
                    [ ("index", Json.Int i); ("a", Json.Str a); ("b", Json.Str b) ])
                f.ctrace.first_divergence );
          ] );
      ("utrace_diff", Json.List (List.map (fun l -> Json.Str l) f.utrace_diff));
      ("mechanism", mechanism_json f.mechanism);
      ( "minimized",
        Json.option
          (fun r ->
            Json.Obj
              [
                ("removed", Json.Int r.Minimize.removed);
                ("kept", Json.Int r.Minimize.kept);
              ])
          f.minimized );
      ("counters_a", Obs.Snapshot.json f.counters_a);
      ("counters_b", Obs.Snapshot.json f.counters_b);
      ("counter_delta", Obs.Snapshot.json f.counter_delta);
      ("program", Json.Str f.program_text);
    ]

let finding_to_json f = Json.to_string (finding_json f)

let report_to_json (r : report) =
  let cluster c =
    Json.Obj
      [
        ("rank", Json.Int c.rank);
        ("signature", Json.Str c.cluster_signature);
        ("count", Json.Int c.count);
        ("mechanism", mechanism_json c.representative.mechanism);
        ("members", Json.List (List.map (fun m -> Json.Str m) c.members));
        ("finding", finding_json c.representative);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "amulet.triage/1");
         ("total", Json.Int r.total);
         ("not_reproduced", Json.Int r.not_reproduced);
         ("distinct_clusters", Json.Int (List.length r.clusters));
         ("clusters", Json.List (List.map cluster r.clusters));
       ])

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_finding fmt (f : finding) =
  Format.fprintf fmt "defense: %s  contract: %s@." f.defense_name
    f.contract_name;
  Format.fprintf fmt "status: %s%s@." (status_name f.status)
    (match f.leak_class with
    | Some c -> "  class: " ^ Analysis.class_name c
    | None -> "");
  Format.fprintf fmt "signature: %s@." f.signature;
  (match f.mechanism with
  | Some m ->
      Format.fprintf fmt "mechanism: %s (%s, flip %d) — %s@." m.mech_name
        (mechanism_kind_name m.mech_kind)
        m.flips_tried m.mech_description
  | None -> ());
  (match f.minimized with
  | Some r ->
      Format.fprintf fmt "minimized: %d removed, %d kept@." r.Minimize.removed
        r.Minimize.kept
  | None -> ());
  Format.fprintf fmt "contract traces: %d vs %d observations, %s@."
    f.ctrace.length_a f.ctrace.length_b
    (if f.ctrace.equal then "equal (as a violation requires)"
     else "DIFFERENT — not a contract violation");
  (match f.ctrace.first_divergence with
  | Some (i, a, b) ->
      Format.fprintf fmt "  first divergence at %d: %s vs %s@." i a b
  | None -> ());
  (match f.utrace_diff with
  | [] -> Format.fprintf fmt "utrace diff: (none)@."
  | lines ->
      Format.fprintf fmt "utrace diff:@.";
      List.iter (fun l -> Format.fprintf fmt "  %s@." l) lines);
  Format.fprintf fmt "counter delta (B - A):@.%a" Obs.Snapshot.pp
    f.counter_delta

let pp_report fmt (r : report) =
  Format.fprintf fmt
    "triage: %d finding(s), %d distinct cluster(s), %d not reproduced@."
    r.total
    (List.length r.clusters)
    r.not_reproduced;
  if r.clusters <> [] then begin
    Format.fprintf fmt "  %4s %5s %-14s %-38s %s@." "rank" "count" "defense"
      "signature" "mechanism";
    List.iter
      (fun c ->
        Format.fprintf fmt "  %4d %5d %-14s %-38s %s@." c.rank c.count
          c.representative.defense_name c.cluster_signature
          (match c.representative.mechanism with
          | Some m -> m.mech_name
          | None -> "-"))
      r.clusters
  end
