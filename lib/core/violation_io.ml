(** Violation persistence: save fuzzer findings to disk and reload them for
    later analysis (the artifact the paper's workflow hands from the fuzzing
    campaign to the manual root-causing step).

    The format is a plain-text sectioned file: defense and contract names,
    the program in assembly syntax, and the two inputs (registers in hex,
    sandbox memory hex-dumped).  The original run's microarchitectural
    context is {e not} stored — on reload, analyses revalidate the pair
    under fresh contexts, which reproduces input-caused violations (and is
    exactly the check {!Minimize.still_violates} performs). *)

open Amulet_isa

type stored = {
  defense_name : string;
  contract_name : string;
  program : Program.flat;
  input_a : Input.t;
  input_b : Input.t;
  signature : string option;
  identity : (int64 * int64 * int64) option;
      (* (ctrace_hash, trace_a_hash, trace_b_hash) captured at detection
         time.  The validating context is not serialized, so re-execution
         cannot re-derive the original traces; without this, a resumed
         campaign's violations would fingerprint differently from the
         uninterrupted run.  [None] only for files written before the key
         existed. *)
}

exception Format_error of string

let of_violation (v : Violation.t) : stored =
  {
    defense_name = v.Violation.defense_name;
    contract_name = v.Violation.contract.Amulet_contracts.Contract.name;
    program = v.Violation.program;
    input_a = v.Violation.input_a;
    input_b = v.Violation.input_b;
    signature = v.Violation.signature;
    identity =
      Some
        ( v.Violation.ctrace_hash,
          v.Violation.trace_a_hash,
          v.Violation.trace_b_hash );
  }

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let hex_of_bytes b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf

let write_input out label (i : Input.t) =
  Printf.fprintf out "[%s.regs]\n" label;
  Array.iteri (fun k v -> Printf.fprintf out "%s=0x%Lx\n" (Reg.name (Reg.of_index k)) v) i.Input.regs;
  Printf.fprintf out "[%s.mem]\n" label;
  (* 64 bytes (128 hex chars) per line *)
  let hex = hex_of_bytes i.Input.mem in
  let n = String.length hex in
  let rec lines pos =
    if pos < n then begin
      Printf.fprintf out "%s\n" (String.sub hex pos (min 128 (n - pos)));
      lines (pos + 128)
    end
  in
  lines 0

(** Write the sectioned text form of [s] to an open channel (the format
    {!save} puts in a file; {!Journal} embeds the same blocks). *)
let output out (s : stored) =
  Printf.fprintf out "amulet-violation 1\n";
  Printf.fprintf out "[meta]\n";
  Printf.fprintf out "defense=%s\n" s.defense_name;
  Printf.fprintf out "contract=%s\n" s.contract_name;
  (match s.signature with
  | Some sig_ -> Printf.fprintf out "signature=%s\n" sig_
  | None -> ());
  (match s.identity with
  | Some (c, a, b) -> Printf.fprintf out "identity=0x%Lx,0x%Lx,0x%Lx\n" c a b
  | None -> ());
  Printf.fprintf out "[program]\n";
  (* assembly of the flattened program: one instruction per line with
     resolved @index targets, re-parseable below *)
  Array.iter
    (fun inst -> Printf.fprintf out "%s\n" (Inst.to_string inst))
    s.program.Program.code;
  write_input out "input_a" s.input_a;
  write_input out "input_b" s.input_b

(** Save to [path] (overwrites). *)
let save (s : stored) path =
  let out = open_out path in
  Fun.protect ~finally:(fun () -> close_out out) (fun () -> output out s)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let bytes_of_hex hex =
  let n = String.length hex in
  if n mod 2 <> 0 then raise (Format_error "odd hex length");
  Bytes.init (n / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub hex (2 * i) 2)))

(* Flattened instructions print targets as "@N"; the assembler parses only
   labels, so resolve the "@N" form here. *)
let parse_flat_instruction line =
  match String.index_opt line '@' with
  | None -> (
      let p = Asm.parse line in
      match p.Program.blocks with
      | [ { Program.body = [ i ]; _ } ] -> i
      | _ -> raise (Format_error ("bad instruction line: " ^ line)))
  | Some at ->
      let mnemonic = String.trim (String.sub line 0 at) in
      let target =
        int_of_string (String.trim (String.sub line (at + 1) (String.length line - at - 1)))
      in
      if String.uppercase_ascii mnemonic = "JMP" then Inst.Jmp (Inst.Abs target)
      else
        let m = String.uppercase_ascii mnemonic in
        if String.length m > 1 && m.[0] = 'J' then
          match Cond.of_suffix (String.sub m 1 (String.length m - 1)) with
          | Some c -> Inst.Jcc (c, Inst.Abs target)
          | None -> raise (Format_error ("bad branch: " ^ line))
        else raise (Format_error ("bad target line: " ^ line))

(** Parse the lines of a violation block as written by {!output}. *)
let parse (lines : string list) : stored =
  (match lines with
  | magic :: _ when String.length magic >= 16 && String.sub magic 0 16 = "amulet-violation"
    ->
      ()
  | _ -> raise (Format_error "missing magic header"));
  let section = ref "" in
  let meta = Hashtbl.create 8 in
  let program_lines = ref [] in
  let regs_a = Array.make Reg.count 0L and regs_b = Array.make Reg.count 0L in
  let mem_a = Buffer.create 4096 and mem_b = Buffer.create 4096 in
  List.iteri
    (fun idx line ->
      if idx = 0 then ()
      else if String.length line > 1 && line.[0] = '[' then section := line
      else if String.trim line = "" then ()
      else
        match !section with
        | "[meta]" -> (
            match String.index_opt line '=' with
            | Some eq ->
                Hashtbl.replace meta
                  (String.sub line 0 eq)
                  (String.sub line (eq + 1) (String.length line - eq - 1))
            | None -> raise (Format_error ("bad meta line: " ^ line)))
        | "[program]" -> program_lines := line :: !program_lines
        | "[input_a.regs]" | "[input_b.regs]" -> (
            let regs = if !section = "[input_a.regs]" then regs_a else regs_b in
            match String.index_opt line '=' with
            | Some eq ->
                let r = Reg.of_name (String.sub line 0 eq) in
                regs.(Reg.index r) <-
                  Int64.of_string (String.sub line (eq + 1) (String.length line - eq - 1))
            | None -> raise (Format_error ("bad register line: " ^ line)))
        | "[input_a.mem]" -> Buffer.add_string mem_a (String.trim line)
        | "[input_b.mem]" -> Buffer.add_string mem_b (String.trim line)
        | s -> raise (Format_error ("unknown section: " ^ s)))
    lines;
  let code =
    Array.of_list (List.rev_map parse_flat_instruction !program_lines)
  in
  let find_meta k =
    match Hashtbl.find_opt meta k with
    | Some v -> v
    | None -> raise (Format_error ("missing meta key " ^ k))
  in
  {
    defense_name = find_meta "defense";
    contract_name = find_meta "contract";
    program =
      {
        Program.code;
        code_base = Program.code_base_default;
        inst_size = Program.inst_size_default;
      };
    input_a = { Input.regs = regs_a; mem = bytes_of_hex (Buffer.contents mem_a) };
    input_b = { Input.regs = regs_b; mem = bytes_of_hex (Buffer.contents mem_b) };
    signature = Hashtbl.find_opt meta "signature";
    identity =
      (match Hashtbl.find_opt meta "identity" with
      | None -> None
      | Some s -> (
          match String.split_on_char ',' s with
          | [ c; a; b ] -> (
              match
                ( Int64.of_string_opt c,
                  Int64.of_string_opt a,
                  Int64.of_string_opt b )
              with
              | Some c, Some a, Some b -> Some (c, a, b)
              | _ -> raise (Format_error ("bad identity line: " ^ s)))
          | _ -> raise (Format_error ("bad identity line: " ^ s))));
  }

(** Load a violation file written by {!save}. *)
let load path : stored =
  parse (In_channel.with_open_text path In_channel.input_lines)

(* ------------------------------------------------------------------ *)
(* Quarantine corpus                                                   *)
(* ------------------------------------------------------------------ *)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Sys.mkdir d 0o755 with Sys_error _ -> ())
    end
  in
  go dir

(** Quarantine a misbehaving test case: write the program (and the offending
    input, when one is identified) plus its classified fault into [dir] for
    later triage.  Returns the path written. *)
let save_quarantine ~dir ~seq ~(fault : Fault.t) ~defense_name ~contract_name
    (program : Program.flat) (input : Input.t option) : string =
  mkdir_p dir;
  let path =
    Filename.concat dir
      (Printf.sprintf "q%04d_%s.amulet" seq (Fault.class_name (Fault.class_of fault)))
  in
  let out = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out out)
    (fun () ->
      Printf.fprintf out "amulet-quarantine 1\n";
      Printf.fprintf out "[meta]\n";
      Printf.fprintf out "defense=%s\n" defense_name;
      Printf.fprintf out "contract=%s\n" contract_name;
      Printf.fprintf out "fault=%s\n" (Fault.class_name (Fault.class_of fault));
      Printf.fprintf out "fault_detail=%s\n" (Fault.to_string fault);
      Printf.fprintf out "[program]\n";
      Array.iter
        (fun inst -> Printf.fprintf out "%s\n" (Inst.to_string inst))
        program.Program.code;
      match input with
      | Some i -> write_input out "input_a" i
      | None -> ());
  path

(* ------------------------------------------------------------------ *)
(* Rehydration (journal resume)                                        *)
(* ------------------------------------------------------------------ *)

(** Rebuild a full {!Violation.t} from its stored form by re-executing both
    inputs (the stored form omits traces and the microarchitectural
    context).  Used when resuming a journaled campaign. *)
let rehydrate ?sim_config (s : stored) : Violation.t =
  let defense =
    Option.value (Amulet_defenses.Defense.find s.defense_name)
      ~default:Amulet_defenses.Defense.baseline
  in
  let contract =
    Option.value
      (Amulet_contracts.Contract.find s.contract_name)
      ~default:defense.Amulet_defenses.Defense.contract
  in
  let ex =
    Engine.create ?sim_config ~mode:Executor.Opt defense (Stats.create ())
  in
  Engine.start_program ex;
  let oa = Engine.run ex s.program s.input_a in
  let ob = Engine.run ex s.program s.input_b in
  (* re-executed traces serve analysis; identity comes from the stored
     detection-time hashes so fingerprints survive the round-trip (the
     fallback recomputation only applies to pre-identity files) *)
  let ctrace_hash, trace_a_hash, trace_b_hash =
    match s.identity with
    | Some id -> id
    | None -> (0L, Utrace.hash oa.Engine.trace, Utrace.hash ob.Engine.trace)
  in
  {
    Violation.program = s.program;
    program_text = Format.asprintf "%a" Program.pp_flat s.program;
    input_a = s.input_a;
    input_b = s.input_b;
    trace_a = oa.Engine.trace;
    trace_b = ob.Engine.trace;
    context = oa.Engine.context;
    ctrace_hash;
    trace_a_hash;
    trace_b_hash;
    contract;
    defense_name = s.defense_name;
    detection_seconds = 0.;
    signature = s.signature;
  }
