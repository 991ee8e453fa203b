(** Violation persistence: save fuzzer findings to disk and reload them for
    later analysis (the artifact the paper's workflow hands from the fuzzing
    campaign to the manual root-causing step).

    Every violation artifact shares one plain-text layout: a magic line
    naming the file kind, then [[name]] sections of raw lines.  The four
    kinds are ["amulet-violation 1"] (a saved finding), ["amulet-poc 1"]
    (a triage proof-of-concept), ["amulet-quarantine 1"] (a misbehaving
    test case) and ["amulet-journal 1"] (a campaign checkpoint that embeds
    violation blocks).  A stored violation is a [[meta]] section of
    key=value lines (defense, contract, signature, identity), a [[program]]
    section in flat assembly ([@index] branch targets), and two inputs as
    [[input_X.regs]] (registers in hex) and [[input_X.mem]] (sandbox memory
    hex-dumped, 64 bytes per line).  {!render} is the one writer,
    {!parse_doc} the one reader and {!kind_of_file} the one sniff.

    This module only encodes and decodes; it runs nothing.  The original
    run's microarchitectural context is {e not} stored, so every analysis
    of a reloaded pair re-executes it through the engine's one replay
    function from a fresh context (input A's, from a new program start),
    never from the context it was detected under.  Storing that context,
    so replays can start from it, is the next step. *)

open Amulet_isa
open Amulet_contracts
open Amulet_defenses

type stored = {
  defense_name : string;
  contract_name : string;
  program : Program.flat;
  input_a : Input.t;
  input_b : Input.t;
  signature : string option;
  identity : (int64 * int64 * int64) option;
      (* (ctrace_hash, trace_a_hash, trace_b_hash) captured at detection
         time.  The validating context is not serialized, so a fresh replay
         cannot re-derive the original traces; without this, a resumed
         campaign's violations would fingerprint differently from the
         uninterrupted run.  [None] only for files written before the key
         existed. *)
}

exception Format_error of string

let bad what line = raise (Format_error (Printf.sprintf "bad %s: %s" what line))

let of_violation (v : Violation.t) : stored =
  {
    defense_name = v.Violation.defense_name;
    contract_name = v.Violation.contract.Contract.name;
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

(** A stored violation names its defense and contract; unknown names fall
    back to the baseline defense and to the defense's own contract. *)
let resolve_defense name =
  Option.value (Defense.find name) ~default:Defense.baseline

let resolve_contract (defense : Defense.t) name =
  Option.value (Contract.find name) ~default:defense.Defense.contract

(* ------------------------------------------------------------------ *)
(* File kinds                                                          *)
(* ------------------------------------------------------------------ *)

type kind = Violation | Poc | Journal | Quarantine

let magic = function
  | Violation -> "amulet-violation 1"
  | Poc -> "amulet-poc 1"
  | Journal -> "amulet-journal 1"
  | Quarantine -> "amulet-quarantine 1"

(* The first word of a magic line names the kind; the version is not
   checked. *)
let kind_of_magic line =
  let word s = List.hd (String.split_on_char ' ' s) in
  List.find_opt
    (fun k -> word (magic k) = word line)
    [ Violation; Poc; Journal; Quarantine ]

let kind_of_file path =
  match In_channel.with_open_text path In_channel.input_line with
  | Some line -> kind_of_magic line
  | None -> None
  | exception Sys_error _ -> None

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

type section = string * string list

let render kind (sections : section list) =
  let buf = Buffer.create 16384 in
  let line l =
    Buffer.add_string buf l;
    Buffer.add_char buf '\n'
  in
  line (magic kind);
  List.iter
    (fun (name, lines) ->
      line ("[" ^ name ^ "]");
      List.iter line lines)
    sections;
  Buffer.contents buf

let key_value_lines kvs = List.map (fun (k, v) -> k ^ "=" ^ v) kvs

(* one instruction per line with resolved @index targets *)
let program_section (p : Program.flat) =
  ("program", Array.to_list (Array.map Inst.to_string p.Program.code))

let hex_digits = "0123456789abcdef"

let input_sections label (i : Input.t) =
  let mem = i.Input.mem in
  let hex =
    String.init
      (2 * Bytes.length mem)
      (fun k ->
        let c = Char.code (Bytes.get mem (k / 2)) in
        hex_digits.[if k land 1 = 0 then c lsr 4 else c land 15])
  in
  (* 64 bytes (128 hex chars) per line *)
  let rec chunks pos =
    if pos >= String.length hex then []
    else String.sub hex pos (min 128 (String.length hex - pos)) :: chunks (pos + 128)
  in
  [
    ( label ^ ".regs",
      key_value_lines
        (List.mapi
           (fun k v -> (Reg.name (Reg.of_index k), Printf.sprintf "0x%Lx" v))
           (Array.to_list i.Input.regs)) );
    (label ^ ".mem", chunks 0);
  ]

let stored_sections ?(extra = []) ?(trailer = []) (s : stored) =
  let opt key = function Some v -> [ (key, v) ] | None -> [] in
  ( "meta",
    key_value_lines
      ([ ("defense", s.defense_name); ("contract", s.contract_name) ]
      @ opt "signature" s.signature
      @ extra
      @ opt "identity"
          (Option.map
             (fun (c, a, b) -> Printf.sprintf "0x%Lx,0x%Lx,0x%Lx" c a b)
             s.identity)
      @ trailer) )
  :: program_section s.program
  :: (input_sections "input_a" s.input_a @ input_sections "input_b" s.input_b)

let output out (s : stored) = output_string out (render Violation (stored_sections s))

(** Save to [path] (overwrites). *)
let save (s : stored) path = Out_channel.with_open_text path (fun out -> output out s)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let parse_doc kind (lines : string list) : section list =
  match lines with
  | first :: rest when kind_of_magic first = Some kind ->
      (* reversed sections, each holding its lines reversed *)
      let sections = ref [] in
      List.iter
        (fun l ->
          match !sections with
          | _ when String.length l > 1 && l.[0] = '[' ->
              if l.[String.length l - 1] <> ']' then bad "section header" l;
              sections := (String.sub l 1 (String.length l - 2), ref []) :: !sections
          | (_, cur) :: _ -> cur := l :: !cur
          | [] -> if String.trim l <> "" then bad "line before any section" l)
        rest;
      List.rev_map (fun (name, cur) -> (name, List.rev !cur)) !sections
  | _ -> raise (Format_error (Printf.sprintf "missing %S magic line" (magic kind)))

let section (doc : section list) name =
  List.concat_map (fun (n, lines) -> if n = name then lines else []) doc

let key_values lines =
  let t = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if String.trim l <> "" then
        match String.index_opt l '=' with
        | Some eq ->
            Hashtbl.replace t (String.sub l 0 eq)
              (String.sub l (eq + 1) (String.length l - eq - 1))
        | None -> bad "key=value line" l)
    lines;
  t

let require kvs key =
  match Hashtbl.find_opt kvs key with
  | Some v -> v
  | None -> raise (Format_error ("missing key " ^ key))

let program_of_lines lines =
  match Asm.parse_flat (String.concat "\n" lines) with
  | p -> p
  | exception Asm.Parse_error { line; message } ->
      bad ("instruction line (" ^ message ^ ")") (List.nth lines (line - 1))

let regs_of_lines lines =
  let regs = Array.make Reg.count 0L in
  Hashtbl.iter
    (fun name v ->
      match Reg.of_name name, Int64.of_string_opt v with
      | r, Some x -> regs.(Reg.index r) <- x
      | _, None | (exception Not_found) -> bad "register line" (name ^ "=" ^ v))
    (key_values lines);
  regs

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* A memory image is whole sandbox pages: a replay builds its state with
   [Memory.create ~pages]. *)
let mem_of_lines name lines =
  let lines = List.map String.trim lines in
  List.iter
    (fun l -> if String.exists (fun c -> hex_value c < 0) l then bad "memory line" l)
    lines;
  let hex = String.concat "" lines in
  if String.length hex mod 2 <> 0 then raise (Format_error "odd hex length");
  let bytes = String.length hex / 2 in
  if bytes = 0 || bytes mod Amulet_emu.Memory.page_size <> 0 then
    raise
      (Format_error
         (Printf.sprintf "[%s]: a %d-byte image is not a positive multiple of the %d-byte page"
            name bytes Amulet_emu.Memory.page_size));
  Bytes.init bytes (fun i ->
      Char.chr ((hex_value hex.[2 * i] lsl 4) lor hex_value hex.[(2 * i) + 1]))

let stored_names =
  [ "meta"; "program"; "input_a.regs"; "input_a.mem"; "input_b.regs"; "input_b.mem" ]

let stored_of_sections ?(extra = fun _ -> false) (doc : section list) : stored =
  List.iter
    (fun (name, _) ->
      if not (List.mem name stored_names || extra name) then
        raise (Format_error ("unknown section: [" ^ name ^ "]")))
    doc;
  (* decode in file order, so a file with several bad sections reports
     the first (record fields would evaluate right to left) *)
  let meta = key_values (section doc "meta") in
  let defense_name = require meta "defense" in
  let contract_name = require meta "contract" in
  let signature = Hashtbl.find_opt meta "signature" in
  let identity =
    Option.map
      (fun s ->
        match List.map Int64.of_string_opt (String.split_on_char ',' s) with
        | [ Some c; Some a; Some b ] -> (c, a, b)
        | _ -> bad "identity line" s)
      (Hashtbl.find_opt meta "identity")
  in
  let program = program_of_lines (section doc "program") in
  let input label =
    let regs = regs_of_lines (section doc (label ^ ".regs")) in
    let mem = mem_of_lines (label ^ ".mem") (section doc (label ^ ".mem")) in
    { Input.regs; mem }
  in
  let input_a = input "input_a" in
  let input_b = input "input_b" in
  { defense_name; contract_name; program; input_a; input_b; signature; identity }

(** Parse the lines of a violation block as written by {!output}. *)
let parse lines = stored_of_sections (parse_doc Violation lines)

(** Load a violation file written by {!save}; a decode error names the
    file. *)
let load path : stored =
  try parse (In_channel.with_open_text path In_channel.input_lines)
  with Format_error msg -> raise (Format_error (path ^ ": " ^ msg))

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
  let cls = Fault.class_name (Fault.class_of fault) in
  let path = Filename.concat dir (Printf.sprintf "q%04d_%s.amulet" seq cls) in
  let meta =
    key_value_lines
      [
        ("defense", defense_name);
        ("contract", contract_name);
        ("fault", cls);
        ("fault_detail", Fault.to_string fault);
      ]
  in
  let inputs = match input with Some i -> input_sections "input_a" i | None -> [] in
  Out_channel.with_open_text path (fun out ->
      output_string out
        (render Quarantine (("meta", meta) :: program_section program :: inputs)));
  path
