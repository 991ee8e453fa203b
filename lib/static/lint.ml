(** Well-formedness lint for flattened programs.

    Turns generator (or hand-written-asm) bugs into named diagnostics
    instead of downstream crashes.  Severity model:

    - {e errors} are structural defects no pipeline stage should ever see —
      unresolved or out-of-range branch targets, cyclic control flow,
      invalid address scales, writes to the sandbox base register, operands
      outside their x86-64 encoding fields (a displacement beyond 32 bits, a
      shift count beyond a byte).  The generator's
      reject-and-regenerate hook and the property tests gate on these.
    - {e warnings} flag suspicious-but-executable code — accesses that may
      wrap past the sandbox (the emulator masks them), unmasked
      input-derived indices, reads of the scratch register or of
      never-written flags, dead code.  Generated programs may legitimately
      trip these (e.g. a SETcc before any CMP), so they never gate. *)

open Amulet_isa

type severity = Error | Warning

type diag = {
  code : string;  (** stable kebab-case diagnostic name *)
  severity : severity;
  index : int option;  (** offending instruction, when localized *)
  message : string;
}

type report = { diags : diag list; errors : int; warnings : int }

let ok report = report.errors = 0

(** Default sandbox capacity assumed by the containment check: one page,
    the floor across the bundled defense configurations. *)
let default_sandbox_bytes = 4096

let scratch_reg = Reg.R15

let in_i32 v = v >= -0x8000_0000 && v <= 0x7FFF_FFFF

let operand_diags i (op : Operand.t) ~(is_dest : bool) =
  let ds = ref [] in
  let add code severity message = ds := { code; severity; index = Some i; message } :: !ds in
  (match op with
  | Operand.Mem m ->
      if not (List.mem m.Operand.scale [ 1; 2; 4; 8 ]) then
        add "invalid-scale" Error
          (Printf.sprintf "address scale %d is not 1, 2, 4 or 8" m.Operand.scale);
      if not (in_i32 m.Operand.disp) then
        add "disp-unencodable" Error
          (Printf.sprintf "displacement %d does not fit in 32 bits" m.Operand.disp)
  | Operand.Imm _ when is_dest ->
      add "immediate-destination" Error "immediate used as a destination operand"
  | Operand.Imm _ | Operand.Reg _ -> ());
  !ds

let inst_shape_diags i (inst : Inst.t) =
  let ds = ref [] in
  let add code severity message =
    ds := { code; severity; index = Some i; message } :: !ds
  in
  let dst_src dst src =
    ds := operand_diags i dst ~is_dest:true @ operand_diags i src ~is_dest:false @ !ds;
    if Operand.is_mem dst && Operand.is_mem src then
      add "two-memory-operands" Error "instruction has two memory operands"
  in
  (match inst with
  | Inst.Binop (_, _, dst, src) | Inst.Mov (_, dst, src) -> dst_src dst src
  | Inst.Cmp (_, a, b) | Inst.Test (_, a, b) ->
      ds := operand_diags i a ~is_dest:false @ operand_diags i b ~is_dest:false @ !ds;
      if Operand.is_mem a && Operand.is_mem b then
        add "two-memory-operands" Error "instruction has two memory operands"
  | Inst.Unop (_, _, op) -> ds := operand_diags i op ~is_dest:true @ !ds
  | Inst.Shift (_, w, op, n) ->
      ds := operand_diags i op ~is_dest:true @ !ds;
      if n < 0 || n > 255 then
        add "shift-count-unencodable" Error
          (Printf.sprintf "shift count %d does not fit in a byte" n)
      else if n >= Width.bits w then
        add "shift-count-masked" Warning
          (Printf.sprintf "shift count %d exceeds the %d-bit operand and is masked at runtime"
             n (Width.bits w))
  | Inst.Imul (_, _, src) | Inst.Movx (_, _, _, src) | Inst.Cmovcc (_, _, _, src) ->
      ds := operand_diags i src ~is_dest:false @ !ds
  | Inst.Setcc (_, dst) -> ds := operand_diags i dst ~is_dest:true @ !ds
  | Inst.Lea (_, m) -> ds := operand_diags i (Operand.Mem m) ~is_dest:false @ !ds
  | Inst.Nop | Inst.Xchg _ | Inst.Jmp _ | Inst.Jcc _ | Inst.Fence | Inst.Exit -> ());
  (* writes to the sandbox base pointer corrupt every later memory access *)
  if List.exists (Reg.equal Reg.sandbox_base) (Inst.dest_regs inst) then
    add "sandbox-base-overwrite" Error
      (Printf.sprintf "instruction writes the sandbox base register %s"
         (Reg.name Reg.sandbox_base));
  !ds

let branch_diags flat i (inst : Inst.t) =
  let n = Program.length flat in
  match Inst.branch_target inst with
  | None -> []
  | Some (Inst.Label l) ->
      [ { code = "unresolved-label"; severity = Error; index = Some i;
          message = Printf.sprintf "branch target .%s was never resolved" l } ]
  | Some (Inst.Abs t) ->
      if t < 0 || t >= n then
        [ { code = "branch-out-of-range"; severity = Error; index = Some i;
            message = Printf.sprintf "branch target @%d is outside [0, %d)" t n } ]
      else if t <= i then
        [ { code = "non-dag-control-flow"; severity = Error; index = Some i;
            message = Printf.sprintf "branch target @%d is not strictly forward" t } ]
      else []

(* Sandbox containment of one memory access, given the abstract register
   state just before it. *)
let containment_diags ~sandbox_bytes taint i (m : Operand.mem) w =
  let open Taint_flow in
  let bytes = Width.bytes w in
  if not (Reg.equal m.Operand.base Reg.sandbox_base) then
    [ { code = "non-sandbox-base"; severity = Warning; index = Some i;
        message = Printf.sprintf "memory access based on %s, not the sandbox base %s"
            (Reg.name m.Operand.base) (Reg.name Reg.sandbox_base) } ]
  else
    let index_part =
      match m.Operand.index with
      | None -> Some 0
      | Some r -> (
          match (value_before taint i r).max with
          | Some mx -> Some (mx * m.Operand.scale)
          | None -> None)
    in
    match index_part with
    | None ->
        [ { code = "unmasked-address"; severity = Warning; index = Some i;
            message = "index register is unbounded (no mask reaches this access)" } ]
    | Some off ->
        let lo = m.Operand.disp and hi = off + m.Operand.disp + bytes in
        if lo < 0 || hi > sandbox_bytes then
          [ { code = "sandbox-overflow"; severity = Warning; index = Some i;
              message = Printf.sprintf
                  "access may reach offset %d, outside the %d-byte sandbox (wrapped at runtime)"
                  (if lo < 0 then lo else hi) sandbox_bytes } ]
        else []

let use_diags reaching flat i (inst : Inst.t) =
  let ds = ref [] in
  if List.exists (Reg.equal scratch_reg) (Inst.source_regs inst)
     && Reaching.may_read_entry reaching i scratch_reg
  then
    ds := { code = "scratch-read"; severity = Warning; index = Some i;
            message = Printf.sprintf "%s is scratch; its entry value is unspecified"
                (Reg.name scratch_reg) } :: !ds;
  if Inst.reads_flags inst && Reaching.flags_entry_only reaching i then
    ds := { code = "constant-predicate"; severity = Warning; index = Some i;
            message = "flags are never written before this read; the predicate is constant" }
         :: !ds;
  ignore flat;
  !ds

let check ?(sandbox_bytes = default_sandbox_bytes) (flat : Program.flat) : report =
  let cfg = Cfg.build flat in
  let reaching = Reaching.analyze cfg in
  let taint = Taint_flow.analyze cfg in
  let n = Program.length flat in
  let diags = ref [] in
  for i = n - 1 downto 0 do
    let inst = Program.get flat i in
    let here =
      inst_shape_diags i inst @ branch_diags flat i inst
      @ use_diags reaching flat i inst
      @
      match Inst.mem_access inst with
      | Some (m, w, _) -> containment_diags ~sandbox_bytes taint i m w
      | None -> (
          match inst with
          | Inst.Lea _ -> [] (* address computation, no access *)
          | _ -> [])
    in
    diags := here @ !diags
  done;
  (* program-level diagnostics *)
  let dead = Cfg.unreachable cfg in
  if dead <> [] then
    diags :=
      !diags
      @ [ { code = "dead-code"; severity = Warning; index = None;
            message = Printf.sprintf "%d basic block(s) are unreachable from the entry"
                (List.length dead) } ];
  let errors =
    List.length (List.filter (fun d -> d.severity = Error) !diags)
  in
  let warnings =
    List.length (List.filter (fun d -> d.severity = Warning) !diags)
  in
  { diags = !diags; errors; warnings }

let severity_name = function Error -> "error" | Warning -> "warning"

let pp_diag ppf d =
  (match d.index with
  | Some i -> Format.fprintf ppf "@%d: " i
  | None -> ());
  Format.fprintf ppf "%s[%s]: %s" (severity_name d.severity) d.code d.message

let pp ppf r =
  List.iter (fun d -> Format.fprintf ppf "%a@." pp_diag d) r.diags;
  Format.fprintf ppf "%d error(s), %d warning(s)@." r.errors r.warnings
