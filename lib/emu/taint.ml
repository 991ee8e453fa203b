(** Input-taint tracking for input boosting.

    Revizor mutates inputs while "preserving only the parts influencing the
    contract trace"; this module computes which parts those are.  Every
    input atom — an initial register value or an 8-byte sandbox word — gets a
    label; labels flow through the dataflow as the leakage model executes the
    program, and atoms whose labels reach an observation (a memory address, a
    branch condition, or — for value-exposing contracts — loaded data) are
    {e relevant}.  Randomizing the non-relevant atoms then provably preserves
    the contract trace (the tracking is conservative), while changing the
    speculative behaviour the microarchitectural trace depends on.

    Atom ids: register [r] is [Reg.index r]; sandbox word [k] is
    [Reg.count + k]. *)

open Amulet_isa
module Atom_set = Set.Make (Int)

let atom_of_word k = Reg.count + k

(* Stands for "this word's own atom" in [word_taint] until a step reads or
   weakly updates the word, so [create] costs no set per sandbox word.
   Compared physically; it never leaves [word_taint]. *)
let own_atom = Atom_set.singleton (-1)

type t = {
  reg_taint : Atom_set.t array;
  word_taint : Atom_set.t array;
  mutable flags_taint : Atom_set.t;
  mutable relevant : Atom_set.t;
  mem_base : int;
  mem_words : int;
}

let create (mem : Memory.t) =
  let words = Memory.words mem in
  {
    reg_taint = Array.init Reg.count (fun i -> Atom_set.singleton i);
    word_taint = Array.make words own_atom;
    flags_taint = Atom_set.empty;
    relevant = Atom_set.empty;
    mem_base = Memory.base mem;
    mem_words = words;
  }

let word_taint t k =
  let s = t.word_taint.(k) in
  if s == own_atom then Atom_set.singleton (atom_of_word k) else s

let union_list sets = List.fold_left Atom_set.union Atom_set.empty sets

let reg_taints t regs = union_list (List.map (fun r -> t.reg_taint.(Reg.index r)) regs)

(* Word indices touched by an access of [width] at [addr]; empty when the
   access falls outside the sandbox. *)
let touched_words t addr width =
  let first = (addr - t.mem_base) / 8 in
  let last = (addr + Width.bytes width - 1 - t.mem_base) / 8 in
  let rec collect i acc =
    if i > last then List.rev acc
    else if i >= 0 && i < t.mem_words then collect (i + 1) (i :: acc)
    else collect (i + 1) acc
  in
  if addr < t.mem_base then [] else collect first []

let word_taints t addr width =
  union_list (List.map (word_taint t) (touched_words t addr width))

(** Propagate taint across one instruction.  [request] is the memory access
    the instruction is about to perform (resolved with pre-execution register
    values); [observe_values] marks loaded data as contract-relevant
    (ARCH-SEQ-style contracts). *)
let step t ~(inst : Inst.t) ~request ~observe_values =
  let sources = reg_taints t (Inst.source_regs inst) in
  let flag_in = if Inst.reads_flags inst then t.flags_taint else Atom_set.empty in
  let addr_taint, loaded_taint =
    match request with
    | None -> Atom_set.empty, Atom_set.empty
    | Some (addr, width, dir) ->
        let addr_regs =
          match Inst.mem_access inst with
          | Some (m, _, _) -> Operand.address_regs (Operand.Mem m)
          | None -> []
        in
        let a = reg_taints t addr_regs in
        let l =
          match dir with
          | `Load | `Rmw -> word_taints t addr width
          | `Store -> Atom_set.empty
        in
        (* the address itself is always observable (CT-SEQ observation clause) *)
        t.relevant <- Atom_set.union t.relevant a;
        if observe_values && (dir = `Load || dir = `Rmw) then
          t.relevant <- Atom_set.union t.relevant (Atom_set.union l a);
        a, l
  in
  let data_in = union_list [ sources; flag_in; loaded_taint; addr_taint ] in
  if Inst.writes_flags inst then t.flags_taint <- data_in;
  List.iter
    (fun r -> t.reg_taint.(Reg.index r) <- data_in)
    (Inst.dest_regs inst);
  (match request with
  | Some (addr, width, (`Store | `Rmw)) ->
      (* Words fully covered by the store take a strong update.  This is
         sound for boosting because the store's address atoms were just
         added to the relevant (pinned) set above, so the overwrite is
         deterministic across mutants.  Partially covered words keep the
         conservative weak update. *)
      let store_end = addr + Width.bytes width in
      List.iter
        (fun k ->
          let word_start = t.mem_base + (k * 8) in
          let fully_covered = addr <= word_start && word_start + 8 <= store_end in
          t.word_taint.(k) <-
            (if fully_covered then data_in
             else Atom_set.union (word_taint t k) data_in))
        (touched_words t addr width)
  | Some (_, _, `Load) | None -> ());
  (* control flow is part of every contract's observation clause *)
  if Inst.is_cond_branch inst then
    t.relevant <- Atom_set.union t.relevant t.flags_taint

(** Mark every register atom contract-relevant (used for contracts whose
    observation clause exposes the initial register file, e.g. ARCH-SEQ):
    boosting must then mutate only memory. *)
let mark_all_regs_relevant t =
  for i = 0 to Reg.count - 1 do
    t.relevant <- Atom_set.add i t.relevant
  done

let is_relevant_reg t r = Atom_set.mem (Reg.index r) t.relevant
let is_relevant_word t k = Atom_set.mem (atom_of_word k) t.relevant

(* Word atoms follow every register atom, so they are the tail of the
   ordered relevant set. *)
let relevant_words t =
  Atom_set.to_seq_from Reg.count t.relevant
  |> Seq.map (fun id -> id - Reg.count)
  |> List.of_seq
