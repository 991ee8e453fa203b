(** Test-case inputs: initial register values and sandbox memory contents.

    An input is "a binary file, generated with a seeded pseudo-random number
    generator, that initializes the test program's memory and registers"
    (paper §2.4).  [R14] is pinned to the sandbox base by {!to_state} and is
    not part of the random payload. *)

open Amulet_isa
open Amulet_emu
module Rng = Amulet_corpus.Rng

type t = { regs : int64 array; mem : Bytes.t }

let pages t = Bytes.length t.mem / Memory.page_size

(* Random register values are masked to the sandbox-offset range so that
   address-forming registers land inside the sandbox even before the
   generator's AND instrumentation; high bits are mixed in from a second
   draw so data values still cover the full 64-bit space occasionally. *)
let random_reg rng ~mem_bytes =
  let low = Int64.logand (Rng.next64 rng) (Int64.of_int (mem_bytes - 1)) in
  if Rng.bool rng ~p:0.25 then Int64.logor low (Int64.shift_left (Rng.next64 rng) 32)
  else low

let generate rng ~pages =
  let mem_bytes = pages * Memory.page_size in
  let regs = Array.init Reg.count (fun _ -> random_reg rng ~mem_bytes) in
  let mem = Bytes.create mem_bytes in
  Rng.fill_bytes rng mem 0 mem_bytes;
  { regs; mem }

(** Overwrite [st] with this input: registers, the pinned sandbox base,
    initial flags and the whole sandbox, in one copy. *)
let load (st : State.t) (t : t) =
  Memory.load_blob st.State.mem t.mem;
  Array.blit t.regs 0 st.State.regs 0 Reg.count;
  State.write_reg st Reg.sandbox_base (Int64.of_int (Memory.base st.State.mem));
  st.State.flags <- Flags.initial

(** Materialize architectural state for this input, pinning the sandbox base
    register. *)
let to_state (t : t) : State.t =
  let st = State.create ~pages:(pages t) () in
  load st t;
  st

(* ------------------------------------------------------------------ *)
(* Boosting: taint-directed mutation (paper §2.4 "inputs can also be
   mutated, preserving only the parts influencing the contract trace") *)
(* ------------------------------------------------------------------ *)

(** Copy [t], randomizing exactly the input atoms NOT in the taint tracker's
    relevant set.  The resulting input provably has the same contract trace
    (taint tracking is conservative) but different speculative behaviour. *)
let mutate_free rng (taint : Taint.t) (t : t) =
  let mem_bytes = Bytes.length t.mem in
  let regs = Array.copy t.regs in
  let mem = Bytes.copy t.mem in
  List.iter
    (fun r ->
      if not (Taint.is_relevant_reg taint r) && not (Reg.equal r Reg.sandbox_base)
      then regs.(Reg.index r) <- random_reg rng ~mem_bytes)
    Reg.all;
  (* redraw each run of free words between the relevant ones, ascending:
     the same draws as a per-word walk of the whole sandbox *)
  let fill_run first stop = Rng.fill_bytes rng mem (first * 8) ((stop - first) * 8) in
  let next =
    List.fold_left
      (fun first k -> fill_run first k; k + 1)
      0 (Taint.relevant_words taint)
  in
  fill_run next (mem_bytes / 8);
  { regs; mem }

let equal a b = Array.for_all2 Int64.equal a.regs b.regs && Bytes.equal a.mem b.mem

(** FNV digest of the input (test-case identification in reports). *)
let hash t =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Array.length t.regs - 1 do
    h := Int64.mul (Int64.logxor !h t.regs.(i)) prime
  done;
  for i = 0 to Bytes.length t.mem - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get t.mem i)))) prime
  done;
  !h

let pp fmt t =
  List.iter
    (fun r ->
      if not (Reg.equal r Reg.sandbox_base) then
        Format.fprintf fmt "%s=0x%Lx " (Reg.name r) t.regs.(Reg.index r))
    Reg.all;
  Format.fprintf fmt "mem#%Lx" (hash t)
