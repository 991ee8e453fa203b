(** The memory sandbox.

    Test programs access a contiguous region of [pages] 4 KiB pages starting
    at [base] (virtual = physical, mirroring gem5's syscall-emulation mode).
    The program generator masks every address into this region; accesses that
    nevertheless fall outside (e.g. cache-priming loads issued by the
    executor) read as zero and ignore writes — they exist only for their
    microarchitectural side effects.

    An optional write journal supports cheap rollback, used by the leakage
    model when it explores mispredicted paths. *)

open Amulet_isa

let page_size = 4096

type t = {
  base : int;
  pages : int;
  data : Bytes.t;
  mutable journal : (int * char) list;  (** (absolute address, old byte) *)
  mutable journal_len : int;
  mutable journaling : bool;
}

let create ?(base = 0x1000) ~pages () =
  assert (pages >= 1);
  {
    base;
    pages;
    data = Bytes.make (pages * page_size) '\000';
    journal = [];
    journal_len = 0;
    journaling = false;
  }

let size m = m.pages * page_size
let base m = m.base
let limit m = m.base + size m

let in_bounds m addr = addr >= m.base && addr < limit m

(** Mask an arbitrary offset into the sandbox (used by the generator's
    address instrumentation: offsets are wrapped modulo the sandbox size). *)
let sandbox_mask m = size m - 1

let read_byte m addr =
  if in_bounds m addr then Char.code (Bytes.unsafe_get m.data (addr - m.base))
  else 0

let write_byte m addr v =
  if in_bounds m addr then begin
    let off = addr - m.base in
    if m.journaling then begin
      m.journal <- (addr, Bytes.unsafe_get m.data off) :: m.journal;
      m.journal_len <- m.journal_len + 1
    end;
    Bytes.unsafe_set m.data off (Char.unsafe_chr (v land 0xFF))
  end

(** Little-endian read of [Width.bytes w] bytes at [addr]. *)
let read m w addr =
  let n = Width.bytes w in
  let v = ref 0L in
  for i = n - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_byte m (addr + i)))
  done;
  !v

(** Little-endian write of the low [Width.bytes w] bytes of [v] at [addr]. *)
let write m w addr v =
  let n = Width.bytes w in
  for i = 0 to n - 1 do
    write_byte m (addr + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
  done

(** 64-bit aligned word accessors (used by input loading and taint). *)
let read_word m i = read m Width.W64 (m.base + (i * 8))
let write_word m i v = write m Width.W64 (m.base + (i * 8)) v
let words m = size m / 8

(* ------------------------------------------------------------------ *)
(* Journaling / rollback                                               *)
(* ------------------------------------------------------------------ *)

type mark = int

let set_journaling m on = m.journaling <- on
let mark m : mark = m.journal_len

(** Undo all writes made after [mark] (most recent first).  A mark deeper
    than the current journal is stale — taken before a [clear_journal], or
    against a different memory — and rolling back to it would silently
    undo nothing, so reject it loudly instead. *)
let rollback m (mk : mark) =
  if mk < 0 || mk > m.journal_len then
    invalid_arg
      (Printf.sprintf
         "Memory.rollback: stale or foreign mark %d (journal length %d)" mk
         m.journal_len);
  while m.journal_len > mk do
    match m.journal with
    | [] ->
        invalid_arg "Memory.rollback: journal shorter than its recorded length"
    | (addr, old) :: rest ->
        Bytes.unsafe_set m.data (addr - m.base) old;
        m.journal <- rest;
        m.journal_len <- m.journal_len - 1
  done

let clear_journal m =
  m.journal <- [];
  m.journal_len <- 0

(* ------------------------------------------------------------------ *)
(* Bulk operations                                                     *)
(* ------------------------------------------------------------------ *)

(** Load raw input bytes filling the whole sandbox. *)
let load_blob m blob =
  if Bytes.length blob <> size m then
    invalid_arg
      (Printf.sprintf "Memory.load_blob: %d bytes into a %d-byte sandbox"
         (Bytes.length blob) (size m));
  Bytes.blit blob 0 m.data 0 (size m)

(** Copy [src]'s contents into [dst] (same geometry required). *)
let blit ~src ~dst =
  assert (src.pages = dst.pages);
  Bytes.blit src.data 0 dst.data 0 (size src)

let copy m =
  {
    base = m.base;
    pages = m.pages;
    data = Bytes.copy m.data;
    journal = [];
    journal_len = 0;
    journaling = false;
  }

let equal a b = a.base = b.base && a.pages = b.pages && Bytes.equal a.data b.data

(** Fowler–Noll–Vo hash of the contents (used in state digests). *)
let hash m =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Bytes.length m.data - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get m.data i))))
           0x100000001b3L
  done;
  !h
