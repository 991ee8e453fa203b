(** The memory sandbox: [pages] 4 KiB pages starting at [base]
    (virtual = physical, SE-mode style).  Accesses outside the sandbox read
    zero and drop writes — they exist only for their microarchitectural
    side effects.  An optional write journal supports cheap rollback for
    speculative-path exploration. *)

open Amulet_isa

type t

val page_size : int

val create : ?base:int -> pages:int -> unit -> t
val size : t -> int
val base : t -> int
val limit : t -> int
val in_bounds : t -> int -> bool

val sandbox_mask : t -> int
(** [size - 1]: wraps arbitrary offsets into the sandbox. *)

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit

val read : t -> Width.t -> int -> int64
(** Little-endian read of [Width.bytes w] bytes. *)

val write : t -> Width.t -> int -> int64 -> unit

val read_word : t -> int -> int64
(** 8-byte-aligned word accessors (input loading, taint granularity). *)

val write_word : t -> int -> int64 -> unit
val words : t -> int

(** {1 Journaling} *)

type mark

val set_journaling : t -> bool -> unit
val mark : t -> mark

val rollback : t -> mark -> unit
(** Undo all writes made after [mark].
    @raise Invalid_argument on a stale or foreign mark — one taken before a
    {!clear_journal}, or against a different memory. *)

val clear_journal : t -> unit

(** {1 Bulk operations} *)

val load_blob : t -> Bytes.t -> unit
(** Copy a sandbox-sized blob in.  Raises [Invalid_argument] if its length
    is not the sandbox size. *)

val blit : src:t -> dst:t -> unit
(** Copy contents between same-geometry sandboxes. *)

val copy : t -> t
val equal : t -> t -> bool

val hash : t -> int64
(** FNV digest of the contents. *)
