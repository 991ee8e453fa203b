(** Test-case inputs: initial register values and sandbox memory. *)

open Amulet_emu

type t = { regs : int64 array; mem : Bytes.t }

val pages : t -> int
val generate : Amulet_corpus.Rng.t -> pages:int -> t

val to_state : t -> State.t
(** Materialize architectural state; pins [R14] to the sandbox base. *)

val mutate_free : Amulet_corpus.Rng.t -> Taint.t -> t -> t
(** Boosting: randomize exactly the atoms NOT in the taint tracker's
    relevant set — same contract trace, different speculative behaviour. *)

val equal : t -> t -> bool
val hash : t -> int64
val pp : Format.formatter -> t -> unit
