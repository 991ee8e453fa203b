(** Test-case inputs: initial register values and sandbox memory. *)

open Amulet_emu

type t = { regs : int64 array; mem : Bytes.t }

val pages : t -> int
val generate : Amulet_corpus.Rng.t -> pages:int -> t

val load : State.t -> t -> unit
(** [load st t] overwrites [st]'s registers, flags and sandbox with [t]:
    [R14] pinned to the sandbox base, flags at their initial value, the
    sandbox copied once.  Raises [Invalid_argument], before writing
    anything, if [t]'s memory is not exactly [st]'s sandbox size. *)

val to_state : t -> State.t
(** A fresh state with [t] loaded into it ({!load}). *)

val mutate_free : Amulet_corpus.Rng.t -> Taint.t -> t -> t
(** Boosting: randomize exactly the atoms NOT in the taint tracker's
    relevant set — same contract trace, different speculative behaviour.
    Free words are redrawn run by run between the relevant ones, so the
    work besides the copy follows the words the program reached. *)

val equal : t -> t -> bool
val hash : t -> int64
val pp : Format.formatter -> t -> unit
