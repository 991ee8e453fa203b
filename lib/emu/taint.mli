(** Input-taint tracking for Revizor-style input boosting.

    Input atoms (initial registers and 8-byte sandbox words) whose labels
    reach a contract observation are {e relevant}; randomizing the
    complement provably preserves the contract trace while changing
    speculative behaviour. *)

open Amulet_isa

type t

val create : Memory.t -> t
(** Every atom starts labelled with itself.  The cost does not grow with
    the sandbox beyond one shared array slot per word: a word's own label
    is built only when a step reads or weakly updates it. *)

val step :
  t ->
  inst:Inst.t ->
  request:(int * Width.t * [ `Load | `Store | `Rmw ]) option ->
  observe_values:bool ->
  unit
(** Propagate taint across one instruction.  [request] is the memory access
    resolved with pre-execution register values; [observe_values] marks
    loaded data relevant (value-exposing contracts).  Stores that fully
    cover a word take a strong update (sound because the store's address
    atoms are pinned as relevant). *)

val mark_all_regs_relevant : t -> unit
(** For contracts exposing the initial register file (ARCH-SEQ): boosting
    must then mutate only memory. *)

val is_relevant_reg : t -> Reg.t -> bool
val is_relevant_word : t -> int -> bool

val relevant_words : t -> int list
(** The relevant sandbox word indices, ascending: exactly the [k] for
    which [is_relevant_word t k] holds.  Its length follows the words the
    program reached, not the sandbox size. *)
