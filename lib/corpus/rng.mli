(** Deterministic seeded PRNG (splitmix64); every random decision in AMuLeT
    flows through an instance, so campaigns replay exactly from their
    seed. *)

type t

val create : seed:int -> t
val split : t -> t
val next64 : t -> int64

val int : t -> int -> int
(** Uniform in [\[0, bound)]; [bound > 0]. *)

(** {2 Bulk byte draws}

    Stream contract: [fill_bytes] makes exactly the draws of the per-byte
    loop of [Char.chr (int t 256)], in ascending byte order.  It writes the
    same bytes and leaves [t] in the same state, so every later draw is
    unchanged too, and it allocates nothing per byte.  A masked redraw
    (input boosting's free words) is one call per free run, in ascending
    order: skipped bytes cost no draw. *)

val fill_bytes : t -> Bytes.t -> int -> int -> unit
(** [fill_bytes t b off len] sets [b.[off .. off+len-1]], one draw per
    byte.  Raises [Invalid_argument] if the range is not within [b]. *)

val bool : t -> p:float -> bool
val choose : t -> 'a list -> 'a
val weighted : t -> (int * 'a) list -> 'a
